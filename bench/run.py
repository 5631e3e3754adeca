"""cubesum benchmark: one workload, end-to-end or per-layer metrics as JSON.

    python3 bench/run.py --workload census|fields|modular|verify \\
        --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its src/
directory, so nothing needs installing. Each run starts fresh worker processes
(bench/worker.py): SETUP_SAMPLES - 1 that only set up, to time set-up, and one
that sets up, runs whole passes of the workload for about S seconds, then
checks every output against bench/oracles.py. The last line printed is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with wall_s, cpu_s, peak_rss_mb and setup_s under --trace 0, and the per-layer
metrics under --trace 1. On the interpreted workloads the times are scaled to
the nominal host speed of bench/hostspeed.py. A summary of the run, and under --trace 1 its spans,
are written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("census", "fields", "modular", "verify")
SETUP_SAMPLES = 7
DEADLINE_S = 170  # the whole run, children included, ends within this


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _spawn(cmd: list[str], started_run: float) -> tuple[float, dict]:
    """Run one worker to completion; (clock before start, its JSON result)."""
    # a fixed hash seed gives strings (multipoly variable names) the same hashes
    # in every process, so set orders and hash-table layouts do not vary by run
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = _clock()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=max(1.0, DEADLINE_S - (t0 - started_run)))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, required=True, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "cubesum" / "__init__.py").is_file():
        print(f"bench: no cubesum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = _clock()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            t0, res = _spawn(cmd + ["--setup-only"], started)
            setups.append(res["setup_end"] - t0)
        t0, res = _spawn(cmd + ["--spans-file", str(out_dir / f"{stem}.spans.json")], started)
        setups.append(res["setup_end"] - t0)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"bench: {args.workload} run failed: {exc}", file=sys.stderr)
        return 1

    passes = res["passes"]
    if args.trace:
        metrics = {name: {"value": statistics.median(p["layers"][name] for p in passes),
                          "unit": unit} for name, unit in res["layer_units"].items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(p["wall_s"] for p in passes), "unit": "s"},
            "cpu_s": {"value": statistics.median(p["cpu_s"] for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    summary = {"correct": res["correct"], "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}
    (out_dir / f"{stem}.json").write_text(json.dumps(
        {**summary, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "inputs": res["inputs"], "setup_samples_s": setups, "passes": passes}, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
