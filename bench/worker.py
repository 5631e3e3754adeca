"""One fresh process running one workload: set-up, timed passes, then checks.

run.py starts it; it prints one JSON object as its last line of output.
Set-up is the interpreter start, the imports (cubesum, numpy, the import-time
residue masks), input generation and a warm-up. With --setup-only the process
stops there and reports when set-up ended on the system-wide monotonic clock,
which run.py also reads before starting it.

On an interpreted workload every time a pass reports is scaled to the nominal
host speed of hostspeed.py, operation by operation; the measured times are
reported beside them.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-file", type=Path)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from hostspeed import REF_S
    from spans import NullTracer, Tracer

    w = workloads.WORKLOADS[args.workload]
    inputs = w.inputs(args.seed)
    w.warm_up(inputs)
    setup_end = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        for module, attr, name, work in workloads.PATCHES:
            tracer.patch(module, attr, name, work)
    results, passes, walls = [], [], []
    # whole passes until the next one would end past --seconds, at least MIN_PASSES
    while len(walls) < MIN_PASSES or sum(walls) + statistics.median(walls) <= args.seconds:
        mark = len(tracer.spans)
        w0 = time.perf_counter()
        res = w.run_pass(inputs, tracer)
        walls.append(time.perf_counter() - w0)  # calibration included: it paces the run
        ops = res.op_times.values()
        wall, cpu = sum(t[0] for t in ops), sum(t[1] for t in ops)
        scaled_wall, scaled_cpu = wall, cpu
        if w.interpreted:
            scaled_wall = sum(t[0] * REF_S / t[2] for t in ops)
            scaled_cpu = sum(t[1] * REF_S / t[3] for t in ops)
        layers = {}
        if args.trace:
            scale = scaled_wall / wall  # the pass's mean host-speed scale
            per_unit = {"s": scale, "1/s": 1 / scale}
            layers = {name: value * per_unit.get(workloads.LAYER_UNITS[name], 1)
                      for name, value in
                      workloads.layer_metrics(tracer.totals(mark), res.timings).items()}
        passes.append({"wall_s": scaled_wall, "cpu_s": scaled_cpu, "measured_wall_s": wall,
                       "measured_cpu_s": cpu, "ops": res.op_times, "layers": layers})
        results.append(res)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracer.unpatch()

    # checks run after the timed passes and outside set-up; a failed operation
    # is counted in "failed" and leaves "correct" to the operations that ran
    for r in results:
        for line in r.errors:
            print(f"failed: {line}", file=sys.stderr)
    first = results[0].outputs
    problems = w.check(inputs, first)
    if any(r.outputs != first for r in results[1:]):
        problems.append(f"{args.workload}: passes of one run returned different outputs")
    for line in problems:
        print(f"check: {line}", file=sys.stderr)

    if args.spans_file is not None and args.trace:
        args.spans_file.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "work"],
                                               "spans": tracer.spans}))
    print(json.dumps({
        "setup_end": setup_end,
        "inputs": {k: (v if isinstance(v, (int, str)) else repr(v)) for k, v in inputs.items()},
        "passes": passes,
        "layer_units": workloads.LAYER_UNITS,
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "correct": not problems,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
