#!/usr/bin/env python3
"""Regenerate the golden JSON outputs in docs/golden/, one per subcommand.

Run from the repository root after any intentional output-schema change:
    python scripts/make_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

from cubesum.cli import main

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "docs" / "golden"


def capture(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = main(argv)
    if status != 0:
        raise SystemExit(f"{argv} exited {status}")
    return buf.getvalue()


def scrub_timings(text: str) -> str:
    doc = json.loads(text)
    for check in doc.get("checks", []):
        check["elapsed_s"] = "0.000"
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def build_all() -> dict[str, str]:
    return {
        "search.json": capture(["search", "--bound", "50", "--format", "json"]),
        "map.json": capture(["map", "--xyz", "8", "3", "12", "--format", "json"]),
        "pagliani.json": capture(["pagliani", "--u", "2", "--format", "json"]),
        "fibers.json": capture(["fibers", "--format", "json"]),
        "heights.json": capture(["heights", "--format", "json"]),
        "mw.json": capture(["mw", "--a", "2", "--b", "0", "--to-xyz", "--format", "json"]),
        "eta.json": capture(["eta", "--n", "20", "--format", "json"]),
        "ap.json": capture(["ap", "--p", "7", "--format", "json"]),
        "ap_max.json": capture(["ap", "--max", "30", "--format", "json"]),
        "count.json": capture(["count", "--p", "7", "--n", "1", "--format", "json"]),
        "verify.json": scrub_timings(
            capture(["verify", "--census-bound", "100", "--format", "json"])
        ),
    }


def main_script() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, text in build_all().items():
        (GOLDEN / name).write_text(text)
        print(f"wrote docs/golden/{name}")


if __name__ == "__main__":
    main_script()
