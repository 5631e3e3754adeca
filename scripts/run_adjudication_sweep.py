#!/usr/bin/env python3
"""Adjudication sweep: the exact surface count N(p, n) against the
Frobenius-power formula over every field of the extended sweep.

The fields are F_{p^2} for every prime 5 <= p < 1000, F_{p^3} for p <= 101 and
F_{p^4} for p <= 31, up to about 10^6 elements each. Every count comes from
cubesum.pointcount.count_surface with the budget set to q, so no field is
skipped.

    python scripts/run_adjudication_sweep.py [--out file.json]

Progress goes to stderr; a summary line goes to stdout. --out writes the counts
as JSON, one record per field, in the order above. The file holds no timings,
so a rerun reproduces it byte for byte.
"""

import argparse
import json
import sys
import time

from cubesum.arith import primes_up_to
from cubesum.pointcount import FROBENIUS_POWER, count_surface, formula_count_surface

SWEEP = ((2, 999), (3, 101), (4, 31))  # (n, largest p)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", help="also write the counts as JSON")
    args = ap.parse_args()

    t0 = time.time()
    fields = [(p, n) for n, max_p in SWEEP for p in primes_up_to(max_p) if p >= 5]
    records, mismatches = [], []
    for i, (p, n) in enumerate(fields, 1):
        count = count_surface(p, n, budget=p**n)
        if count != formula_count_surface(p, n, FROBENIUS_POWER):
            mismatches.append((p, n))
        records.append({"p": str(p), "n": str(n), "count": str(count)})
        if i % 25 == 0 or i == len(fields):
            print(f"progress {i}/{len(fields)} fields", file=sys.stderr, flush=True)
    print(f"{len(fields)} fields, {len(mismatches)} mismatches with the "
          f"{FROBENIUS_POWER} formula ({time.time() - t0:.1f} s)")
    if mismatches:
        print(f"ERROR: the count differs from the formula at {mismatches}")
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"convention": FROBENIUS_POWER, "fields": records}, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
