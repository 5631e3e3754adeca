#!/usr/bin/env python3
"""Extended census: all nontrivial solutions with 0 < y <= x <= 10^6.

The descent search (cubesum.diophantine.search) tests, for
each x row, the smaller of two candidate sets: the y in the CRT classes of
the lifted kernel of x (4 and 9 included), walked in one numpy walk per strip
of rows, or the y whose cube-free kernel divides x(x^2 - 1). With --jobs 2
on a 2-core host running at half to four fifths of its quiet speed it took
0.9-1.0 s at 10^6 and 9-10 s at 10^7 (docs/extended_census.md); it scales
with --jobs.
The reproduction targets are 32 nontrivial solutions of which 15 lie in the one-parameter
polynomial family. The trivial family (x, 1, x) alone would
contribute 10^6 triples, so it cannot have been counted; this script always
excludes it and reports both the nontrivial census and the family split.

    python scripts/run_extended_census.py [--bound 1000000] [--jobs N] [--out file.json]

--bound runs from 1 to 2^31 - 2 and --jobs from 1 to 64 (default: the core
count, at most 64), the ranges of `cubesum search`; a value outside them exits
2 before any table is built. Progress goes to stderr; the result table goes
to stdout (and --out as JSON).
"""

import argparse
import json
import multiprocessing
import resource
import sys
import time

from cubesum.cli import BOUND, JOBS, MAX_JOBS
from cubesum.diophantine import family_in_box, in_pagliani_family, search


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--bound", type=BOUND, default=10**6)
    ap.add_argument("--jobs", type=JOBS, default=min(multiprocessing.cpu_count(), MAX_JOBS))
    ap.add_argument("--out", help="also write the census as JSON")
    args = ap.parse_args(argv)

    t0 = time.time()

    def progress(done, total):
        if done % 8 == 0 or done == total:
            rate = (time.time() - t0) / done
            eta = rate * (total - done)
            print(f"progress {done}/{total} strips, eta {eta:.1f} s",
                  file=sys.stderr, flush=True)

    sols = search(args.bound, include_trivial=False, jobs=args.jobs, progress=progress)
    elapsed = time.time() - t0
    # ru_maxrss is in KiB on Linux; the larger of this process and its largest worker
    peak_kib = max(resource.getrusage(who).ru_maxrss
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))

    records = []
    family = 0
    for s in sols:
        u = in_pagliani_family(s)
        if u is not None:
            family += 1
        records.append({"x": s.x, "y": s.y, "z": s.z, "pagliani_u": u})
    # the solutions with an integral (m, k, l): x and y of opposite parity
    opposite = sum((s.x + s.y) % 2 for s in sols)

    print(f"bound {args.bound}: {len(sols)} nontrivial solutions, "
          f"{family} in the polynomial family, {opposite} with x and y of opposite parity "
          f"({elapsed:.1f} s, jobs {args.jobs}, peak RSS {peak_kib / 1024:.1f} MB)")
    print(f"reproduction targets at bound 10^6: 32 solutions, 15 in the family")
    if args.bound == 10**6 and (len(sols), family) != (32, 15):
        print("NOTE: totals differ from the published census, which does not state "
              "its box or convention; 32 and 15 are the opposite-parity solutions with "
              "x <= 10^5 and their family members (see docs/extended_census.md).")
    print(f"{'x':>8} {'y':>8} {'z':>10}  u")
    for r in records:
        print(f"{r['x']:>8} {r['y']:>8} {r['z']:>10}  {r['pagliani_u'] or ''}")

    # every family member that fits the box must have been found
    found = {s.as_tuple() for s in sols}
    missing = [(u, member) for member, u in family_in_box(args.bound).items() if member not in found]
    if missing:
        print(f"ERROR: family members missing from the census: {missing}")
        return 1

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(
                {
                    "bound": args.bound,
                    "nontrivial_count": len(sols),
                    "family_count": family,
                    "opposite_parity_count": opposite,
                    "elapsed_s": round(elapsed, 1),
                    "jobs": args.jobs,
                    "peak_rss_mb": round(peak_kib / 1024, 1),
                    "solutions": [
                        {k: (str(v) if isinstance(v, int) else v) for k, v in r.items()}
                        for r in records
                    ],
                },
                fh,
                indent=2,
            )
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
