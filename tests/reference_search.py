"""Test-only reference for the census: every y, no lemma.

row_solutions(x) scans all y <= x with numpy, keeps the pairs whose
N = x y (x^2 + y^2 - 1) is a cubic residue modulo the three filter moduli,
and confirms each survivor with an exact integer cube root; box_solutions
joins the rows of a whole box. The module knows nothing of kernels, lifted
or not, and imports nothing from cubesum, so it checks the descent's choice
of y, row by row and box by box. The residues are computed modulo each m
in int64 without overflow for any x < 3*10^9.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from functools import cache

import numpy as np

# the moduli of the search's masks; the masks themselves are rebuilt here
_MODULI = (63 * 13 * 19, 31 * 37 * 43, 61 * 67)
_MASKS = [np.isin(np.arange(m), np.arange(m, dtype=np.int64) ** 3 % m) for m in _MODULI]


def _exact_cbrt(n: int) -> int | None:
    r = round(n ** (1 / 3))
    for c in (r - 1, r, r + 1):
        if c * c * c == n:
            return c
    return None


def row_solutions(x: int, y_min: int = 2) -> list[tuple[int, int, int]]:
    """Every (x, y, z) with y_min <= y <= x and x y (x^2 + y^2 - 1) = z^3, by y.
    y_min = 1 lets the cube test find the trivial (x, 1, x) too."""
    ys = np.arange(y_min, x + 1, dtype=np.int64)
    for m, mask in zip(_MODULI, _MASKS):
        xm, ym = x % m, ys % m
        ys = ys[mask[(xm * ym % m) * ((xm * xm + ym * ym - 1) % m) % m]]
    out = []
    for y in ys.tolist():
        z = _exact_cbrt(x * y * (x * x + y * y - 1))
        if z is not None:
            out.append((x, y, z))
    return out


def _strip(args) -> list[tuple[int, int, int]]:
    lo, hi, y_min = args
    return [t for x in range(lo, hi) for t in row_solutions(x, y_min)]


@cache
def box_solutions(bound: int, include_trivial: bool = False,
                  jobs: int = 1) -> tuple[tuple[int, int, int], ...]:
    """Every (x, y, z) with 0 < y <= x <= bound and z > 0, sorted by (x, y):
    the rows 1..bound, from y = 1 with include_trivial and from y = 2
    without. jobs > 1 scans strips of rows in that many spawned processes.
    Cached, so the test modules that ask for one box share it."""
    y_min = 1 if include_trivial else 2
    if jobs <= 1:
        return tuple(_strip((1, bound + 1, y_min)))
    # spawned workers re-run __main__ from its file; with none (a script read
    # from stdin is '<stdin>') each one fails and the pool restarts them forever
    main = sys.modules["__main__"]
    path = getattr(main, "__file__", None)
    if getattr(main.__spec__, "name", None) is None and path is not None and not os.path.isfile(path):
        raise RuntimeError(f"box_solutions(jobs={jobs}) needs a __main__ that spawned workers can "
                           f"re-import, and {path!r} is no file: run it from a file or with jobs=1")
    # a row costs about x, so many narrow strips keep the workers even
    width = max(1, bound // (jobs * 64))
    strips = [(lo, min(lo + width, bound + 1), y_min) for lo in range(1, bound + 1, width)]
    with multiprocessing.get_context("spawn").Pool(jobs) as pool:
        return tuple(t for part in pool.map(_strip, strips) for t in part)
