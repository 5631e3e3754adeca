"""Test-only references for the census, importing nothing from cubesum.

row_solutions(x) scans all y <= x with numpy, keeps the pairs whose
N = x y (x^2 + y^2 - 1) is a cubic residue modulo the three filter moduli,
and confirms each survivor with an exact integer cube root; box_solutions
joins the rows of a whole box. They know nothing of kernels, lifted or not,
so they check the descent's choice of y, row by row and box by box. The
residues are computed modulo each m in int64 without overflow for any
x < 3*10^9.

walk_solutions(bound) reaches past the box scan's 10^5: it tests only the y
of the lemma's classes (docs/extended_census.md), y = 0, +-1 modulo p^2 for
each p with v_p(x) = 1 (mod 3) and modulo p for each p >= 5 with
v_p(x) = 2 (mod 3), joined by CRT from its own smallest-prime-factor sieve.
It shares with the descent only that lemma: no mirror index, no residue
masks, no integer cube root; each y is tested by a float64 cube root checked
mod 2^64, and each hit again in Python integers.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from functools import cache
from math import isqrt

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


def _pool(jobs: int, initializer=None, initargs=()):
    """A pool of jobs spawned processes, after checking that they can start."""
    # spawned workers re-run __main__ from its file; with none (a script read
    # from stdin is '<stdin>') each one fails and the pool restarts them forever
    main = sys.modules["__main__"]
    path = getattr(main, "__file__", None)
    if getattr(main.__spec__, "name", None) is None and path is not None and not os.path.isfile(path):
        raise RuntimeError(f"a pool of {jobs} workers needs a __main__ that spawned workers can "
                           f"re-import, and {path!r} is no file: run it from a file or with jobs=1")
    return multiprocessing.get_context("spawn").Pool(jobs, initializer, initargs)


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
    # a row costs about x, so many narrow strips keep the workers even
    width = max(1, bound // (jobs * 64))
    strips = [(lo, min(lo + width, bound + 1), y_min) for lo in range(1, bound + 1, width)]
    with _pool(jobs) as pool:
        return tuple(t for part in pool.map(_strip, strips) for t in part)


# --- the lemma's classes ----------------------------------------------------

# For y <= x, N = x y (x^2 + y^2 - 1) < 2 x^4. With x <= WALK_MAX the float64
# cube root of N is within 1e-5 of the real one c < cbrt(2 WALK_MAX^4) =
# 3.47e9, so its rounding r has |r - c| < 0.51 and
# |r^3 - N| < 0.51 * 3 (c + 1)^2 < 1.84e19 < 2^64: r^3 = N mod 2^64 is r^3 = N
WALK_MAX = 12 * 10**6
# the pairs tested at once: a few MB in each temporary
_BATCH = 1 << 18


def _spf(n: int) -> np.ndarray:
    """The smallest prime factor of each m <= n as int32, 0 at 0 and 1."""
    spf = np.zeros(n + 1, dtype=np.int32)
    for p in range(2, isqrt(n) + 1):
        if spf[p] == 0:
            multiples = spf[p * p :: p]
            multiples[multiples == 0] = p
    primes = np.flatnonzero(spf == 0)[2:]
    spf[primes] = primes
    return spf


def _row_walks(x: int, spf: np.ndarray) -> list[tuple[int, int, int]]:
    """(start, step, count) of each class of the lemma in row x that holds a
    y in [2, x]: start is its least such y, count the number of them."""
    moduli, m = [], x
    while m > 1:
        p, e = spf.item(m), 0
        while m % p == 0:
            m //= p
            e += 1
        if e % 3 == 1:
            moduli.append(p * p)
        elif e % 3 == 2 and p >= 5:
            moduli.append(p)
    # joining c mod Q with a class mod q gives c + tQ, never less than c, so a
    # class whose least member is above x is dropped as soon as it appears
    classes, Q = [0], 1
    for q in moduli:
        inv = pow(Q, -1, q)
        classes = [e for c in classes for d in (0, 1, q - 1) if (e := c + Q * ((d - c) * inv % q)) <= x]
        Q *= q
    walks = []
    for c in classes:
        start = c if c >= 2 else c + Q * -(-(2 - c) // Q)
        if start <= x:
            walks.append((start, Q, (x - start) // Q + 1))
    return walks


def _walk_cubes(walks: list[tuple[int, int, int, int]]) -> list[tuple[int, int, int]]:
    """The (x, y, z) with x y (x^2 + y^2 - 1) = z^3 among the y = start +
    j*step, 0 <= j < count, of each walk (x, start, step, count)."""
    x, start, step, count = (np.array(c, dtype=np.int64) for c in zip(*walks))
    w = np.repeat(np.arange(count.size), count)
    j = np.arange(w.size) - np.repeat(np.cumsum(count) - count, count)
    X, Y = x[w], start[w] + j * step[w]
    f, g = X.astype(np.float64), Y.astype(np.float64)
    r = np.rint(np.cbrt(f * g * (f * f + g * g - 1))).astype(np.uint64)
    u, v = X.astype(np.uint64), Y.astype(np.uint64)
    out = []
    for i in np.flatnonzero(r * r * r == u * v * (u * u + v * v - 1)).tolist():
        a, b, z = X.item(i), Y.item(i), r.item(i)
        if a * b * (a * a + b * b - 1) != z**3:
            raise RuntimeError(f"({a}, {b}, {z}) is a cube only mod 2^64: x is past the exactness bound")
        out.append((a, b, z))
    return out


def _walk_rows(lo: int, hi: int, spf: np.ndarray) -> list[tuple[int, int, int]]:
    """The solutions with y >= 2 of the rows lo <= x < hi, in batches of
    about _BATCH pairs; walks longer than a batch are cut into pieces."""
    out, walks, size = [], [], 0
    for x in range(lo, hi):
        for start, step, count in _row_walks(x, spf):
            for k in range(0, count, _BATCH):
                walks.append((x, start + k * step, step, min(_BATCH, count - k)))
                size += walks[-1][3]
                if size >= _BATCH:
                    out += _walk_cubes(walks)
                    walks, size = [], 0
    if walks:
        out += _walk_cubes(walks)
    return out


# set only inside pool workers, by _init_walker: each worker sieves once
_worker_spf: np.ndarray | None = None


def _init_walker(bound: int) -> None:
    global _worker_spf
    _worker_spf = _spf(bound)


def _walk_strip(args) -> list[tuple[int, int, int]]:
    return _walk_rows(*args, _worker_spf)


def walk_solutions(bound: int, jobs: int = 1) -> tuple[tuple[int, int, int], ...]:
    """Every (x, y, z) with 1 < y <= x <= bound and z > 0, sorted by (x, y),
    from the y of the lemma's classes. The mod-2^64 cube test is exact only
    for x <= WALK_MAX (about 1.2*10^7), so a larger bound raises ValueError.
    jobs > 1 tests strips of rows in that many spawned processes."""
    if not 1 <= bound <= WALK_MAX:
        raise ValueError(f"bound must be from 1 to {WALK_MAX}, not {bound}")
    if jobs <= 1:
        return tuple(sorted(_walk_rows(1, bound + 1, _spf(bound))))
    # the rows near the bound hold the most classes, so they go first
    width = max(1, bound // (jobs * 32))
    strips = [(lo, min(lo + width, bound + 1)) for lo in reversed(range(1, bound + 1, width))]
    with _pool(jobs, _init_walker, (bound,)) as pool:
        return tuple(sorted(t for part in pool.imap_unordered(_walk_strip, strips) for t in part))
