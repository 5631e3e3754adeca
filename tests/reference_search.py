"""Test-only reference for one row of the census: every y, no lemma.

row_solutions(x) scans all 2 <= y <= x with numpy, keeps the pairs whose
N = x y (x^2 + y^2 - 1) is a cubic residue modulo the three filter moduli,
and confirms each survivor with an exact integer cube root. It knows nothing
of kernels, lifted or not, so it checks the descent's choice of y, row by
row, at bounds where the pure box scan is out of reach. The residues are
computed modulo each m in int64 without overflow for any x < 3*10^9.
"""

from __future__ import annotations

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


def row_solutions(x: int) -> list[tuple[int, int, int]]:
    """Every (x, y, z) with 2 <= y <= x and x y (x^2 + y^2 - 1) = z^3, by y."""
    ys = np.arange(2, x + 1, dtype=np.int64)
    for m, mask in zip(_MODULI, _MASKS):
        xm, ym = x % m, ys % m
        ys = ys[mask[(xm * ym % m) * ((xm * xm + ym * ym - 1) % m) % m]]
    out = []
    for y in ys.tolist():
        z = _exact_cbrt(x * y * (x * x + y * y - 1))
        if z is not None:
            out.append((x, y, z))
    return out
