"""Test-only a_p oracle from the curve E: y^2 = x^3 + 1, importing nothing from cubesum.

#E(F_p) is counted naively in numpy: for every x in F_p, the number of y
with y^2 = x^3 + 1, read off a table of how many square roots each residue
has, plus the point at infinity. For a split prime p (p = 1 mod 3) the
weight-3 cusp form's a_p should then be (-1/p)(a_E^2 - 2p), with
a_E = p + 1 - #E(F_p). That identity is checked in tests/test_modular.py, at
every split p < 10^4 against cubesum.modular.hecke_expand; it is not proved
here. The count is O(p) time and memory per prime, so it suits small p only.
"""

from __future__ import annotations

import numpy as np


def curve_order(p: int) -> int:
    """#E(F_p) for E: y^2 = x^3 + 1 and an odd prime p, infinity included."""
    r = np.arange(p, dtype=np.int64)
    roots = np.bincount(r * r % p, minlength=p)
    return 1 + int(roots[(r * r % p * r + 1) % p].sum())


def ap_from_curve(p: int) -> int:
    """(-1/p)(a_E^2 - 2p), with a_E = p + 1 - #E(F_p), for an odd prime p."""
    a_e = p + 1 - curve_order(p)
    return (1 if p % 4 == 1 else -1) * (a_e * a_e - 2 * p)
