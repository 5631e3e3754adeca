"""Pure-Python lattice sum: the reference for cubesum.modular.lattice_sum_variant.

An Eisenstein integer x + yw is the integer pair (x, y), multiplied with
w^2 = -1 - w, and the character at 2 is a table lookup on (a mod 2, b mod 2).
The sum visits the (m, n) box one point at a time and keeps one pair per
power of q. Nothing here comes from cubesum, so a fault in the numpy kernel
cannot reach it.
"""

from __future__ import annotations

from math import isqrt


def mul(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """(a + bw)(c + dw) = (ac - bd) + (ad + bc - bd)w."""
    (a, b), (c, d) = u, v
    return a * c - b * d, a * d + b * c - b * d


def _zeta6_powers() -> tuple[tuple[int, int], ...]:
    powers = [(1, 0)]
    for _ in range(5):
        powers.append(mul(powers[-1], (1, 1)))  # zeta6 = 1 + w
    return tuple(powers)


ZETA6_POWERS = _zeta6_powers()

# chi2+ of a + bw as the exponent of zeta6: a + bw = 1, w or w^2 mod 2
_CHI2_PLUS = {(1, 0): 0, (0, 1): 2, (1, 1): 4}


def chi2(a: int, b: int, variant: str) -> int:
    """The exponent of zeta6 in chi2(a + bw); the minus variant multiplies by
    (-1)^((norm - 1)/2)."""
    plus = _CHI2_PLUS[(a % 2, b % 2)]
    if variant == "plus":
        return plus
    return (plus + 3) % 6 if (a * a - a * b + b * b) % 4 == 3 else plus


def lattice_sum(N: int, argument_order: str, units=ZETA6_POWERS) -> tuple[int, ...]:
    """a_1..a_N of (1/6) sum (m+nw)^2 chi2(arg)^(-1) q^(m^2-mn+n^2) over
    (m, n) != (0, 0) mod 2, arg = m+nw ("mn") or n+mw ("nm"), with zeta6^k
    taken from units[k]. A coefficient that is not a rational integer raises
    ValueError with the package's message, for the first such q."""
    sums = [(0, 0)] * (N + 1)
    bound = isqrt(4 * N // 3) + 2
    for m in range(-bound, bound + 1):
        for n in range(-bound, bound + 1):
            q = m * m - m * n + n * n
            if (m % 2 == 0 and n % 2 == 0) or q > N:
                continue
            a, b = (m, n) if argument_order == "mn" else (n, m)
            chi = chi2(a, b, "plus") + chi2(a, b, "minus")
            x, y = mul(mul((m, n), (m, n)), units[-chi % 6])
            sums[q] = (sums[q][0] + x, sums[q][1] + y)
    coeffs = []
    for q in range(1, N + 1):
        a, b = sums[q]
        if b != 0 or a % 6:
            raise ValueError(f"coefficient of q^{q} is ({a}{b:+d}w)/6, not a rational integer "
                             f"(argument order {argument_order!r})")
        coeffs.append(a // 6)
    return tuple(coeffs)
