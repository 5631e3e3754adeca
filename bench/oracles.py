"""Computations made apart from cubesum, used to check its outputs.

Nothing here imports cubesum. Each function recomputes a fact by a different
route than the program takes: exhaustive floating-point cube detection with an
exact integer confirmation, the family's closed formula with the symmetry
group applied by hand, Cornacchia's algorithm for p = a^2 + 3b^2, and F_p point
counts through a table of squares.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

import numpy as np


# --- census -------------------------------------------------------------------


def on_surface(x: int, y: int, z: int) -> bool:
    return x * y * (x * x + y * y - 1) == z**3


def exhaustive_solutions(bound: int) -> set[tuple[int, int, int]]:
    """Every (x, y, z) with 1 < y <= x <= bound and x*y*(x^2+y^2-1) = z^3.

    y = 1 is the trivial family (x, 1, x) and is left out, as the census does.
    N is exact in int64 while 2*bound^4 < 2^62. Its float64 cube root is off by
    less than 1e-9, so rounding it gives the exact root of every cube, and the
    int64 test r^3 = N confirms it.
    """
    if 2 * bound**4 >= 2**62:
        raise ValueError("bound too large for the int64 cube oracle")
    out = set()
    for x in range(2, bound + 1):
        y = np.arange(2, x + 1, dtype=np.int64)
        n = x * y * (x * x + y * y - 1)
        r = np.rint(np.cbrt(n.astype(np.float64))).astype(np.int64)
        for j in np.nonzero(r * r * r == n)[0].tolist():
            out.add((x, int(y[j]), int(r[j])))
    return out


def _symmetry_images(t: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    """The orbit under (x,y,z) -> (-x,y,-z), (x,-y,-z), (y,x,z): 8 elements."""
    x, y, z = t
    out = []
    for sx in (1, -1):
        for sy in (1, -1):
            a, b, c = sx * x, sy * y, sx * sy * z
            out += [(a, b, c), (b, a, c)]
    return out


def family_member(u: int) -> tuple[int, int, int]:
    """(x, y, z) = (k, 2m + k - 1, 2l) for m = (u-1)(u^3-2u^2-4u-4)/6, k = u^3,
    l = u(u^2-1)(u^2+2)/6."""
    m6 = (u - 1) * (u**3 - 2 * u**2 - 4 * u - 4)
    l6 = u * (u**2 - 1) * (u**2 + 2)
    if m6 % 6 or l6 % 6:
        raise ValueError(f"family member u={u} is not integral")
    k = u**3
    return (k, 2 * (m6 // 6) + k - 1, 2 * (l6 // 6))


def family_in_box(bound: int) -> dict[tuple[int, int, int], int]:
    """Orbit representatives with 0 < y <= x <= bound, z > 0 of every family
    member, mapped to |u|."""
    out = {}
    u_max = isqrt(isqrt(6 * bound)) + 2  # |y| grows like u^4 / 3
    for u in range(-u_max, u_max + 1):
        if u % 3 == 0 or abs(u) < 2:
            continue
        member = family_member(u)
        if not on_surface(*member):
            raise ValueError(f"family member u={u} is not on the surface")
        for a, b, c in _symmetry_images(member):
            if 0 < b <= a <= bound and c > 0:
                out.setdefault((a, b, c), abs(u))
    return out


# --- Eisenstein primes and the cusp form's prime coefficients -------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):  # deterministic below 3.3e24
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_sieve(n: int) -> list[int]:
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for q in range(2, isqrt(n) + 1):
        if flags[q]:
            flags[q * q :: q] = False
    return np.nonzero(flags)[0].tolist()


def sqrt_mod(a: int, p: int) -> int:
    """A square root of a modulo an odd prime p (Tonelli-Shanks)."""
    a %= p
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a square mod {p}")
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def represent_a2_3b2(p: int) -> tuple[int, int]:
    """(a, b) >= 0 with p = a^2 + 3b^2, for a prime p = 1 mod 3 (Cornacchia)."""
    if p % 3 != 1 or not is_prime(p):
        raise ValueError(f"{p} is not a prime congruent to 1 mod 3")
    r = sqrt_mod(-3, p)
    if 2 * r < p:
        r = p - r
    a, b, limit = p, r, isqrt(p)
    while b > limit:
        a, b = b, a % b
    rest = p - b * b
    c = isqrt(rest // 3)
    if rest % 3 or 3 * c * c != rest:
        raise ValueError(f"Cornacchia found no representation of {p}")
    return b, c


def ap_from_representation(p: int) -> int:
    """a_p of the weight-3 CM form: 0 for p = 2 mod 3, else (-4/p) * 2(a^2 - 3b^2)
    for p = a^2 + 3b^2 (the trace of the square of a + b*sqrt(-3))."""
    if p % 3 == 2:
        return 0
    a, b = represent_a2_3b2(p)
    sign = 1 if p % 4 == 1 else -1
    return sign * 2 * (a * a - 3 * b * b)


def chi_m3(p: int) -> int:
    """(-3/p) for a prime p >= 5."""
    return 1 if p % 3 == 1 else -1


def frobenius_power_trace(p: int, n: int) -> int:
    """alpha^n + beta^n for the Frobenius pair with alpha + beta = a_p and
    alpha * beta = (-3/p) p^2."""
    ap, eps = ap_from_representation(p), chi_m3(p)
    prev, cur = 2, ap
    for _ in range(n - 1):
        prev, cur = cur, ap * cur - eps * p * p * prev
    return cur


def surface_count_formula(p: int, n: int) -> int:
    """p^2n + p^n + (-3/p)^n p^n + a_{p^n} with the Frobenius-power a_{p^n}."""
    q = p**n
    return q * q + q + chi_m3(p) ** n * q + frobenius_power_trace(p, n)


def surface_count_fp(p: int) -> int:
    """#{(t, x, y) in F_p^3 : y^2 = x^3 - t^4 (t^2 - 1)^3}, by a table of squares."""
    ys = np.arange(p, dtype=np.int64)
    squares = np.bincount(ys * ys % p, minlength=p)
    cubes = ys * ys % p * ys % p
    total = 0
    for t in range(p):
        c = pow(t, 4, p) * pow(t * t - 1, 3, p) % p
        total += int(squares[(cubes - c) % p].sum())
    return total


def ap_from_fp_count(p: int) -> int:
    """a_p read off the F_p count: N(p) - p^2 - p - (-3/p) p."""
    return surface_count_fp(p) - p * p - p - chi_m3(p) * p


def hecke_relations_hold(coeffs: list[int], primes: list[int]) -> list[str]:
    """Where a_1..a_N (coeffs[0] = a_1) break a_1 = 1, multiplicativity on
    coprime parts, or a_{p^(k+1)} = a_p a_{p^k} - (-3/p) p^2 a_{p^(k-1)} for p >= 5."""
    n_max = len(coeffs)
    a = [0] + list(coeffs)
    bad = []
    if a[1] != 1:
        bad.append(f"a_1 = {a[1]}")
    spf = list(range(n_max + 1))
    for q in primes:
        if q * q > n_max:
            break
        for m in range(q * q, n_max + 1, q):
            if spf[m] == m:
                spf[m] = q
    for m in range(2, n_max + 1):
        q = spf[m]
        pk, rest = 1, m
        while rest % q == 0:
            pk *= q
            rest //= q
        if rest > 1:
            if a[m] != a[pk] * a[rest]:
                bad.append(f"a_{m} != a_{pk} * a_{rest}")
        elif pk != q and q >= 5:
            prev = pk // q
            if a[m] != a[q] * a[prev] - chi_m3(q) * q * q * a[prev // q]:
                bad.append(f"a_{m} breaks the p-power recurrence")
        if len(bad) > 5:
            break
    return bad


# --- Mordell-Weil heights -------------------------------------------------------

GRAM_MW = ((Fraction(2, 3), Fraction(-1, 3)), (Fraction(-1, 3), Fraction(2, 3)))
DET_NS = -48


def grid_height(a: int, b: int) -> Fraction:
    """<P, P> for P = a*sigma1 + b*[w]sigma1 under the Gram matrix above:
    (2/3)(a^2 - ab + b^2)."""
    return Fraction(2, 3) * (a * a - a * b + b * b)
