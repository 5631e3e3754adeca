"""Integer utilities: exact cube roots, Legendre symbols, primality, and the
package's one sieve, smallest_prime_factors."""

from __future__ import annotations

from math import isqrt

# Deterministic Miller-Rabin witness set, valid for all n < 3,317,044,064,679,887,385,961,981.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with fixed witness set)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smallest_prime_factors(n: int):
    """spf[m] is the smallest prime factor of m <= n, and spf[0] = spf[1] = 0.

    An int32 numpy array; numpy is imported here, so importing cubesum does not load it.
    """
    import numpy as np

    spf = np.zeros(n + 1, dtype=np.int32)
    for p in range(2, isqrt(n) + 1):
        if spf[p] == 0:
            row = spf[p * p :: p]
            row[row == 0] = p
    primes = np.nonzero(spf == 0)[0][2:]
    spf[primes] = primes
    return spf


def primes_up_to(n: int) -> list[int]:
    """All primes <= n: the m >= 2 with spf[m] == m."""
    if n < 2:
        return []
    spf = smallest_prime_factors(n).tolist()
    return [m for m in range(2, n + 1) if spf[m] == m]


def icbrt(n: int) -> tuple[int, bool]:
    """Floor integer cube root of n >= 0, plus an exactness flag.

    Returns (r, exact) with r = floor(n^(1/3)) and exact True iff r**3 == n.
    """
    if n < 0:
        raise ValueError("icbrt requires n >= 0")
    if n == 0:
        return 0, True
    # Newton iteration on integers, seeded above the root.
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            break
        x = y
    while x * x * x > n:
        x -= 1
    while (x + 1) ** 3 <= n:
        x += 1
    return x, x * x * x == n


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, via Euler's criterion."""
    if p <= 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def cube_sum_range(m: int, k: int) -> int:
    """Sum of k consecutive cubes starting at m, telescoped.

    Uses T(n) = (n(n+1)/2)^2, so the value is T(m+k-1) - T(m-1). For k >= 1 this
    is literally m^3 + ... + (m+k-1)^3; the telescoped form stays meaningful for
    k < 0 (negated sum over the complementary range), which the parametric
    solution family uses.
    """

    def tri_sq(n: int) -> int:
        # n(n+1) is always even
        return (n * (n + 1) // 2) ** 2

    return tri_sq(m + k - 1) - tri_sq(m - 1)
