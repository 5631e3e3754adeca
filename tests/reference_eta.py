"""Test-only reference for eta quotients: dense Euler products and powers.

eta_coefficients(factors, N) builds each prod_{m>=1} (1 - q^(d m)) from
Euler's pentagonal series, inverts it when the exponent is negative, raises it
to |e| by binary powering with O(N^2) truncated convolutions and multiplies
the powers together in the order given. The module imports nothing from
cubesum, so it checks the library's sparse Jacobi and pentagonal factors, its
sparse division and its reordering of the factors.
"""

from __future__ import annotations


def _mul_trunc(a: list[int], b: list[int], n: int) -> list[int]:
    out = [0] * (n + 1)
    for i, ai in enumerate(a):
        if ai and i <= n:
            top = min(len(b) - 1, n - i)
            for j in range(top + 1):
                if b[j]:
                    out[i + j] += ai * b[j]
    return out


def _inv_trunc(a: list[int], n: int) -> list[int]:
    if a[0] != 1:
        raise ValueError("series inversion needs unit constant term 1")
    out = [0] * (n + 1)
    out[0] = 1
    for k in range(1, n + 1):
        acc = 0
        for j in range(1, min(k, len(a) - 1) + 1):
            if a[j]:
                acc += a[j] * out[k - j]
        out[k] = -acc
    return out


def _pow_trunc(a: list[int], e: int, n: int) -> list[int]:
    out = [0] * (n + 1)
    out[0] = 1
    base = a[: n + 1] + [0] * max(0, n + 1 - len(a))
    while e:
        if e & 1:
            out = _mul_trunc(out, base, n)
        base = _mul_trunc(base, base, n)
        e >>= 1
    return out


def euler_product(scale: int, n: int) -> list[int]:
    """prod_{m>=1} (1 - q^(scale m)) up to q^n, from the pentagonal numbers."""
    out = [1] + [0] * n
    k = 1
    while scale * k * (3 * k - 1) // 2 <= n:
        for j in (scale * k * (3 * k - 1) // 2, scale * k * (3 * k + 1) // 2):
            if j <= n:
                out[j] = -1 if k % 2 else 1
        k += 1
    return out


def eta_coefficients(factors, N: int) -> list[int]:
    """a_1..a_N of prod eta(d z)^e, for factors [(d, e), ...] with 24 | sum d e."""
    lead, rest = divmod(sum(d * e for d, e in factors), 24)
    if rest:
        raise ValueError("the leading power must be an integer")
    n = N - lead
    if n < 0:
        return [0] * N
    ser = [1] + [0] * n
    for d, e in factors:
        base = euler_product(d, n)
        if e < 0:
            base = _inv_trunc(base, n)
        ser = _mul_trunc(ser, _pow_trunc(base, abs(e), n), n)
    coeffs = [0] * N
    for i, c in enumerate(ser):
        if 1 <= i + lead <= N:
            coeffs[i + lead - 1] = c
    return coeffs
