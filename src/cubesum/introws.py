"""Integer rows: the arithmetic under the fraction-free polynomials.Poly.

A polynomial over Q is one row of integers, its coefficients lowest degree
first. Over a number field of degree d it is d rows of one length, row k
holding the coordinate of gen^k in every coefficient, so the polynomial is
sum_k gen^k row_k(t). These functions take and return such lists of rows and
run on plain ints. A product is reduced by the defining polynomial
gen^d + tail with the rule of rings.polymulmod. The common denominator and the
scalar field are Poly's to keep.
"""

from __future__ import annotations

from math import gcd

Rows = list[list[int]]


def normalise(rows: Rows, den: int) -> tuple[Rows, int]:
    """rows / den with the zero columns at the top dropped, den positive and
    gcd(den, every entry) divided out."""
    if rows[0] and not any([r[-1] for r in rows]):
        n = len(rows[0]) - 1
        while n and not any([r[n - 1] for r in rows]):
            n -= 1
        rows = [r[:n] for r in rows]
    if den != 1:
        if den < 0:
            rows, den = [[-c for c in r] for r in rows], -den
        g = den
        for r in rows:
            g = gcd(g, *r)
        if g != 1:
            rows, den = [[c // g for c in r] for r in rows], den // g
    return rows, den


def mulmod(a: Rows, b: Rows, tail: tuple[int, ...]) -> Rows:
    """The rows of a times b, where b may have fewer rows (a scalar has one
    entry per row). Row k of a times row l of b adds to gen^(k+l); each gen^k
    with k >= d is then replaced, from the top down, by -gen^(k-d) times tail."""
    if not a[0] or not b[0]:
        return [[] for _ in a]
    d, n = len(a), len(a[0]) + len(b[0]) - 1
    out = [[0] * n for _ in range(d + len(b) - 1)]
    for k, x in enumerate(a):
        for l, y in enumerate(b):
            if any(x) and any(y):
                row = out[k + l]
                for i, c in enumerate(x):
                    if c:
                        for j, e in enumerate(y, i):
                            row[j] += c * e
    for k in range(len(out) - 1, d - 1, -1):
        for i, t in enumerate(tail):
            if t:
                out[k - d + i] = [u - t * v for u, v in zip(out[k - d + i], out[k])]
    return out[:d]


def pdiv(a: Rows, b: Rows, n: int, tail: tuple[int, ...]) -> tuple[Rows, Rows, int]:
    """(q, r, s) with s a = q b + r and deg r < deg b, for b with the leading
    column (n, 0, ..., 0) and s a power of n. Each step takes the quotient
    coefficient c / n if n divides c, and else first scales r and q by n."""
    m, dq = len(b[0]) - 1, len(a[0]) - len(b[0])
    shifts = [b]  # gen^k b, so that c b = sum c_k gen^k b
    for _ in a[1:]:
        top, low = shifts[-1][-1], [[0] * (m + 1)] + shifts[-1][:-1]
        shifts.append([[u - t * v for u, v in zip(row, top)] for row, t in zip(low, tail)])
    r, q, s = [list(row) for row in a], [[0] * (dq + 1) for _ in a], 1
    for j in range(dq, -1, -1):
        c = [row[j + m] for row in r]
        if not any(c):
            continue
        if n != 1:
            if any([x % n for x in c]):
                r, q, s = [[n * x for x in row] for row in r], [[n * x for x in row] for row in q], s * n
            else:
                c = [x // n for x in c]
        for row, x in zip(q, c):
            row[j] = x
        # r -= c gen^0 b + ... on entries j .. j+m-1; entry j + m is now 0 and never read
        for x, u in zip(c, shifts):
            for row, v in zip(r, u if x else ()):
                row[j : j + m] = [y - x * z for y, z in zip(row[j : j + m], v)]
    return q, [row[:m] for row in r], s


def horner(rows: Rows, x) -> Rows:
    """Horner's rule at the rational x = p/q on each row a_0..a_(n-1), in
    integers: the sums B_(n-1) = a_(n-1), B_i = a_i q^(n-1-i) + p B_(i+1), from
    the top down. B_0 is q^(n-1) row(x); where it is 0, the row is (t - x) times
    the row of B_(j+1) q^j, j = 0..n-2, over q^(n-2)."""
    p, q, out = x.numerator, x.denominator, []
    for r in rows:
        acc, qk, sums = 0, 1, []
        for c in reversed(r):
            acc, qk = acc * p + c * qk, qk * q
            sums.append(acc)
        out.append(sums)
    return out
