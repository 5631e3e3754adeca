"""Pure-Python finite fields and brute loops: the reference for cubesum.pointcount.

Elements of F_{p^n} here are coefficient tuples (lowest degree first) and a
product is schoolbook multiplication reduced by the modulus, with no tables.
The counts loop over every (t, x) pair one at a time, and exp_table and
order_of_t take powers one multiplication at a time. Tests check the
integer-coded field, its doubled exp table and its numpy fiber sums against
this code.
"""

from __future__ import annotations

from itertools import product


class PrimeField:
    """F_p with plain int elements."""

    def __init__(self, p: int):
        self.p = p
        self.q = p
        self.zero = 0
        self.one = 1

    def elements(self):
        return range(self.p)

    def code(self, a) -> int:
        return a

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def pow(self, a, e: int):
        return pow(a, e, self.p)

    def embed(self, n: int):
        return n % self.p


class ExtField:
    """F_{p^n} as F_p[T]/(T^n + modulus); elements are n-tuples of ints."""

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        self.p = p
        self.n = n
        self.q = p**n
        self.modulus = modulus
        # reduction rows: T^(n+k) as coefficient tuples, k = 0..n-2
        rows = [tuple(-c % p for c in modulus)]
        for _ in range(n - 2):
            prev = rows[-1]
            shifted = (0,) + prev[:-1]
            top = prev[-1]
            rows.append(tuple((shifted[i] - top * modulus[i]) % p for i in range(n)))
        self._high = rows
        self.zero = (0,) * n
        self.one = (1,) + (0,) * (n - 1)

    def elements(self):
        # lowest coefficient varies fastest, so the i-th element has code i
        return (tuple(reversed(c)) for c in product(range(self.p), repeat=self.n))

    def code(self, a) -> int:
        return sum(c * self.p**i for i, c in enumerate(a))

    def embed(self, k: int):
        return (k % self.p,) + (0,) * (self.n - 1)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def mul(self, a, b):
        p, n = self.p, self.n
        prod_c = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod_c[i + j] += x * y
        out = [c % p for c in prod_c[:n]]
        for k in range(n, 2 * n - 1):
            c = prod_c[k] % p
            if c:
                row = self._high[k - n]
                for i in range(n):
                    out[i] = (out[i] + c * row[i]) % p
        return tuple(out)

    def pow(self, a, e: int):
        out = self.one
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out


def reference_field(p: int, n: int, modulus: tuple[int, ...]):
    return PrimeField(p) if n == 1 else ExtField(p, n, modulus)


def exp_table(field, generator_code: int) -> list[int]:
    """The codes of g^0, g^1, ..., g^(q-2), one multiplication at a time."""
    g = next(a for a in field.elements() if field.code(a) == generator_code)
    out, cur = [], field.one
    for _ in range(field.q - 1):
        out.append(field.code(cur))
        cur = field.mul(cur, g)
    return out


def order_of_t(p: int, tail: tuple[int, ...]):
    """The least k with 1 <= k < p^n and T^k = 1 in F_p[T]/(T^n + tail),
    counted one multiplication at a time, or None if there is none. The ring
    need not be a field."""
    n = len(tail)
    R = ExtField(p, n, tail) if n >= 2 else PrimeField(p)
    t = (0, 1) + (0,) * (n - 2) if n >= 2 else -tail[0] % p
    x = t
    for k in range(1, p**n):
        if x == R.one:
            return k
        x = R.mul(x, t)
    return None


def is_square(field, x) -> int:
    """Quadratic character by Euler's criterion x^((q-1)/2)."""
    if x == field.zero:
        return 0
    return 1 if field.pow(x, (field.q - 1) // 2) == field.one else -1


def square_counts(field) -> dict:
    counts: dict = {}
    for y in field.elements():
        v = field.mul(y, y)
        counts[v] = counts.get(v, 0) + 1
    return counts


def count_surface(F) -> int:
    """#{(t,x,y) : y^2 = x^3 - t^4 (t^2-1)^3}, one (t, x) pair at a time."""
    sq = square_counts(F)
    cubes = {x: F.mul(F.mul(x, x), x) for x in F.elements()}
    total = 0
    for t in F.elements():
        t2 = F.mul(t, t)
        t4 = F.mul(t2, t2)
        w = F.sub(t2, F.one)
        w3 = F.mul(F.mul(w, w), w)
        c = F.mul(t4, w3)
        for x in F.elements():
            total += sq.get(F.sub(cubes[x], c), 0)
    return total


def count_elliptic(b_const: int, F) -> int:
    """Projective point count of y^2 = x^3 + b (affine count plus one)."""
    sq = square_counts(F)
    b = F.embed(b_const)
    total = 1
    for x in F.elements():
        total += sq.get(F.add(F.mul(F.mul(x, x), x), b), 0)
    return total
