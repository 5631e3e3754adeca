"""Exact point counts over F_q, their brute-force oracle, and the closed-form
count they certify.

F_{p^n} has one integer-coded model: an element is an integer 0..q-1 whose
base-p digits are its coefficients over the lexicographically smallest monic
primitive polynomial g, so every count is reproducible bit for bit. Primitive
means the class of T generates F_q^*; T is the generator, and exp/log tables
of its powers, built once, make products and powers table lookups and the
quadratic character the parity of a log. Sums and differences work digit by
digit. One certificate proves the field: T has order q-1 modulo g, which only
a field with q-1 units allows, so it also proves g irreducible. The modulus
search powers only the tails that pass two cheap prefilters (the norm of T
must generate F_p^*, and for n >= 2 g must have no root in F_p); it and the
tables multiply polynomials modulo g with rings.polymulmod, the routine the
number fields Q(w) and Q(zeta12) multiply with, reduced mod p. The exp table
is built by doubling: T^B .. T^(2B-1) is T^0 .. T^(B-1) times T^B, and
multiplying by T^B is an F_p-linear map on digit vectors, so each block is
one n x n matrix product mod p in numpy.

The surface count N(p, n) = #{(t, x, y) : y^2 = x^3 - c(t)}, with
c(t) = t^4 (t^2-1)^3, takes O(q) work in count_surface. (x, y) -> (u^2 x, u^3 y)
maps y^2 = x^3 - c onto y^2 = x^3 - u^6 c, so a fiber's count depends only on
the class of c(t) in F_q^* / (F_q^*)^6, which is log c(t) mod gcd(6, q-1): one
fiber per class is counted, and a fiber with c(t) = 0 has q points. Both the
classes and the fibers come from the Zech logarithms Z[s] = log(g^s - 1)
(Lidl & Niederreiter, *Finite Fields*, 10.2) as index arithmetic and parity
counts on one table of q-1 integers, so the count does no field arithmetic
beyond building that table.
brute_count_surface is its oracle: it visits every (t, x) pair, forming
x^3 - c(t) for a block of t rows and all x at once with numpy and gathering,
from a table of square roots counted over every y, how many y solve each
fiber, with temporaries bounded by one block whatever q is. It shares only
the field tables with count_surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd, isqrt

from .arith import is_prime, legendre
from .modular import ap_closed_form, closed_form_alpha, prime_power_coefficients
from .rings import polymulmod

DEFAULT_BUDGET = 10**6

FROBENIUS_POWER = "frobenius-power"
MODULAR_COEFFICIENT = "modular-coefficient"
CONVENTIONS = (FROBENIUS_POWER, MODULAR_COEFFICIENT)


class FiniteField:
    """F_{p^n} as F_p[T]/(g), g the smallest-coefficient monic primitive.

    An element is the integer sum(c_i p^i) of its coefficients c_i over g,
    lowest degree first, so the elements of F_p are its residues 0..p-1.
    The generator is the class of T: the code p when n >= 2 and -c_0 mod p
    when n = 1. exp[i] = generator^i for 0 <= i < q-1 and log inverts it
    (log[0] is a placeholder: zero has no log). Every operation takes an
    element or a numpy array of elements and works elementwise.
    """

    def __init__(self, p: int, n: int = 1):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if n < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.n = n
        self.q = p**n
        self.modulus = _find_primitive(p, n)
        self.zero = 0
        self.one = 1
        self.generator = p if n >= 2 else -self.modulus[0] % p  # the class of T
        self.exp, self.log = _exp_log_tables(p, self.modulus)
        self._weights = [p**i for i in range(1, n)]

    def elements(self):
        return range(self.q)

    def embed(self, k: int) -> int:
        return k % self.p

    # a // p^i is digit i of a plus a multiple of p, so reducing the sum or
    # difference of those quotients mod p gives digit i of the result

    def add(self, a, b):
        p = self.p
        out = (a + b) % p
        for w in self._weights:
            out = out + (a // w + b // w) % p * w
        return out

    def sub(self, a, b):
        p = self.p
        out = (a - b) % p
        for w in self._weights:
            out = out + (a // w - b // w) % p * w
        return out

    def mul(self, a, b):
        prod = self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]
        return prod * ((a != 0) & (b != 0))

    def pow(self, a, e: int):
        if e < 0:
            raise ValueError("exponent must be >= 0")
        order = self.q - 1
        return self.exp[self.log[a] * (e % order) % order] * ((a != 0) | (e == 0))


def _find_primitive(p: int, n: int) -> tuple[int, ...]:
    """Smallest primitive g = T^n + tail over F_p, lexicographic in
    (c_0, ..., c_{n-1}): the class of T has order q-1 modulo g.

    F_p[T]/(g) has q-1 units only when it is a field, so T of order q-1 also
    certifies that g is irreducible. Two prefilters skip tails whose T cannot
    have that order before any power is taken: T's norm (-1)^n c_0 is
    T^((q-1)/(p-1)), which generates F_p^* if T generates F_q^*, and for
    n >= 2 a g with a root in F_p is reducible."""
    import numpy as np

    order = p**n - 1
    primes = _prime_factors(order) or [1]  # q = 2: no prime divides q-1 = 1
    one = [1] + [0] * (n - 1)
    norm_cofactors = [(p - 1) // r for r in _prime_factors(p - 1)]
    for c0 in range(1, p):
        if any(pow((-1) ** n * c0, e, p) == 1 for e in norm_cofactors):
            continue
        for rest in product(range(p), repeat=n - 1):
            tail = (c0,) + rest
            if n >= 2:
                xs = np.arange(p)
                values = np.ones_like(xs)  # g(x) at every x in F_p, by Horner's rule
                for c in reversed(tail):
                    values = (values * xs + c) % p
                if not values.all():
                    continue
            t = _polymulmod([0, 1], [1], tail, p)  # T mod g
            # T has order q-1 iff T^((q-1)/r) != 1 for every prime r | q-1 and
            # T^(q-1) = 1, which is y^r for the first cofactor power y
            y = _polypowmod(t, order // primes[0], tail, p)
            if ((y != one or order == 1)
                    and all(_polypowmod(t, order // r, tail, p) != one for r in primes[1:])
                    and _polypowmod(y, primes[0], tail, p) == one):
                return tail
    raise RuntimeError("no primitive polynomial found")  # pragma: no cover


def _polymulmod(a, b, tail, p):
    """a*b mod the monic g = T^n + tail over F_p; coefficient lists, low to high.

    The product is reduced over Z and then mod p, which gives the same
    coefficients because reduction mod p is a ring map Z -> F_p."""
    return [c % p for c in polymulmod(a, b, tail)]


def _polypowmod(a, e: int, tail, p):
    """a^e mod g by square-and-multiply on the exponent."""
    acc = [1] + [0] * (len(tail) - 1)
    base = list(a)
    while e:
        if e & 1:
            acc = _polymulmod(acc, base, tail, p)
        base = _polymulmod(base, base, tail, p)
        e >>= 1
    return acc


def _prime_factors(m: int) -> list[int]:
    """The distinct primes dividing m, ascending."""
    primes = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            primes.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        primes.append(m)
    return primes


def _exp_log_tables(p: int, tail: tuple[int, ...]):
    """(exp, log) for F_p[T]/(T^n + tail) with T as the generator: exp[i] = T^i
    for 0 <= i < q-1, log[exp[i]] = i and log[0] = 0.

    The tables close with a certificate: exp[q-2]·T = 1, T^(q-1) = 1 and log
    inverts exp, so T has order q-1 and the ring is the field F_q. A modulus
    that is reducible, or irreducible but not primitive, raises ArithmeticError."""
    # numpy loads on first use, so commands that count no points start without it
    import numpy as np

    n = len(tail)
    q = p**n
    order = q - 1
    weights = [p**i for i in range(n)]
    one = [1] + [0] * (n - 1)
    t = _polymulmod([0, 1], [1], tail, p)  # T mod g
    # doubling: exp[B:2B] = exp[:B] * T^B. Row i of the matrix is T^i T^B, so a
    # row of digit vectors times it is the digit vector of the product
    digit_weights = np.array(weights, dtype=np.int64)
    exp = np.empty(order, dtype=np.int64)
    exp[0] = 1
    size, step = 1, t  # step = T^size
    while size < order:
        m = min(size, order - size)
        rows = [step]
        for _ in range(n - 1):
            rows.append(_polymulmod(rows[-1], t, tail, p))
        digits = exp[:m, None] // digit_weights % p
        exp[size:size + m] = digits @ np.array(rows, dtype=np.int64) % p @ digit_weights
        step = _polymulmod(step, step, tail, p)
        size += m
    last = [int(exp[-1]) // w % p for w in weights]
    if _polymulmod(last, t, tail, p) != one or _polypowmod(t, order, tail, p) != one:
        raise ArithmeticError(f"T has no order {order} modulo T^{n} + {tail}")
    log = np.zeros(q, dtype=np.int64)
    log[exp] = np.arange(order)
    if not np.array_equal(log[exp], np.arange(order)):
        raise ArithmeticError(f"the powers of T modulo T^{n} + {tail} repeat")
    return exp, log


def make_field(p: int, n: int) -> FiniteField:
    return FiniteField(p, n)


# --- counting ----------------------------------------------------------------

# (t, x) pairs per block of the fiber sum: a block's numpy temporaries hold
# 2^14 int64s (128 KB) each, or one row of q if q is larger, so the few alive
# at once take a few times max(128 KB, 8q bytes)
_BLOCK_ELEMENTS = 1 << 14


def _check_hasse(q: int, t0: int, fibers, over: str = "over t =") -> None:
    """Raise unless each affine fiber count (the fibers over t0, t0+1, ..., or
    of the classes t0, t0+1, ... with over="of class") lies within the Hasse
    bound around q, as every fiber's count must."""
    bound = 2 * (isqrt(q) + 1)
    bad = (abs(fibers - q) > bound).nonzero()[0]
    if bad.size:
        i = int(bad[0])
        raise ArithmeticError(f"the fiber {over} {t0 + i} has {int(fibers[i])} affine "
                              f"points, outside the Hasse bound {q} +- {bound}")


def _check_field_size(p: int, n: int, budget: int) -> None:
    if p < 5 or not is_prime(p):
        raise ValueError(f"p must be a prime >= 5, got {p}")
    if p**n > budget:
        raise ValueError(f"q = {p}^{n} exceeds the budget {budget}")


def _root_counts(F: FiniteField):
    """roots[v] = #{y in F_q : y^2 = v}."""
    import numpy as np

    return np.bincount(F.pow(np.arange(F.q), 2), minlength=F.q)


def _surface_tables(p: int, n: int, budget: int):
    """(F, roots, cubes, c): F_{p^n}, its square-root counts, x^3 for every x
    and c(t) = t^4 (t^2-1)^3 for every t."""
    _check_field_size(p, n, budget)
    import numpy as np

    F = make_field(p, n)
    xs = np.arange(F.q)
    cubes = F.pow(xs, 3)
    c = F.mul(F.pow(xs, 4), cubes[F.sub(F.pow(xs, 2), F.one)])
    return F, _root_counts(F), cubes, c


def _zech_table(F: FiniteField):
    """Zech logarithms of F: Z[s] = log(g^s - 1) for 0 < s < q-1, g the
    generator (Z[0] is log's placeholder for zero)."""
    return F.log[F.sub(F.exp, F.one)]


def count_surface(p: int, n: int = 1, budget: int = DEFAULT_BUDGET) -> int:
    """#{(t,x,y) in F_q^3 : y^2 = x^3 - t^4 (t^2-1)^3} in O(q), by sextic twist class.

    The fiber over t has q points if c(t) = 0 (t = 0, +-1) and otherwise as
    many as the fiber y^2 = x^3 - g^j, j = log c(t) mod k, k = gcd(6, q-1),
    since c(t) is g^j times a sixth power. Both come from the Zech table Z:
    for t = g^a, log c(t) = 4a + 3 Z[2a], and the class-j fiber has
    q + chi(-g^j) + sum over x = g^b of chi(g^j) chi(g^(3b-j) - 1) points,
    where chi(g^s) = (-1)^s and 3b runs g3 = gcd(3, q-1) times over each
    multiple of g3. One fiber per class is counted, each checked against the
    Hasse bound.
    """
    import numpy as np

    _check_field_size(p, n, budget)
    F = make_field(p, n)
    q, order = F.q, F.q - 1
    zech = _zech_table(F)
    del F  # frees the exp and log tables before the temporaries below
    k, g3 = gcd(6, order), gcd(3, order)
    # t = g^a and -t = g^(a + order/2) share c(t), so each even 0 < s = 2a < q-1
    # stands for two t, with log c(t) = 2s + 3 Z[s]
    log_c = zech[2::2] * 3
    log_c += np.arange(2, order, 2) * 2
    sizes = 2 * np.bincount(log_c % k, minlength=k)  # t per class
    # sums[r]: the sum of (-1)^Z[s] over the s = r mod g3 with 0 < s < q-1
    sums = []
    for r in range(g3):
        parities = zech[r or g3::g3] & 1
        sums.append(parities.size - 2 * int(parities.sum()))
    chi_minus_one = -1 if order // 2 % 2 else 1
    fibers = np.array([q + (-1) ** j * (chi_minus_one + g3 * sums[-j % g3]) for j in range(k)])
    _check_hasse(q, 0, fibers, over="of class")
    return 3 * q + int(sizes @ fibers)


def brute_count_surface(p: int, n: int = 1, budget: int = DEFAULT_BUDGET) -> int:
    """#{(t,x,y) in F_q^3 : y^2 = x^3 - t^4 (t^2-1)^3} by exhaustive enumeration.

    Every (t, x) pair is visited: a block of t rows forms x^3 - c(t) for every
    x and gathers how many y square to it. This is the oracle for count_surface.
    """
    F, roots, cubes, c = _surface_tables(p, n, budget)
    rows = max(1, _BLOCK_ELEMENTS // F.q)
    total = 0
    for t0 in range(0, F.q, rows):
        fibers = roots[F.sub(cubes, c[t0:t0 + rows, None])].sum(axis=1)
        _check_hasse(F.q, t0, fibers)
        total += int(fibers.sum())
    return total


def brute_count_elliptic(b_const: int, p: int, n: int = 1, budget: int = DEFAULT_BUDGET) -> int:
    """Projective point count of y^2 = x^3 + b over F_q (affine count plus one)."""
    _check_field_size(p, n, budget)
    import numpy as np

    F = make_field(p, n)
    roots = _root_counts(F)
    return 1 + int(roots[F.add(F.pow(np.arange(F.q), 3), F.embed(b_const))].sum())


def a_pn(p: int, n: int, convention: str) -> int:
    """The transcendental-trace term, under either reading of its definition.

    frobenius-power: alpha^n + conj(alpha)^n for split p; for inert p the
    Frobenius eigenvalue pair {p, -p} gives 0 for odd n and 2*p^n for even n.
    (The source's printed inert value p^n fails the brute count; see the
    verification report.)  modular-coefficient: the literal coefficient of
    q^(p^n) in the cusp form, from a_p by the p-power recurrence that
    hecke_expand uses. The two agree at n = 1 and diverge for n >= 2.
    """
    if p < 5 or not is_prime(p):
        raise ValueError(f"p must be a prime >= 5, got {p}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if convention == FROBENIUS_POWER:
        if p % 3 == 2:
            return 0 if n % 2 else 2 * p**n
        alpha = closed_form_alpha(p)
        return (alpha**n).trace()
    if convention == MODULAR_COEFFICIENT:
        return prime_power_coefficients(p, ap_closed_form(p), p**n)[n]
    raise ValueError(f"unknown convention {convention}")


def formula_count_surface(p: int, n: int, convention: str = FROBENIUS_POWER) -> int:
    """p^2n + p^n + (-3/p)^n p^n + a_{p^n}."""
    if p < 5 or not is_prime(p):
        raise ValueError(f"p must be a prime >= 5, got {p}")
    return _formula_with(p, n, a_pn(p, n, convention))


def _formula_with(p: int, n: int, a_term: int) -> int:
    chi = legendre(-3, p) ** n
    return p ** (2 * n) + p**n + chi * p**n + a_term


@dataclass(frozen=True)
class CountReport:
    """One (p, n, convention) comparison. `brute` is the exact surface count
    from count_surface; the name is kept for the JSON output's `brute` key."""

    p: int
    n: int
    brute: int
    formula: int
    a_term_used: int
    convention: str
    match: bool

    @classmethod
    def build(cls, p: int, n: int, convention: str = FROBENIUS_POWER,
              budget: int = DEFAULT_BUDGET) -> "CountReport":
        return _report(p, n, count_surface(p, n, budget), convention)


def _report(p: int, n: int, brute: int, convention: str) -> CountReport:
    """Compare an exact count with the formula; a_{p^n} is computed once."""
    a_term = a_pn(p, n, convention)
    formula = _formula_with(p, n, a_term)
    return CountReport(p, n, brute, formula, a_term, convention, brute == formula)


def adjudicate_conventions(pairs, budget: int = DEFAULT_BUDGET):
    """Which a_{p^n} convention matches the exact count across the given (p, n) pairs.

    Returns (winners, reports): the set of conventions consistent with every
    pair, and one CountReport per (pair, convention).
    """
    reports = []
    alive = set(CONVENTIONS)
    for p, n in pairs:
        brute = count_surface(p, n, budget)
        for conv in CONVENTIONS:
            rep = _report(p, n, brute, conv)
            reports.append(rep)
            if not rep.match:
                alive.discard(conv)
    return alive, reports
