"""The two number fields Q(w), Q(zeta12), and norm-p Eisenstein integers.

w is a primitive cube root of unity (w^2 + w + 1 = 0). An Eisenstein integer
m + nw is the element QOMEGA(m, n) of Q(w) with denominator 1; its conjugate is
x.trace() - x, and its norm m^2 - mn + n^2 is x.norm(). Q(zeta12) is the degree-4
cyclotomic field with defining polynomial x^4 - x^2 + 1; it contains i, w, sqrt(3)
and sqrt(-3), which is everything the quartic surface's lines and the second
fibration's coordinate changes need.

A number field element is fraction-free: integer power-basis coordinates over
one positive common denominator, kept with no common factor (Cohen, A Course
in Computational Algebraic Number Theory, 4.2.1). Products go through
polymulmod on the integer numerators. An inverse is the adjugate over the norm
(NumberField.adjugate), all in integers; the trace is read off the traces of
the powers of the generator, and the norm is the constant term of the
characteristic polynomial that adjugate builds. The Fraction coordinates are
derived on demand, for printing and sorting.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add, mul, neg, sub

from .arith import is_prime


def represent_eisenstein(p: int) -> tuple[int, int]:
    """Write a prime p = 1 mod 3 as m^2 - mn + n^2 by bounded exhaustive search.

    Any representative is acceptable downstream; this scans n then m ascending
    over nonnegative values, which is deterministic.
    """
    if not is_prime(p) or p % 3 != 1:
        raise ValueError(f"{p} is not a prime congruent to 1 mod 3")
    bound = isqrt(4 * p // 3) + 2
    for n in range(bound + 1):
        for m in range(bound + 1):
            if m * m - m * n + n * n == p:
                return m, n
    raise RuntimeError(f"no representation found for {p}")  # pragma: no cover


class NumberField:
    """A fixed number field Q[x]/(f) given by its monic defining polynomial."""

    def __init__(self, name: str, defining: tuple[int, ...]):
        # defining holds the non-leading integer coefficients of a monic
        # polynomial, lowest degree first: x^d = -(defining[0] + defining[1] x + ...)
        self.name = name
        self.defining = tuple(int(c) for c in defining)
        self.degree = len(defining)
        basis = [[0] * k + [1] for k in range(self.degree)]
        # Tr(gen^k): the trace of multiplication by gen^k on the power basis
        self.traces = tuple(sum(polymulmod(b, e, self.defining)[i] for i, e in enumerate(basis)) for b in basis)

    def __repr__(self):
        return f"NumberField({self.name})"

    def __call__(self, *coords) -> "NumberFieldElement":
        """The element with these power-basis coordinates (ints or Fractions),
        padded with zeros up to the degree."""
        if len(coords) > self.degree:
            raise ValueError(f"{self.name} has degree {self.degree}, got {len(coords)} coordinates")
        if all(type(c) is int for c in coords):  # no denominator to clear
            return NumberFieldElement(self, coords + (0,) * (self.degree - len(coords)))
        vals = [c if isinstance(c, int) else Fraction(c) for c in coords]
        den = lcm(*[v.denominator for v in vals])
        num = [v.numerator * (den // v.denominator) for v in vals]
        num += [0] * (self.degree - len(num))
        return NumberFieldElement(self, tuple(num), den)

    def adjugate(self, c) -> tuple[list[int], int]:
        """(a, N) with c a = N, a nonzero int, for the integer coordinates c of
        a nonzero element, in closed form.

        Cayley-Hamilton: with X^d + s_(d-1) X^(d-1) + ... + s_0 the
        characteristic polynomial of c, c (c^(d-1) + s_(d-1) c^(d-2) + ... + s_1)
        = -s_0, and Faddeev-LeVerrier gives the s_k from traces, exactly in Z.
        """
        e, ce = [1] + [0] * (self.degree - 1), list(c)  # step k = 1, and ce = c e
        s = -sum(map(mul, ce, self.traces))
        for k in range(2, self.degree + 1):  # e = c^(k-1) + ... + s_(d-k+1), s = s_(d-k)
            e = ce
            e[0] += s
            ce = polymulmod(c, e, self.defining)
            s = -sum(map(mul, ce, self.traces)) // k
        return [-x for x in e], s

    def zero(self) -> "NumberFieldElement":
        return self()

    def one(self) -> "NumberFieldElement":
        return self(1)

    def gen(self) -> "NumberFieldElement":
        return self(0, 1)


class NumberFieldElement:
    """Element of a NumberField in the power basis: integer coordinates num over
    one positive denominator den.

    The pair is kept normalised, gcd(den, *num) == 1, so zero is (0, ..., 0)/1
    and two elements are equal exactly when their num and den are.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num: tuple[int, ...], den: int = 1):
        if den != 1:
            if den <= 0:
                if not den:
                    raise ZeroDivisionError("number field element with zero denominator")
                num, den = tuple(map(neg, num)), -den
            g = gcd(den, *num)
            if g != 1:
                num, den = tuple(a // g for a in num), den // g
        self.field = field
        self.num = num
        self.den = den

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as Fractions."""
        return tuple(Fraction(a, self.den) for a in self.num)

    def __repr__(self):
        return f"{self.field.name}{list(map(str, self.coords))}"

    def _coerce(self, other):
        if isinstance(other, NumberFieldElement):
            if other.field is not self.field:
                raise TypeError("mixed number fields")
            return other
        if isinstance(other, int):
            return NumberFieldElement(self.field, (other,) + (0,) * (self.field.degree - 1))
        if isinstance(other, Fraction):
            return self.field(other)
        return None

    def __eq__(self, other):
        # elements of two different fields are unequal, even where their
        # values agree; only arithmetic across fields raises
        if isinstance(other, NumberFieldElement) and other.field is not self.field:
            return False
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # a rational element equals its Fraction (and int), so it hashes as one
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        return hash((self.field.name, self.num, self.den))

    def __bool__(self):
        return any(self.num)

    def _add_or_sub(self, other, op):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, e = self.den, o.den
        if d == e:
            num = tuple(map(op, self.num, o.num))
        else:
            num = tuple(op(a * e, b * d) for a, b in zip(self.num, o.num))
            d *= e
        return NumberFieldElement(self.field, num, d)

    def __add__(self, other):
        return self._add_or_sub(other, add)

    __radd__ = __add__

    def __neg__(self):
        return NumberFieldElement(self.field, tuple(map(neg, self.num)), self.den)

    def __sub__(self, other):
        return self._add_or_sub(other, sub)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o + (-self)

    def __mul__(self, other):
        if isinstance(other, int):  # scale the coordinates: no reduction mod g
            return NumberFieldElement(self.field, tuple(a * other for a in self.num), self.den)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prod = polymulmod(self.num, o.num, self.field.defining)
        return NumberFieldElement(self.field, tuple(prod), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "NumberFieldElement":
        """(c / den)^-1 = den a / N, with c a = N from NumberField.adjugate."""
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        a, n = self.field.adjugate(self.num)
        return NumberFieldElement(self.field, tuple(x * self.den for x in a), n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            base = base * base if n else base
        return out

    def trace(self) -> int | Fraction:
        """The trace to Q, the sum of the conjugates: an int when den is 1."""
        t = sum(map(mul, self.num, self.field.traces))
        return t if self.den == 1 else Fraction(t, self.den)

    def norm(self) -> int | Fraction:
        """The norm to Q, the product of the conjugates: an int when den is 1."""
        d = self.field.degree
        n = self.field.adjugate(self.num)[1] * (-1) ** d  # s_0 = (-1)^d N(num)
        return n if self.den == 1 else Fraction(n, self.den**d)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)


def polymulmod(a, b, tail):
    """a*b modulo the monic T^n + tail, over Z.

    a, b and tail are integer coefficient sequences, lowest degree first.
    Returns the n coefficients of the remainder as a list.
    """
    n = len(tail)
    out = [0] * max(n, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    # T^k = -T^(k-n) * tail, from the top down
    for k in range(len(out) - 1, n - 1, -1):
        c = out[k]
        if c:
            for i, t in enumerate(tail):
                if t:
                    out[k - n + i] -= c * t
    return out[:n]


def scalar_zero(values):
    """The zero of the exact scalars in values: the zero of the number field
    of the first NumberFieldElement among them, else Fraction(0)."""
    for v in values:
        if isinstance(v, NumberFieldElement):
            return v.field.zero()
    return Fraction(0)


def coerce_scalar(c, zero):
    """c as a scalar of the ring whose zero is given: Q or one NumberField."""
    if isinstance(zero, NumberFieldElement):
        if isinstance(c, NumberFieldElement):
            if c.field is not zero.field:
                raise TypeError("mixed number fields")
            return c
        return zero.field(c)
    if isinstance(c, NumberFieldElement):
        raise TypeError("number field scalar over Q")
    return c if type(c) is Fraction else Fraction(c)


# The two fields the toolkit needs.
QOMEGA = NumberField("Qw", (1, 1))  # x^2 + x + 1
QZETA12 = NumberField("Qz12", (1, 0, -1, 0))  # x^4 - x^2 + 1

W = QOMEGA.gen()  # w in Q(w)
ZETA = QZETA12.gen()  # zeta12
I_Z12 = ZETA**3  # i
W_Z12 = ZETA**2 - 1  # w = zeta^4 = zeta^2 - 1
SQRT3_Z12 = 2 * ZETA - ZETA**3  # zeta + zeta^-1
SQRTM3_Z12 = 2 * ZETA**2 - 1  # i*sqrt(3) = 1 + 2w
