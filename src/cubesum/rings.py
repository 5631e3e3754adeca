"""Eisenstein integers Z[w] and the two number fields Q(w), Q(zeta12).

w is a primitive cube root of unity (w^2 + w + 1 = 0). Q(zeta12) is the degree-4
cyclotomic field with defining polynomial x^4 - x^2 + 1; it contains i, w, sqrt(3)
and sqrt(-3), which is everything the quartic surface's lines and the second
fibration's coordinate changes need.

A number field element is fraction-free: integer power-basis coordinates over
one positive common denominator, kept with no common factor (Cohen, A Course
in Computational Algebraic Number Theory, 4.2.1). Products go through
polymulmod on the integer numerators, the same routine F_{p^n} multiplies with.
The Fraction coordinates are derived on demand, for printing and sorting.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add, neg, sub

from .arith import is_prime


class EisensteinInt:
    """a + b*w with a, b integers, w^2 = -1 - w."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int = 0):
        self.a = int(a)
        self.b = int(b)

    def __repr__(self):
        return f"EisensteinInt({self.a}, {self.b})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        return f"{self.a}{self.b:+d}w"

    @staticmethod
    def _wrap(other):
        """other as an EisensteinInt, or None if it is neither that nor an int."""
        if isinstance(other, int):
            return EisensteinInt(other)
        return other if isinstance(other, EisensteinInt) else None

    def __eq__(self, other):
        o = self._wrap(other)
        return NotImplemented if o is None else self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __add__(self, other):
        o = self._wrap(other)
        return NotImplemented if o is None else EisensteinInt(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return EisensteinInt(-self.a, -self.b)

    def __sub__(self, other):
        o = self._wrap(other)
        return NotImplemented if o is None else EisensteinInt(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._wrap(other)
        return NotImplemented if o is None else EisensteinInt(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        if isinstance(other, int):
            return EisensteinInt(self.a * other, self.b * other)
        if not isinstance(other, EisensteinInt):
            return NotImplemented
        # (a + bw)(c + dw) = ac + (ad + bc)w + bd(-1 - w)
        a, b, c, d = self.a, self.b, other.a, other.b
        return EisensteinInt(a * c - b * d, a * d + b * c - b * d)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("EisensteinInt is a ring, not a field")
        out = EisensteinInt(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self) -> "EisensteinInt":
        """Complex conjugate: a + b*w -> (a - b) - b*w."""
        return EisensteinInt(self.a - self.b, -self.b)

    def norm(self) -> int:
        """a^2 - ab + b^2 = self * conj(self)."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def trace(self) -> int:
        """self + conj(self) = 2a - b."""
        return 2 * self.a - self.b

    def divides(self, other: "EisensteinInt") -> bool:
        """True iff self divides other in Z[w]."""
        n = self.norm()
        if n == 0:
            return other == EisensteinInt(0)
        w = other * self.conj()
        return w.a % n == 0 and w.b % n == 0

    def associates(self) -> list["EisensteinInt"]:
        """The six unit multiples of self."""
        return [u * self for u in EISENSTEIN_UNITS]


OMEGA = EisensteinInt(0, 1)
SQRT_M3 = EisensteinInt(1, 2)  # 1 + 2w, squares to -3
EISENSTEIN_UNITS = (
    EisensteinInt(1, 0),
    EisensteinInt(0, 1),
    EisensteinInt(-1, -1),
    EisensteinInt(-1, 0),
    EisensteinInt(0, -1),
    EisensteinInt(1, 1),
)


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

    def __repr__(self):
        return f"NumberField({self.name})"

    def __call__(self, *coords) -> "NumberFieldElement":
        """The element with these power-basis coordinates (ints or Fractions),
        padded with zeros up to the degree."""
        if len(coords) > self.degree:
            raise ValueError(f"{self.name} has degree {self.degree}, got {len(coords)} coordinates")
        vals = [c if isinstance(c, int) else Fraction(c) for c in coords]
        den = lcm(*[v.denominator for v in vals])
        num = [v.numerator * (den // v.denominator) for v in vals]
        num += [0] * (self.degree - len(num))
        return NumberFieldElement(self, tuple(num), den)

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prod = polymulmod(self.num, o.num, self.field.defining)
        return NumberFieldElement(self.field, tuple(prod), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "NumberFieldElement":
        """Multiplicative inverse by extended Euclid against the defining poly."""
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        if self.is_rational():
            # (a/d)^-1 = d/a; the constructor moves the sign of a
            return NumberFieldElement(self.field, (self.den,) + self.num[1:], self.num[0])
        from .polynomials import Poly  # polynomials imports this module

        # the remainders r and cofactors t keep t*g = r mod f, with g the
        # numerator polynomial; f is irreducible, so the last nonzero remainder
        # is a constant c, and (g/den)^-1 = den*t/c
        r0, r1 = Poly(self.field.defining + (1,)), Poly(self.num)
        t0, t1 = Poly(), Poly([1])
        while r1.degree > 0:
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            t0, t1 = t1, t0 - q * t1
        c = r1.coeffs[0]
        return self.field(*(a * self.den / c for a in t1.coeffs))

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
            base = base * base
            n >>= 1
        return out

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)


def polymulmod(a, b, tail, zero=0):
    """a*b modulo the monic T^n + tail, over any exact ring.

    a, b and tail are coefficient sequences, lowest degree first; zero is the
    ring's zero. Returns the n coefficients of the remainder as a list.
    """
    n = len(tail)
    out = [zero] * max(n, len(a) + len(b) - 1)
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
