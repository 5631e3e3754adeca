"""Fraction-coefficient polynomials: the reference for cubesum.polynomials.

This is the Poly and RationalFunction that cubesum used before its
fraction-free core, kept unchanged as a test oracle. A Poly here is a tuple of
exact scalars, Fraction or cubesum.rings.NumberFieldElement, and every
operation runs on those scalar objects: Euclid inverts each leading
coefficient with NumberFieldElement.inverse and no integer rows, common
denominators or adjugates are involved. Tests compare the coefficients of the
fraction-free Poly with this code.

A RationalFunction keeps num and den coprime with den monic, so equality is
plain syntactic comparison. The constructor normalises any pair with one gcd
of num and den. The operators build their results already reduced by
Henrici's rule (Knuth, TAOCP vol. 2, 4.5.1), taking gcds of the operands' own
parts only:
- (a/b)(c/d) = (a/g1)(c/g2) / ((b/g2)(d/g1)) with g1 = gcd(a, d), g2 = gcd(c, b);
  division multiplies by the reciprocal, d/c with c made monic;
- a/b + c/d: with g = gcd(b, d) and t = a(d/g) + c(b/g), the sum is
  (t/g2) / ((b/g)(d/g2)) with g2 = gcd(t, g); when g = 1 no other gcd is taken;
- negation and powers of a reduced pair are reduced already.
"""

from __future__ import annotations

from fractions import Fraction

from cubesum.rings import NumberFieldElement, coerce_scalar, scalar_zero

INFINITY = "inf"  # marker for the place at infinity on P^1


class Poly:
    """Polynomial with exact coefficients, lowest degree first."""

    __slots__ = ("coeffs", "zero")

    def __init__(self, coeffs=(), zero=None):
        coeffs = list(coeffs)
        if zero is None:
            zero = scalar_zero(coeffs)
        self.zero = zero
        out = [coerce_scalar(c, zero) for c in coeffs]
        while out and not out[-1]:
            out.pop()
        self.coeffs = tuple(out)

    @classmethod
    def x(cls, zero=None):
        z = Fraction(0) if zero is None else zero
        return cls([z + 0, z + 1], zero=z)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == self.zero + 1

    def leading(self):
        if not self.coeffs:
            return self.zero
        return self.coeffs[-1]

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"({c})*t^{i}" if i else f"({c})")
        return "Poly(" + " + ".join(terms) + ")"

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, NumberFieldElement)):
            return self == Poly([other], zero=self.zero)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def _wrap(self, other):
        """other as a Poly over this one's scalars, or None.

        A Poly over another scalar ring raises TypeError. Anything that is
        neither a Poly nor an exact scalar gives None, so the operators return
        NotImplemented and a RationalFunction operand answers for them.
        """
        if isinstance(other, Poly):
            _check_ring(self.zero, other.zero)
            return other
        if isinstance(other, (int, Fraction, NumberFieldElement)):
            return Poly([other], zero=self.zero)
        return None

    def __add__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        z = self.zero
        out = [z] * n
        for i, c in enumerate(self.coeffs):
            out[i] = out[i] + c
        for i, c in enumerate(o.coeffs):
            out[i] = out[i] + c
        return Poly(out, zero=z)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs], zero=self.zero)

    def __sub__(self, other):
        o = self._wrap(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        o = self._wrap(other)
        return NotImplemented if o is None else o + (-self)

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return Poly([], zero=self.zero)
        z = self.zero
        out = [z] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        out[i + j] = out[i + j] + a * b
        return Poly(out, zero=z)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of Poly; use RationalFunction")
        out = Poly([self.zero + 1], zero=self.zero)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        z = self.zero
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly([], zero=z), self
        quot = [z] * (dq + 1)
        # divisors are mostly monic (gcds, reduced denominators, t - a)
        lead = other.leading()
        inv_lead = None if lead == 1 else _scalar_inv(lead)
        for shift in range(dq, -1, -1):
            c = rem[shift + other.degree]
            if inv_lead is not None:
                c = c * inv_lead
            if c:
                quot[shift] = c
                for i, b in enumerate(other.coeffs):
                    rem[shift + i] = rem[shift + i] - c * b
        return Poly(quot, zero=z), Poly(rem[: other.degree], zero=z)

    def __floordiv__(self, other):
        o = self._wrap(other)
        return NotImplemented if o is None else self.divmod(o)[0]

    def __mod__(self, other):
        o = self._wrap(other)
        return NotImplemented if o is None else self.divmod(o)[1]

    def monic(self) -> "Poly":
        if self.is_zero() or self.leading() == 1:
            return self
        inv = _scalar_inv(self.leading())
        return Poly([c * inv for c in self.coeffs], zero=self.zero)

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def derivative(self) -> "Poly":
        return Poly(
            [self.coeffs[i] * i for i in range(1, len(self.coeffs))], zero=self.zero
        )

    def evaluate(self, x):
        acc = self.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, other: "RationalFunction") -> "RationalFunction":
        """Substitute the rational function `other` for the variable."""
        acc = RationalFunction(Poly([], zero=self.zero))
        for c in reversed(self.coeffs):
            acc = acc * other + c
        return acc

    def valuation(self, place) -> int:
        """Multiplicity of the root `place` (a scalar), or -degree at INFINITY."""
        if self.is_zero():
            raise ValueError("valuation of the zero polynomial")
        if place is INFINITY:
            return -self.degree
        lin = Poly([-(self.zero + place), self.zero + 1], zero=self.zero)
        v, rem = 0, self
        while True:
            q, r = rem.divmod(lin)
            if not r.is_zero():
                return v
            v += 1
            rem = q

    def reverse(self, degree: int | None = None) -> "Poly":
        """Coefficient reversal t -> 1/t, padded to the given degree."""
        d = self.degree if degree is None else degree
        if d < self.degree:
            raise ValueError("reversal degree below actual degree")
        out = [self.zero] * (d + 1)
        for i, c in enumerate(self.coeffs):
            out[d - i] = c
        return Poly(out, zero=self.zero)


def _ring(zero):
    """The number field of a scalar zero, or None for Q."""
    return zero.field if isinstance(zero, NumberFieldElement) else None


def _check_ring(zero, other_zero):
    if _ring(zero) is not _ring(other_zero):
        raise TypeError("mixed scalar rings: Q and a number field, or two number fields")


def _cancel(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """(a/g, b/g) with g = gcd(a, b), which is monic. A constant operand
    shares no factor with the other, so no gcd is taken for it."""
    if a.degree <= 0 or b.degree <= 0:
        return a, b
    g = a.gcd(b)
    if g.is_one():
        return a, b
    return a // g, b // g


def _scalar_inv(c):
    if isinstance(c, NumberFieldElement):
        return c.inverse()
    return Fraction(1) / c


class RationalFunction:
    """Quotient of two Polys, reduced, with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if not isinstance(num, Poly):
            num = Poly([num])
        if den is None:
            den = Poly([num.zero + 1], zero=num.zero)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        # a constant denominator is coprime to anything; the leading
        # coefficient step below normalises it
        if den.degree > 0 and not num.is_zero():
            g = num.gcd(den)
            if not g.is_one():
                num = num // g
                den = den // g
        if num.is_zero():
            den = Poly([num.zero + 1], zero=num.zero)
        if den.leading() != 1:
            lead_inv = _scalar_inv(den.leading())
            num = num * lead_inv
            den = den * lead_inv
        self.num = num
        self.den = den

    @classmethod
    def _reduced(cls, num: Poly, den: Poly) -> "RationalFunction":
        """num/den already coprime with den monic: no gcd, no scaling."""
        out = object.__new__(cls)
        out.num = num
        out.den = den if not num.is_zero() else Poly([num.zero + 1], zero=num.zero)
        return out

    def __repr__(self):
        if self.den.is_one():
            return f"RF({self.num!r})"
        return f"RF({self.num!r} / {self.den!r})"

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    @property
    def zero_scalar(self):
        return self.num.zero

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (Poly, int, Fraction, NumberFieldElement)):
            return self.den.is_one() and self.num == other
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def _wrap(self, other):
        """other as a rational function over this one's scalars, or None.

        Polys and rational functions over another scalar ring raise TypeError
        here, so every operator rejects them in either operand order.
        """
        if isinstance(other, RationalFunction):
            _check_ring(self.num.zero, other.num.zero)
            return other
        if isinstance(other, Poly):
            _check_ring(self.num.zero, other.zero)
            return RationalFunction._reduced(other, Poly([other.zero + 1], zero=other.zero))
        if isinstance(other, (int, Fraction, NumberFieldElement)):
            z = self.num.zero
            return RationalFunction._reduced(Poly([other], zero=z), Poly([z + 1], zero=z))
        return None

    def __add__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        (a, b), (c, d) = (self.num, self.den), (o.num, o.den)
        if b.is_one() and d.is_one():
            return RationalFunction._reduced(a + c, b)
        if b.degree > 0 and d.degree > 0:
            g = b.gcd(d)
            if not g.is_one():
                b, d = b // g, d // g
                t, g = _cancel(a * d + c * b, g)
                return RationalFunction._reduced(t, b * d * g)
        return RationalFunction._reduced(a * d + c * b, b * d)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._reduced(-self.num, self.den)

    def __sub__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._wrap(other)
        return NotImplemented if o is None else o + (-self)

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        a, b = _cancel(self.num, o.den)
        c, d = _cancel(o.num, self.den)
        return RationalFunction._reduced(a * c, d * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        o = self._wrap(other)
        return NotImplemented if o is None else o / self

    def _reciprocal(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction._reduced(self.den * _scalar_inv(self.num.leading()), self.num.monic())

    def __pow__(self, n: int):
        base = self._reciprocal() if n < 0 else self
        return RationalFunction._reduced(base.num ** abs(n), base.den ** abs(n))

    def evaluate(self, x):
        d = self.den.evaluate(x)
        if not d:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num.evaluate(x) * _scalar_inv(d)

    def compose(self, other: "RationalFunction") -> "RationalFunction":
        return self.num.compose(other) / self.den.compose(other)

    def valuation(self, place) -> int:
        """Order of vanishing at the place; at INFINITY in the parameter 1/t."""
        if self.is_zero():
            raise ValueError("valuation of zero")
        if place is INFINITY:
            return self.den.degree - self.num.degree
        return self.num.valuation(place) - self.den.valuation(place)

    def over(self, zero) -> "RationalFunction":
        """The same function with its coefficients in the scalar ring of `zero`.

        Coefficients go through coerce_scalar: rationals lift into a number
        field; a number field scalar sent to Q or to another field raises
        TypeError.
        """
        return RationalFunction(Poly(self.num.coeffs, zero=zero), Poly(self.den.coeffs, zero=zero))
