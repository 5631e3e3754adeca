"""Dense univariate polynomials and reduced rational functions.

A Poly is fraction-free: integer rows (see introws), one over Q and d over a
number field of degree d, over one positive denominator. As in
NumberFieldElement the pair is normalised, with no zero column at the top and
gcd(den, every entry) == 1, so equal Polys over one field have equal rows.
`coeffs`, the Fraction or NumberFieldElement scalars, is built when it is read.
Polys or rational functions over different scalar rings raise TypeError.

Division by a leading coefficient c multiplies by its adjugate a over the
integer N = c a (NumberField.adjugate); a rational c needs none. Division
makes the divisor monic, so a monic divisor inverts nothing, and runs on the
rows. The gcd is Euclid on the rows, each remainder made monic, which removes
its content (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 6).

A RationalFunction keeps num and den coprime with den monic, so equality is
syntactic. The constructor takes one gcd of num and den. The operators build
reduced results by Henrici's rule (Knuth, TAOCP vol. 2, 4.5.1), taking gcds of
the operands' own parts only:
- (a/b)(c/d) = (a/g1)(c/g2) / ((b/g2)(d/g1)) with g1 = gcd(a, d), g2 = gcd(c, b);
  division multiplies by the reciprocal, d/c with c made monic;
- a/b + c/d: with g = gcd(b, d) and t = a(d/g) + c(b/g), the sum is
  (t/g2) / ((b/g)(d/g2)) with g2 = gcd(t, g); when g = 1 no other gcd is taken;
- negation and powers of a reduced pair are reduced already.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partialmethod, reduce
from math import gcd, lcm

from .introws import horner, mulmod, normalise, pdiv
from .rings import NumberFieldElement, coerce_scalar, scalar_zero

INFINITY = "inf"  # marker for the place at infinity on P^1
_Q0 = Fraction(0)


class Poly:
    """Polynomial with exact coefficients, lowest degree first."""

    __slots__ = ("_field", "_rows", "_den", "_coeffs")

    def __init__(self, coeffs=(), zero=None):
        coeffs = list(coeffs)
        if zero is None:
            zero = scalar_zero(coeffs)
        f = _ring(zero)
        cs = [coerce_scalar(c, zero) for c in coeffs]
        pairs = [((c.numerator,), c.denominator) for c in cs] if f is None else [(c.num, c.den) for c in cs]
        den = lcm(*(d for _, d in pairs))
        _make(f, [[num[k] * (den // d) for num, d in pairs] for k in range(f.degree if f else 1)], den, self)

    @classmethod
    def x(cls, zero=None):
        return _rational(_ring(zero), [0, 1])

    @property
    def zero(self):
        return _Q0 if self._field is None else self._field.zero()

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions or NumberFieldElements, built once."""
        if self._coeffs is None:
            self._coeffs = tuple(_scalar(self._field, col, self._den) for col in zip(*self._rows))
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self._rows[0]) - 1

    def is_zero(self) -> bool:
        return not self._rows[0]

    def is_one(self) -> bool:
        r = self._rows
        return len(r[0]) == 1 and r[0][0] == self._den == 1 and not any([x[0] for x in r[1:]])

    def leading(self):
        return _scalar(self._field, [r[-1] for r in self._rows], self._den) if self._rows[0] else self.zero

    def __repr__(self):
        terms = [f"({c})*t^{i}" if i else f"({c})" for i, c in enumerate(self.coeffs) if c]
        return "Poly(" + (" + ".join(terms) or "0") + ")"

    def __eq__(self, other):
        if isinstance(other, Poly):
            if other._field is self._field:
                return self._den == other._den and self._rows == other._rows
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, NumberFieldElement)):
            return self == Poly([other], zero=self.zero)
        return NotImplemented

    def __hash__(self):
        # a constant equals its scalar, so it hashes as one; equal Polys over Q
        # and over a field share their first row and den
        if self.degree <= 0:
            return hash(self.leading())
        return hash((tuple(self._rows[0]), self._den))

    def _wrap(self, other):
        """other as a Poly over this one's scalars; None, for NotImplemented, if it
        is no exact scalar or Poly. A Poly over another ring raises TypeError."""
        if isinstance(other, Poly):
            _check_ring(self._field, other._field)
            return other
        if isinstance(other, (int, Fraction, NumberFieldElement)):
            return Poly([other], zero=self.zero)
        return None

    def _combine(self, other, sign: int):
        """self + sign * other, over the lcm of the denominators."""
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        g = gcd(self._den, o._den)
        s, t, a, b = o._den // g, sign * (self._den // g), self._rows, o._rows
        if len(a[0]) < len(b[0]):
            a, b, s, t = b, a, t, s
        rows = [[s * x + t * y for x, y in zip(u, v)] + [s * x for x in u[len(v):]] for u, v in zip(a, b)]
        return _make(self._field, rows, self._den // g * o._den)

    __add__ = __radd__ = partialmethod(_combine, sign=1)
    __sub__ = partialmethod(_combine, sign=-1)

    def __rsub__(self, other):
        return (-self)._combine(other, 1)

    def __neg__(self):
        return _make(self._field, [[-c for c in r] for r in self._rows], self._den)

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        if o.is_one() or self.is_one():
            return self if o.is_one() else o
        return _make(self._field, mulmod(self._rows, o._rows, _tail(self._field)), self._den * o._den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of Poly; use RationalFunction")
        out, base = _rational(self._field, [1]), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            base = base * base if n else base
        return out

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        _check_ring(self._field, other._field)
        inv, f = other._lead_inverse(), self._field  # one adjugate, for m and for q
        m = other._times(inv)
        q, r, s = pdiv(self._rows, m._rows, m._den, _tail(f))
        q = _make(f, [[m._den * c for c in row] for row in q], self._den * s)
        return q._times(inv), _make(f, r, self._den * s)

    def __floordiv__(self, other):
        o = self._wrap(other)
        return NotImplemented if o is None else self.divmod(o)[0]

    def __mod__(self, other):
        o = self._wrap(other)
        return NotImplemented if o is None else self.divmod(o)[1]

    def _lead_inverse(self):
        """1/c for the leading coefficient c of the nonzero self, as the pair
        (scalar rows a, integer n) of a / n; None if c is 1."""
        c = [r[-1] for r in self._rows]
        if c[0] == self._den and not any(c[1:]):
            return None
        a, n = self._field.adjugate(c) if any(c[1:]) else ([1], c[0])
        return [[self._den * x] for x in a], n

    def _times(self, inv) -> "Poly":
        """self times the scalar a / n of inv = (a, n), or self if inv is None."""
        if inv is None:
            return self
        return _make(self._field, mulmod(self._rows, inv[0], _tail(self._field)), self._den * inv[1])

    def _div_lead(self, p: "Poly") -> "Poly":
        """self over the leading coefficient c of the nonzero p: self if c is 1."""
        return self._times(p._lead_inverse())

    def monic(self) -> "Poly":
        return self._div_lead(self) if self._rows[0] else self

    def gcd(self, other: "Poly") -> "Poly":
        _check_ring(self._field, other._field)
        a, b = self, other.monic()
        while b.degree > 0:
            a, b = b, _make(a._field, pdiv(a._rows, b._rows, b._den, _tail(a._field))[1], 1).monic()
        return a.monic() if b.is_zero() else b  # a nonzero constant b is 1

    def derivative(self) -> "Poly":
        return _make(self._field, [[i * c for i, c in enumerate(r)][1:] for r in self._rows], self._den)

    def evaluate(self, x):
        r = _rational_value(self._field, x)
        if r is None or self.is_zero():  # Horner's rule on the scalars
            return reduce(lambda acc, c: acc * x + c, reversed(self.coeffs), self.zero)
        vals = [b[-1] for b in horner(self._rows, r)]
        return _scalar(self._field, vals, self._den * r.denominator**self.degree)

    def compose(self, other: "RationalFunction") -> "RationalFunction":
        """Substitute the rational function `other` for the variable."""
        zero = RationalFunction(_rational(self._field, []))
        return reduce(lambda acc, c: acc * other + c, reversed(self.coeffs), zero)

    def valuation(self, place) -> int:
        """Multiplicity of the root `place` (a scalar), or -degree at INFINITY."""
        return self.leading_term_at(place)[0]

    def leading_term_at(self, place) -> tuple:
        """(v, c) with self = c (t - place)^v + higher powers and c != 0; at
        INFINITY (-degree, leading coefficient), the term c s^v in s = 1/t."""
        if self.is_zero():
            raise ValueError("valuation of the zero polynomial")
        if place is INFINITY:
            return -self.degree, self.leading()
        v, r = 0, _rational_value(self._field, place)
        if r is None:  # divide by t - place while it is a root
            lin, rem = Poly([-(self.zero + place), self.zero + 1], zero=self.zero), self
            while not (c := rem.evaluate(place)):
                v, rem = v + 1, rem // lin
            return v, c
        # rows of length n divided by t - r come back times q^(n-2), r = p/q;
        # den gathers those factors, so the last sums hold c q^(n-1) den
        q, den, sums = r.denominator, self._den, horner(self._rows, r)
        while not any([b[-1] for b in sums]):
            den *= q ** (len(sums[0]) - 2)
            v, sums = v + 1, horner([[c * q**j for j, c in enumerate(b[-2::-1])] for b in sums], r)
        return v, _scalar(self._field, [b[-1] for b in sums], den * q ** (len(sums[0]) - 1))

    def reverse(self, degree: int | None = None) -> "Poly":
        """Coefficient reversal t -> 1/t, padded to the given degree."""
        d = self.degree if degree is None else degree
        if d < self.degree:
            raise ValueError("reversal degree below actual degree")
        return _make(self._field, [[0] * (d - self.degree) + r[::-1] for r in self._rows], self._den)


def _make(field, rows: list[list[int]], den: int, p: Poly | None = None) -> Poly:
    """The Poly sum_k gen^k rows[k] / den over field, normalised (into p)."""
    p = object.__new__(Poly) if p is None else p
    p._field, (p._rows, p._den), p._coeffs = field, normalise(rows, den), None
    return p


def _rational(field, ints: list[int]) -> Poly:
    """The Poly with the integer coefficients ints over field (None for Q)."""
    return _make(field, [list(ints)] + [[0] * len(ints)] * (field.degree - 1 if field else 0), 1)


def _scalar(field, coords, den: int):
    return Fraction(coords[0], den) if field is None else NumberFieldElement(field, tuple(coords), den)


def _rational_value(field, x):
    """x as an int or Fraction if it is a rational scalar of field, else None."""
    if isinstance(x, NumberFieldElement) and x.field is field and x.is_rational():
        return x.rational_value()
    return x if isinstance(x, (int, Fraction)) else None


def _tail(field) -> tuple[int, ...]:
    return () if field is None else field.defining


def _ring(zero):
    """The number field of a scalar zero, or None for Q."""
    return zero.field if isinstance(zero, NumberFieldElement) else None


def _check_ring(field, other_field):
    if field is not other_field:
        raise TypeError("mixed scalar rings: Q and a number field, or two number fields")


def _cancel(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """(a/g, b/g), g = gcd(a, b); none is taken for a constant, coprime to all."""
    if a.degree <= 0 or b.degree <= 0:
        return a, b
    g = a.gcd(b)
    return (a, b) if g.is_one() else (a // g, b // g)


class RationalFunction:
    """Quotient of two Polys, reduced, with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if not isinstance(num, Poly):
            num = Poly([num])
        den = _rational(num._field, [1]) if den is None else den
        _check_ring(num._field, den._field)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        # a constant denominator is coprime to anything; den.monic() normalises it
        if den.degree > 0 and not num.is_zero():
            num, den = _cancel(num, den)
        if num.is_zero():
            den = _rational(num._field, [1])
        self.num, self.den = num._div_lead(den), den.monic()

    @classmethod
    def _reduced(cls, num: Poly, den: Poly) -> "RationalFunction":
        """num/den already coprime with den monic: no gcd, no scaling."""
        out = object.__new__(cls)
        out.num = num
        out.den = den if not num.is_zero() else _rational(num._field, [1])
        return out

    def __repr__(self):
        return f"RF({self.num!r})" if self.den.is_one() else f"RF({self.num!r} / {self.den!r})"

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
        # with denominator 1 it equals its numerator, so it hashes as that
        return hash(self.num) if self.den.is_one() else hash((self.num, self.den))

    def _wrap(self, other):
        """other as a rational function over this one's scalars, or None.
        Polys and rational functions over another scalar ring raise TypeError
        here, so every operator rejects them in either operand order."""
        if isinstance(other, RationalFunction):
            _check_ring(self.num._field, other.num._field)
            return other
        if isinstance(other, (Poly, int, Fraction, NumberFieldElement)):
            p = self.num._wrap(other)
            return RationalFunction._reduced(p, _rational(p._field, [1]))
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
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        o = self._wrap(other)
        return NotImplemented if o is None else o + (-self)

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        if o is self:
            return self**2
        a, b = _cancel(self.num, o.den)
        c, d = _cancel(o.num, self.den)
        return RationalFunction._reduced(a * c, d * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._wrap(other)
        return NotImplemented if o is None else self * o._reciprocal()

    def __rtruediv__(self, other):
        o = self._wrap(other)
        return NotImplemented if o is None else o / self

    def _reciprocal(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction._reduced(self.den._div_lead(self.num), self.num.monic())

    def __pow__(self, n: int):
        base = self._reciprocal() if n < 0 else self
        return RationalFunction._reduced(base.num ** abs(n), base.den ** abs(n))

    def evaluate(self, x):
        d = self.den.evaluate(x)
        if not d:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num.evaluate(x) / d

    def compose(self, other: "RationalFunction") -> "RationalFunction":
        return self.num.compose(other) / self.den.compose(other)

    def valuation(self, place) -> int:
        """Order of vanishing at the place; at INFINITY in the parameter 1/t."""
        if self.is_zero():
            raise ValueError("valuation of zero")
        if place is INFINITY:
            return self.den.degree - self.num.degree
        return self.num.valuation(place) - self.den.valuation(place)

    def leading_term_at(self, place) -> tuple:
        """(v, c) with self = c pi^v + higher powers of pi = t - place, or of
        pi = 1/t at INFINITY: the quotient of the two Polys' leading terms."""
        if self.is_zero():
            raise ValueError("valuation of zero")
        (v, c), (w, d) = self.num.leading_term_at(place), self.den.leading_term_at(place)
        return v - w, c / d

    def over(self, zero) -> "RationalFunction":
        """The same function with its coefficients in the scalar ring of `zero`:
        rationals lift into a number field; a number field scalar sent to Q or
        to another field raises TypeError."""
        f = _ring(zero)
        if f is self.num._field:
            return self
        if self.num._field is None:  # the rows lift as they are, and stay reduced
            num, den = (_make(f, p._rows + [[0] * (p.degree + 1)] * (f.degree - 1), p._den)
                        for p in (self.num, self.den))
            return RationalFunction._reduced(num, den)
        raise TypeError("a number field scalar cannot be sent to Q or to another field")
