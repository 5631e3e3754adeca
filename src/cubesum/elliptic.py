"""Elliptic curves over K(t) and their sections, as exact rational functions.

Curves are short Weierstrass y^2 = x^3 + A(t)x + B(t) over K(t) for K one of
Q, Q(w), Q(zeta12). Sections are points with rational-function coordinates;
the chord-tangent law, the order-3 twist (x,y) -> (wx, y) on j = 0 curves, and
the degree-3 base change t = u^3 are all implemented symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polynomials import Poly, RationalFunction
from .rings import NumberFieldElement, QOMEGA, W, W_Z12


def _rf(value, zero=None) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, Poly):
        return RationalFunction(value)
    return RationalFunction(Poly([value], zero=zero))


class FunctionFieldCurve:
    """y^2 = x^3 + A(t) x + B(t) with nonzero discriminant.

    A and B have their coefficients in one scalar ring; mixing Q with a
    number field raises TypeError. A curve is not changed after __init__, so
    it keeps the points it has checked or built with the group law, and
    fibration.classify_fibers keeps its fibers on it.
    """

    def __init__(self, A, B, name: str = ""):
        self.A = _rf(A)
        self.B = _rf(B)
        self.name = name
        disc = self.A**3 * 4 + self.B**2 * 27
        if disc.is_zero():
            raise ValueError("singular curve: 4A^3 + 27B^2 = 0")
        self._on_curve: set[RationalFunctionPoint] = set()
        self._fibers = None  # filled by fibration.classify_fibers

    def discriminant(self) -> RationalFunction:
        return (self.A**3 * 4 + self.B**2 * 27) * (-16)

    def __repr__(self):
        label = self.name or "E"
        return f"{label}: y^2 = x^3 + ({self.A!r})x + ({self.B!r})"

    def __eq__(self, other):
        if not isinstance(other, FunctionFieldCurve):
            return NotImplemented
        return self.A == other.A and self.B == other.B

    def contains(self, point: "RationalFunctionPoint") -> bool:
        if point.is_infinity() or point in self._on_curve:
            return True
        x, y = point.x, point.y
        if not (y * y - (x * x * x + self.A * x + self.B)).is_zero():
            return False
        self._on_curve.add(point)
        return True

    def point(self, x, y) -> "RationalFunctionPoint":
        p = RationalFunctionPoint(_rf(x), _rf(y))
        if not self.contains(p):
            raise ValueError(f"point not on {self.name or 'curve'}")
        return p

    def infinity(self) -> "RationalFunctionPoint":
        return RationalFunctionPoint(None, None)


@dataclass(frozen=True)
class RationalFunctionPoint:
    """A section: either the point at infinity or an (x(t), y(t)) pair."""

    x: RationalFunction | None
    y: RationalFunction | None

    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self):
        if self.is_infinity():
            return "O"
        return f"({self.x!r}, {self.y!r})"


def negate(P: RationalFunctionPoint) -> RationalFunctionPoint:
    if P.is_infinity():
        return P
    return RationalFunctionPoint(P.x, -P.y)


def add(P: RationalFunctionPoint, Q: RationalFunctionPoint, E: FunctionFieldCurve) -> RationalFunctionPoint:
    """Chord-tangent addition; infinity is the identity. Each point is checked
    on E once per curve instance (see FunctionFieldCurve.contains)."""
    for pt in (P, Q):
        if not E.contains(pt):
            raise ValueError("point not on curve")
    return _chord_tangent(P, Q, E)


def _chord_tangent(P: RationalFunctionPoint, Q: RationalFunctionPoint,
                   E: FunctionFieldCurve) -> RationalFunctionPoint:
    """The group law on points already known to lie on E; E remembers the
    result as on the curve."""
    if P.is_infinity():
        return Q
    if Q.is_infinity():
        return P
    if P.x == Q.x:
        if (P.y + Q.y).is_zero():
            return E.infinity()
        # tangent
        lam = (P.x * P.x * 3 + E.A) / (P.y * 2)
    else:
        lam = (Q.y - P.y) / (Q.x - P.x)
    x3 = lam * lam - P.x - Q.x
    y3 = lam * (P.x - x3) - P.y
    R = RationalFunctionPoint(x3, y3)
    E._on_curve.add(R)
    return R


def double(P: RationalFunctionPoint, E: FunctionFieldCurve) -> RationalFunctionPoint:
    return add(P, P, E)


def multiply(n: int, P: RationalFunctionPoint, E: FunctionFieldCurve) -> RationalFunctionPoint:
    """n*P by double-and-add, with n.bit_length() - 1 doublings. P is checked
    on E; the points the group law builds from it are on E by construction and
    are remembered as such."""
    if not E.contains(P):
        raise ValueError("point not on curve")
    if n < 0:
        n, P = -n, negate(P)
    R = E.infinity()
    base = P
    while n:
        if n & 1:
            R = _chord_tangent(R, base, E)
        n >>= 1
        base = _chord_tangent(base, base, E) if n else base
    return R


def cm_omega(P: RationalFunctionPoint, E: FunctionFieldCurve) -> RationalFunctionPoint:
    """The order-3 automorphism (x, y) -> (w x, y) on a j = 0 curve.

    Requires A = 0 and a coefficient field containing w.
    """
    if not E.A.is_zero():
        raise ValueError("cm_omega needs a curve with A = 0")
    z = E.B.zero_scalar
    if not isinstance(z, NumberFieldElement):
        raise ValueError("coefficient field must contain w (use curve_over_omega)")
    if P.is_infinity():
        return P
    return RationalFunctionPoint(P.x * (W if z.field is QOMEGA else W_Z12), P.y)


def curve_over_omega(E: FunctionFieldCurve) -> FunctionFieldCurve:
    """Base-change a curve with rational coefficients to Q(w)(t)."""
    z = QOMEGA.zero()
    return FunctionFieldCurve(E.A.over(z), E.B.over(z), name=E.name + "_w")


def point_over_omega(P: RationalFunctionPoint) -> RationalFunctionPoint:
    if P.is_infinity():
        return P
    z = QOMEGA.zero()
    return RationalFunctionPoint(P.x.over(z), P.y.over(z))


# --- the two standard fibrations -----------------------------------------


def curve_main() -> FunctionFieldCurve:
    """y^2 = x^3 - t^4 (t^2 - 1)^3, the fibration carrying the cube-sum points."""
    t = Poly.x()
    return FunctionFieldCurve(Poly([]), -(t**4) * (t**2 - 1) ** 3, name="E_t")


def curve_sextic_twist() -> FunctionFieldCurve:
    """y^2 = x^3 - (u^6 - 1)^3, the minimal model after the base change t = u^3."""
    u = Poly.x()
    return FunctionFieldCurve(Poly([]), -((u**6 - 1) ** 3), name="E'_u")


def curve_second_fibration() -> FunctionFieldCurve:
    """y^2 = x^3 - 432 t^2 (t-1)^2 (t+1)^2 (t^2+1)^2, the pencil through a line."""
    t = Poly.x()
    return FunctionFieldCurve(
        Poly([]), t**2 * (t - 1) ** 2 * (t + 1) ** 2 * (t**2 + 1) ** 2 * (-432),
        name="eps2",
    )


def section_sigma1() -> RationalFunctionPoint:
    """sigma_1 = (t^2(t^2-1), t^2(t^2-1)^2) on the main fibration."""
    t = Poly.x()
    return RationalFunctionPoint(
        RationalFunction(t**2 * (t**2 - 1)), RationalFunction(t**2 * (t**2 - 1) ** 2)
    )


def section_tau() -> RationalFunctionPoint:
    """The 2-torsion section (u^6 - 1, 0) of the sextic-twist model."""
    u = Poly.x()
    return RationalFunctionPoint(
        RationalFunction(u**6 - 1), RationalFunction(Poly([], zero=Fraction(0)))
    )


def base_change_t_u3(P: RationalFunctionPoint) -> RationalFunctionPoint:
    """Push a section of the main fibration to the sextic-twist model.

    Substitutes t = u^3 and rescales (x, y) -> (x/u^4, y/u^6), which is the
    minimalizing twist.
    """
    if P.is_infinity():
        return P
    z = P.x.zero_scalar
    u = Poly.x(zero=z)
    u3 = RationalFunction(u**3)
    x = P.x.compose(u3) / RationalFunction(u**4)
    y = P.y.compose(u3) / RationalFunction(u**6)
    return RationalFunctionPoint(x, y)


def section_to_xyz(P: RationalFunctionPoint, t=None) -> tuple[RationalFunction, RationalFunction, RationalFunction]:
    """Affine surface solution (x, y, z) carried by a section of the main model.

    Inverts x1 = (t^3 - t) z / x, y1 = (t^3 - t)^2 / x into
    x = (t^3 - t)^2 / y1, y = t, z = x1 (t^3 - t) / y1. `t` may be a rational
    function of another parameter (u^3 for pulled-back sections); by default it
    is the section's own variable. Torsion sections (y1 = 0) have no affine
    image.
    """
    if P.is_infinity():
        raise ValueError("no affine image: infinity section")
    if P.y.is_zero():
        raise ValueError("no affine image: 2-torsion section")
    z = P.x.zero_scalar
    if t is None:
        t = RationalFunction(Poly.x(zero=z))
    t = _rf(t, zero=z)
    t3t = t * t * t - t
    x = t3t * t3t / P.y
    zc = P.x * t3t / P.y
    return x, t, zc


def sextic_section_to_xyz(P: RationalFunctionPoint) -> tuple[RationalFunction, RationalFunction, RationalFunction]:
    """Affine solution for a section of the sextic-twist model, in u.

    Undoes the minimalizing twist (x1 = u^4 x2, y1 = u^6 y2) and applies
    section_to_xyz with t = u^3.
    """
    if P.is_infinity():
        raise ValueError("no affine image: infinity section")
    zc = P.x.zero_scalar
    u = Poly.x(zero=zc)
    x1 = P.x * RationalFunction(u**4)
    y1 = P.y * RationalFunction(u**6)
    return section_to_xyz(
        RationalFunctionPoint(x1, y1), t=RationalFunction(u**3)
    )
