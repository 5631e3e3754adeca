"""Symbolic verification of the quartic surface's geometry.

Everything here reduces a polynomial identity to zero in exact arithmetic:
- the cyclic degree-6 quotient map onto the surface and the coordinate changes
  identifying the second fibration with the Fermat-like quartic, on univariate
  Polys at sample points (below);
- the graph construction that recovers the parametric solution family, over
  Q(w)(u);
- the singular points, lines and line orbits of the quartic
  F = X*Y*(X^2 + Y^2 - W^2) - Z^3*W, on univariate Polys over Q(zeta12).
  F(p + t*e_i) carries F(p) and dF/dX_i(p) as its two lowest coefficients,
  and F(t*p + q) is zero exactly when the line through p and q lies on the
  surface. A line is keyed by its normalised Plucker coordinates, so a
  symmetry's image of a line is found by one dict lookup.

The psi and Inose identities are polynomials in a variable v (u, t), a
coordinate x (x0) and a root y with y^2 = x^3 - c(v) (y0^2 = x0^3 - 1; psi's
s^2 = u^6 - 1 has no x0). Modulo the relations each is A + B*y, A and B
polynomials in x. Give x weight 2 and y weight 3: rewriting y^2 never raises
the weight, so at weight at most w the x-degree is at most w//2. x is never
rewritten, so with x = x_j rational, v a Poly and each root a _Sqrt pair, the
result is A(x_j) + B(x_j)*y exactly; zero at x_j = 0..w//2 makes A and B zero.
w is 6 for psi (15 when z keeps y0), 9 for Inose (i) and 16 for (ii).

The quartic's 24 symmetries are the order-8 group of diophantine's t1, t2, t3
(signs and the swap of x and y) times the rescaling z -> w^k*z, k = 0, 1, 2,
which commutes with all three; both the graph check and the line orbits take
them from symmetry_group().
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .diophantine import SymmetryElement, symmetry_group
from .elliptic import add, curve_over_omega, curve_sextic_twist, point_over_omega, section_tau
from .polynomials import Poly, RationalFunction
from .rings import (
    QOMEGA,
    QZETA12,
    I_Z12,
    SQRT3_Z12,
    SQRTM3_Z12,
    W,
    W_Z12,
)

# --- identities at sample points ------------------------------------------


class _Sqrt:
    """a + b*r with r^2 = f, for a, b and f in one ring R: Polys, or _Sqrt over
    a smaller ring. An operand of smaller depth (a Poly, a scalar) is an
    element of R; one of larger depth takes this one as its scalar."""

    __slots__ = ("a", "b", "f", "depth")

    def __init__(self, a, b, f):
        self.a, self.b, self.f = a, b, f
        self.depth = getattr(a, "depth", 0) + 1

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def __add__(self, other):
        depth = getattr(other, "depth", 0)
        if depth > self.depth:
            return other + self
        if depth < self.depth:
            return _Sqrt(self.a + other, self.b, self.f)
        return _Sqrt(self.a + other.a, self.b + other.b, self.f)

    def __mul__(self, other):
        depth = getattr(other, "depth", 0)
        if depth > self.depth:
            return other * self
        if depth < self.depth:
            return _Sqrt(self.a * other, self.b * other, self.f)
        a, b, c, d = self.a, self.b, other.a, other.b
        return _Sqrt(a * c + b * d * self.f, a * d + b * c, self.f)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return _Sqrt(-self.a, -self.b, self.f)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __pow__(self, n: int):
        half = (self * self) ** (n // 2) if n > 1 else 1
        return half * self if n % 2 else half


class SampledResidual(tuple):
    """A residual's values at x_j = 0, 1, ..., w//2: zero iff every value is."""

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self)


# --- quotient map psi ------------------------------------------------------


def _psi_numerator(u, s, x0, y0, z_has_denominator: bool):
    # x*y*(x^2 + y^2 - 1) * y0^3  with x = s/y0, y = u^3:
    #   = s*u^3 * (s^2 + (u^6 - 1) * y0^2) * y0^(3-3)
    lhs = s * u**3 * (s**2 + (u**6 - 1) * y0**2)
    rhs = (u * s * x0) ** 3  # z^3 * y0^3
    return lhs - (rhs if z_has_denominator else rhs * y0**3)


def quotient_psi_residual(z_has_denominator: bool = True, with_relations: bool = True) -> SampledResidual:
    """Numerator of x*y*(x^2+y^2-1) - z^3 under the degree-6 quotient map.

    The map sends ((u,s), (x0,y0)) to x = s/y0, y = u^3, z = u*s*x0/y0.
    Denominators are cleared by y0^3; the relations s^2 = u^6 - 1 and
    y0^2 = x0^3 - 1 reduce the result. The flags exist for negative controls:
    dropping z's denominator or the relations must break the identity.
    Without the relations s = 2 and y0 = 3, off both curves, so a nonzero
    value shows a nonzero numerator.
    """
    u = Poly.x()
    s = _Sqrt(0 * u, u**0, u**6 - 1)
    points = range((6 if z_has_denominator else 15) // 2 + 1)
    if not with_relations:
        return SampledResidual(_psi_numerator(u, 2, x0, 3, z_has_denominator) for x0 in points)
    return SampledResidual(_psi_numerator(u, s, x0, _Sqrt(0 * s, 0 * s + 1, x0**3 - 1), z_has_denominator)
                           for x0 in points)


def verify_quotient_psi() -> bool:
    """True iff the quotient map lands on the surface identically."""
    return quotient_psi_residual().is_zero()


# --- the graph that recovers the parametric family ------------------------


@dataclass(frozen=True)
class PaglianiGraphResult:
    matches: bool
    matched_symmetry: str | None


def pagliani_graph_image(sign: int = 1, use_pi1: bool = False):
    """psi applied to the graph of P -> [sign] * projection(P) + (1, 0).

    projection is the degree-2 map (u, s) -> (u^2, s) from s^2 = D = u^6 - 1
    onto y^2 = x^3 - 1 by default; use_pi1 swaps in the other projection
    (u, s) -> (-1/u^2, s/u^3) as a negative control: it lands off the curve,
    so the image cannot be a surface solution and E.point raises ValueError.

    Over Q(w)(u)(s) the map (x, y) -> (D x, s^3 y) is a Weierstrass
    isomorphism from y^2 = x^3 - 1 onto the sextic twist y^2 = x^3 - D^3
    (curve_sextic_twist). It sends (1, 0) to section_tau() = (D, 0) and
    (u^2, +-s) to (u^2 D, +-D^2) = +-base_change_t_u3(section_sigma1()), so
    the sum is taken there, over Q(w)(u), with no s left. psi,
    (x, y, z) = (s/y0, u^3, u s x0/y0), reads (D^2/Y, u^3, u X D/Y) in the
    twist coordinates (X, Y).
    """
    E = curve_over_omega(curve_sextic_twist())
    u = RationalFunction(Poly.x(zero=QOMEGA.zero()))
    D = u**6 - 1
    if use_pi1:
        x, y = -D / (u * u), D * D / u**3
    else:
        x, y = u * u * D, D * D
    if sign < 0:
        y = -y
    S = add(E.point(x, y), point_over_omega(section_tau()), E)
    return (D * D / S.y, u**3, u * S.x * D / S.y)


def _pagliani_candidates():
    """(label, image) for the parametric solution triple's 24 symmetry images:
    g in symmetry_group(), then z -> w^k*z."""
    u = RationalFunction(Poly.x(zero=QOMEGA.zero()))
    family = ((u * u - 1) ** 2 / 3, u**3, u * (u * u - 1) * (u * u + 2) / 3)
    for g in symmetry_group():
        x, y, z = g.apply(family)
        for k in range(3):
            yield ("".join(g.word) or "id") + (f".w{k}" if k else ""), (x, y, z * W**k)


def verify_pagliani_graph(sign: int = 1, use_pi1: bool = False) -> PaglianiGraphResult:
    """Check that the graph construction reproduces the parametric family.

    Returns whether the psi-image of the graph equals the parametric triple up
    to the 8 integer symmetries combined with the cube-root-of-unity rescaling
    of z, and which symmetry matched.
    """
    try:
        img = pagliani_graph_image(sign=sign, use_pi1=use_pi1)
    except ValueError:  # the projection missed y^2 = x^3 - 1
        return PaglianiGraphResult(False, None)
    for name, triple in _pagliani_candidates():
        if img == triple:
            return PaglianiGraphResult(True, name)
    return PaglianiGraphResult(False, None)


# --- the two coordinate-change identities ----------------------------------


def _second_fibration_rhs(t, x, coefficient: int):
    return x**3 - coefficient * t**2 * (t - 1) ** 2 * (t + 1) ** 2 * (t**2 + 1) ** 2


def _inose_i(t, x, y):
    """The (X,Y,Z,W) substitution into the quartic, over Q(zeta12)."""
    s3, sm3, i = SQRT3_Z12, SQRTM3_Z12, I_Z12
    X = 72 * s3 * t * (t**2 + 1) ** 2
    Y = 3 * y - 36 * sm3 * t * (t**4 - 1)
    Z = -6 * sm3 * (t**2 + 1) * x
    Wc = -1 * (t * (3 * i * y - 36 * s3 * t * (t**2 + 3) * (t**2 + 1)))
    return quartic(X, Y, Z, Wc)


def _inose_ii(t, x, y, flip_wprime_sign: bool):
    """X'(X'^3+Y'^3) - Z'(Z'^3+W'^3) under the (X',Y',Z',W') substitution."""
    Xp = -2 * (t**4 + 1) * y - t * x**2 + 12 * t**3 * x - 72 * t * (t**4 - 1) ** 2
    Yp = -2 * (2 * t**4 - 1) * y + t * x**2 - 12 * t**3 * (t**4 - 1) * x + 72 * t * (t**4 - 1)
    Zp = t * Xp
    Wp = 2 * t * (t**4 - 2) * y + t**2 * x**2 + 12 * (t**4 - 1) * x - 72 * t**6 * (t**4 - 1)
    if flip_wprime_sign:
        Wp = -Wp
    return Xp * (Xp**3 + Yp**3) - Zp * (Zp**3 + Wp**3)


def inose_substitution_residuals(coefficient: int = 432, flip_wprime_sign: bool = False):
    """Residuals of the two quartic identities modulo the Weierstrass relation.

    (i) the (X,Y,Z,W) substitution satisfies X*Y*(X^2+Y^2-W^2) = Z^3*W over
    Q(zeta12); (ii) the (X',Y',Z',W') substitution satisfies
    X'(X'^3+Y'^3) = Z'(Z'^3+W'^3) over Q. Both are taken modulo
    y^2 = x^3 - 432 t^2(t-1)^2(t+1)^2(t^2+1)^2, at x = 0..4 for (i) and
    x = 0..8 for (ii). The keyword arguments exist for negative controls.
    """
    def sampled(identity, weight, zero):
        t = Poly.x(zero=zero)
        return SampledResidual(identity(t, x, _Sqrt(0 * t, t**0, _second_fibration_rhs(t, x, coefficient)))
                               for x in range(weight // 2 + 1))

    return (sampled(_inose_i, 9, QZETA12.zero()),
            sampled(lambda t, x, y: _inose_ii(t, x, y, flip_wprime_sign), 16, None))


def verify_inose_and_eps2(coefficient: int = 432, flip_wprime_sign: bool = False) -> bool:
    r1, r2 = inose_substitution_residuals(coefficient, flip_wprime_sign)
    return r1.is_zero() and r2.is_zero()


# --- singular points, lines, orbits ----------------------------------------


def quartic(X, Y, Z, W):
    """X*Y*(X^2 + Y^2 - W^2) - Z^3*W for any four ring elements."""
    return X * Y * (X**2 + Y**2 - W**2) - Z**3 * W


SINGULAR_POINTS = (
    (0, 0, 0, 1),
    (1, 0, 0, 1),
    (-1, 0, 0, 1),
    (0, 1, 0, 1),
    (0, -1, 0, 1),
)


def _lines():
    """The 18 lines, each as two spanning points."""
    one = QZETA12.one()
    zero = QZETA12.zero()
    i, w = I_Z12, W_Z12
    w2 = w * w

    def pt(*cs):
        return tuple(zero + c for c in cs)

    lines = [
        (pt(0, 1, 0, 0), pt(0, 0, 0, 1)),   # X=0, Z=0
        (pt(1, 0, 0, 0), pt(0, 0, 0, 1)),   # Y=0, Z=0
        (pt(0, 1, 0, 0), pt(0, 0, 1, 0)),   # X=0, W=0
        (pt(1, 0, 0, 0), pt(0, 0, 1, 0)),   # Y=0, W=0
        ((i, one, zero, zero), pt(0, 0, 1, 0)),   # X=iY, W=0
        ((-i, one, zero, zero), pt(0, 0, 1, 0)),  # X=-iY, W=0
    ]
    # the twelve lines {X = aW, Y = b Z} and {Y = aW, X = b Z} with a = +-1,
    # b in {a, a*w, a*w^2}
    for xfirst in (True, False):
        for a in (one, -one):
            for b in (a, a * w, a * w2):
                if xfirst:
                    lines.append(((a, zero, zero, one), (zero, b, one, zero)))
                else:
                    lines.append(((zero, a, zero, one), (b, zero, one, zero)))
    return lines


def _plucker(p, q):
    """The line through p and q as its six 2x2 minors, scaled to make the first
    nonzero one 1: equal for any two spanning pairs of one line."""
    minors = [p[i] * q[j] - p[j] * q[i] for i, j in combinations(range(4), 2)]
    lead = next(m for m in minors if m).inverse()
    return tuple(m * lead for m in minors)


@dataclass(frozen=True)
class SurfaceGeometryReport:
    singular_points_ok: bool
    lines_on_surface: tuple[bool, ...]
    orbits: tuple[tuple[int, ...], ...]

    @property
    def orbit_sizes(self) -> tuple[int, ...]:
        return tuple(sorted(len(o) for o in self.orbits))

    @property
    def all_ok(self) -> bool:
        return (
            self.singular_points_ok
            and all(self.lines_on_surface)
            and self.orbit_sizes == (2, 2, 2, 12)
        )


def verify_lines_and_singular_points() -> SurfaceGeometryReport:
    """Check the five singular points, the 18 lines, and their orbit partition."""
    zero = QZETA12.zero()

    # F(p + t e_i) has the constant coefficient F(p) and the linear one dF/dX_i(p)
    sing_ok = True
    for p in SINGULAR_POINTS:
        for i in range(4):
            f = quartic(*(Poly([c, int(j == i)], zero=zero) for j, c in enumerate(p)))
            if any(f.coeffs[:2]):
                sing_ok = False

    # F(a p + b q) is a binary quartic with the coefficients of F(t p + q)
    lines = _lines()
    on_surface = [quartic(*(Poly([qc, pc], zero=zero) for pc, qc in zip(p, q))).is_zero()
                  for p, q in lines]

    # orbit partition under the order-24 projective symmetry group: its orbits
    # are the connected components under its generators t1, t2, t3 and
    # Z -> wZ, and if every generator maps each line to a listed line, so does
    # every group element
    order = len(symmetry_group())
    if order != 8:
        raise ArithmeticError(f"the integer symmetry group has {order} elements, not 8")

    def images(P):
        X, Y, Z, Wc = P
        flips = [(*SymmetryElement((n,)).apply((X, Y, Z)), Wc) for n in ("t1", "t2", "t3")]
        return flips + [(X, Y, W_Z12 * Z, Wc)]

    index = {_plucker(p, q): j for j, (p, q) in enumerate(lines)}
    parent = list(range(len(lines)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for idx, (p, q) in enumerate(lines):
        for gp, gq in zip(images(p), images(q)):
            j = index.get(_plucker(gp, gq))
            if j is None:
                raise RuntimeError("symmetry image is not one of the listed lines")
            ri, rj = find(idx), find(j)
            if ri != rj:
                parent[ri] = rj
    orbits: dict[int, list[int]] = {}
    for i in range(len(lines)):
        orbits.setdefault(find(i), []).append(i)
    orbit_tuple = tuple(tuple(sorted(o)) for o in sorted(orbits.values(), key=lambda o: (len(o), o)))
    return SurfaceGeometryReport(sing_ok, tuple(on_surface), orbit_tuple)
