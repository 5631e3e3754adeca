"""Kodaira fibers, section components, Shioda height pairing, lattice data.

Classification works over residue characteristic 0, so the (v(c4), v(c6),
v(Delta)) lookup replaces the full Tate loop. Places are found without general
factorization: squarefree decomposition, rational-root extraction, and
gcd-refinement against the coefficient valuation layers; residual non-linear
factors are emitted as one fiber per conjugate root.

The place t = infinity is read in the parameter s = 1/t. There A and B become
A~ = s^(4k) A(1/s) and B~ = s^(6k) B(1/s) with the least k that makes both
polynomials, and that model is already minimal. No model is built there: its
valuations at s = 0 are 4k - deg A, 6k - deg B and 12k - deg Delta, so every
place, infinity included, goes through one step (minimality check, Kodaira
lookup, records). Nor is a section twisted: component_of needs only the
leading term c s^v of f(1/s) s^n for f = x, y and B, and that is
v = n + deg den - deg num, c = lead num / lead den. At a finite place the
leading term comes from the Horner rows of Poly.leading_term_at.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf, lcm

from .elliptic import FunctionFieldCurve, RationalFunctionPoint, add
from .polynomials import INFINITY, Poly, RationalFunction
from .rings import NumberFieldElement

# the additive types without cancellation, by v(Delta):
# v(Delta) -> (type, euler, m_t, m_simple, component group)
_KODAIRA_DATA = {
    2: ("II", 2, 1, 1, "1"),
    3: ("III", 3, 2, 2, "Z/2"),
    4: ("IV", 4, 3, 3, "Z/3"),
    6: ("I0*", 6, 5, 4, "(Z/2)^2"),
    8: ("IV*", 8, 7, 3, "Z/3"),
    9: ("III*", 9, 8, 2, "Z/2"),
    10: ("II*", 10, 9, 1, "1"),
}


@dataclass(frozen=True)
class PlaceOnBase:
    """A closed point of the base line: a monic irreducible's root, or infinity.

    For factors of degree > 1 the conjugate roots share the polynomial and are
    told apart by index; valuation data is identical across conjugates.
    """

    poly: Poly | None  # None marks the place at infinity
    index: int = 0

    @property
    def is_infinity(self) -> bool:
        return self.poly is None

    @property
    def degree(self) -> int:
        return 1 if self.is_infinity else self.poly.degree

    def root(self):
        """Exact root value; only available for degree-1 places."""
        if self.is_infinity or self.poly.degree != 1:
            raise ValueError("no scalar root at this place")
        return -self.poly.coeffs[0]

    def __repr__(self):
        if self.is_infinity:
            return "Place(inf)"
        if self.poly.degree == 1:
            return f"Place(t={self.root()})"
        return f"Place(root #{self.index} of {self.poly!r})"


@dataclass(frozen=True)
class KodairaFiber:
    place: PlaceOnBase
    type: str
    euler: int
    m_t: int
    m_simple: int
    component_group: str


@dataclass(frozen=True)
class HeightMatrix:
    """Symmetric Gram matrix with an explicit pairing convention.

    mw-lattice entries are twice the canonical ones; the flag is always
    carried along to keep the factor of two visible.
    """

    entries: tuple[tuple[Fraction, ...], ...]
    convention: str  # "mw-lattice" | "canonical"

    def __post_init__(self):
        if self.convention not in ("mw-lattice", "canonical"):
            raise ValueError(f"unknown convention {self.convention}")
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise ValueError("non-square Gram matrix")
        for i in range(n):
            for j in range(n):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError("Gram matrix not symmetric")

    def to_convention(self, convention: str) -> "HeightMatrix":
        if convention == self.convention:
            return self
        factor = Fraction(2) if convention == "mw-lattice" else Fraction(1, 2)
        return HeightMatrix(
            tuple(tuple(e * factor for e in row) for row in self.entries), convention
        )

    def det(self) -> Fraction:
        return _det([list(r) for r in self.entries])


def _det(m: list[list[Fraction]]) -> Fraction:
    n = len(m)
    m = [row[:] for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


# --- discriminant place extraction -----------------------------------------


def _squarefree_layers(f: Poly) -> list[tuple[Poly, int]]:
    """[(g, e)] with f = const * prod g^e, g squarefree pairwise coprime: the
    squarefree part of f, split by multiplicity in f."""
    return _refine_by(f, f // f.gcd(f.derivative()))


def _rational_roots(f: Poly) -> list[Fraction]:
    """Rational roots of a squarefree polynomial over Q."""
    if f.degree <= 0:
        return []
    den = lcm(*(c.denominator for c in f.coeffs))
    ints = [int(c * den) for c in f.coeffs]
    while ints and ints[0] == 0:
        ints = ints[1:]  # factor t^k already split off by squarefree layers
    roots = [Fraction(0)] if f.coeffs[0] == 0 else []
    if not ints:
        return roots
    a0, an = abs(ints[0]), abs(ints[-1])

    def divisors(n):
        out = set()
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.add(d)
                out.add(n // d)
            d += 1
        return sorted(out)

    for p in divisors(a0):
        for q in divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if not f.evaluate(cand):
                    roots.append(cand)
    return sorted(set(roots))


def _refine_by(f: Poly, h: Poly) -> list[tuple[Poly, int]]:
    """Split squarefree h into buckets by multiplicity of its factors in nonzero f.

    Returns [(h_i, m_i)] with h = prod h_i; every irreducible factor of h_i
    divides f exactly m_i times. Only gcds are used.
    """
    buckets = []
    rem = h
    cur = f
    m = 0
    while rem.degree > 0:
        g = rem.gcd(cur)
        exact = rem // g  # factors with multiplicity exactly m
        if exact.degree > 0:
            buckets.append((exact.monic(), m))
        rem, cur = g, cur // g
        m += 1
    return buckets


def _poly_of(rf: RationalFunction) -> Poly:
    if not rf.is_polynomial():
        raise ValueError("expected a polynomial coefficient")
    p = rf.num
    if isinstance(p.zero, NumberFieldElement):
        # classification happens over Q; curves defined over Q but coerced into
        # a number field for section work descend coefficientwise
        if not all(c.is_rational() for c in p.coeffs):
            raise ValueError("fiber classification is supported only for curves "
                             f"with rational coefficients, not {rf!r}")
        return Poly([c.rational_value() for c in p.coeffs])
    return p


def _twist_at_infinity(E: FunctionFieldCurve) -> int:
    """The least k that makes A~ = s^(4k) A(1/s) and B~ = s^(6k) B(1/s)
    polynomials in s = 1/t, read off the degrees of A and B alone.

    In that model v(A~) = 4k - deg A, v(B~) = 6k - deg B and v(Delta~) =
    12k - deg Delta at s = 0, and the model is minimal there.
    """
    if not (E.A.is_polynomial() and E.B.is_polynomial()):
        raise ValueError("expected a polynomial coefficient")
    # k is the least integer with deg A <= 4k and deg B <= 6k, so at k - 1 one
    # of the two fails: v(A~) < 4 or v(B~) < 6, and no smaller twist exists
    return max(0, -(-E.A.num.degree // 4), -(-E.B.num.degree // 6))


def _kodaira_from_valuations(vA, vB, vD: int) -> tuple[str, int, int, int, str]:
    """Char-0 Kodaira lookup from (v(c4), v(c6), v(Delta)) = (v(A), v(B), vD),
    with inf for a zero coefficient: (type, euler, m_t, m_simple, group)."""
    if vA == 0:
        return f"I{vD}", vD, vD, vD, f"Z/{vD}"
    if (vA, vB) == (2, 3) and vD > 6:  # the leading terms of 4A^3 and 27B^2 cancel
        n = vD - 6
        return f"I{n}*", 6 + n, 5 + n, 4, "Z/4" if n % 2 else "(Z/2)^2"
    # additive and without cancellation, so vD = min(3 v(A), 2 v(B))
    if vD != min(3 * vA, 2 * vB) or vD not in _KODAIRA_DATA:
        raise ValueError(f"unclassifiable valuations (vA={vA}, vB={vB}, vD={vD})")
    return _KODAIRA_DATA[vD]


def classify_fibers(E: FunctionFieldCurve) -> list[KodairaFiber]:
    """Kodaira classification at every bad place of the fibration.

    Requires a globally minimal model (v(A) < 4 or v(B) < 6 everywhere, which
    the toolkit's curves satisfy); raises otherwise. The classification runs
    once per curve instance; each call returns a fresh list.
    """
    if E._fibers is None:
        E._fibers = tuple(_classify(E))
    return list(E._fibers)


def _classify(E: FunctionFieldCurve) -> list[KodairaFiber]:
    A, B, disc = _poly_of(E.A), _poly_of(E.B), _poly_of(E.discriminant())
    fibers: list[KodairaFiber] = []
    for layer, vD in _squarefree_layers(disc):
        # split by v(A) then v(B) so every piece has uniform valuations; the
        # pieces are monic of positive degree
        for pa, vA in _refine_by(A, layer) if not A.is_zero() else [(layer, inf)]:
            for piece, vB in _refine_by(B, pa) if not B.is_zero() else [(pa, inf)]:
                for r in _rational_roots(piece):
                    lin = Poly([-r, 1])
                    piece = piece // lin
                    fibers += _local_fibers(lin, vA, vB, vD)
                if piece.degree > 0:
                    fibers += _local_fibers(piece, vA, vB, vD)
    k = _twist_at_infinity(E)
    if vD := 12 * k - disc.degree:
        fibers += _local_fibers(None, 4 * k - A.degree if not A.is_zero() else inf,
                                6 * k - B.degree if not B.is_zero() else inf, vD)
    return fibers


def _local_fibers(poly: Poly | None, vA, vB, vD: int) -> list[KodairaFiber]:
    """The fibers at the roots of poly, or at infinity for None, from the
    valuations they share; raises where the model is not minimal."""
    place = PlaceOnBase(poly)
    if vA >= 4 and vB >= 6:
        raise ValueError(f"minimality violation at {place}")
    data = _kodaira_from_valuations(vA, vB, vD)
    return [KodairaFiber(PlaceOnBase(poly, i), *data) for i in range(place.degree)]


def euler_total(fibers: list[KodairaFiber]) -> int:
    return sum(f.euler for f in fibers)


# --- components and local height contributions ------------------------------


@dataclass(frozen=True)
class ComponentId:
    """Which fiber component a section passes through at one place."""

    identity: bool
    branch: object = None  # exact scalar label for non-identity branches

    def __repr__(self):
        return "Theta0" if self.identity else f"Theta({self.branch})"


def component_of(P: RationalFunctionPoint, fiber: KodairaFiber, E: FunctionFieldCurve) -> ComponentId:
    """Fiber component met by a section, for the three additive types present.

    Identity component iff the section misses the singular point of the local
    Weierstrass model. Non-identity branches carry exact labels: the value of
    y/pi^2 (type IV*), y/pi (IV), or x/pi (I0*) at the place. Each is read off
    the leading term c pi^v of x, y and B at the place, at infinity in the
    model twisted by _twist_at_infinity.
    """
    if fiber.type not in ("IV", "IV*", "I0*"):
        raise ValueError(f"components not implemented for type {fiber.type}")
    if P.is_infinity():
        return ComponentId(True)
    place = fiber.place
    if not place.is_infinity and place.degree != 1:
        raise ValueError("components at non-rational places not supported")
    zc = P.x.zero_scalar
    at, k = (INFINITY, _twist_at_infinity(E)) if place.is_infinity else (zc + place.root(), 0)

    def term(f: RationalFunction, power: int):
        """(v, c) with f s^power = c pi^v + ..., or (inf, 0) for f = 0."""
        if f.is_zero():
            return inf, zc
        v, c = f.leading_term_at(at)
        return v + power, c

    (vx, cx), (vy, cy) = term(P.x, 2 * k), term(P.y, 3 * k)
    if vx < 1 or vy < 1:
        return ComponentId(True)  # misses the singular point x = y = 0
    vB, cB = term(E.B.over(zc), 6 * k)

    def value(v, c, e):
        """The value at the place of f / pi^e for f = c pi^v + ...: c, 0 or a pole."""
        if v < e:
            raise ArithmeticError(f"{fiber.type} branch equation has a pole at {place}")
        return c if v == e else zc

    if fiber.type == "I0*":  # x/pi is a cube root of -B/pi^3
        val = value(vx, cx, 1)
        holds = val**3 == -value(vB, cB, 3)
    else:  # y/pi^e is a square root of B/pi^(2e): e = 2 for IV*, 1 for IV
        e = 2 if fiber.type == "IV*" else 1
        val = value(vy, cy, e)
        holds = val * val == value(vB, cB, 2 * e)
    if not holds:
        raise ArithmeticError(f"{fiber.type} branch equation failed at {place}")
    return ComponentId(False, val)


_CONTRIBUTION = {
    "IV": (Fraction(2, 3), Fraction(1, 3)),
    "IV*": (Fraction(4, 3), Fraction(2, 3)),
    "I0*": (Fraction(1), Fraction(1, 2)),
}


def local_contribution(cP: ComponentId, cQ: ComponentId, fiber: KodairaFiber) -> Fraction:
    """Shioda's local correction term from the two component positions."""
    if fiber.type not in _CONTRIBUTION:
        raise ValueError(f"contributions not implemented for type {fiber.type}")
    if cP.identity or cQ.identity:
        return Fraction(0)
    same, diff = _CONTRIBUTION[fiber.type]
    return same if cP.branch == cQ.branch else diff


# --- the height pairing ------------------------------------------------------


def _arithmetic_genus_chi(fibers: list[KodairaFiber]) -> int:
    total = euler_total(fibers)
    if total % 12:
        raise ValueError("Euler numbers do not sum to a multiple of 12")
    return total // 12


def intersection_with_zero(P: RationalFunctionPoint, E: FunctionFieldCurve) -> int:
    """(P.O): how often the section meets the zero section, from pole orders."""
    if P.is_infinity():
        raise ValueError("(O.O) is not computed here")
    den = P.x.den
    total = 0
    if den.degree > 0:
        for g, e in _squarefree_layers(den):
            if e % 2:
                raise ValueError("odd x-pole order; not a section of the minimal model")
            total += (e // 2) * g.degree
    v_inf = 2 * _twist_at_infinity(E) + P.x.den.degree - P.x.num.degree
    if v_inf < 0:
        if v_inf % 2:
            raise ValueError("odd x-pole order at infinity")
        total += -v_inf // 2
    return total


def height_self(P: RationalFunctionPoint, E: FunctionFieldCurve) -> Fraction:
    """<P, P> in the mw-lattice convention: 2*chi + 2(P.O) - sum contr_v(P)."""
    if P.is_infinity():
        return Fraction(0)
    if P.y.is_zero():
        raise ValueError("torsion section has no height")
    fibers = classify_fibers(E)
    chi = _arithmetic_genus_chi(fibers)
    corr = Fraction(0)
    for f in fibers:
        c = component_of(P, f, E)
        corr += local_contribution(c, c, f)
    return 2 * chi + 2 * intersection_with_zero(P, E) - corr


def height_pairing(P: RationalFunctionPoint, Q: RationalFunctionPoint,
                   E: FunctionFieldCurve) -> Fraction:
    """Shioda height pairing of two non-torsion sections, in the mw-lattice
    convention: twice the canonical value.

    Self-pairings use 2*chi + 2(P.O) - sum contr directly; cross pairings
    polarize the quadratic form, <P,Q> = (q(P+Q) - q(P) - q(Q))/2, which
    avoids needing section-section intersection numbers. For canonical values
    convert a Gram matrix with HeightMatrix.to_convention.
    """
    if P.is_infinity() or Q.is_infinity():
        raise ValueError("height pairing needs non-torsion sections")
    if P == Q:
        return height_self(P, E)
    S = add(P, Q, E)
    qS = Fraction(0) if S.is_infinity() else height_self(S, E)
    return (qS - height_self(P, E) - height_self(Q, E)) / 2


def height_gram(sections, E: FunctionFieldCurve) -> HeightMatrix:
    """Gram matrix of height_pairing on the sections, in the mw-lattice
    convention; HeightMatrix.to_convention("canonical") halves it."""
    n = len(sections)
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entries[i][j] = entries[j][i] = height_pairing(sections[i], sections[j], E)
    return HeightMatrix(tuple(tuple(r) for r in entries), "mw-lattice")


def shioda_tate_rank(fibers: list[KodairaFiber], mw_rank: int) -> int:
    """rank NS = 2 + sum (m_t - 1) + Mordell-Weil rank."""
    return 2 + sum(f.m_t - 1 for f in fibers) + mw_rank


def det_ns(fibers: list[KodairaFiber], mw_gram: HeightMatrix, torsion_order: int = 1) -> int:
    """Determinant of the Neron-Severi lattice (sign fixed by Hodge index).

    |det NS| = prod m_simple * |det MW-gram| / torsion^2; returns the signed
    (negative) integer value.
    """
    if mw_gram.convention != "mw-lattice":
        raise ValueError("det_ns needs the Gram matrix in the mw-lattice convention")
    d = mw_gram.det()
    if not d:
        raise ValueError("degenerate Mordell-Weil Gram matrix")
    prod = 1
    for f in fibers:
        prod *= f.m_simple
    val = Fraction(prod) * abs(d) / torsion_order**2
    if val.denominator != 1:
        raise ValueError(f"non-integral lattice determinant {val}")
    return -int(val)
