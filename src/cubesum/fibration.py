"""Kodaira fibers, section components, Shioda height pairing, lattice data.

Classification works over residue characteristic 0, so the (v(c4), v(c6),
v(Delta)) lookup replaces the full Tate loop. Places are found without general
factorization: squarefree decomposition, rational-root extraction, and
gcd-refinement against the coefficient valuation layers; residual non-linear
factors are emitted as one fiber per conjugate root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .elliptic import FunctionFieldCurve, RationalFunctionPoint, add
from .polynomials import INFINITY, Poly, RationalFunction
from .rings import NumberFieldElement

# type -> (euler, m_t, m_simple, component group)
_KODAIRA_DATA = {
    "II": (2, 1, 1, "1"),
    "III": (3, 2, 2, "Z/2"),
    "IV": (4, 3, 3, "Z/3"),
    "I0*": (6, 5, 4, "(Z/2)^2"),
    "IV*": (8, 7, 3, "Z/3"),
    "III*": (9, 8, 2, "Z/2"),
    "II*": (10, 9, 1, "1"),
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
    """[(g, e)] with f = const * prod g^e, g squarefree pairwise coprime."""
    out = []
    e = 1
    g = f.gcd(f.derivative())
    w = f // g
    while w.degree > 0:
        y = w.gcd(g)
        layer = w // y
        if layer.degree > 0:
            out.append((layer.monic(), e))
        w, g = y, g // y
        e += 1
    return out


def _rational_roots(f: Poly) -> list[Fraction]:
    """Rational roots of a squarefree polynomial over Q."""
    if f.degree <= 0:
        return []
    from math import gcd

    den = 1
    for c in f.coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
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


def _multiplicity(f: Poly, g: Poly) -> int:
    """Largest k with g^k | f (g non-constant)."""
    k = 0
    while True:
        q, r = f.divmod(g)
        if not r.is_zero():
            return k
        f = q
        k += 1


def _refine_by(f: Poly, h: Poly) -> list[tuple[Poly, int]]:
    """Split squarefree h into buckets by multiplicity of its factors in f.

    Returns [(h_i, m_i)] with h = prod h_i; every irreducible factor of h_i
    divides f exactly m_i times. Only gcds are used.
    """
    buckets = []
    rem = h
    cur = f
    m = 0
    while rem.degree > 0:
        g = rem.gcd(cur) if not cur.is_zero() else rem
        exact = rem // g  # factors with multiplicity exactly m
        if exact.degree > 0:
            buckets.append((exact.monic(), m))
        if cur.is_zero():
            buckets.append((rem.monic(), None))  # infinite multiplicity; unused
            break
        rem = g
        cur = cur // g if g.degree > 0 else cur
        m += 1
    return buckets


def _poly_of(rf: RationalFunction) -> Poly:
    if not rf.is_polynomial():
        raise ValueError("expected a polynomial coefficient")
    p = rf.num
    if isinstance(p.zero, NumberFieldElement):
        # classification happens over Q; curves defined over Q but coerced into
        # a number field for section work descend coefficientwise
        return p.map_coeffs(lambda c: c.rational_value(), zero=Fraction(0))
    return p


def infinity_model(E: FunctionFieldCurve) -> tuple[Poly, Poly, int]:
    """Minimal Weierstrass data (A~, B~, k) at infinity in the parameter s=1/t.

    The twist (x, y) -> (x/t^(2k), y/t^(3k)) turns A, B into polynomials in s
    of valuation < 4 resp. < 6 at s = 0.
    """
    A, B = _poly_of(E.A), _poly_of(E.B)
    k = 0
    while (A.degree > 4 * k and not A.is_zero()) or (B.degree > 6 * k and not B.is_zero()):
        k += 1
    As = A.reverse(4 * k) if not A.is_zero() else A
    Bs = B.reverse(6 * k) if not B.is_zero() else B
    while k > 0:
        vA = As.valuation(_zero_of(As)) if not As.is_zero() else None
        vB = Bs.valuation(_zero_of(Bs)) if not Bs.is_zero() else None
        if (vA is None or vA >= 4) and (vB is None or vB >= 6):
            s4 = Poly([0, 0, 0, 0, 1], zero=As.zero) if not As.is_zero() else None
            if s4 is not None:
                As = As // s4
            if not Bs.is_zero():
                Bs = Bs // Poly([0, 0, 0, 0, 0, 0, 1], zero=Bs.zero)
            k -= 1
        else:
            break
    return As, Bs, k


def _zero_of(p: Poly):
    return p.zero


def _kodaira_from_valuations(vA, vB, vD: int) -> str:
    """Char-0 Kodaira lookup from (v(c4), v(c6), v(Delta)) = (v(A), v(B), vD)."""
    if vD == 0:
        return "I0"
    if vA == 0:
        return f"I{vD}"
    # additive
    if vD == 2:
        return "II"
    if vD == 3:
        return "III"
    if vD == 4:
        return "IV"
    if vD == 6:
        return "I0*"
    if vD == 8 and (vB is None or vB == 4):
        return "IV*"
    if vD == 9:
        return "III*"
    if vD == 10:
        return "II*"
    if vD > 6 and (vA == 2 or (vB is not None and vB == 3)):
        return f"I{vD - 6}*"
    if vD == 8:
        return "IV*"
    raise ValueError(f"unclassifiable valuations (vA={vA}, vB={vB}, vD={vD})")


def _fiber_record(place: PlaceOnBase, ftype: str) -> KodairaFiber:
    if ftype.startswith("I") and ftype[1:].rstrip("*").isdigit():
        n = int(ftype[1:].rstrip("*"))
        if ftype.endswith("*"):
            data = (6 + n, 5 + n, 4, "Z/4" if n % 2 else "(Z/2)^2")
        else:
            data = (n, n, n, f"Z/{n}")
    else:
        data = _KODAIRA_DATA[ftype]
    return KodairaFiber(place, ftype, *data)


def classify_fibers(E: FunctionFieldCurve) -> list[KodairaFiber]:
    """Kodaira classification at every bad place of the fibration.

    Requires a globally minimal model (v(A) < 4 or v(B) < 6 everywhere, which
    the toolkit's curves satisfy); raises otherwise.
    """
    A, B = _poly_of(E.A), _poly_of(E.B)
    disc = (A**3 * 4 + B**2 * 27) * Fraction(-16)
    if disc.is_zero():
        raise ValueError("singular curve")
    fibers: list[KodairaFiber] = []

    for layer, vD in _squarefree_layers(disc):
        exhausted = layer
        pieces: list[tuple[Poly, int | None, int | None]] = []
        # split by v(A) then v(B) so every bucket has uniform valuations
        for pa, vA_ in _refine_by(A, exhausted) if not A.is_zero() else [(exhausted, None)]:
            for pb, vB_ in _refine_by(B, pa) if not B.is_zero() else [(pa, None)]:
                pieces.append((pb, vA_, vB_))
        for piece, vA_, vB_ in pieces:
            if piece.degree <= 0:
                continue
            roots = _rational_roots(piece)
            rest = piece
            for r in roots:
                lin = Poly([-r, 1])
                rest = rest // lin
                place = PlaceOnBase(lin)
                _check_minimal(vA_, vB_, place)
                fibers.append(_fiber_record(place, _kodaira_from_valuations(vA_, vB_, vD)))
            if rest.degree > 0:
                _check_minimal(vA_, vB_, PlaceOnBase(rest.monic()))
                ftype = _kodaira_from_valuations(vA_, vB_, vD)
                for idx in range(rest.degree):
                    fibers.append(_fiber_record(PlaceOnBase(rest.monic(), idx), ftype))

    # the place at infinity
    As, Bs, _k = infinity_model(E)
    dA = As.valuation(Fraction(0)) if not As.is_zero() else None
    dB = Bs.valuation(Fraction(0)) if not Bs.is_zero() else None
    discs = (As**3 * 4 + Bs**2 * 27) * Fraction(-16)
    vD = discs.valuation(Fraction(0)) if not discs.is_zero() else 0
    if vD:
        place = PlaceOnBase(None)
        _check_minimal(dA, dB, place)
        fibers.append(_fiber_record(place, _kodaira_from_valuations(dA, dB, vD)))
    return fibers


def _check_minimal(vA, vB, place):
    if (vA is None or vA >= 4) and (vB is None or vB >= 6):
        raise ValueError(f"minimality violation at {place}")


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


def _section_localized(P: RationalFunctionPoint, E: FunctionFieldCurve, place: PlaceOnBase):
    """(x, y, B, root) in coordinates where the place sits at a finite root."""
    if place.is_infinity:
        As, Bs, k = infinity_model(E)
        zc = P.x.zero_scalar
        x = _reciprocal_twist(P.x, 2 * k, zc)
        y = _reciprocal_twist(P.y, 3 * k, zc)
        Bloc = RationalFunction(Bs).map_coeffs(lambda c: _into(c, zc), zero=zc) if isinstance(zc, NumberFieldElement) else RationalFunction(Bs)
        return x, y, Bloc, zc * 0 if not isinstance(zc, NumberFieldElement) else zc.field.zero()
    root = place.root()
    zc = P.x.zero_scalar
    root = _into(root, zc)
    Bloc = E.B if not isinstance(zc, NumberFieldElement) else E.B.map_coeffs(lambda c: _into(c, zc), zero=zc)
    return P.x, P.y, Bloc, root


def _into(c, zero_scalar):
    if isinstance(zero_scalar, NumberFieldElement):
        if isinstance(c, NumberFieldElement):
            return c
        return zero_scalar.field(c)
    return Fraction(c) if not isinstance(c, Fraction) else c


def _reciprocal_twist(f: RationalFunction, power: int, zc) -> RationalFunction:
    """f(1/s) * s^power as a rational function of s."""
    num, den = f.num, f.den
    s = Poly.x(zero=num.zero)
    rnum = num.reverse()
    rden = den.reverse()
    shift = power + den.degree - num.degree
    out = RationalFunction(rnum, rden)
    if shift >= 0:
        return out * RationalFunction(s**shift)
    return out / RationalFunction(s**(-shift))


def component_of(P: RationalFunctionPoint, fiber: KodairaFiber, E: FunctionFieldCurve) -> ComponentId:
    """Fiber component met by a section, for the three additive types present.

    Identity component iff the section misses the singular point of the local
    Weierstrass model. Non-identity branches carry exact labels: the value of
    y/pi^2 (type IV*), y/pi (IV), or x/pi (I0*) at the place.
    """
    if fiber.type not in ("IV", "IV*", "I0*"):
        raise ValueError(f"components not implemented for type {fiber.type}")
    if P.is_infinity():
        return ComponentId(True)
    if not fiber.place.is_infinity and fiber.place.degree != 1:
        raise ValueError("components at non-rational places not supported")
    x, y, B, root = _section_localized(P, E, fiber.place)
    if y.is_zero():
        vy = None
    else:
        vy = y.valuation(root)
    vx = x.valuation(root) if not x.is_zero() else None
    if (vx is not None and vx < 0) or (vy is not None and vy < 0):
        return ComponentId(True)
    through_singular = (vx is None or vx >= 1) and (vy is None or vy >= 1)
    if not through_singular:
        return ComponentId(True)
    pi = Poly([-root, root * 0 + 1], zero=x.zero_scalar)
    piRF = RationalFunction(pi)
    if fiber.type == "IV*":
        val = (y / piRF**2).evaluate(root)
        ref = (B / piRF**4).evaluate(root)
        holds = val * val == ref
    elif fiber.type == "IV":
        val = (y / piRF).evaluate(root)
        ref = (B / piRF**2).evaluate(root)
        holds = val * val == ref
    else:  # I0*
        val = (x / piRF).evaluate(root)
        ref = (B / piRF**3).evaluate(root)
        holds = val**3 + ref == val * 0
    if not holds:
        raise ArithmeticError(f"{fiber.type} branch equation failed at {fiber.place}")
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
    _As, _Bs, k = infinity_model(E)
    v_inf = 2 * k + P.x.den.degree - P.x.num.degree
    if v_inf < 0:
        if v_inf % 2:
            raise ValueError("odd x-pole order at infinity")
        total += -v_inf // 2
    return total


def height_self(P: RationalFunctionPoint, E: FunctionFieldCurve,
                fibers: list[KodairaFiber] | None = None) -> Fraction:
    """<P, P> in the mw-lattice convention: 2*chi + 2(P.O) - sum contr_v(P)."""
    if P.is_infinity():
        return Fraction(0)
    if P.y.is_zero():
        raise ValueError("torsion section has no height")
    if fibers is None:
        fibers = classify_fibers(E)
    chi = _arithmetic_genus_chi(fibers)
    corr = Fraction(0)
    for f in fibers:
        c = component_of(P, f, E)
        corr += local_contribution(c, c, f)
    return 2 * chi + 2 * intersection_with_zero(P, E) - corr


def height_pairing(P: RationalFunctionPoint, Q: RationalFunctionPoint,
                   E: FunctionFieldCurve, fibers: list[KodairaFiber] | None = None,
                   convention: str = "mw-lattice") -> Fraction:
    """Shioda height pairing of two non-torsion sections.

    Self-pairings use 2*chi + 2(P.O) - sum contr directly; cross pairings
    polarize the quadratic form, <P,Q> = (q(P+Q) - q(P) - q(Q))/2, which
    avoids needing section-section intersection numbers. The mw-lattice
    value is twice the canonical one.
    """
    if P.is_infinity() or Q.is_infinity():
        raise ValueError("height pairing needs non-torsion sections")
    if fibers is None:
        fibers = classify_fibers(E)
    if P == Q:
        val = height_self(P, E, fibers)
    else:
        S = add(P, Q, E)
        qS = Fraction(0) if S.is_infinity() else height_self(S, E, fibers)
        val = (qS - height_self(P, E, fibers) - height_self(Q, E, fibers)) / 2
    if convention == "canonical":
        return val / 2
    if convention != "mw-lattice":
        raise ValueError(f"unknown convention {convention}")
    return val


def height_gram(sections, E: FunctionFieldCurve, convention: str = "mw-lattice") -> HeightMatrix:
    fibers = classify_fibers(E)
    n = len(sections)
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = height_pairing(sections[i], sections[j], E, fibers, convention)
            entries[i][j] = entries[j][i] = v
    return HeightMatrix(tuple(tuple(r) for r in entries), convention)


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
