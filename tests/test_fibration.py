from fractions import Fraction

import pytest

from cubesum.elliptic import (
    FunctionFieldCurve,
    add,
    base_change_t_u3,
    cm_omega,
    curve_main,
    curve_over_omega,
    curve_second_fibration,
    curve_sextic_twist,
    double,
    multiply,
    negate,
    point_over_omega,
    RationalFunctionPoint,
    section_sigma1,
    section_tau,
)
from cubesum import fibration
from cubesum.fibration import (
    ComponentId,
    HeightMatrix,
    classify_fibers,
    component_of,
    det_ns,
    euler_total,
    height_gram,
    height_pairing,
    height_self,
    infinity_model,
    intersection_with_zero,
    local_contribution,
    shioda_tate_rank,
    _kodaira_from_valuations,
)
from cubesum.polynomials import Poly, RationalFunction
from cubesum.rings import QOMEGA, W, NumberFieldElement
import reference_height


def fiber_by_place(fibers):
    out = {}
    for f in fibers:
        key = "inf" if f.place.is_infinity else (
            f.place.root() if f.place.degree == 1 else (str(f.place.poly.coeffs), f.place.index)
        )
        out[key] = f
    return out


def omega_setup():
    E = curve_over_omega(curve_main())
    s1 = point_over_omega(section_sigma1())
    ws1 = cm_omega(s1, E)
    return E, s1, ws1


def test_main_fiber_table():
    fibers = classify_fibers(curve_main())
    by = fiber_by_place(fibers)
    assert len(fibers) == 4
    f0 = by[Fraction(0)]
    assert (f0.type, f0.euler, f0.m_t, f0.m_simple, f0.component_group) == ("IV*", 8, 7, 3, "Z/3")
    for pl in (Fraction(1), Fraction(-1)):
        f = by[pl]
        assert (f.type, f.euler, f.m_t, f.m_simple, f.component_group) == ("I0*", 6, 5, 4, "(Z/2)^2")
    finf = by["inf"]
    assert (finf.type, finf.euler, finf.m_t, finf.m_simple, finf.component_group) == ("IV", 4, 3, 3, "Z/3")
    assert euler_total(fibers) == 24
    assert sum(f.m_t - 1 for f in fibers) == 16


def test_second_fibration_six_IV_fibers():
    fibers = classify_fibers(curve_second_fibration())
    assert len(fibers) == 6
    assert all(f.type == "IV" for f in fibers)
    assert euler_total(fibers) == 6 * 4 == 24
    # two of them are the conjugate roots of t^2 + 1
    quad = [f for f in fibers if not f.place.is_infinity and f.place.degree == 2]
    assert len(quad) == 2
    t = Poly.x()
    assert quad[0].place.poly == t**2 + 1


def test_sextic_twist_fibers():
    # the degree-3 base change is not a K3: six I0* fibers at the roots of
    # u^6 - 1 and good reduction elsewhere, Euler number 36
    fibers = classify_fibers(curve_sextic_twist())
    assert [f.type for f in fibers] == ["I0*"] * 6
    assert euler_total(fibers) == 36


def test_minimality_violation_detected():
    t = Poly.x()
    with pytest.raises(ValueError, match="minimality"):
        classify_fibers(FunctionFieldCurve(Poly([]), t**6 * (t - 1)))


def test_classification_rejects_a_curve_genuinely_over_q_omega():
    t = Poly([QOMEGA(0), QOMEGA(1)])
    E = FunctionFieldCurve(t * 0, W * t**2 * (t - 1) ** 2)
    with pytest.raises(ValueError, match="only for curves with rational coefficients"):
        classify_fibers(E)
    with pytest.raises(ValueError, match="only for curves with rational coefficients"):
        infinity_model(E)


def test_infinity_model_of_main_curve():
    As, Bs, k = infinity_model(curve_main())
    s = Poly.x()
    assert k == 2
    assert As.is_zero()
    assert Bs == -(s**2) * (1 - s**2) ** 3


def test_components_of_sigma1():
    E = curve_main()
    fibers = classify_fibers(E)
    by = fiber_by_place(fibers)
    s1 = section_sigma1()
    c0 = component_of(s1, by[Fraction(0)], E)
    assert not c0.identity and c0.branch == Fraction(1)
    c1 = component_of(s1, by[Fraction(1)], E)
    assert not c1.identity and c1.branch == Fraction(2)
    cm1 = component_of(s1, by[Fraction(-1)], E)
    assert not cm1.identity and cm1.branch == Fraction(-2)
    cinf = component_of(s1, by["inf"], E)
    assert cinf.identity


@pytest.mark.parametrize("place, ftype", [(Fraction(0), "IV*"), (Fraction(1), "I0*")])
def test_component_of_raises_when_the_branch_equation_fails(place, ftype):
    # sigma1 lies on y^2 = x^3 + B, not on y^2 = x^3 + 2B; the doubled curve has
    # the same fiber types, so only the branch equation can catch the mismatch
    E = curve_main()
    fiber = fiber_by_place(classify_fibers(E))[place]
    assert fiber.type == ftype
    doubled = FunctionFieldCurve(E.A, E.B * 2)
    with pytest.raises(ArithmeticError, match="branch equation"):
        component_of(section_sigma1(), fiber, doubled)


def test_components_of_omega_twist():
    E, s1, ws1 = omega_setup()
    by = fiber_by_place(classify_fibers(E))
    # same branch at t=0 (shared y), different I0* branches at t=1: roots 2 vs 2w
    assert component_of(ws1, by[Fraction(0)], E).branch == component_of(s1, by[Fraction(0)], E).branch
    b1 = component_of(s1, by[Fraction(1)], E)
    b2 = component_of(ws1, by[Fraction(1)], E)
    assert b1.branch == QOMEGA(2)
    assert b2.branch == QOMEGA(2) * W
    assert b1.branch != b2.branch


def test_local_contribution_table():
    E, s1, ws1 = omega_setup()
    by = fiber_by_place(classify_fibers(E))
    f0, f1, finf = by[Fraction(0)], by[Fraction(1)], by["inf"]
    c_s1_0 = component_of(s1, f0, E)
    c_ws1_0 = component_of(ws1, f0, E)
    assert local_contribution(c_s1_0, c_s1_0, f0) == Fraction(4, 3)
    assert local_contribution(c_s1_0, c_ws1_0, f0) == Fraction(4, 3)  # same branch
    c_s1_1 = component_of(s1, f1, E)
    c_ws1_1 = component_of(ws1, f1, E)
    assert local_contribution(c_s1_1, c_s1_1, f1) == Fraction(1)
    assert local_contribution(c_s1_1, c_ws1_1, f1) == Fraction(1, 2)
    c_inf = component_of(s1, finf, E)
    assert local_contribution(c_inf, c_inf, finf) == Fraction(0)


def test_height_gram_matches_displayed_matrix():
    E, s1, ws1 = omega_setup()
    g = height_gram([s1, ws1], E)
    assert g.entries == ((Fraction(2, 3), Fraction(-1, 3)), (Fraction(-1, 3), Fraction(2, 3)))
    assert g.convention == "mw-lattice"
    canonical = g.to_convention("canonical")
    assert canonical.entries == ((Fraction(1, 3), Fraction(-1, 6)), (Fraction(-1, 6), Fraction(1, 3)))
    assert g.det() == Fraction(1, 3)


def test_height_quadraticity():
    E, s1, _ = omega_setup()
    for n in (1, 2, 3):
        P = multiply(n, s1, E)
        assert height_pairing(P, P, E) == Fraction(2, 3) * n * n


def test_height_bilinearity():
    E, s1, ws1 = omega_setup()

    def pair(P, Q):
        return height_pairing(P, Q, E)

    d = double(s1, E)
    for P in (s1, ws1):
        for Q in (s1, ws1):
            for R in (s1, ws1, d):
                assert pair(add(P, Q, E), R) == pair(P, R) + pair(Q, R)


def test_height_minimum_over_48_combinations():
    E, s1, ws1 = omega_setup()
    values = []
    for a in range(-3, 4):
        for b in range(-3, 4):
            if a == 0 and b == 0:
                continue
            P = add(multiply(a, s1, E), multiply(b, ws1, E), E)
            h = height_pairing(P, P, E)
            assert h == Fraction(2, 3) * (a * a - a * b + b * b)
            values.append(h)
    assert len(values) == 48
    assert min(values) == Fraction(2, 3)


def test_generator_pair_does_not_meet():
    # (sigma1 . [w]sigma1) = 0: the direct Shioda formula with that assertion
    # must reproduce the polarized value
    E, s1, ws1 = omega_setup()
    fibers = classify_fibers(E)
    contr = sum(
        (local_contribution(component_of(s1, f, E), component_of(ws1, f, E), f) for f in fibers),
        Fraction(0),
    )
    direct = 2 + intersection_with_zero(s1, E) + intersection_with_zero(ws1, E) - 0 - contr
    assert direct == height_pairing(s1, ws1, E) == Fraction(-1, 3)


def test_height_rejects_torsion():
    Eu = curve_sextic_twist()
    with pytest.raises(ValueError):
        height_self(section_tau(), Eu)
    with pytest.raises(ValueError):
        height_pairing(Eu.infinity(), section_tau(), Eu)


def test_shioda_tate_examples():
    fibers = classify_fibers(curve_main())
    assert shioda_tate_rank(fibers, 2) == 20
    assert shioda_tate_rank(classify_fibers(curve_second_fibration()), 6) == 20
    assert shioda_tate_rank([], 0) == 2


def test_det_ns_examples():
    E, s1, ws1 = omega_setup()
    fibers = classify_fibers(E)
    gram = height_gram([s1, ws1], E)
    assert det_ns(fibers, gram) == -48
    assert det_ns(fibers, gram, torsion_order=2) == -12
    with pytest.raises(ValueError):
        det_ns(fibers, gram.to_convention("canonical"))
    degenerate = HeightMatrix(((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))), "mw-lattice")
    with pytest.raises(ValueError):
        det_ns(fibers, degenerate)


def test_height_matrix_validation():
    with pytest.raises(ValueError):
        HeightMatrix(((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))), "mw-lattice")
    with pytest.raises(ValueError):
        HeightMatrix(((Fraction(1),),), "bogus")


# --- one scalar ring per curve, one local model per place -------------------


def _infinity_model_by_reduction(A, B):
    """Oracle for infinity_model by search: raise k until both twists are
    polynomials, then lower it while A~ and B~ stay divisible by s^4 and s^6."""
    k = 0
    while (A.degree > 4 * k and not A.is_zero()) or (B.degree > 6 * k and not B.is_zero()):
        k += 1
    As = A.reverse(4 * k) if not A.is_zero() else A
    Bs = B.reverse(6 * k) if not B.is_zero() else B
    while k > 0:
        vA = As.valuation(Fraction(0)) if not As.is_zero() else None
        vB = Bs.valuation(Fraction(0)) if not Bs.is_zero() else None
        if (vA is None or vA >= 4) and (vB is None or vB >= 6):
            if not As.is_zero():
                As = As // Poly([0, 0, 0, 0, 1])
            if not Bs.is_zero():
                Bs = Bs // Poly([0, 0, 0, 0, 0, 0, 1])
            k -= 1
        else:
            break
    return As, Bs, k


def _over_q(f):
    """A polynomial coefficient of a curve, as a Poly over Q."""
    return Poly([c if isinstance(c, Fraction) else c.rational_value() for c in f.num.coeffs])


def _infinity_model_curves():
    t = Poly.x()
    return [
        curve_main(),
        curve_sextic_twist(),
        curve_second_fibration(),
        curve_over_omega(curve_main()),
        # degrees that are not multiples of 4 and 6
        FunctionFieldCurve(t**5, t**7 + 1, name="A=t^5"),
        FunctionFieldCurve(Poly([]), t**13 - t, name="B=t^13-t"),
        FunctionFieldCurve(t**3 - 2, Poly([5]), name="A=t^3-2"),
    ]


@pytest.mark.parametrize("E", _infinity_model_curves(), ids=lambda E: E.name)
def test_infinity_model_matches_the_reduction_loop(E):
    As, Bs, k = infinity_model(E)
    assert (As, Bs, k) == _infinity_model_by_reduction(_over_q(E.A), _over_q(E.B))
    vA = As.valuation(Fraction(0)) if not As.is_zero() else None
    vB = Bs.valuation(Fraction(0)) if not Bs.is_zero() else None
    assert (vA is not None and vA < 4) or (vB is not None and vB < 6)


def _lift(c):
    return c if c.identity else ComponentId(False, QOMEGA(c.branch))


def _reflected(P):
    """The section of y^2 = x^3 + t^2 (t^2 - 1)^3 that P on the main curve
    becomes under t -> 1/t, (x, y) -> (t^4 x, t^6 y)."""
    t = RationalFunction(Poly.x())
    return RationalFunctionPoint(P.x.compose(1 / t) * t**4, P.y.compose(1 / t) * t**6)


def _sigma1_multiples():
    E = curve_main()
    s1 = section_sigma1()
    return {"sigma1": s1, "2sigma1": multiply(2, s1, E), "-sigma1": negate(s1)}


@pytest.mark.parametrize("name", ["sigma1", "2sigma1", "-sigma1"])
def test_components_over_omega_equal_the_lifted_rational_ones(name):
    t = Poly.x()
    P = _sigma1_multiples()[name]
    # the main curve has its IV fiber at infinity; the reflected one moves the
    # IV* fiber of t = 0 there, so the twisted B at infinity is exercised too
    E_ref = FunctionFieldCurve(Poly([]), t**2 * (t**2 - 1) ** 3, name="E_1/t")
    for E, Q in ((curve_main(), P), (E_ref, _reflected(P))):
        assert E.contains(Q)
        Ew, Qw = curve_over_omega(E), point_over_omega(Q)
        fibers = classify_fibers(E)
        assert fibers == classify_fibers(Ew)
        assert any(f.place.is_infinity for f in fibers)
        for f in fibers:
            cq, cw = component_of(Q, f, E), component_of(Qw, f, Ew)
            assert cw == _lift(cq)
            assert cw.identity or isinstance(cw.branch, NumberFieldElement)
    # at infinity the reflected section meets the component sigma1 meets at t = 0
    E = curve_main()
    at_zero = fiber_by_place(classify_fibers(E))[Fraction(0)]
    at_inf = fiber_by_place(classify_fibers(E_ref))["inf"]
    assert at_inf.type == at_zero.type == "IV*"
    assert component_of(_reflected(P), at_inf, E_ref) == component_of(P, at_zero, E)


def test_kodaira_lookup_rejects_inconsistent_valuations():
    # in characteristic 0, vA = 3 and vB = 5 force vD = min(3 vA, 2 vB) = 9
    with pytest.raises(ValueError, match="unclassifiable"):
        _kodaira_from_valuations(3, 5, 8)
    assert _kodaira_from_valuations(3, 5, 9) == "III*"
    assert _kodaira_from_valuations(None, 4, 8) == "IV*"


def test_reference_heights_equal_height_gram_and_det_ns():
    # n^2 <P,P> = 2 chi + 2 (nP . O) with n = 6, no component or contribution code
    E, s1, ws1 = omega_setup()
    fibers = classify_fibers(E)
    assert reference_height.group_exponent(fibers) == 6
    assert [reference_height.meets_zero(multiply(6, P, E), E)
            for P in (s1, ws1, add(s1, ws1, E))] == [10, 10, 10]
    g = reference_height.gram([s1, ws1], E)
    assert g == height_gram([s1, ws1], E).entries
    assert g == ((Fraction(2, 3), Fraction(-1, 3)), (Fraction(-1, 3), Fraction(2, 3)))
    assert reference_height.det_ns_2x2(g, fibers) == -48


def twist_setup():
    # the sextic twist over Q(w), with sigma1 pushed along t = u^3
    Eu = curve_over_omega(curve_sextic_twist())
    s1 = point_over_omega(base_change_t_u3(section_sigma1()))
    return Eu, s1, cm_omega(s1, Eu)


def test_reference_gram_on_the_twist_is_three_times_the_main_gram():
    # a base change of degree 3 multiplies the height pairing by 3
    Eu, s1, ws1 = twist_setup()
    E, t1, wt1 = omega_setup()
    g = reference_height.gram([s1, ws1], Eu)
    assert g == ((2, -1), (-1, 2))
    assert g == tuple(tuple(3 * e for e in row) for row in reference_height.gram([t1, wt1], E))


def test_height_pairing_on_the_twist_stops_at_its_degree_4_place():
    # four of the twist's I0* fibers sit at the roots of u^4 + u^2 + 1, which
    # classify_fibers keeps as one place of degree 4, although its roots
    # +-w and +-w^2 lie in Q(w); the component code reads rational places only
    Eu, s1, _ = twist_setup()
    with pytest.raises(ValueError, match="components at non-rational places not supported"):
        height_pairing(s1, s1, Eu)


def test_fibers_classified_once_per_curve(monkeypatch):
    runs = []
    real = fibration._classify

    def counting(E):
        runs.append(E)
        return real(E)

    monkeypatch.setattr(fibration, "_classify", counting)
    E, s1, ws1 = omega_setup()
    grid = [(a, b) for a in range(-2, 3) for b in range(-2, 3) if (a, b) != (0, 0)]
    assert len(grid) == 24
    for a, b in grid:
        P = add(multiply(a, s1, E), multiply(b, ws1, E), E)
        assert height_pairing(P, P, E) == Fraction(2, 3) * (a * a - a * b + b * b)
    assert len(runs) == 1 and runs[0] is E
    # a returned list is the caller's own
    first = classify_fibers(E)
    first.pop()
    first.append(None)
    assert classify_fibers(E) == real(E)
    assert len(runs) == 1
    # a new instance of the same curve classifies again
    E2 = curve_over_omega(curve_main())
    assert classify_fibers(E2) == classify_fibers(E)
    assert len(runs) == 2 and runs[1] is E2


def test_infinity_model_runs_once_per_curve(monkeypatch):
    calls = []
    real = fibration.infinity_model
    monkeypatch.setattr(fibration, "infinity_model", lambda E: calls.append(E) or real(E))
    E, s1, ws1 = omega_setup()
    gram = height_gram([s1, ws1], E)
    assert gram.entries == ((Fraction(2, 3), Fraction(-1, 3)), (Fraction(-1, 3), Fraction(2, 3)))
    assert calls == [E]  # classify_fibers' own call


def _reciprocal_twist(f, power):
    """f(1/s) s^power in s = 1/t, by the normalising constructor."""
    s = RationalFunction(Poly.x(zero=f.zero_scalar))
    return RationalFunction(f.num.reverse(), f.den.reverse()) * s ** (power + f.den.degree - f.num.degree)


def _component_by_division(P, fiber, E):
    """The oracle for component_of: x, y and B moved to the place as rational
    functions (twisted at infinity), divided by powers of pi = t - root and
    evaluated at the root."""
    if P.is_infinity():
        return ComponentId(True)
    if not fiber.place.is_infinity and fiber.place.degree != 1:
        raise ValueError("components at non-rational places not supported")
    zc = P.x.zero_scalar
    x, y, B, root = P.x, P.y, E.B.over(zc), zc
    if fiber.place.is_infinity:
        k = infinity_model(E)[2]
        x, y, B = _reciprocal_twist(x, 2 * k), _reciprocal_twist(y, 3 * k), _reciprocal_twist(B, 6 * k)
    else:
        root += fiber.place.root()
    vx = x.valuation(root) if not x.is_zero() else None
    vy = y.valuation(root) if not y.is_zero() else None
    if (vx is not None and vx < 1) or (vy is not None and vy < 1):
        return ComponentId(True)
    pi = RationalFunction(Poly([-root, 1], zero=zc))
    if fiber.type == "I0*":
        val = (x / pi).evaluate(root)
        holds = val**3 == -(B / pi**3).evaluate(root)
    else:
        e = 2 if fiber.type == "IV*" else 1
        val = (y / pi**e).evaluate(root)
        holds = val * val == (B / pi**(2 * e)).evaluate(root)
    if not holds:
        raise ArithmeticError("branch equation failed")
    return ComponentId(False, val)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def test_component_of_equals_the_division_construction():
    E, s1, ws1 = omega_setup()
    Eq, s1q = curve_main(), section_sigma1()
    Eu, tau = curve_sextic_twist(), section_tau()
    cases = [(E, add(multiply(a, s1, E), multiply(b, ws1, E), E))
             for a in range(-2, 3) for b in range(-2, 3) if (a, b) != (0, 0)]
    cases += [(E, multiply(n, P, E)) for P in (s1, ws1, add(s1, ws1, E)) for n in (-6, -5, -4, -3, 3, 4, 5, 6)]
    cases += [(Eq, multiply(n, s1q, Eq)) for n in range(-6, 7)]
    # t -> 1/t swaps the IV* fiber at 0 and the IV fiber at infinity
    t = Poly.x()
    flip = FunctionFieldCurve(Poly([]), t**2 * (t**2 - 1) ** 3)
    flip_w = curve_over_omega(flip)
    for F, P in [c for c in cases if not c[1].is_infinity()]:
        G = flip_w if F is E else flip
        cases.append((G, G.point(_reciprocal_twist(P.x, 4), _reciprocal_twist(P.y, 6))))
    cases += [(Eu, tau), (Eu, base_change_t_u3(s1q)), (Eu, base_change_t_u3(multiply(2, s1q, Eq)))]
    # the flexes (0, +-t^e) of y^2 = x^3 + t^(2e) pass through the non-identity
    # branches of IV and IV* fibers at 0 and at infinity
    for e in (1, 2):
        G = FunctionFieldCurve(Poly([]), t ** (2 * e))
        for F in (G, curve_over_omega(G)):
            z = F.B.zero_scalar
            cases += [(F, F.point(Poly([], zero=z), RationalFunction(sign * t**e).over(z))) for sign in (1, -1)]
    met = set()
    for F, P in cases:
        for fiber in classify_fibers(F):
            got, expected = _outcome(component_of, P, fiber, F), _outcome(_component_by_division, P, fiber, F)
            assert got == expected, (P, fiber)
            if isinstance(got, ComponentId):
                assert type(got.branch) is type(expected.branch)
                met.add((fiber.type, fiber.place.is_infinity, got.identity))
    # every branch is read at least once, on a finite place and at infinity
    assert {(kind, inf, False) for kind in ("IV", "IV*") for inf in (False, True)} <= met
    assert ("I0*", False, False) in met
    assert ValueError in {_outcome(component_of, tau, f, Eu) for f in classify_fibers(Eu)}


def _squarefree_layers_by_yun(f):
    """Yun's squarefree decomposition, the reference for _squarefree_layers:
    [(g, e)] with f = const * prod g^e, g monic, squarefree, pairwise coprime."""
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


def test_squarefree_layers_equal_yuns_decomposition():
    polys = []
    for E in (curve_main(), curve_sextic_twist(), curve_second_fibration()):
        A, B = _over_q(E.A), _over_q(E.B)
        polys.append((A**3 * 4 + B**2 * 27) * Fraction(-16))
    E, s1, ws1 = omega_setup()
    polys += [add(multiply(a, s1, E), multiply(b, ws1, E), E).x.den
              for a in range(-2, 3) for b in range(-2, 3) if (a, b) != (0, 0)]
    assert len(polys) == 27 and any(f.degree > 0 for f in polys[3:])
    for f in polys:
        assert fibration._squarefree_layers(f) == _squarefree_layers_by_yun(f)


def test_heights_of_multiples_scale_by_n_squared():
    # each nP is checked on a fresh curve, which remembers no point, so a ladder
    # that built a wrong multiple fails the equation or the height
    E, s1, ws1 = omega_setup()
    for P in (s1, add(s1, ws1, E)):
        h = height_pairing(P, P, E)
        assert h == Fraction(2, 3)
        for n in range(1, 13):
            nP = multiply(n, P, E)
            fresh = curve_over_omega(curve_main())
            assert fresh.contains(nP)
            assert height_pairing(nP, nP, fresh) == n * n * h, n


@pytest.mark.extended
def test_twentieth_multiple_of_sigma1():
    # about 35 s on one core of a 2-vCPU host, most of it in the last add
    E, s1, _ = omega_setup()
    P = multiply(20, s1, E)
    assert height_pairing(P, P, E) == Fraction(800, 3)
    assert P == add(multiply(16, s1, E), multiply(4, s1, E), E)
