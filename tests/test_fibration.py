from fractions import Fraction

import pytest

from cubesum.elliptic import (
    FunctionFieldCurve,
    add,
    cm_omega,
    curve_main,
    curve_over_omega,
    curve_second_fibration,
    curve_sextic_twist,
    double,
    multiply,
    point_over_omega,
    section_sigma1,
    section_tau,
)
from cubesum.fibration import (
    HeightMatrix,
    KodairaFiber,
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
)
from cubesum.polynomials import Poly
from cubesum.rings import QOMEGA, W


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
    fibers = classify_fibers(E)
    for n in (1, 2, 3):
        P = multiply(n, s1, E)
        assert height_pairing(P, P, E, fibers) == Fraction(2, 3) * n * n


def test_height_bilinearity():
    E, s1, ws1 = omega_setup()
    fibers = classify_fibers(E)

    def pair(P, Q):
        return height_pairing(P, Q, E, fibers)

    d = double(s1, E)
    for P in (s1, ws1):
        for Q in (s1, ws1):
            for R in (s1, ws1, d):
                assert pair(add(P, Q, E), R) == pair(P, R) + pair(Q, R)


def test_height_minimum_over_48_combinations():
    E, s1, ws1 = omega_setup()
    fibers = classify_fibers(E)
    values = []
    for a in range(-3, 4):
        for b in range(-3, 4):
            if a == 0 and b == 0:
                continue
            P = add(multiply(a, s1, E), multiply(b, ws1, E), E)
            h = height_pairing(P, P, E, fibers)
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
    assert direct == height_pairing(s1, ws1, E, fibers) == Fraction(-1, 3)


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
