from fractions import Fraction
from itertools import product

import pytest

from cubesum import elliptic
from cubesum.elliptic import (
    FunctionFieldCurve,
    RationalFunctionPoint,
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
    section_sigma1,
    section_tau,
    section_to_xyz,
    sextic_section_to_xyz,
)
from cubesum.polynomials import Poly, RationalFunction
from cubesum.rings import QOMEGA, W


def omega_setup():
    E = curve_over_omega(curve_main())
    s1 = point_over_omega(section_sigma1())
    return E, s1


def test_curve_rejects_singular():
    with pytest.raises(ValueError):
        FunctionFieldCurve(Poly([]), Poly([]))


def test_sections_on_curves():
    E = curve_main()
    assert E.contains(section_sigma1())
    assert curve_sextic_twist().contains(section_tau())
    with pytest.raises(ValueError):
        E.point(RationalFunction(Poly([1])), RationalFunction(Poly([1])))


def test_add_identity_and_inverse():
    E = curve_main()
    s1 = section_sigma1()
    assert add(s1, E.infinity(), E) == s1
    assert add(E.infinity(), s1, E) == s1
    assert add(s1, negate(s1), E).is_infinity()
    assert double(E.infinity(), E).is_infinity()


def test_double_sigma1_displayed_formula():
    E = curve_main()
    d = double(section_sigma1(), E)
    t = Poly.x()
    assert d.x == RationalFunction(t**2 * (t**2 + 8) * Fraction(1, 4))
    assert d.y == RationalFunction(t**2 * (t**4 - 20 * t**2 - 8) * Fraction(1, 8))


def test_group_law_commutes_and_associates():
    E, s1 = omega_setup()
    ws1 = cm_omega(s1, E)
    pts = [E.infinity(), s1, ws1, double(s1, E), negate(s1)]
    for P, Q in product(pts, repeat=2):
        assert add(P, Q, E) == add(Q, P, E)
    for P, Q, R in product(pts[1:4], repeat=3):
        assert add(add(P, Q, E), R, E) == add(P, add(Q, R, E), E)


def test_cm_omega_properties():
    E, s1 = omega_setup()
    ws1 = cm_omega(s1, E)
    tw = Poly.x(zero=QOMEGA.zero())
    assert ws1.x == RationalFunction(tw**2 * (tw**2 - 1) * W)
    assert ws1.y == s1.y
    # order 3, fixes O
    assert cm_omega(cm_omega(ws1, E), E) == s1
    assert cm_omega(E.infinity(), E).is_infinity()
    # 1 + w + w^2 = 0 in End: s1 + [w]s1 + [w^2]s1 = O
    w2s1 = cm_omega(ws1, E)
    assert add(s1, add(ws1, w2s1, E), E).is_infinity()


def test_cm_omega_is_homomorphism():
    E, s1 = omega_setup()
    ws1 = cm_omega(s1, E)
    pts = [s1, ws1, double(s1, E), add(s1, ws1, E)]
    for P, Q in product(pts, repeat=2):
        assert cm_omega(add(P, Q, E), E) == add(cm_omega(P, E), cm_omega(Q, E), E)


def test_cm_omega_requires_j_zero_and_omega():
    t = Poly.x()
    E = FunctionFieldCurve(t, Poly([1]))
    with pytest.raises(ValueError):
        cm_omega(E.infinity(), E)  # A != 0
    with pytest.raises(ValueError):
        cm_omega(section_sigma1(), curve_main())  # rational coefficients


def test_two_torsion():
    Eu = curve_sextic_twist()
    tau = section_tau()
    assert double(tau, Eu).is_infinity()
    assert add(tau, tau, Eu).is_infinity()


def test_base_change_examples():
    s1p = base_change_t_u3(section_sigma1())
    u = Poly.x()
    assert s1p.x == RationalFunction(u**2 * (u**6 - 1))
    assert s1p.y == RationalFunction((u**6 - 1) ** 2)
    assert base_change_t_u3(curve_main().infinity()).is_infinity()
    assert curve_sextic_twist().contains(s1p)


def test_base_change_is_homomorphism():
    E = curve_main()
    Eu = curve_sextic_twist()
    s1 = section_sigma1()
    assert base_change_t_u3(double(s1, E)) == double(base_change_t_u3(s1), Eu)
    assert base_change_t_u3(multiply(3, s1, E)) == multiply(3, base_change_t_u3(s1), Eu)


def test_add_sigma1p_tau_displayed():
    Eu = curve_sextic_twist()
    s1p = base_change_t_u3(section_sigma1())
    a = add(s1p, section_tau(), Eu)
    u = Poly.x()
    assert a.x == RationalFunction((u**2 + 2) * (u**4 + u**2 + 1))
    assert a.y == RationalFunction((u**4 + u**2 + 1) ** 2 * (-3))


def test_section_to_xyz_sigma1_is_trivial_solution():
    x, y, z = section_to_xyz(section_sigma1())
    t = Poly.x()
    assert x == RationalFunction(Poly([1]))
    assert y == RationalFunction(t)
    assert z == RationalFunction(t)


def test_section_to_xyz_double_sigma1():
    E = curve_main()
    x, y, z = section_to_xyz(double(section_sigma1(), E))
    t = Poly.x()
    assert x == RationalFunction((t**2 - 1) ** 2 * 8, t**4 - 20 * t**2 - 8)
    assert z == RationalFunction(t * (t**2 + 8) * (t**2 - 1) * 2, t**4 - 20 * t**2 - 8)


def test_sextic_section_to_xyz_family():
    Eu = curve_sextic_twist()
    s1p = base_change_t_u3(section_sigma1())
    b = add(negate(s1p), section_tau(), Eu)
    x, y, z = sextic_section_to_xyz(b)
    u = Poly.x()
    assert x == RationalFunction((u**2 - 1) ** 2 * Fraction(1, 3))
    assert y == RationalFunction(u**3)
    assert z == RationalFunction(u * (u**2 - 1) * (u**2 + 2) * Fraction(1, 3))


def test_section_to_xyz_rejects_torsion():
    with pytest.raises(ValueError):
        sextic_section_to_xyz(section_tau())
    with pytest.raises(ValueError):
        section_to_xyz(curve_main().infinity())


def test_xyz_images_satisfy_surface_equation():
    E = curve_main()
    Eu = curve_sextic_twist()
    s1 = section_sigma1()
    s1p = base_change_t_u3(s1)
    images = [
        section_to_xyz(s1),
        section_to_xyz(double(s1, E)),
        section_to_xyz(multiply(3, s1, E)),
        sextic_section_to_xyz(add(s1p, section_tau(), Eu)),
        sextic_section_to_xyz(double(s1p, Eu)),
    ]
    for x, y, z in images:
        assert (x * y * (x * x + y * y - 1) - z * z * z).is_zero()


def test_every_operation_lands_on_curve():
    E, s1 = omega_setup()
    ws1 = cm_omega(s1, E)
    combos = [add(multiply(a, s1, E), multiply(b, ws1, E), E) for a in (-2, 1, 2) for b in (-1, 0, 2)]
    for P in combos:
        assert E.contains(P)


def test_second_fibration_curve_well_formed():
    E2 = curve_second_fibration()
    assert E2.A.is_zero()
    assert not E2.discriminant().is_zero()


def test_multiply_rejects_a_point_off_the_curve():
    E, s1 = omega_setup()
    off = RationalFunctionPoint(s1.x, s1.y + 1)
    for n in (3, -2, 1, 0):
        with pytest.raises(ValueError):
            multiply(n, off, E)
    assert multiply(0, s1, E).is_infinity()
    assert multiply(-1, s1, E) == negate(s1)


def test_curve_with_mixed_scalars_raises():
    t = Poly.x()
    tw = Poly.x(zero=QOMEGA.zero())
    with pytest.raises(TypeError):
        FunctionFieldCurve(W * tw, t**2 + 1)
    with pytest.raises(TypeError):
        FunctionFieldCurve(t, W * tw**2 + 1)


def test_add_rejects_a_point_off_the_curve():
    E, s1 = omega_setup()
    off = RationalFunctionPoint(s1.x, s1.y + 1)
    O = E.infinity()
    for P, Q in ((off, s1), (s1, off), (off, off), (off, O), (O, off), (off, negate(off))):
        with pytest.raises(ValueError):
            add(P, Q, E)
    with pytest.raises(ValueError):
        E.point(off.x, off.y)
    # a point the curve has accepted does not vouch for another one
    assert add(s1, O, E) == s1
    with pytest.raises(ValueError):
        add(s1, off, E)


def test_each_point_is_checked_once_per_curve(monkeypatch):
    E, s1 = omega_setup()
    ws1 = cm_omega(s1, E)
    P = multiply(3, add(s1, ws1, E), E)
    products = []
    real = RationalFunction.__mul__

    def counting(self, other):
        products.append(other)
        return real(self, other)

    monkeypatch.setattr(RationalFunction, "__mul__", counting)
    # s1 and ws1 were checked by add; P and its partial sums were built by the
    # group law: none of them is checked symbolically again
    assert E.contains(s1) and E.contains(ws1) and E.contains(P)
    assert products == []
    # another instance of the same curve checks again
    assert curve_over_omega(curve_main()).contains(P)
    assert products


@pytest.mark.parametrize("over_omega", [False, True], ids=["sigma1", "w-sigma1"])
def test_multiples_lie_on_the_curve_and_equal_repeated_add(over_omega):
    if over_omega:
        E, s1 = omega_setup()
        P = cm_omega(s1, E)
        fresh = curve_over_omega(curve_main())
    else:
        E, P, fresh = curve_main(), section_sigma1(), curve_main()
    R = E.infinity()
    for n in range(7):
        nP = multiply(n, P, E)
        assert nP == R
        assert fresh.contains(nP)  # a new instance remembers nothing
        assert multiply(-n, P, E) == negate(nP)
        R = add(R, P, E)


def test_multiply_doubles_once_per_bit_below_the_top(monkeypatch):
    # a doubling past the top bit builds a point of about four times the
    # degree of anything kept, and throws it away
    doublings = []
    real = elliptic._chord_tangent

    def counting(P, Q, E):
        if P is Q:
            doublings.append(P)
        return real(P, Q, E)

    monkeypatch.setattr(elliptic, "_chord_tangent", counting)
    E, P = curve_main(), section_sigma1()
    for n in [*range(1, 13), -1, -6, -12]:
        doublings.clear()
        multiply(n, P, E)
        assert len(doublings) == abs(n).bit_length() - 1, n
    doublings.clear()
    assert multiply(0, P, E).is_infinity() and not doublings
