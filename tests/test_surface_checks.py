from fractions import Fraction
from itertools import combinations, product

import pytest

from cubesum import surface_checks
from cubesum.polynomials import Poly
from cubesum.rings import QZETA12
from cubesum.elliptic import (
    add,
    base_change_t_u3,
    curve_over_omega,
    curve_sextic_twist,
    negate,
    point_over_omega,
    section_sigma1,
    section_tau,
    sextic_section_to_xyz,
)
from cubesum.surface_checks import (
    SINGULAR_POINTS,
    inose_substitution_residuals,
    pagliani_graph_image,
    quartic,
    quotient_psi_residual,
    verify_inose_and_eps2,
    verify_lines_and_singular_points,
    verify_pagliani_graph,
    verify_quotient_psi,
)
from reference_multipoly import MultiPoly, normal_form


def test_quotient_psi_holds():
    assert verify_quotient_psi() is True


def test_quotient_psi_negative_controls():
    # perturbed map (z loses its denominator) must break the identity
    assert not quotient_psi_residual(z_has_denominator=False).is_zero()
    # omitting the relations leaves a visibly nonzero normal form
    assert not quotient_psi_residual(with_relations=False).is_zero()


def test_pagliani_graph_matches_family():
    res = verify_pagliani_graph()
    assert res.matches
    assert res.matched_symmetry is not None


def test_pagliani_graph_sign_flip():
    plus = verify_pagliani_graph(sign=1)
    minus = verify_pagliani_graph(sign=-1)
    assert plus.matches and minus.matches
    assert plus.matched_symmetry != minus.matched_symmetry


def test_pagliani_graph_wrong_projection_fails():
    assert not verify_pagliani_graph(use_pi1=True).matches


@pytest.mark.parametrize("sign", [1, -1])
def test_graph_image_is_the_sextic_section_image(sign):
    # the graph check applies psi's own formula; sextic_section_to_xyz undoes
    # the minimalizing twist instead, and the two must agree
    E = curve_over_omega(curve_sextic_twist())
    s1p = point_over_omega(base_change_t_u3(section_sigma1()))
    if sign < 0:
        s1p = negate(s1p)
    expected = sextic_section_to_xyz(add(s1p, point_over_omega(section_tau()), E))
    assert pagliani_graph_image(sign) == expected


def test_graph_image_wrong_projection_is_off_the_curve():
    with pytest.raises(ValueError):
        pagliani_graph_image(use_pi1=True)


def test_graph_image_is_a_surface_solution():
    x, y, z = pagliani_graph_image()
    lhs = x * y * (x * x + y * y - 1)
    assert lhs == z * z * z


def test_inose_identities_hold():
    r1, r2 = inose_substitution_residuals()
    assert r1.is_zero()
    assert r2.is_zero()
    assert verify_inose_and_eps2() is True


def test_inose_negative_controls():
    assert verify_inose_and_eps2(coefficient=431) is False
    assert verify_inose_and_eps2(flip_wprime_sign=True) is False
    r1, r2 = inose_substitution_residuals(coefficient=431)
    assert not r1.is_zero() and not r2.is_zero()
    r1, r2 = inose_substitution_residuals(flip_wprime_sign=True)
    assert r1.is_zero() and not r2.is_zero()


def _components(value):
    """A sampled value's Polys, lowest power of the outermost root first."""
    if isinstance(value, surface_checks._Sqrt):
        return _components(value.a) + _components(value.b)
    return (value,)


def _reference_components(mp, roots):
    """A reference normal form free of the sample coordinate, as the Polys in
    its first variable that _components lists for roots (outermost first)."""
    idx = [mp.vars.index(r) for r in roots]
    out = []
    for powers in product((0, 1), repeat=len(roots)):
        coeffs = {e[0]: c for e, c in mp.terms.items() if all(e[i] == k for i, k in zip(idx, powers))}
        out.append(Poly([coeffs.get(i, mp.zero) for i in range(max(coeffs, default=-1) + 1)], zero=mp.zero))
    return tuple(out)


def _reference_psi(x0, z_has_denominator, with_relations):
    """The psi residual on MultiPoly and its roots; x0 is a value, or None for
    the variable."""
    names = ("u", "s", "x0", "y0")
    u, s, x0v, y0 = (MultiPoly.variable(names, n) for n in names)
    if x0 is not None:
        x0v = MultiPoly.const(names, x0)
    if not with_relations:
        return surface_checks._psi_numerator(u, 2, x0v, 3, z_has_denominator), ()
    expr = surface_checks._psi_numerator(u, s, x0v, y0, z_has_denominator)
    return normal_form(expr, {"s": u**6 - 1, "y0": x0v**3 - 1}), ("y0", "s")


def _reference_inose(k, x, coefficient, flip_wprime_sign):
    """Inose residual (i) (k = 0) or (ii) (k = 1) on MultiPoly; x is a value, or
    None for the variable."""
    if k == 0:
        zero, identity = QZETA12.zero(), surface_checks._inose_i
    else:
        zero, identity = Fraction(0), lambda t, x, y: surface_checks._inose_ii(t, x, y, flip_wprime_sign)
    names = ("t", "x", "y")
    t, xv, y = (MultiPoly.variable(names, n, zero=zero) for n in names)
    if x is not None:
        xv = MultiPoly.const(names, x, zero=zero)
    return normal_form(identity(t, xv, y), {"y": surface_checks._second_fibration_rhs(t, xv, coefficient)})


@pytest.mark.parametrize("z_has_denominator, with_relations", list(product((True, False), repeat=2)))
def test_psi_residual_matches_the_multipoly_normal_form(z_has_denominator, with_relations):
    # each sampled value is the reference with x0 = x_j, and the reference's
    # x0-degree is below the number of points, so the points decide it
    sampled = quotient_psi_residual(z_has_denominator, with_relations)
    for x0, value in enumerate(sampled):
        mp, roots = _reference_psi(x0, z_has_denominator, with_relations)
        assert _components(value) == _reference_components(mp, roots), x0
    full, _ = _reference_psi(None, z_has_denominator, with_relations)
    assert full.degree_in("x0") < len(sampled)
    assert full.is_zero() == sampled.is_zero()


@pytest.mark.parametrize("coefficient, flip_wprime_sign", [(432, False), (431, False), (432, True)])
def test_inose_residuals_match_the_multipoly_normal_form(coefficient, flip_wprime_sign):
    for k, sampled in enumerate(inose_substitution_residuals(coefficient, flip_wprime_sign)):
        for x, value in enumerate(sampled):
            mp = _reference_inose(k, x, coefficient, flip_wprime_sign)
            assert _components(value) == _reference_components(mp, ("y",)), (k, x)
        full = _reference_inose(k, None, coefficient, flip_wprime_sign)
        assert full.degree_in("x") < len(sampled), k
        assert full.is_zero() == sampled.is_zero(), k


def test_singular_points_annihilate_quartic_and_partials():
    rep = verify_lines_and_singular_points()
    assert rep.singular_points_ok
    assert len(SINGULAR_POINTS) == 5


def test_all_lines_on_surface():
    rep = verify_lines_and_singular_points()
    assert len(rep.lines_on_surface) == 18
    assert all(rep.lines_on_surface)


def test_line_orbits():
    rep = verify_lines_and_singular_points()
    assert rep.orbit_sizes == (2, 2, 2, 12)
    # the known explicit partition, 0-indexed
    assert ((0, 1) in rep.orbits) and ((2, 3) in rep.orbits) and ((4, 5) in rep.orbits)
    assert tuple(range(6, 18)) in rep.orbits
    assert rep.all_ok


def test_quartic_form_shape():
    xyzw = ("X", "Y", "Z", "W")
    F = quartic(*(MultiPoly.variable(xyzw, n, zero=QZETA12.zero()) for n in xyzw))
    assert F.degree_in("X") == 3
    assert F.degree_in("Z") == 3
    assert F.degree_in("W") == 2
    assert all(sum(exp) == 4 for exp in F.terms)


def test_a_perturbed_quartic_keeps_only_the_lines_in_z_equal_0(monkeypatch):
    # the five singular points have Z = 0, so F + Z^4 is still singular there;
    # of the lines only {X = 0, Z = 0} and {Y = 0, Z = 0} lie in Z = 0
    real = surface_checks.quartic
    monkeypatch.setattr(surface_checks, "quartic", lambda X, Y, Z, W: real(X, Y, Z, W) + Z**4)
    rep = verify_lines_and_singular_points()
    assert rep.singular_points_ok
    assert rep.lines_on_surface == (True, True) + (False,) * 16
    assert not rep.all_ok


def test_a_smooth_point_is_not_singular(monkeypatch):
    # F(0, 0, 1, 0) = 0, but dF/dW = -2XYW - Z^3 = -1 there
    monkeypatch.setattr(surface_checks, "SINGULAR_POINTS", SINGULAR_POINTS + ((0, 0, 1, 0),))
    rep = verify_lines_and_singular_points()
    assert not rep.singular_points_ok
    assert all(rep.lines_on_surface)


def test_short_symmetry_group_raises(monkeypatch):
    full = surface_checks.symmetry_group()
    monkeypatch.setattr(surface_checks, "symmetry_group", lambda: full[:7])
    with pytest.raises(ArithmeticError):
        verify_lines_and_singular_points()


def test_line_orbits_are_the_known_partition():
    rep = verify_lines_and_singular_points()
    assert rep.orbits == ((0, 1), (2, 3), (4, 5), tuple(range(6, 18)))


def test_graph_candidates_are_24_distinct_symmetry_images():
    # the 8 integer symmetries times z -> w^k z act freely on the family
    candidates = list(surface_checks._pagliani_candidates())
    labels = [label for label, _ in candidates]
    triples = [triple for _, triple in candidates]
    assert len(candidates) == 24
    assert len(set(labels)) == 24 and {"id", "t1", "t1t2t3.w2"} <= set(labels)
    assert all(a != b for a, b in combinations(triples, 2))


def test_missing_line_in_an_orbit_raises(monkeypatch):
    full = surface_checks._lines()
    # line 17 lies in the 12-orbit, so some generator maps a listed line onto it
    monkeypatch.setattr(surface_checks, "_lines", lambda: full[:17])
    with pytest.raises(RuntimeError):
        verify_lines_and_singular_points()
