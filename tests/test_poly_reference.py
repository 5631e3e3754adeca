"""The fraction-free Poly and RationalFunction against the Fraction-coefficient
reference in reference_poly, over Q, Q(w) and Q(zeta12).

Both sides start from the same coefficient lists and run each operation on
their own objects; every result must have exactly the reference's
coefficients, scalar types included.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_poly as ref
from cubesum.elliptic import (
    add, cm_omega, curve_main, curve_over_omega, multiply, negate, point_over_omega, section_sigma1,
)
from cubesum.fibration import height_gram, height_pairing
from cubesum.polynomials import INFINITY, Poly, RationalFunction
from cubesum.rings import QOMEGA, QZETA12

FIELDS = [None, QOMEGA, QZETA12]
IDS = ["q", "omega", "zeta12"]
small_q = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def zero_of(field):
    return Fraction(0) if field is None else field.zero()


def scalars(field):
    if field is None:
        return small_q
    # sparse coordinates, so that rational and monic coefficients occur
    coord = st.one_of(st.just(Fraction(0)), small_q)
    return st.lists(coord, min_size=field.degree, max_size=field.degree).map(lambda cs: field(*cs))


def coeff_lists(field, max_size=5):
    return st.lists(scalars(field), max_size=max_size)


def both(cs, field):
    return Poly(cs, zero=zero_of(field)), ref.Poly(cs, zero=zero_of(field))


def same(new, old):
    """new (cubesum) equals old (reference) exactly, scalar types included."""
    if isinstance(old, ref.RationalFunction):
        assert isinstance(new, RationalFunction)
        same(new.num, old.num)
        same(new.den, old.den)
    elif isinstance(old, ref.Poly):
        assert isinstance(new, Poly)
        assert new.coeffs == old.coeffs
        assert [type(c) for c in new.coeffs] == [type(c) for c in old.coeffs]
        assert type(new.zero) is type(old.zero) and new.zero == old.zero
        assert new.degree == old.degree
    else:
        assert type(new) is type(old) and new == old


def outcome(fn, *args):
    """fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except (ZeroDivisionError, ValueError, TypeError) as exc:
        return type(exc)


def same_outcome(fn, new_args, old_args):
    new, old = outcome(fn, *new_args), outcome(fn, *old_args)
    if isinstance(old, type):
        assert new is old
    else:
        same(new, old)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_ring_operations_match_the_reference(field, data):
    (a, ra), (b, rb) = (both(data.draw(coeff_lists(field)), field) for _ in range(2))
    c = data.draw(scalars(field))
    k = data.draw(st.integers(0, 3))
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        same(op(a, b), op(ra, rb))
        same(op(a, c), op(ra, c))
        same(op(c, a), op(c, ra))
        same(op(a, 2), op(ra, 2))
        same(op(Fraction(-1, 3), a), op(Fraction(-1, 3), ra))
    same(-a, -ra)
    same(a**k, ra**k)
    same(a.monic(), ra.monic())
    same(a.derivative(), ra.derivative())
    same(a.leading(), ra.leading())
    assert (a == b) == (ra == rb) and a.is_one() == ra.is_one() and a.is_zero() == ra.is_zero()


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_divmod_by_monic_and_non_monic_divisors_matches_the_reference(field, data):
    a, ra = both(data.draw(coeff_lists(field, 7)), field)
    b, rb = both(data.draw(coeff_lists(field, 4).filter(any)), field)
    for d, rd in ((b, rb), (b.monic(), rb.monic())):
        q, r = a.divmod(d)
        rq, rr = ra.divmod(rd)
        same(q, rq)
        same(r, rr)
        same(a // d, ra // rd)
        same(a % d, ra % rd)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_gcd_matches_the_reference(field, data):
    (a, ra), (b, rb), (g, rg) = (both(data.draw(coeff_lists(field, 4)), field) for _ in range(3))
    # a common factor g, so that gcds of every degree occur
    same((a * g).gcd(b * g), (ra * rg).gcd(rb * rg))
    same(a.gcd(b), ra.gcd(rb))
    same(g.gcd(a * g), rg.gcd(ra * rg))


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_evaluate_and_valuation_match_the_reference(field, data):
    a, ra = both(data.draw(coeff_lists(field)), field)
    r = data.draw(small_q)
    x = data.draw(scalars(field))
    for point in (r, 2, x, zero_of(field) + r):
        same(a.evaluate(point), ra.evaluate(point))
    # a root of every multiplicity up to 3, at a rational place and at x
    k = data.draw(st.integers(0, 3))
    for place in (r, x):
        lin, rlin = both([-place, 1], field)
        if a.is_zero():
            continue
        p, rp = a * lin**k, ra * rlin**k
        assert p.valuation(place) == rp.valuation(place)
        assert p.valuation(zero_of(field) + place) == rp.valuation(zero_of(field) + place)
    if not a.is_zero():
        assert a.valuation(INFINITY) == ra.valuation(ref.INFINITY)


def _leading_term_by_division(rp, place):
    """(v, c) on the reference: divide by t - place while it is a root, then
    evaluate the quotient there."""
    lin, v = ref.Poly([-place, 1], zero=rp.zero), 0
    while not rp.evaluate(place):
        v, rp = v + 1, rp // lin
    return v, rp.evaluate(place)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_leading_term_matches_division_then_evaluation(field, data):
    a, ra = both(data.draw(coeff_lists(field).filter(any)), field)
    # roots p/q with q up to 7, as Fractions and as rational field elements,
    # and roots with irrational coordinates, each of multiplicity up to 4
    r = data.draw(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7)))
    for place in (r, zero_of(field) + r, data.draw(scalars(field))):
        lin, rlin = both([-place, 1], field)
        k = data.draw(st.integers(0, 4))
        p, rp = a * lin**k, ra * rlin**k
        v, c = p.leading_term_at(place)
        expected = _leading_term_by_division(rp, place)
        assert v == expected[0] >= k
        same(c, expected[1])
        w, d = RationalFunction(p, a).leading_term_at(place)
        assert w == k and d == c / a.leading_term_at(place)[1]
    same(a.leading_term_at(INFINITY)[1], ra.leading())
    assert a.leading_term_at(INFINITY)[0] == -ra.degree


def test_leading_term_at_a_root_with_denominator():
    t = Poly.x()
    f = (3 * t - 2) ** 3 * (t**2 + 1) * 5  # = 135 (t - 2/3)^3 (t^2 + 1)
    assert f.leading_term_at(Fraction(2, 3)) == (3, 135 * Fraction(13, 9))
    assert RationalFunction(f, (3 * t - 2) * t).leading_term_at(Fraction(2, 3)) == (2, 135 * Fraction(13, 9) / 2)
    assert RationalFunction(f, t**7).leading_term_at(INFINITY) == (2, 135)


def rational_functions(field, data):
    num, rnum = both(data.draw(coeff_lists(field, 4)), field)
    den, rden = both(data.draw(coeff_lists(field, 4).filter(any)), field)
    common, rcommon = both(data.draw(coeff_lists(field, 3).filter(any)), field)
    return RationalFunction(num * common, den * common), ref.RationalFunction(rnum * rcommon, rden * rcommon)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_rational_function_operators_match_the_reference(field, data):
    (f, rf), (g, rg) = rational_functions(field, data), rational_functions(field, data)
    c = data.draw(scalars(field))
    k = data.draw(st.integers(-2, 2))
    p, rp = both(data.draw(coeff_lists(field, 3)), field)
    same(f, rf)
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y, lambda x, y: x / y):
        same_outcome(op, (f, g), (rf, rg))
        same_outcome(op, (f, c), (rf, c))
        same_outcome(op, (c, f), (c, rf))
        same_outcome(op, (f, p), (rf, rp))
        same_outcome(op, (3, f), (3, rf))
    same(-f, -rf)
    same(f * f, rf * rf)
    same_outcome(lambda x: x**k, (f,), (rf,))
    r = data.draw(small_q)
    same_outcome(lambda x: x.evaluate(r), (f,), (rf,))
    if not f.is_zero():
        assert f.valuation(r) == rf.valuation(r)
        assert f.valuation(INFINITY) == rf.valuation(ref.INFINITY)
    same_outcome(lambda x, y: x.compose(y), (f, g), (rf, rg))  # a pole raises in both
    same(p.compose(g), rp.compose(rg))
    for z in (Fraction(0), QOMEGA.zero(), QZETA12.zero()):
        same_outcome(lambda x: x.over(z), (f,), (rf,))


def _reference(f):
    z = f.zero_scalar
    return ref.RationalFunction(ref.Poly(f.num.coeffs, zero=z), ref.Poly(f.den.coeffs, zero=z))


def _reference_add(P, Q):
    """The chord-tangent law on y^2 = x^3 + B, over reference functions, P != -Q."""
    (x1, y1), (x2, y2) = P, Q
    lam = x1 * x1 * 3 / (y1 * 2) if x1 == x2 else (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    return x3, lam * (x1 - x3) - y1


@pytest.mark.parametrize("which, top", [("sigma1", 6), ("w sigma1", 6), ("sigma1 - w sigma1", 4)])
def test_multiples_match_the_reference_group_law(which, top):
    E = curve_over_omega(curve_main())
    s1 = point_over_omega(section_sigma1())
    ws1 = cm_omega(s1, E)
    P = {"sigma1": s1, "w sigma1": ws1, "sigma1 - w sigma1": add(s1, negate(ws1), E)}[which]
    base = _reference(P.x), _reference(P.y)
    acc = base
    for k in range(2, top + 1):
        acc = _reference_add(acc, base)
        kP = multiply(k, P, E)
        same(kP.x, acc[0])
        same(kP.y, acc[1])


def test_the_sixth_multiple_of_sigma1_minus_w_sigma1():
    # about 12 s with the Fraction-coefficient Poly on a 2-vCPU host, where Euclid over
    # Q(w) grew its coefficients; well under a second on the integer rows
    E = curve_over_omega(curve_main())
    s1 = point_over_omega(section_sigma1())
    ws1 = cm_omega(s1, E)
    P = add(s1, negate(ws1), E)
    six = multiply(6, P, E)
    assert (six.x.num.degree, six.x.den.degree) == (72, 68)
    fresh = curve_over_omega(curve_main())  # checks the equation, not a remembered point
    assert fresh.contains(six)
    (g11, g12), (g21, g22) = height_gram([s1, ws1], E).entries
    assert height_pairing(six, six, E) == 36 * (g11 - g12 - g21 + g22) == 72
