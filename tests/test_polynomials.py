import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubesum.polynomials import INFINITY, Poly, RationalFunction
from cubesum.rings import QOMEGA, W, ZETA, NumberField
from reference_multipoly import MultiPoly, normal_form

coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
polys = st.lists(coeff, min_size=0, max_size=6).map(Poly)


@given(polys, polys, polys)
def test_poly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(polys, polys.filter(lambda p: not p.is_zero()))
def test_poly_divmod(a, b):
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


@given(polys.filter(lambda p: not p.is_zero()), polys.filter(lambda p: not p.is_zero()))
def test_poly_gcd_divides(a, b):
    g = a.gcd(b)
    assert (a % g).is_zero()
    assert (b % g).is_zero()


def test_valuation_examples():
    t = Poly.x()
    f = RationalFunction(t**4 * (t**2 - 1) ** 3)
    assert f.valuation(Fraction(0)) == 4
    assert f.valuation(Fraction(1)) == 3
    assert RationalFunction(t**2 - 1).valuation(INFINITY) == -2
    assert RationalFunction(Poly([1]), t**3).valuation(Fraction(0)) == -3
    with pytest.raises(ValueError):
        RationalFunction(Poly([])).valuation(Fraction(0))


def test_rational_function_reduction():
    t = Poly.x()
    f = RationalFunction((t**2 - 1) * t, (t - 1) * 2)
    # reduced, monic denominator
    assert f.den.is_one()
    assert f.num == (t**2 + t) * Fraction(1, 2)


def test_rational_function_arithmetic():
    t = Poly.x()
    f = RationalFunction(Poly([1]), t)
    g = RationalFunction(t)
    assert f * g == RationalFunction(Poly([1]))
    assert (f + g) * t == t * t + 1
    assert (g**-2) == RationalFunction(Poly([1]), t**2)


def test_compose():
    t = Poly.x()
    f = RationalFunction(t**2 + 1)
    u3 = RationalFunction(t**3)
    assert f.compose(u3) == RationalFunction(t**6 + 1)
    g = RationalFunction(Poly([1]), t)
    assert g.compose(u3) == RationalFunction(Poly([1]), t**3)


def test_poly_over_number_field():
    z = QOMEGA.zero()
    t = Poly.x(zero=z)
    f = (t - W) * (t - W**2)
    assert f == t**2 + t + 1


def test_monic_gcd_over_omega_inverts_nothing(monkeypatch):
    z = QOMEGA.zero()
    t = Poly.x(zero=z)
    a = (t - W) * (t - 1) * (t + 2)
    b = (t - W) * (t - 1)
    calls = []
    real = NumberField.adjugate

    def counting(self, c):
        calls.append(c)
        return real(self, c)

    # every scalar inverse, in Poly and in NumberFieldElement.inverse, goes
    # through the adjugate of NumberField
    monkeypatch.setattr(NumberField, "adjugate", counting)
    # the only divisor is b, which is monic, and the gcd b is monic already
    assert a.gcd(b) == b
    assert (a // b) == t + 2
    assert calls == []
    # a divisor with the leading coefficient w takes the adjugate of w, once
    assert a // (W * b) == (t + 2) * W**2
    assert calls == [[0, 1]]


def test_divmod_by_non_monic_divisor_over_q_and_omega():
    t = Poly.x()
    a = 3 * t**4 - t**3 + Fraction(1, 2) * t + 7
    b = Fraction(-2, 3) * t**2 + 5 * t - 1
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree

    z = QOMEGA.zero()
    tw = Poly.x(zero=z)
    aw = (2 + W) * tw**5 - W * tw**2 + Fraction(3, 4)
    bw = (3 - 2 * W) * tw**2 + QOMEGA(Fraction(1, 5), -1) * tw + W
    qw, rw = aw.divmod(bw)
    assert qw * bw + rw == aw
    assert rw.degree < bw.degree


def test_normal_form_examples():
    vars3 = ("u", "s", "y0")
    u = MultiPoly.variable(vars3, "u")
    s = MultiPoly.variable(vars3, "s")
    y0 = MultiPoly.variable(vars3, "y0")
    assert normal_form(s**3, {"s": u**6 - 1}) == s * (u**6 - 1)
    x0vars = ("u", "s", "x0", "y0")
    u2, s2, x0, y02 = (MultiPoly.variable(x0vars, v) for v in x0vars)
    nf = normal_form(s2**2 * y02**2, {"s": u2**6 - 1, "y0": x0**3 - 1})
    assert nf == (u2**6 - 1) * (x0**3 - 1)
    assert normal_form(s**2 - u**6 + 1, {"s": u**6 - 1}).is_zero()


def test_normal_form_degree_bound():
    vars2 = ("u", "s")
    u = MultiPoly.variable(vars2, "u")
    s = MultiPoly.variable(vars2, "s")
    out = normal_form(s**7 + s**4 * u, {"s": u**2 + 3})
    assert out.degree_in("s") < 2


def test_normal_form_triangular_chain():
    vars2 = ("a", "b")
    a = MultiPoly.variable(vars2, "a")
    b = MultiPoly.variable(vars2, "b")
    # a^2 -> b + 1 mentions the other eliminated variable b (b^2 -> 2): a
    # dependent chain is rejected, not reduced in a triangular order
    with pytest.raises(ValueError):
        normal_form(a**4, {"a": b + 1, "b": MultiPoly.const(vars2, 2)})
    assert normal_form(a**4, {"a": b + 1}) == b**2 + 2 * b + 1


def test_normal_form_rejects_cycle():
    vars2 = ("a", "b")
    a = MultiPoly.variable(vars2, "a")
    b = MultiPoly.variable(vars2, "b")
    with pytest.raises(ValueError):
        normal_form(a * b, {"a": b, "b": a})


def test_equal_polys_scalars_and_rational_functions_hash_equal():
    t = Poly.x()
    for a, b in ((t, RationalFunction(t)), (3, RationalFunction(Poly([3]))),
                 (Poly([3]), 3), (Poly([W]), W)):
        assert a == b and b == a
        assert a in {b} and b in {a}


def test_poly_and_multipoly_reject_mixed_scalars():
    with pytest.raises(TypeError):
        Poly([W, ZETA])
    with pytest.raises(TypeError):
        Poly([W], zero=Fraction(0))
    with pytest.raises(TypeError):
        MultiPoly(("x",), {(1,): W, (0,): ZETA})
    with pytest.raises(TypeError):
        MultiPoly(("x",), {(1,): W}, zero=Fraction(0))
    assert Poly([1, W]).zero == QOMEGA.zero()
    assert MultiPoly(("x",), {(1,): 2, (0,): W}).zero == QOMEGA.zero()
    assert all(type(c) is Fraction for c in Poly([1, Fraction(1, 2)]).coeffs)
    assert all(type(c) is Fraction for c in MultiPoly(("x",), {(1,): 2}).terms.values())


def test_constant_denominator_skips_the_gcd(monkeypatch):
    t = Poly.x()
    z = QOMEGA.zero()
    tw = Poly.x(zero=z)
    calls = []
    real = Poly.gcd

    def counting(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(Poly, "gcd", counting)
    f = RationalFunction(2 * t + 4, Poly([Fraction(2, 3)]))
    fw = RationalFunction(W * tw**2 - 1, Poly([2 * W], zero=z))
    zero = RationalFunction(Poly([]), Poly([Fraction(5)]))
    assert calls == []
    # the leading-coefficient step alone gives the reduced, monic-denominator form
    assert f.num == 3 * t + 6 and f.den.is_one()
    # (w t^2 - 1) / (2w) = t^2/2 - w^2/2, and -w^2 = 1 + w
    half = Fraction(1, 2)
    assert fw.num == Poly([QOMEGA(half, half), 0, QOMEGA(half)], zero=z) and fw.den.is_one()
    assert zero.num.is_zero() and zero.den.is_one()
    # a non-constant denominator still goes through the gcd
    g = RationalFunction(t**2 - 1, 2 * t - 2)
    assert calls and g.num == Fraction(1, 2) * (t + 1) and g.den.is_one()


# --- the operators against the constructor's full normalisation ---------------

q_coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
small_q = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
w_coeffs = st.builds(lambda a, b: QOMEGA(a, b), small_q, small_q)


@st.composite
def operand_pairs(draw, coeffs, zero):
    """Two reduced rational functions: independent, with denominators sharing a
    factor, with one's numerator sharing a factor with the other's
    denominator, with equal denominators, equal, or with a sum whose
    numerator shares a factor with both denominators. Zero and constants
    occur."""
    poly = st.lists(coeffs, max_size=4).map(lambda cs: Poly(cs, zero=zero))
    nonzero = poly.filter(lambda p: not p.is_zero())
    a, c = draw(poly), draw(poly)
    b, d, s = draw(nonzero), draw(nonzero), draw(nonzero)
    shape = draw(st.sampled_from(["free", "dens", "cross", "same-den", "equal", "sum"]))
    f = RationalFunction(a * s if shape == "cross" else a, b * s if shape in ("dens", "sum") else b)
    if shape == "equal":
        return f, f
    if shape == "same-den":
        return f, RationalFunction(c, f.den)
    if shape == "sum":  # f + g = c s / den(f)
        return f, RationalFunction(c * s - f.num, f.den)
    return f, RationalFunction(c, d * s if shape in ("dens", "cross") else d)


def assert_reduced(f):
    assert f.den.leading() == f.den.zero + 1
    if f.num.is_zero():
        assert f.den.is_one()
    else:
        assert f.num.gcd(f.den).is_one()


def check_operators(f, g):
    a, b, c, d = f.num, f.den, g.num, g.den
    expected = [
        (f + g, RationalFunction(a * d + c * b, b * d)),
        (f - g, RationalFunction(a * d - c * b, b * d)),
        (f * g, RationalFunction(a * c, b * d)),
        (-f, RationalFunction(-a, b)),
        (f + c, RationalFunction(a + c * b, b)),
        (f - c, RationalFunction(a - c * b, b)),
        (1 - f, RationalFunction(b - a, b)),
        (f * c, RationalFunction(a * c, b)),
        (f * 3, RationalFunction(a * 3, b)),
        (f**2, RationalFunction(a * a, b * b)),
        (f**0, RationalFunction(Poly([1], zero=a.zero))),
    ]
    if not g.is_zero():
        expected.append((f / g, RationalFunction(a * d, b * c)))
        expected.append((f / c, RationalFunction(a, b * c)))
        expected.append((g**-3, RationalFunction(d**3, c**3)))
        expected.append((Fraction(2, 3) / g, RationalFunction(d * Fraction(2, 3), c)))
    for got, want in expected:
        assert got.num.coeffs == want.num.coeffs and got.den.coeffs == want.den.coeffs
        assert_reduced(got)


# the reference constructor runs Euclid on the full products, which is slow
# over Q(w) for some draws; no deadline, so those draws do not fail the test
@settings(deadline=None)
@given(operand_pairs(q_coeffs, Fraction(0)))
def test_operators_equal_the_normalised_constructor_over_q(fg):
    check_operators(*fg)


@settings(deadline=None)
@given(operand_pairs(w_coeffs, QOMEGA.zero()))
def test_operators_equal_the_normalised_constructor_over_omega(fg):
    check_operators(*fg)


def test_operators_reject_mixed_scalar_rings():
    t = Poly.x()
    tw = Poly.x(zero=QOMEGA.zero())
    tz = Poly.x(zero=ZETA.field.zero())
    f, fw, fz = (RationalFunction(s + 1, s * s + 2) for s in (t, tw, tz))
    pairs = [(f, fw), (fw, f), (fw, fz), (fz, fw), (f, tw), (tw, f), (fw, t), (t, fw),
             (t, tw), (tw, t), (tw, tz)]
    for x, y in pairs:
        for op in (lambda p, q: p + q, lambda p, q: p - q, lambda p, q: p * q):
            with pytest.raises(TypeError):
                op(x, y)
        with pytest.raises(TypeError):
            x / y if isinstance(x, RationalFunction) or isinstance(y, RationalFunction) else x // y
    # the named methods and the constructor check too, with constant divisors
    for x, y in [(t, tw), (tw, t), (tw, tz), (W * tw * tw, t + 1), (t * t, tw + 1), (t, tw * 0 + W)]:
        for call in (x.divmod, x.gcd, lambda y, x=x: RationalFunction(x, y)):
            with pytest.raises(TypeError):
                call(y)
    with pytest.raises(TypeError):
        f * W
    with pytest.raises(TypeError):
        W / f
    # rational scalars enter a number field's functions in either order
    assert (fw * Fraction(1, 2)) * 2 == fw == 2 * (Fraction(1, 2) * fw)
    assert 1 - (1 - fw) == fw


@pytest.mark.parametrize("zero, const", [(Fraction(0), 2), (QOMEGA.zero(), W)], ids=["q", "omega"])
def test_poly_and_rational_function_mix_in_either_order(zero, const):
    t = Poly.x(zero=zero)
    c = t * t - 3 * t + const
    f = RationalFunction(t + 1, t * t + 2)
    for p in (t, c):
        assert p + f == f + p == RationalFunction(p) + f
        assert p - f == -(f - p) == RationalFunction(p) - f
        assert p * f == f * p == RationalFunction(p) * f
        assert isinstance(p + f, RationalFunction)
    for other in ("t", None, object(), 1.5):
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
                   lambda a, b: a // b, lambda a, b: a % b):
            with pytest.raises(TypeError):
                op(t, other)
            with pytest.raises(TypeError):
                op(other, t)
    with pytest.raises(TypeError):
        t // f


_T = Poly.x()
_OPERATORS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}


@pytest.mark.parametrize("value, foreign", [
    (_T, (None, 1.5, object())),
    (RationalFunction(_T + 1, _T * _T + 2), (None, 1.5, object())),
    (W, (None, 1.5, object())),
    (MultiPoly.variable(("x", "y"), "x"), (None, 1.5, object())),
], ids=["Poly", "RationalFunction", "NumberFieldElement", "MultiPoly"])
def test_unsupported_operand_error_names_the_operator(value, foreign):
    # each operator returns NotImplemented for an operand it cannot take, so
    # Python's TypeError names the operator that was used, in either order
    for other in foreign:
        for symbol, op in _OPERATORS.items():
            for a, b in ((value, other), (other, value)):
                with pytest.raises(TypeError, match=f"for {re.escape(symbol)}:"):
                    op(a, b)
