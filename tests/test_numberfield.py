"""Fraction-free Q(w) and Q(zeta12) elements against the Fraction reference."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubesum.rings import I_Z12, QOMEGA, QZETA12, SQRT3_Z12, SQRTM3_Z12, ZETA, NumberField, polymulmod
from reference_numberfield import RefElement

FIELDS = [QOMEGA, QZETA12]

# small, negative and large numerators and denominators
rationals = st.builds(
    Fraction,
    st.one_of(st.integers(-30, 30), st.integers(-(10**30), 10**30)),
    st.one_of(st.integers(1, 12), st.integers(1, 10**25)),
)


def pair(field, coords):
    """The same element in cubesum.rings and in the reference."""
    return field(*coords), RefElement(field.defining, coords)


def assert_normalised(x):
    assert x.den > 0
    assert gcd(x.den, *x.num) == 1
    assert len(x.num) == x.field.degree
    assert all(type(a) is int for a in x.num)


def assert_agrees(x, ref):
    assert_normalised(x)
    assert x.coords == ref.coords
    assert all(type(c) is Fraction for c in x.coords)
    assert bool(x) == bool(ref)
    assert x.is_rational() == ref.is_rational()
    if ref.is_rational():
        assert x.rational_value() == ref.rational_value()
    else:
        with pytest.raises(ValueError):
            x.rational_value()


def check_operations(field, ca, cb):
    a, ra = pair(field, ca)
    b, rb = pair(field, cb)
    assert_agrees(a, ra)
    assert_agrees(a + b, ra + rb)
    assert_agrees(a - b, ra - rb)
    assert_agrees(-a, -ra)
    assert_agrees(a * b, ra * rb)
    for k in (0, 1, -3, 10**12):
        assert_agrees(a * k, ra * RefElement(field.defining, [k]))
    for got, want in ((a.trace(), ra.trace()), (a.norm(), ra.norm())):
        assert got == want
        assert type(got) is (int if a.den == 1 else Fraction)
    assert (a == b) == (ra == rb)
    assert a == field(*ra.coords)
    if rb:
        assert_agrees(a / b, ra / rb)
        assert_agrees(b.inverse(), rb.inverse())
        assert_agrees(b**-2, rb**-2)
    for n in (0, 1, 3):
        assert_agrees(a**n, ra**n)


def _seeded_coords(rng, degree):
    out = []
    for _ in range(rng.randint(0, degree)):
        if rng.random() < 0.2:
            out.append(Fraction(rng.randint(-(10**20), 10**20), rng.randint(1, 10**15)))
        elif rng.random() < 0.2:
            out.append(rng.randint(-5, 5))  # plain ints, as callers pass them
        else:
            out.append(Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_seeded_elements_agree_with_reference(field):
    rng = random.Random(8000 + field.degree)
    for _ in range(150):
        check_operations(field, _seeded_coords(rng, field.degree), _seeded_coords(rng, field.degree))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@given(data=st.data())
def test_drawn_elements_agree_with_reference(field, data):
    coords = st.lists(rationals, min_size=0, max_size=field.degree)
    check_operations(field, data.draw(coords), data.draw(coords))


def test_trace_and_norm_of_known_elements():
    # the norm to Q from degree 4 is the square of the norm from Q(sqrt3),
    # Q(sqrt-3) or Q(i): (-3)^2 for sqrt3, 3^2 for sqrt-3, 2^2 for 1 + i
    assert QZETA12.one().trace() == 4 and ZETA.trace() == 0 and ZETA.norm() == 1
    assert SQRT3_Z12.trace() == 0 and SQRT3_Z12.norm() == 9 and SQRTM3_Z12.norm() == 9
    assert (1 + I_Z12).trace() == 4 and (1 + I_Z12).norm() == 4
    assert QZETA12(Fraction(1, 2)).norm() == Fraction(1, 16)
    assert QOMEGA(3, 1).norm() == 7 and QOMEGA(Fraction(1, 3), 1).trace() == Fraction(-1, 3)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_equal_elements_have_equal_num_den_and_hash(field):
    built = [
        field(Fraction(2, 4)),
        field(1) / 2,
        field(Fraction(1, 2)),
        field(Fraction(-3, 2)) + 2,
        field(Fraction(1, 6), Fraction(1, 3)) - field(Fraction(-1, 3), Fraction(1, 3)),
        field(4).inverse() * 2,
    ]
    assert len({(x.num, x.den) for x in built}) == 1
    assert len({hash(x) for x in built}) == 1
    assert len(set(built)) == 1
    assert built[0].den == 2 and built[0].num == (1,) + (0,) * (field.degree - 1)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_zero_is_zero_over_one(field):
    gen = field.gen()
    for zero in (field.zero(), field(Fraction(0, 7)), gen - gen, field(Fraction(1, 3)) * 0):
        assert zero.num == (0,) * field.degree and zero.den == 1
        assert zero == 0 and not zero
        assert hash(zero) == hash(field.zero())


def test_too_many_coordinates_raise():
    with pytest.raises(ValueError):
        QOMEGA(1, 2, 3)
    with pytest.raises(ValueError):
        QZETA12(1, 2, 3, 4, 5)
    # the full degree and fewer coordinates are fine
    assert QOMEGA(1, 2) + QOMEGA(1) == QOMEGA(2, 2)
    assert QZETA12(1, 0, 0, 1).num == (1, 0, 0, 1)


def test_rational_elements_hash_as_their_fraction():
    assert 1 in {QOMEGA(1)}
    assert QOMEGA(1) in {1}
    assert Fraction(1, 2) in {QOMEGA(Fraction(1, 2))}
    assert QZETA12(Fraction(-3, 7)) in {Fraction(-3, 7)}
    # irrational elements keep a hash of their own
    assert QOMEGA(0, 1) not in {0, 1}


def test_elements_of_two_fields_are_unequal_but_do_not_mix():
    assert QOMEGA(1) != QZETA12(1)
    assert not QOMEGA(1) == QZETA12(1)
    assert len({QOMEGA(1), QZETA12(1)}) == 2
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b, lambda a, b: a / b):
        with pytest.raises(TypeError):
            op(QOMEGA(1), QZETA12(1))


@pytest.mark.parametrize("defining", [(-2, 0), (1, 1), (-2, 0, 0), (1, 1, 0), (1, 0, -1, 0), (-2, 0, 0, 0, 0)],
                         ids=["x2-2", "x2+x+1", "x3-2", "x3+x+1", "zeta12", "x5-2"])
def test_adjugate_times_element_is_its_norm(defining):
    # real and imaginary quadratics take the closed form; degrees 3 to 5 go
    # through Faddeev-LeVerrier; the reference inverts by Gaussian elimination
    field = NumberField("test", defining)
    rng = random.Random(17)
    for _ in range(40):
        c = [rng.randint(-9, 9) for _ in defining]
        if not any(c):
            continue
        a, n = field.adjugate(c)
        assert n != 0 and all(type(x) is int for x in a)
        assert polymulmod(c, a, field.defining) == [n] + [0] * (len(defining) - 1)
        x, rx = pair(field, [Fraction(v, 3) for v in c])
        assert_agrees(x.inverse(), rx.inverse())
