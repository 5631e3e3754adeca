import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubesum.arith import primes_up_to
from cubesum.pointcount import _polymulmod, make_field
from cubesum.polynomials import Poly
from cubesum.rings import (
    EISENSTEIN_UNITS,
    EisensteinInt,
    OMEGA,
    QOMEGA,
    QZETA12,
    SQRT_M3,
    I_Z12,
    SQRT3_Z12,
    SQRTM3_Z12,
    W,
    W_Z12,
    ZETA,
    polymulmod,
    represent_eisenstein,
)

eins = st.builds(EisensteinInt, st.integers(-50, 50), st.integers(-50, 50))


@given(eins, eins)
def test_norm_multiplicative(z, w):
    assert (z * w).norm() == z.norm() * w.norm()


@given(eins)
def test_conj_involution_and_norm(z):
    assert z.conj().conj() == z
    assert z * z.conj() == EisensteinInt(z.norm())
    assert z.trace() == (z + z.conj()).a


def test_units_and_sqrt_m3():
    assert SQRT_M3**2 == EisensteinInt(-3)
    assert len(set(EISENSTEIN_UNITS)) == 6
    for u in EISENSTEIN_UNITS:
        assert u.norm() == 1
    assert OMEGA**3 == EisensteinInt(1)
    assert OMEGA**2 + OMEGA + 1 == EisensteinInt(0)


def test_divides():
    assert EisensteinInt(1, 2).divides(EisensteinInt(-3))
    assert not EisensteinInt(2).divides(EisensteinInt(1, 0))


def test_represent_eisenstein_examples():
    assert represent_eisenstein(7) == (3, 1)
    assert represent_eisenstein(13) == (4, 1)
    with pytest.raises(ValueError):
        represent_eisenstein(5)


def test_represent_eisenstein_all_small_primes():
    for p in primes_up_to(9999):
        if p % 3 != 1:
            continue
        m, n = represent_eisenstein(p)
        assert m * m - m * n + n * n == p


rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
zeta_elems = st.builds(lambda *c: QZETA12(*c), rationals, rationals, rationals, rationals)


@given(zeta_elems, zeta_elems, zeta_elems)
def test_field_axioms_zeta12(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)


@given(zeta_elems.filter(bool))
def test_inverse_zeta12(a):
    assert a * a.inverse() == QZETA12.one()


def test_zeta12_identities():
    assert ZETA**4 == ZETA**2 - 1
    assert ZETA**12 == QZETA12.one()
    assert SQRT3_Z12**2 == QZETA12(3)
    assert I_Z12**2 == QZETA12(-1)
    assert SQRTM3_Z12**2 == QZETA12(-3)
    assert W_Z12**2 + W_Z12 + 1 == QZETA12.zero()
    assert SQRTM3_Z12 == 1 + 2 * W_Z12


def test_omega_field():
    assert W**2 + W + QOMEGA.one() == QOMEGA.zero()
    x = QOMEGA(Fraction(2, 3), Fraction(-1, 5))
    assert x * x.inverse() == QOMEGA.one()


def _random_rationals(rng, k):
    return [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(k)]


@pytest.mark.parametrize("field", [QOMEGA, QZETA12], ids=lambda f: f.name)
def test_polymulmod_matches_poly_remainder_over_q(field):
    rng = random.Random(20261018)
    tail = field.defining
    modulus = Poly(tail + (1,))
    for _ in range(60):
        # up to degree 2n - 1 on each side, so the product needs more than one
        # reduction pass below T^n
        a = _random_rationals(rng, rng.randint(1, 2 * len(tail)))
        b = _random_rationals(rng, rng.randint(1, 2 * len(tail)))
        got = polymulmod(a, b, tail, Fraction(0))
        want = list(((Poly(a) * Poly(b)) % modulus).coeffs)
        want += [Fraction(0)] * (len(tail) - len(want))
        assert got == want
        assert all(type(c) is Fraction for c in got)


@pytest.mark.parametrize("p, n", [(7, 2), (5, 3), (5, 4), (11, 3)])
def test_polymulmod_matches_poly_remainder_for_field_moduli(p, n):
    tail = make_field(p, n).modulus
    modulus = Poly(tail + (1,))
    rng = random.Random(p * 100 + n)
    for _ in range(60):
        a = [rng.randrange(p) for _ in range(n)]
        b = [rng.randrange(p) for _ in range(n)]
        got = polymulmod(a, b, tail)
        want = list(((Poly(a) * Poly(b)) % modulus).coeffs)
        want += [0] * (n - len(want))
        assert got == want  # exact over Z: the modulus is monic
        assert _polymulmod(a, b, tail, p) == [int(c) % p for c in want]


@pytest.mark.parametrize("field", [QOMEGA, QZETA12], ids=lambda f: f.name)
def test_inverse_is_multiplicative(field):
    rng = random.Random(len(field.name))
    for _ in range(40):
        x = field(*_random_rationals(rng, field.degree))
        y = field(*_random_rationals(rng, field.degree))
        if not x or not y:
            continue
        assert x * x.inverse() == field.one()
        assert (x * y).inverse() == x.inverse() * y.inverse()
    assert field(Fraction(-3, 4)).inverse() == field(Fraction(-4, 3))
    with pytest.raises(ZeroDivisionError):
        field.zero().inverse()

