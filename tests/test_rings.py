import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubesum import rings
from cubesum.arith import primes_up_to
from cubesum.modular import ZETA6_POWERS, _congruent, normalize_pi, surface_ap_via_characters
from cubesum.pointcount import _matpow, _times_t, make_field
from cubesum.polynomials import Poly
from cubesum.rings import (
    QOMEGA,
    QZETA12,
    I_Z12,
    SQRT3_Z12,
    SQRTM3_Z12,
    W,
    W_Z12,
    ZETA,
    polymulmod,
    represent_eisenstein,
)

# Eisenstein integers a + bw as coordinate pairs, checked against integer
# formulas written out here from w^2 = -1 - w
pairs = st.tuples(st.integers(-50, 50), st.integers(-50, 50))


def _norm(a, b):
    return a * a - a * b + b * b


def _quotient(x, y):
    """(e, f) with (a + bw)(e + fw) = c + dw, or None when it is not integral.

    The product is (ae - bf) + (be + (a - b) f) w; Cramer's rule on that system,
    whose determinant is the norm, gives e and f."""
    (a, b), (c, d) = x, y
    n = _norm(a, b)
    if n == 0:
        return (0, 0) if c == d == 0 else None
    e, f = c * (a - b) + b * d, a * d - b * c
    return (e // n, f // n) if e % n == 0 and f % n == 0 else None


@given(pairs, pairs)
def test_norm_multiplicative(x, y):
    z, w = QOMEGA(*x), QOMEGA(*y)
    assert z.norm() == _norm(*x) and type(z.norm()) is int
    assert (z * w).norm() == z.norm() * w.norm()


@given(pairs)
def test_conj_involution_and_norm(x):
    a, b = x
    z = QOMEGA(a, b)
    conj = z.trace() - z
    assert z.trace() == 2 * a - b and type(z.trace()) is int
    assert conj == QOMEGA(a - b, -b)
    assert conj.trace() - conj == z
    assert z * conj == _norm(a, b)


def test_units_and_sqrt_m3():
    sqrt_m3 = 1 + 2 * W
    assert sqrt_m3**2 == -3
    assert len(set(ZETA6_POWERS)) == 6
    for u in ZETA6_POWERS:
        assert u.norm() == 1 and u.den == 1
    assert W**3 == 1
    assert W**2 + W + 1 == 0


@given(pairs, st.sampled_from([1, -1]))
def test_congruent_matches_the_integer_quotient(x, t):
    # x = t mod 2 sqrt(-3) = 2 + 4w exactly when 2 + 4w divides x - t
    a, b = x
    assert _congruent(QOMEGA(a, b), t) == (_quotient((2, 4), (a - t, b)) is not None)
    # a random pair is congruent one time in twelve: t plus a multiple always is
    assert _congruent(t + QOMEGA(2, 4) * QOMEGA(a, b), t)


def _mul(x, y):
    (a, b), (c, d) = x, y
    return a * c - b * d, b * c + (a - b) * d


UNITS = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]


def _target(p, variant):
    return 1 if variant == "plus" or p % 12 == 1 else -1


def _normalized(zs, t):
    """The elements of zs that are = t mod 2 + 4w, by the integer quotient."""
    return {z for z in zs if _quotient((2, 4), (z[0] - t, z[1])) is not None}


def _twelve_candidate_pi(p, variant):
    """normalize_pi by the twelve-candidate rule: of the six associates of m + nw
    and of its conjugate, the normalised ones, the first under the key
    (b < 0, (a, b))."""
    m, n = represent_eisenstein(p)
    found = _normalized([_mul(u, z) for z in ((m, n), (m - n, -n)) for u in UNITS], _target(p, variant))
    assert len({2 * a - b for a, b in found}) == 1
    return min(found, key=lambda c: (c[1] < 0, c))


def test_normalize_pi_matches_the_twelve_candidate_rule_below_3000():
    for p in primes_up_to(2999):
        if p < 5 or p % 3 != 1:
            continue
        for variant in ("plus", "minus"):
            assert normalize_pi(p, variant).num == _twelve_candidate_pi(p, variant), (p, variant)
        # a_p is pi+ times the minus-normalised associate of pi+, plus the conjugate
        pi = _twelve_candidate_pi(p, "plus")
        (partner,) = _normalized([_mul(u, pi) for u in UNITS], _target(p, "minus"))
        a, b = _mul(pi, partner)
        assert surface_ap_via_characters(p) == 2 * a - b, p


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
        a = [rng.randint(-30, 30) for _ in range(rng.randint(1, 2 * len(tail)))]
        b = [rng.randint(-30, 30) for _ in range(rng.randint(1, 2 * len(tail)))]
        got = polymulmod(a, b, tail)
        want = list(((Poly(a) * Poly(b)) % modulus).coeffs)
        want += [0] * (len(tail) - len(want))
        assert got == want  # exact over Z: the modulus is monic
        assert all(type(c) is int for c in got)


@pytest.mark.parametrize("p, n", [(7, 2), (5, 3), (5, 4), (11, 3)])
def test_polymulmod_matches_poly_remainder_for_field_moduli(p, n):
    tail = make_field(p, n).modulus
    modulus = Poly(tail + (1,))
    t = Poly([0, 1])
    times_t = _times_t(tail, p)
    rng = random.Random(p * 100 + n)
    for _ in range(60):
        a = [rng.randrange(p) for _ in range(n)]
        b = [rng.randrange(p) for _ in range(n)]
        got = polymulmod(a, b, tail)
        want = list(((Poly(a) * Poly(b)) % modulus).coeffs)
        want += [0] * (n - len(want))
        assert got == want  # exact over Z: the modulus is monic
        # a row of digits times the e-th power of the companion matrix is the
        # digits of a T^e mod g, read mod p
        e = rng.randrange(3 * p**n)
        want = [int(c) % p for c in ((Poly(a) * t**e) % modulus).coeffs]
        want += [0] * (n - len(want))
        assert (np.array(a) @ _matpow(times_t, e, p) % p).tolist() == want, e
    assert (_matpow(times_t, p**n - 1, p) == np.identity(n)).all()


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



def test_power_ladders_square_once_per_bit_below_the_top(monkeypatch):
    squarings = []

    class Counting(np.ndarray):
        # a matrix times itself is a squaring
        def __matmul__(self, other):
            if other is self:
                squarings.append(self)
            return super().__matmul__(other)

    def counting(real):
        def mul(a, b, *rest):
            if a is b:
                squarings.append(a)
            return real(a, b, *rest)
        return mul

    monkeypatch.setattr(rings, "polymulmod", counting(polymulmod))
    tail, p = (2, 4, 0, 1), 5  # T^4 + T^3 + 4T + 2 over F_5
    times_t = _times_t(tail, p)
    x = QZETA12(Fraction(1, 2), 0, -3, 1)
    t_power, x_power = np.identity(4, dtype=np.int64), QZETA12.one()
    for e in range(1, 70):
        t_power, x_power = t_power @ times_t % p, x_power * x
        squarings.clear()
        assert (_matpow(times_t.view(Counting), e, p) == t_power).all()
        assert len(squarings) == e.bit_length() - 1, e
        squarings.clear()
        assert x**e == x_power and len(squarings) == e.bit_length() - 1, e
        squarings.clear()
        assert x**-e == x_power.inverse() and len(squarings) == e.bit_length() - 1, e
