import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubesum.arith import (
    cube_sum_range,
    icbrt,
    is_prime,
    legendre,
    primes_up_to,
    smallest_prime_factors,
)


def test_icbrt_examples():
    assert icbrt(216) == (6, True)
    assert icbrt(215) == (5, False)
    assert icbrt((10**8 + 1) ** 3 - 1) == (10**8, False)
    assert icbrt(0) == (0, True)
    assert icbrt(1) == (1, True)


def test_icbrt_rejects_negative():
    with pytest.raises(ValueError):
        icbrt(-8)


def test_icbrt_against_incremental_oracle():
    # walk n upward, tracking the true floor root by increments
    root = 0
    for n in range(100_001):
        if (root + 1) ** 3 <= n:
            root += 1
        assert icbrt(n) == (root, root**3 == n), n


@given(st.integers(min_value=0, max_value=10**40))
def test_icbrt_defining_property(n):
    r, exact = icbrt(n)
    assert r**3 <= n < (r + 1) ** 3
    assert exact == (r**3 == n)


def test_legendre_examples():
    assert legendre(-3, 7) == 1
    assert legendre(-4, 7) == -1
    assert legendre(-3, 5) == -1
    assert legendre(0, 7) == 0


def test_legendre_rejects_nonprime():
    with pytest.raises(ValueError):
        legendre(2, 9)
    with pytest.raises(ValueError):
        legendre(2, 2)


@given(st.sampled_from(primes_up_to(500)[2:]), st.integers(-50, 50), st.integers(-50, 50))
def test_legendre_multiplicative(p, a, b):
    assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_is_prime_small():
    ps = set(primes_up_to(2000))
    for n in range(2000):
        assert is_prime(n) == (n in ps)


def test_smallest_prime_factors_match_trial_division():
    n = 3000
    spf = smallest_prime_factors(n)
    assert spf.dtype.name == "int32" and len(spf) == n + 1
    assert spf[0] == spf[1] == 0
    for m in range(2, n + 1):
        assert spf[m] == next(d for d in range(2, m + 1) if m % d == 0), m


def test_primes_up_to_at_the_smallest_bounds():
    # indices 0 and 1 of the sieve hold 0, so neither may be read as a prime
    assert primes_up_to(-1) == primes_up_to(0) == primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(3) == [2, 3]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert all(type(p) is int for p in primes_up_to(30))


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


def test_is_prime_matches_the_sieve_across_the_base_bounds():
    # trial division alone below 43^2 = 1849, one base below 2047, two below
    # 1,373,653: the sieve checks every n around the first two switches
    ps = set(primes_up_to(2 * 10**5))
    for n in range(2 * 10**5):
        assert is_prime(n) == (n in ps), n


# OEIS A014233: the smallest odd composite that is a strong pseudoprime to
# each of the first k primes, k = 1..13
A014233 = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
           3825123056546413051, 318665857834031151167461, 3317044064679887385961981)


def test_is_prime_rejects_each_strong_pseudoprime_below_its_last_bound():
    # n = A014233(k) passes the first k bases, so is_prime must use more
    for n in A014233[:-1]:
        assert not is_prime(n), n
    assert is_prime(10**24 + 7) and not is_prime((2**19 - 1) * (2**61 - 1))


def test_is_prime_refuses_an_unproven_verdict():
    for n in (A014233[-1], 2**89 - 1, 10**30 + 57):
        with pytest.raises(ValueError, match="cannot prove whether"):
            is_prime(n)
    # a factor up to 41 still decides any n
    assert not is_prime(3 * 10**30)


def test_cube_sum_range_positive():
    assert cube_sum_range(3, 3) == 3**3 + 4**3 + 5**3 == 216
    assert cube_sum_range(1, 4) == 100
    assert cube_sum_range(-2, 8) == 216


@given(st.integers(-60, 60), st.integers(1, 40))
def test_cube_sum_range_matches_direct_sum(m, k):
    assert cube_sum_range(m, k) == sum(j**3 for j in range(m, m + k))


@given(st.integers(-30, 30), st.integers(-30, -1))
def test_cube_sum_range_negative_k_telescopes(m, k):
    # the telescoped value negates the sum over the complementary range
    assert cube_sum_range(m, k) == -sum(j**3 for j in range(m + k, m))


def test_integer_substrate_contract():
    # arbitrary-precision integers: canonical values, decimal round-trip,
    # magnitudes far beyond 2^128
    n = 10**40 + 12345678901234567890123456789
    assert int(str(n)) == n
    assert n.bit_length() > 128


def test_rational_substrate_contract():
    from fractions import Fraction
    from math import gcd

    q = Fraction(-6, -48) - Fraction(7, 3)
    assert q.denominator > 0
    assert gcd(abs(q.numerator), q.denominator) == 1
    assert Fraction(str(q)) == q
