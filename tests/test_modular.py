import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubesum.arith import primes_up_to
from cubesum.modular import (
    CUSP_FORM_ETA,
    EtaQuotientSpec,
    LatticeSumAmbiguityError,
    QSeries,
    ZETA6_POWERS,
    alpha_from_beta,
    ap_closed_form,
    check_lattice_precision,
    chi2,
    closed_form_alpha,
    eta_quotient,
    hecke_expand,
    lattice_sum,
    lattice_sum_variant,
    normalize_pi,
    surface_ap_via_characters,
    _congruent,
)
from cubesum import modular
from cubesum.rings import QOMEGA, W, represent_eisenstein
from reference_eta import eta_coefficients
from reference_lattice import ZETA6_POWERS as REFERENCE_ZETA6_POWERS
from reference_lattice import lattice_sum as reference_lattice_sum

PUBLISHED_COEFFS = {
    1: 1, 3: 3, 7: -2, 9: 9, 13: -22, 19: -26, 21: -6,
    25: 25, 27: 27, 31: 46, 37: 26, 39: -66, 43: 22, 49: -45,
}

odd_norm = st.builds(QOMEGA, st.integers(-30, 30), st.integers(-30, 30)).filter(
    lambda z: z.norm() % 2 == 1
)


def test_eta_reproduces_published_expansion():
    series = eta_quotient(CUSP_FORM_ETA, 50)
    assert series.nonzero() == PUBLISHED_COEFFS


def test_eta_delta_like_series():
    series = eta_quotient(EtaQuotientSpec(((1, 24),)), 5)
    assert series.coeffs == (1, -24, 252, -1472, 4830)


def test_eta_matches_the_dense_reference_at_every_n_to_30_and_at_2000():
    for n in [*range(1, 31), 2000]:
        assert list(eta_quotient(CUSP_FORM_ETA, n).coeffs) == eta_coefficients(CUSP_FORM_ETA.factors, n), n


@st.composite
def eta_specs(draw):
    """Factors (d, e) with d in 1..24 and e in -9..9 nonzero; the last one is
    drawn among those that make sum d*e divisible by 24."""
    exponents = [e for e in range(-9, 10) if e]
    factors = draw(st.lists(st.tuples(st.integers(1, 24), st.sampled_from(exponents)), max_size=4))
    total = sum(d * e for d, e in factors)
    last = [(d, e) for d in range(1, 25) for e in exponents if (total + d * e) % 24 == 0]
    return EtaQuotientSpec((*factors, draw(st.sampled_from(last))))


@settings(deadline=None)
@given(eta_specs(), st.integers(1, 300))
def test_eta_matches_the_dense_reference_on_random_specs(spec, n):
    assert list(eta_quotient(spec, n).coeffs) == eta_coefficients(spec.factors, n)


def test_eta_spec_requires_integral_prefix():
    with pytest.raises(ValueError):
        EtaQuotientSpec(((1, 12),))


def test_eta_spec_requires_positive_scales():
    # a scale d <= 0 would make every term of its factor fall below the precision
    for d in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            EtaQuotientSpec(((d, 24),))


def test_eta_spec_prefix():
    assert CUSP_FORM_ETA.leading_power == 1


def test_qseries_validation():
    with pytest.raises(ValueError):
        QSeries(3, (1, 2))
    s = QSeries(3, (1, 0, 2))
    assert s[1] == 1 and s[3] == 2
    with pytest.raises(IndexError):
        s[4]


def test_agrees_with_refuses_to_compare_past_a_precision():
    short, long = QSeries(3, (1, 0, 2)), QSeries(5, (1, 0, 2, 7, 7))
    assert short.agrees_with(long) and long.agrees_with(short)
    assert short.agrees_with(long, up_to=3) and long.agrees_with(short, up_to=2)
    for a, b in ((short, long), (long, short)):
        with pytest.raises(ValueError, match="precisions are"):
            a.agrees_with(b, up_to=4)


def test_ap_closed_form_examples():
    assert ap_closed_form(7) == -2
    assert ap_closed_form(13) == -22
    assert ap_closed_form(5) == 0
    assert closed_form_alpha(7) == QOMEGA(3, 8)
    assert closed_form_alpha(7).den == 1
    with pytest.raises(ValueError):
        ap_closed_form(4)


def test_ap_matches_eta_at_primes():
    series = eta_quotient(CUSP_FORM_ETA, 200)
    for p in primes_up_to(200):
        if p >= 5:
            assert series[p] == ap_closed_form(p), p


def test_weil_bound():
    for p in primes_up_to(999):
        if p >= 5:
            assert abs(ap_closed_form(p)) < 2 * p


def test_ap_invariant_under_associate_choice():
    for p in primes_up_to(499):
        if p < 5 or p % 3 != 1:
            continue
        m, n = represent_eisenstein(p)
        base = QOMEGA(m, n)
        traces = set()
        for z in (base, base.trace() - base):
            for u in ZETA6_POWERS:
                traces.add(alpha_from_beta(u * z, p).trace())
        assert traces == {ap_closed_form(p)}, p


def test_hecke_expand_recurrence_examples():
    h = hecke_expand(200)
    assert h[21] == -6
    assert h[25] == 25
    assert h[49] == -45
    assert h[9] == 9 and h[27] == 27  # 3-power multiplicativity
    assert h[2] == 0 and h[4] == 0 and h[8] == 0


def test_hecke_expand_equals_the_eta_product_to_10000():
    # reaches prime powers up to 2^13 = 8192 and composites such as 2 * 3^7 and
    # 3 * 5^5 with a large prime-power part, which the multiplicativity pass
    # splits off by sieve lookup
    assert hecke_expand(10**4) == eta_quotient(CUSP_FORM_ETA, 10**4)


@pytest.mark.extended
def test_hecke_expand_equals_the_eta_product_to_50000():
    # the Hecke precision of the benchmark's modular workload
    assert hecke_expand(5 * 10**4) == eta_quotient(CUSP_FORM_ETA, 5 * 10**4)


@pytest.mark.extended
def test_lattice_sum_equals_the_eta_product_to_100000():
    # the series `ap --max` prints, at the size docs/cli.md times it at
    assert lattice_sum_variant(10**5, "mn") == eta_quotient(CUSP_FORM_ETA, 10**5)


def test_triple_agreement():
    n = 200
    eta = eta_quotient(CUSP_FORM_ETA, n)
    hecke = hecke_expand(n)
    outcome = lattice_sum(n)
    assert eta.agrees_with(hecke)
    assert eta.agrees_with(outcome.series)
    assert outcome.argument_order == "mn"
    assert "nm" in outcome.rejected


def test_lattice_sum_small_values():
    assert lattice_sum_variant(1, "mn")[1] == 1
    assert lattice_sum_variant(2, "mn")[2] == 0


def test_lattice_sum_unknown_order_is_an_error():
    with pytest.raises(ValueError, match="unknown argument order"):
        lattice_sum_variant(30, "xy")


def test_lattice_sum_printed_order_loses():
    # the other printed argument order either fails integrality or disagrees
    try:
        series = lattice_sum_variant(30, "nm")
    except LatticeSumAmbiguityError:
        return
    assert not series.agrees_with(eta_quotient(CUSP_FORM_ETA, 30))


def _lattice_outcome(fn, *args):
    """The coefficients fn returns, or the text of the ValueError it raises."""
    try:
        series = fn(*args)
    except ValueError as exc:
        return f"error: {exc}"
    return series.coeffs if isinstance(series, QSeries) else series


@pytest.mark.parametrize("order", ["mn", "nm"])
def test_lattice_sum_matches_the_pure_python_loop(order):
    # the numpy kernel against the point-by-point loop over integer pairs:
    # equal series, or the same error text for the same first q
    for N in list(range(1, 61)) + [200, 1000]:
        assert (_lattice_outcome(lattice_sum_variant, N, order)
                == _lattice_outcome(reference_lattice_sum, N, order)), (N, order)


def test_lattice_sum_errors_match_the_pure_python_loop(monkeypatch):
    # with zeta6^5 read as w instead of -w neither order is integral: "mn"
    # first fails at q^7 with no w part, "nm" at q^3
    units = REFERENCE_ZETA6_POWERS[:5] + ((0, 1),)
    monkeypatch.setattr(modular, "ZETA6_POWERS", tuple(QOMEGA(*u) for u in units))
    for N, order, first in ((10, "mn", 7), (200, "mn", 7), (10, "nm", 3), (200, "nm", 3)):
        got = _lattice_outcome(lattice_sum_variant, N, order)
        assert got.startswith(f"error: coefficient of q^{first} is ("), (N, order, got)
        assert got == _lattice_outcome(reference_lattice_sum, N, order, units)


def test_lattice_sum_refuses_a_precision_past_its_int64_bound():
    # (2B+1)^2 * 2N reaches 2^63 just past N = 929835279; the check runs before any table is built
    check_lattice_precision(929835279)
    with pytest.raises(ValueError, match="precision must be >= 1"):
        check_lattice_precision(0)
    for N in (929835280, 10**9):
        with pytest.raises(ValueError, match="too large for the int64 lattice sums"):
            check_lattice_precision(N)
    with pytest.raises(ValueError, match="too large for the int64 lattice sums"):
        lattice_sum_variant(10**9, "mn")


def test_normalize_pi_examples():
    pi7 = normalize_pi(7, "plus")
    assert pi7 == QOMEGA(-1, 2) and pi7.trace() == -4
    pi13 = normalize_pi(13, "plus")
    assert pi13 * (pi13.trace() - pi13) == 13
    assert _congruent(pi13, 1)
    pi7m = normalize_pi(7, "minus")
    assert pi7m == QOMEGA(3, 2) and _congruent(pi7m, -1)  # 7 = 7 mod 12
    pi13m = normalize_pi(13, "minus")
    assert pi13m == QOMEGA(3, 4) and _congruent(pi13m, 1)  # 13 = 1 mod 12
    with pytest.raises(ValueError):
        normalize_pi(11, "plus")
    with pytest.raises(ValueError):
        normalize_pi(7, "zero")


def test_normalize_pi_deterministic():
    for p in (7, 13, 19, 31):
        assert normalize_pi(p, "plus") == normalize_pi(p, "plus")
        assert normalize_pi(p, "plus").num[1] > 0


def test_chi2_examples():
    assert ZETA6_POWERS[chi2(W)] == W
    with pytest.raises(ValueError):
        chi2(QOMEGA(2))


@given(odd_norm, odd_norm)
def test_chi2_multiplicative(u, v):
    assert chi2(u) in range(6)
    assert chi2(u * v) == (chi2(u) + chi2(v)) % 6


def test_sixth_root_arithmetic():
    # ZETA6_POWERS[k] = zeta6^k: exponents add mod 6 under multiplication
    assert ZETA6_POWERS[1] == 1 + W
    assert len(set(ZETA6_POWERS)) == 6
    for j, x in enumerate(ZETA6_POWERS):
        for k, y in enumerate(ZETA6_POWERS):
            assert x * y == ZETA6_POWERS[(j + k) % 6]
    assert ZETA6_POWERS[2] == W and ZETA6_POWERS[3] == -1 and ZETA6_POWERS[4] == W**2


def test_surface_ap_via_characters_examples():
    assert surface_ap_via_characters(7) == -2
    assert surface_ap_via_characters(13) == -22
    assert surface_ap_via_characters(37) == 26
    with pytest.raises(ValueError):
        surface_ap_via_characters(11)


def test_characters_match_closed_form_below_200():
    for p in primes_up_to(199):
        if p >= 5 and p % 3 == 1:
            assert surface_ap_via_characters(p) == ap_closed_form(p), p
