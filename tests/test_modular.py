import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubesum.arith import primes_up_to
from cubesum.modular import (
    CUSP_FORM_ETA,
    EtaQuotientSpec,
    LatticeSumAmbiguityError,
    QSeries,
    SixthRoot,
    _alpha_from_beta,
    ap_closed_form,
    chi2,
    closed_form_alpha,
    eta_quotient,
    hecke_expand,
    lattice_sum,
    lattice_sum_variant,
    normalize_pi,
    surface_ap_via_characters,
    TWO_SQRT_M3,
)
from cubesum.rings import EisensteinInt, OMEGA, SQRT_M3, represent_eisenstein

PUBLISHED_COEFFS = {
    1: 1, 3: 3, 7: -2, 9: 9, 13: -22, 19: -26, 21: -6,
    25: 25, 27: 27, 31: 46, 37: 26, 39: -66, 43: 22, 49: -45,
}

odd_norm = st.builds(EisensteinInt, st.integers(-30, 30), st.integers(-30, 30)).filter(
    lambda z: z.norm() % 2 == 1
)


def test_eta_reproduces_published_expansion():
    series = eta_quotient(CUSP_FORM_ETA, 50)
    assert series.nonzero() == PUBLISHED_COEFFS


def test_eta_delta_like_series():
    series = eta_quotient(EtaQuotientSpec(((1, 24),)), 5)
    assert series.coeffs == (1, -24, 252, -1472, 4830)


def test_eta_spec_requires_integral_prefix():
    with pytest.raises(ValueError):
        EtaQuotientSpec(((1, 12),))


def test_eta_spec_prefix():
    assert CUSP_FORM_ETA.leading_power == 1


def test_qseries_validation():
    with pytest.raises(ValueError):
        QSeries(3, (1, 2))
    s = QSeries(3, (1, 0, 2))
    assert s[1] == 1 and s[3] == 2
    with pytest.raises(IndexError):
        s[4]


def test_ap_closed_form_examples():
    assert ap_closed_form(7) == -2
    assert ap_closed_form(13) == -22
    assert ap_closed_form(5) == 0
    assert closed_form_alpha(7) == EisensteinInt(3, 8)
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
        base = EisensteinInt(m, n)
        traces = set()
        for z in (base, base.conj()):
            for assoc in z.associates():
                traces.add(_alpha_from_beta(assoc, p).trace())
        assert traces == {ap_closed_form(p)}, p


def test_hecke_expand_recurrence_examples():
    h = hecke_expand(200)
    assert h[21] == -6
    assert h[25] == 25
    assert h[49] == -45
    assert h[9] == 9 and h[27] == 27  # 3-power multiplicativity
    assert h[2] == 0 and h[4] == 0 and h[8] == 0


def test_hecke_expand_equals_the_eta_product_to_2000():
    # reaches prime powers up to 2^10 = 1024 and composites such as 2 * 3^6 and
    # 3 * 5^4 with a large prime-power part, which the multiplicativity pass
    # splits off by sieve lookup
    assert hecke_expand(2000) == eta_quotient(CUSP_FORM_ETA, 2000)


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


def test_lattice_sum_printed_order_loses():
    # the other printed argument order either fails integrality or disagrees
    try:
        series = lattice_sum_variant(30, "nm")
    except LatticeSumAmbiguityError:
        return
    assert not series.agrees_with(eta_quotient(CUSP_FORM_ETA, 30))


def test_normalize_pi_examples():
    pi7 = normalize_pi(7, "plus")
    assert pi7.trace() == -4
    pi13 = normalize_pi(13, "plus")
    assert pi13.pi * pi13.pi.conj() == EisensteinInt(13)
    assert TWO_SQRT_M3.divides(pi13.pi - EisensteinInt(1))
    pi7m = normalize_pi(7, "minus")
    assert TWO_SQRT_M3.divides(pi7m.pi - EisensteinInt(-1))  # 7 = 7 mod 12
    pi13m = normalize_pi(13, "minus")
    assert TWO_SQRT_M3.divides(pi13m.pi - EisensteinInt(1))  # 13 = 1 mod 12
    with pytest.raises(ValueError):
        normalize_pi(11, "plus")


def test_normalize_pi_deterministic():
    for p in (7, 13, 19, 31):
        assert normalize_pi(p, "plus") == normalize_pi(p, "plus")
        assert normalize_pi(p, "plus").pi.b >= 0


def test_chi2_examples():
    assert chi2(OMEGA, "plus").value() == OMEGA
    assert chi2(EisensteinInt(-1), "minus").value() == EisensteinInt(1)
    assert chi2(SQRT_M3, "minus").value() == EisensteinInt(-1)
    with pytest.raises(ValueError):
        chi2(EisensteinInt(2), "plus")


@given(odd_norm, odd_norm, st.sampled_from(["plus", "minus"]))
def test_chi2_multiplicative(u, v, variant):
    assert chi2(u * v, variant) == chi2(u, variant) * chi2(v, variant)


def test_sixth_root_arithmetic():
    z = SixthRoot(1)
    acc = SixthRoot(0)
    seen = set()
    for _ in range(6):
        seen.add(acc.value())
        acc = acc * z
    assert len(seen) == 6
    assert SixthRoot(2).value() == OMEGA
    assert SixthRoot(4).inverse() == SixthRoot(2)


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
