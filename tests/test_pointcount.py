import json
import random
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubesum import modular as mod
from cubesum import pointcount as pc
from cubesum import verifysuite as vs
from cubesum.arith import legendre, primes_up_to
from cubesum.modular import CUSP_FORM_ETA, eta_quotient, hecke_expand, normalize_pi
from cubesum.pointcount import (
    CONVENTIONS,
    CountReport,
    FROBENIUS_POWER,
    MODULAR_COEFFICIENT,
    _check_hasse,
    _exp_log_tables,
    _find_primitive,
    a_pn,
    adjudicate_conventions,
    brute_count_elliptic,
    brute_count_surface,
    count_surface,
    formula_count_surface,
    make_field,
)
from reference_field import count_elliptic as reference_count_elliptic
from reference_field import count_surface as reference_count_surface
from reference_field import exp_table as reference_exp_table
from reference_field import is_square as reference_is_square
from reference_field import order_of_t
from reference_field import reference_field


def is_square(field, x) -> int:
    """Quadratic character from the log table: 0 at zero, +1 on even logs,
    -1 on odd ones."""
    if x == field.zero:
        return 0
    return -1 if field.log[x] % 2 else 1


def trace_alg(p: int, n: int) -> int:
    """The algebraic-cycle trace 16 p^n + 3 (-3/p)^n p^n + (-4/p)^n p^n."""
    return (16 + 3 * legendre(-3, p) ** n + legendre(-4, p) ** n) * p**n


def test_is_square_examples():
    F7 = make_field(7, 1)
    assert is_square(F7, 2) == 1
    assert is_square(F7, 3) == -1
    assert is_square(F7, 0) == 0
    F49 = make_field(7, 2)
    squares = {F49.mul(y, y) for y in F49.elements()}
    for x in F49.elements():
        expected = 0 if x == F49.zero else (1 if x in squares else -1)
        assert is_square(F49, x) == expected


def test_ext_field_structure():
    F = make_field(7, 2)
    els = list(F.elements())
    assert len(els) == 49
    rng = random.Random(0)
    for _ in range(25):
        a, b = rng.choice(els), rng.choice(els)
        # Frobenius a -> a^p is additive and multiplicative
        assert F.pow(F.add(a, b), F.p) == F.add(F.pow(a, F.p), F.pow(b, F.p))
        assert F.pow(F.mul(a, b), F.p) == F.mul(F.pow(a, F.p), F.pow(b, F.p))
    for a in els:
        assert F.pow(a, F.q) == a


def test_ext_field_modulus_is_deterministic_and_irreducible():
    F = make_field(7, 2)
    assert F.modulus == (3, 1)  # T^2 + T + 3, the lexicographically first primitive
    F3 = make_field(5, 3)
    # no roots in F_5
    c0, c1, c2 = F3.modulus
    assert all((r**3 + c2 * r * r + c1 * r + c0) % 5 for r in range(5))
    for p, n in ((7, 1), (7, 2), (5, 3)):
        F = make_field(p, n)
        assert sorted(F.exp.tolist()) == list(range(1, F.q))
        assert all(F.log[F.exp[i]] == i for i in range(F.q - 1))
        # the generator is the class of T, of order q-1 by the reference
        assert F.exp[1] == F.generator == (p if n >= 2 else -F.modulus[0] % p)
        assert order_of_t(p, F.modulus) == F.q - 1, (p, n)
    assert make_field(7, 1).modulus == (2,) and make_field(7, 1).generator == 5


def test_field_constructor_validation():
    with pytest.raises(ValueError):
        make_field(6, 1)
    with pytest.raises(ValueError):
        make_field(4, 2)
    with pytest.raises(ValueError):
        make_field(7, 0)
    with pytest.raises(ValueError):
        make_field(7, 2).pow(3, -1)
    assert type(make_field(7, 1)) is type(make_field(7, 2))
    assert make_field(7, 1).q == 7 and make_field(7, 2).q == 49


# --- the integer-coded field and its counts against the tuple reference -------

FIELD_CASES = [(7, 2), (5, 3), (5, 4), (31, 2), (11, 3)] + [
    (p, 1) for p in primes_up_to(49)
]
COUNT_CASES = [(p, 1) for p in primes_up_to(199) if p >= 5] + [
    (5, 2), (7, 2), (11, 2), (13, 2), (5, 3), (7, 3)
]


@pytest.mark.parametrize("p,n", FIELD_CASES)
def test_field_matches_tuple_reference(p, n):
    F = make_field(p, n)
    R = reference_field(p, n, F.modulus)
    els = list(R.elements())
    assert [R.code(a) for a in els] == list(F.elements())
    assert F.exp.tolist() == reference_exp_table(R, F.generator)
    rng = random.Random(p**n)
    for _ in range(300):
        a, b = rng.choice(els), rng.choice(els)
        ca, cb = R.code(a), R.code(b)
        e = rng.randrange(3 * F.q)
        assert F.add(ca, cb) == R.code(R.add(a, b))
        assert F.sub(ca, cb) == R.code(R.sub(a, b))
        assert F.mul(ca, cb) == R.code(R.mul(a, b))
        assert F.pow(ca, e) == R.code(R.pow(a, e))
        if p > 2:
            assert is_square(F, ca) == reference_is_square(R, a)
    assert F.pow(0, 0) == 1 and F.pow(0, 5) == 0
    for k in (-1, 0, 1, p + 3):
        assert F.embed(k) == R.code(R.embed(k))


def test_find_primitive_matches_the_order_scan():
    # the norm prefilter only skips tails whose T cannot have order q-1, so the
    # first tail whose T has order q-1, counted by the reference, is returned
    for p in primes_up_to(2000):
        n = 1
        while p**n <= 2000:
            plain = next(t for t in product(range(p), repeat=n)
                         if order_of_t(p, t) == p**n - 1)
            assert _find_primitive(p, n) == plain, (p, n)
            n += 1


def test_find_primitive_on_larger_fields():
    # the tails the scan returned before the root prefilter and the
    # cofactor-first order test, which change no result
    assert _find_primitive(1009, 2) == (11, 1)
    assert _find_primitive(101, 3) == (2, 0, 2)
    assert _find_primitive(31, 4) == (3, 0, 0, 2)


def test_field_certificate_rejects_bad_moduli():
    # the closing certificate of the tables alone rejects a modulus that is
    # reducible (T^2 + 1 over F_5), irreducible but not primitive (T^2 + 1 over
    # F_7, where T has order 4), or T (T^2+T+1) (T^3+T+1) over F_2, which an
    # inequality form of Rabin's test once accepted
    for p, tail in ((5, (1, 0)), (7, (1, 0)), (2, (0, 1, 0, 0, 0, 1))):
        with pytest.raises(ArithmeticError):
            _exp_log_tables(p, tail)
    for p, n in ((2, 6), (3, 6), (2, 10), (5, 6)):
        F = make_field(p, n)
        assert sorted(F.exp.tolist()) == list(range(1, F.q)), (p, n)


@pytest.mark.parametrize("p,n", COUNT_CASES)
def test_brute_counts_match_tuple_reference(p, n):
    R = reference_field(p, n, make_field(p, n).modulus)
    assert brute_count_surface(p, n) == reference_count_surface(R)
    for b in (-1, 0, 1, 2):
        assert brute_count_elliptic(b, p, n) == reference_count_elliptic(b, R)


@pytest.mark.parametrize("p,n", sorted({(p, n) for p, n in COUNT_CASES + FIELD_CASES if p >= 5}))
def test_count_surface_matches_brute_force(p, n):
    assert count_surface(p, n) == brute_count_surface(p, n)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([p for p in primes_up_to(40) if p >= 5]), st.integers(1, 4))
def test_count_surface_matches_brute_force_on_small_fields(p, n):
    budget = 1500
    if p**n > budget:
        with pytest.raises(ValueError, match="budget"):
            count_surface(p, n, budget)
        return
    assert count_surface(p, n, budget) == brute_count_surface(p, n, budget)


def test_count_surface_checks_each_class_fiber(monkeypatch):
    # a doubled Zech table has only even entries, so every (-1)^Z[s] is +1
    # and each class fiber lands near 2q, far outside the Hasse bound: the
    # count raises instead of returning a wrong total
    real = pc._zech_table
    monkeypatch.setattr(pc, "_zech_table", lambda F: 2 * real(F))
    with pytest.raises(ArithmeticError, match="fiber of class 0 has"):
        count_surface(7, 2)


def _check_counts_against_hecke(limit):
    # N(p, 1) = p^2 + p + (-3/p) p + a_p, a_p from the list `ap --max` prints
    a = hecke_expand(limit)
    for p in primes_up_to(limit - 1):
        if p >= 5:
            assert count_surface(p, 1) == p * p + p + legendre(-3, p) * p + a[p], p


def test_counts_check_every_ap_below_3000():
    # 426 primes, about 0.07 s on one core of a 2-core x86-64 host
    _check_counts_against_hecke(3000)


@pytest.mark.extended
def test_counts_check_every_ap_below_1e5():
    # all 9,590 primes 5 <= p < 10^5: about 12 s on one core of a 2-core x86-64 host
    _check_counts_against_hecke(10**5)


def test_hasse_check_raises():
    q, bound = 49, 16  # 2 * (isqrt(49) + 1)
    _check_hasse(q, 0, np.array([q - bound, q, q + bound]))
    with pytest.raises(ArithmeticError, match="t = 5"):
        _check_hasse(q, 3, np.array([q, q, q + bound + 1]))
    with pytest.raises(ArithmeticError):
        _check_hasse(q, 0, np.array([q - bound - 1]))


def test_brute_count_surface_examples():
    assert brute_count_surface(7, 1) == 61
    assert brute_count_surface(5, 1) == 25


def test_brute_count_surface_budget():
    for count in (brute_count_surface, count_surface):
        with pytest.raises(ValueError):
            count(1009, 2)  # q = 1018081, above the default budget of 10^6
        with pytest.raises(ValueError):
            count(4, 1)


def test_brute_count_elliptic_examples():
    assert brute_count_elliptic(1, 7) == 12
    assert brute_count_elliptic(1, 5) == 6  # supersingular: 5 = 2 mod 3
    assert brute_count_elliptic(-1, 7) == 7 + 1 - normalize_pi(7, "minus").trace()


def test_plus_curve_counts_match_pi_traces():
    for p in primes_up_to(199):
        if p >= 5 and p % 3 == 1:
            assert brute_count_elliptic(1, p) == p + 1 - normalize_pi(p, "plus").trace(), p


def test_a_pn_examples():
    assert a_pn(7, 1, FROBENIUS_POWER) == -2
    assert a_pn(7, 1, MODULAR_COEFFICIENT) == -2
    assert a_pn(7, 2, FROBENIUS_POWER) == -94
    assert a_pn(7, 2, MODULAR_COEFFICIENT) == -45
    # inert: the eigenvalue pair {p, -p}
    assert a_pn(5, 1, FROBENIUS_POWER) == 0
    assert a_pn(5, 2, FROBENIUS_POWER) == 50
    assert a_pn(5, 3, FROBENIUS_POWER) == 0
    with pytest.raises(ValueError):
        a_pn(7, 1, "bogus")


def test_modular_coefficient_is_the_eta_coefficient():
    eta = eta_quotient(CUSP_FORM_ETA, 343)
    for p, n in ((5, 2), (7, 2), (11, 2), (5, 3), (13, 2), (7, 3)):
        assert a_pn(p, n, MODULAR_COEFFICIENT) == eta[p**n], (p, n)


def test_formula_count_examples():
    assert formula_count_surface(7, 1) == 61
    assert formula_count_surface(5, 1) == 25
    assert formula_count_surface(11, 1) == 121


def test_formula_matches_brute_for_all_small_primes():
    for p in primes_up_to(199):
        if p < 5:
            continue
        assert brute_count_surface(p, 1) == formula_count_surface(p, 1), p


def test_conventions_agree_at_n1():
    for p in (5, 7, 11, 13, 17, 19):
        assert formula_count_surface(p, 1, FROBENIUS_POWER) == formula_count_surface(
            p, 1, MODULAR_COEFFICIENT
        )


def test_adjudication_at_n2():
    winners, reports = adjudicate_conventions([(p, 2) for p in (5, 7, 11, 13)], budget=30000)
    assert winners == {FROBENIUS_POWER}
    # split p: exactly one convention matches; inert p: the corrected
    # frobenius value matches where the literal coefficient does not
    for r in reports:
        if r.convention == FROBENIUS_POWER:
            assert r.match, r
        else:
            assert not r.match, r


def test_adjudication_never_expands_the_cusp_form(monkeypatch):
    calls = []
    real = mod.hecke_expand

    def counting(N):
        calls.append(N)
        return real(N)

    monkeypatch.setattr(mod, "hecke_expand", counting)
    winners, reports = adjudicate_conventions([(5, 2), (7, 2), (7, 1)])
    assert calls == []
    assert winners == {FROBENIUS_POWER}
    assert [(r.p, r.n, r.convention, r.brute, r.formula, r.a_term_used, r.match)
            for r in reports] == [
        (5, 2, FROBENIUS_POWER, 725, 725, 50, True),
        (5, 2, MODULAR_COEFFICIENT, 725, 700, 25, False),
        (7, 2, FROBENIUS_POWER, 2405, 2405, -94, True),
        (7, 2, MODULAR_COEFFICIENT, 2405, 2454, -45, False),
        (7, 1, FROBENIUS_POWER, 61, 61, -2, True),
        (7, 1, MODULAR_COEFFICIENT, 61, 61, -2, True),
    ]
    calls.clear()
    r = CountReport.build(7, 2, MODULAR_COEFFICIENT)
    assert calls == []
    assert (r.brute, r.formula, r.a_term_used, r.match) == (2405, 2454, -45, False)


def test_count_report_build():
    r = CountReport.build(7, 1)
    assert r.match and r.brute == r.formula == 61
    assert r.a_term_used == -2
    assert r.convention in CONVENTIONS


def test_verify_n2_check_compares_the_counts_with_enumeration(monkeypatch):
    assert vs.check_pointcount_n2()[0]
    real = pc.brute_count_surface
    monkeypatch.setattr(pc, "brute_count_surface", lambda p, n: real(p, n) + 1)
    assert not vs.check_pointcount_n2()[0]


def test_count_report_holds_the_exact_count(monkeypatch):
    monkeypatch.setattr(pc, "brute_count_surface", None)  # the oracle is not called
    assert CountReport.build(31, 2).brute == brute_count_surface(31, 2)


SWEEP_GOLDEN = Path(__file__).resolve().parent.parent / "docs" / "golden" / "adjudication_sweep.json"
SWEEP_FIELDS = ([(p, 2) for p in primes_up_to(999) if p >= 5]
                + [(p, 3) for p in primes_up_to(101) if p >= 5]
                + [(p, 4) for p in primes_up_to(31) if p >= 5])


def _recorded_sweep():
    return [(int(r["p"]), int(r["n"]), int(r["count"]))
            for r in json.loads(SWEEP_GOLDEN.read_text())["fields"]]


def test_recorded_sweep_matches_the_formula_and_the_small_counts():
    recorded = _recorded_sweep()
    assert [(p, n) for p, n, _ in recorded] == SWEEP_FIELDS
    for p, n, count in recorded:
        assert count == formula_count_surface(p, n, FROBENIUS_POWER), (p, n)
        if p**n <= 10**4:
            assert count == count_surface(p, n), (p, n)


@pytest.mark.extended
def test_adjudication_sweep_matches_the_frobenius_formula():
    counts = []
    for p, n in SWEEP_FIELDS:
        count = count_surface(p, n, budget=p**n)
        assert count == formula_count_surface(p, n, FROBENIUS_POWER), (p, n)
        counts.append((p, n, count))
    assert counts == _recorded_sweep()


def test_trace_alg_examples():
    assert trace_alg(7, 1) == 126
    assert trace_alg(5, 1) == 70
    for p in (5, 7, 13, 19):
        assert trace_alg(p, 2) == 20 * p * p
