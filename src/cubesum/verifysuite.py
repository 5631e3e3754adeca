"""One-shot verification suite: every reproduced value, checked exactly.

Each check corresponds to one acceptance criterion of the toolkit and records
what was expected, what was computed, and where the expectation comes from
("published" values are quoted results being reproduced, "derived" values come
from this package's independent oracles, "trivial" ones are forced).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import diophantine as dio
from . import fibration as fib
from . import modular as mod
from . import pointcount as pc
from . import surface_checks as surf
from .arith import primes_up_to
from .elliptic import (
    add,
    base_change_t_u3,
    cm_omega,
    curve_main,
    curve_over_omega,
    curve_sextic_twist,
    double,
    negate,
    point_over_omega,
    section_sigma1,
    section_tau,
    sextic_section_to_xyz,
)
from .polynomials import Poly, RationalFunction
from .rings import QOMEGA, represent_eisenstein

PUBLISHED_COEFFS = {
    1: 1, 3: 3, 7: -2, 9: 9, 13: -22, 19: -26, 21: -6,
    25: 25, 27: 27, 31: 46, 37: 26, 39: -66, 43: 22, 49: -45,
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass | fail | skipped
    expected: str
    actual: str
    provenance: str
    elapsed: float

    def line(self) -> str:
        mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[self.status]
        return f"[{mark}] {self.name}: expected {self.expected}; got {self.actual}"


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "expected": c.expected,
                    "actual": c.actual,
                    "provenance": c.provenance,
                    "elapsed_s": f"{c.elapsed:.3f}",
                }
                for c in self.checks
            ],
        }


def _run(name, provenance, fn, report, expected=""):
    t0 = time.perf_counter()
    try:
        ok, exp, act = fn()
        status = "pass" if ok else "fail"
    except Exception as exc:  # a crash is a failure with the exception recorded
        status, exp, act = "fail", expected, f"exception: {exc!r}"
    report.checks.append(CheckResult(name, status, exp, act, provenance, time.perf_counter() - t0))


def check_eta_expansion():
    series = mod.eta_quotient(mod.CUSP_FORM_ETA, 50)
    got = series.nonzero()
    return got == PUBLISHED_COEFFS, f"nonzero coefficients {PUBLISHED_COEFFS}", f"{got}"


def check_triple_agreement(n: int = 200):
    # lattice_sum has already matched its series with the eta expansion to n
    # (it raises otherwise), so hecke = lattice series closes the triangle
    hecke = mod.hecke_expand(n)
    lattice = mod.lattice_sum(n)
    ok = hecke.agrees_with(lattice.series)
    return (
        ok,
        f"eta = hecke = lattice sum coefficientwise to n={n}",
        f"agreement={ok}, lattice argument order {lattice.argument_order!r} "
        f"(rejected: {lattice.rejected})",
    )


def check_pointcount_n1(limit: int = 199):
    bad = []
    for p in primes_up_to(limit):
        if p < 5:
            continue
        b = pc.brute_count_surface(p, 1)
        f = pc.formula_count_surface(p, 1)
        if b != f:
            bad.append((p, b, f))
    return not bad, f"brute = formula for every prime 5..{limit}", f"mismatches: {bad}"


def check_pointcount_n2():
    primes = (5, 7, 11, 13)
    winners, reports = pc.adjudicate_conventions([(p, 2) for p in primes], budget=30000)
    # the reports carry the twist-class count; "brute=" must still be enumeration's
    brute = {p: pc.brute_count_surface(p, 2) for p in primes}
    ok = winners == {pc.FROBENIUS_POWER} and all(r.brute == brute[r.p] for r in reports)
    details = "; ".join(
        f"p={r.p}: brute={r.brute} {r.convention}={r.formula}" for r in reports
    )
    note = (
        "winner frobenius-power. Recorded discrepancies: the two printed "
        "descriptions disagree at split p, n=2 (a_49: -94 vs -45); the printed "
        "inert even-power value p^n also fails (2p^n counts points)."
    )
    return ok, "exactly one convention matches brute force at n=2", f"{note} [{details}]"


def check_fiber_table():
    fibers = fib.classify_fibers(curve_main())
    got = sorted(
        ("inf" if f.place.is_infinity else str(f.place.root()), f.type, f.euler, f.m_t, f.m_simple)
        for f in fibers
    )
    expected = sorted(
        [("0", "IV*", 8, 7, 3), ("1", "I0*", 6, 5, 4), ("-1", "I0*", 6, 5, 4), ("inf", "IV", 4, 3, 3)]
    )
    ok = got == expected and fib.euler_total(fibers) == 24
    return ok, f"{expected} with Euler total 24", f"{got} with Euler total {fib.euler_total(fibers)}"


def check_lattice_data():
    E = curve_over_omega(curve_main())
    s1 = point_over_omega(section_sigma1())
    ws1 = cm_omega(s1, E)
    gram = fib.height_gram([s1, ws1], E)
    fibers = fib.classify_fibers(E)
    mw_expected = ((Fraction(2, 3), Fraction(-1, 3)), (Fraction(-1, 3), Fraction(2, 3)))
    can_expected = ((Fraction(1, 3), Fraction(-1, 6)), (Fraction(-1, 6), Fraction(1, 3)))
    rank = fib.shioda_tate_rank(fibers, 2)
    det = fib.det_ns(fibers, gram)
    ok = (
        gram.entries == mw_expected
        and gram.to_convention("canonical").entries == can_expected
        and rank == 20
        and det == -48
    )
    return (
        ok,
        "Gram [[2/3,-1/3],[-1/3,2/3]] (mw), rank 20, det NS -48",
        f"Gram {gram.entries} ({gram.convention}), rank {rank}, det {det}",
    )


def check_section_arithmetic():
    E = curve_main()
    s1 = section_sigma1()
    t = Poly.x()
    d = double(s1, E)
    ok_double = d.x == RationalFunction(t**2 * (t**2 + 8) * Fraction(1, 4)) and d.y == RationalFunction(
        t**2 * (t**4 - 20 * t**2 - 8) * Fraction(1, 8)
    )
    Eu = curve_sextic_twist()
    u = Poly.x()
    s1p = base_change_t_u3(s1)
    tau = section_tau()
    a = add(s1p, tau, Eu)
    y_mag = RationalFunction((u**4 + u**2 + 1) ** 2 * 3)
    ok_add = a.x == RationalFunction((u**2 + 2) * (u**4 + u**2 + 1)) and (a.y == y_mag or a.y == -y_mag)
    branch = a if a.y == y_mag else add(negate(s1p), tau, Eu)
    x, y, z = sextic_section_to_xyz(branch)
    ok_xyz = (
        x == RationalFunction((u**2 - 1) ** 2 * Fraction(1, 3))
        and y == RationalFunction(u**3)
        and z == RationalFunction(u * (u**2 - 1) * (u**2 + 2) * Fraction(1, 3))
    )
    ok = ok_double and ok_add and ok_xyz
    return (
        ok,
        "double(s1) = (t^2(t^2+8)/4, t^2(t^4-20t^2-8)/8); s1'+tau and its affine image as displayed",
        f"double={ok_double}, add={ok_add}, xyz={ok_xyz}",
    )


def check_pagliani():
    p2 = dio.pagliani(2)
    ok_p2 = (p2.m, p2.k, p2.l) == (-2, 8, 6)
    canon = dio.canonical_form(dio.mkl_to_xyz(p2))
    swapped = dio.apply_symmetry(dio.SymmetryElement(("t3",)), canon)
    ok_canon = dio.xyz_to_mkl(swapped) == dio.SolutionMKL(3, 3, 6)
    bad = []
    for u in range(-50, 51):
        if u % 3 == 0 or u in (-1, 0, 1):
            continue
        try:
            dio.pagliani(u)
        except ValueError:
            bad.append(u)
    ok_range = not bad
    ok_symbolic = dio.pagliani_identity_residual().is_zero()
    ok = ok_p2 and ok_canon and ok_range and ok_symbolic
    return (
        ok,
        "pagliani(2) = (-2,8,6) ~ (3,3,6); exact for all 3 not| u, |u| <= 50; symbolic residual 0",
        f"p2={ok_p2}, canonical={ok_canon}, range={ok_range} (bad={bad}), symbolic={ok_symbolic}",
    )


def check_census_fast(bound: int = 10**4, jobs: int = 1):
    sols = dio.search(bound, include_trivial=False, jobs=jobs)
    ok_verify = all(
        s.x * s.y * (s.x**2 + s.y**2 - 1) == s.z**3 and 0 < s.y <= s.x <= bound and s.z > 0
        for s in sols
    )
    found = {s.as_tuple() for s in sols}
    missing = [(u, member) for member, u in dio.family_in_box(bound).items() if member not in found]
    ok = ok_verify and not missing
    return (
        ok,
        f"all members verify; every parametric member inside the box found (bound {bound})",
        f"{len(sols)} solutions, all verify={ok_verify}, missing parametric members: {missing}",
    )


def check_symbolic_identities():
    psi_ok = surf.verify_quotient_psi()
    graph = surf.verify_pagliani_graph()
    graph_neg = surf.verify_pagliani_graph(sign=-1)
    inose_ok = surf.verify_inose_and_eps2()
    geom = surf.verify_lines_and_singular_points()
    ok = psi_ok and graph.matches and graph_neg.matches and inose_ok and geom.all_ok
    return (
        ok,
        "psi on-surface; graph matches the family (both signs); both quartic identities; orbits (2,2,2,12)",
        f"psi={psi_ok}, graph={graph.matched_symmetry}/{graph_neg.matched_symmetry}, "
        f"inose={inose_ok}, singular={geom.singular_points_ok}, orbits={geom.orbit_sizes}",
    )


def check_character_machinery():
    bad = []
    for p in primes_up_to(199):
        if p < 5 or p % 3 != 1:
            continue
        tr = mod.normalize_pi(p, "plus").trace()
        count = pc.brute_count_elliptic(1, p)
        if tr != p + 1 - count:
            bad.append(("plus-trace", p, tr, p + 1 - count))
        tr_m = mod.normalize_pi(p, "minus").trace()
        count_m = pc.brute_count_elliptic(-1, p)
        if tr_m != p + 1 - count_m:
            bad.append(("minus-trace", p, tr_m, p + 1 - count_m))
        if mod.surface_ap_via_characters(p) != mod.ap_closed_form(p):
            bad.append(("character-product", p))
    for p in primes_up_to(499):
        if p < 5 or p % 3 != 1:
            continue
        m, n = represent_eisenstein(p)
        base = QOMEGA(m, n)
        traces = {
            mod.alpha_from_beta(u * z, p).trace()
            for z in (base, base.trace() - base)
            for u in mod.ZETA6_POWERS
        }
        if traces != {mod.ap_closed_form(p)}:
            bad.append(("associate-invariance", p, sorted(traces)))
    return (
        not bad,
        "pi traces match brute elliptic counts (p < 200); character product = closed form; "
        "closed form invariant over all 12 associates (p < 500)",
        f"violations: {bad}",
    )


def run_suite(census_bound: int = 2000, jobs: int = 1, skip_slow: bool = False) -> VerificationReport:
    """Run every check; census_bound trades runtime for search depth."""
    report = VerificationReport()
    _run("eta-expansion", "published", check_eta_expansion, report)
    _run("coefficient-triple-agreement", "published", check_triple_agreement, report)
    _run("pointcount-n1", "derived", check_pointcount_n1, report)
    _run("pointcount-n2", "derived", check_pointcount_n2, report)
    _run("fiber-table", "published", check_fiber_table, report)
    _run("lattice-data", "published", check_lattice_data, report)
    _run("section-arithmetic", "published", check_section_arithmetic, report)
    _run("pagliani-family", "published", check_pagliani, report)
    if skip_slow:
        report.checks.append(
            CheckResult("census-fast", "skipped", "search census", "skipped by flag", "derived", 0.0)
        )
    else:
        _run("census-fast", "derived", lambda: check_census_fast(census_bound, jobs), report)
    _run("symbolic-identities", "published", check_symbolic_identities, report)
    _run("character-machinery", "derived", check_character_machinery, report)
    return report
