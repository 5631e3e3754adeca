"""The four workloads: inputs from a seed, a warm-up, one timed pass, its checks.

A pass makes the calls a user's run makes, through cubesum's public API, and
returns their outputs; `check` compares those outputs with bench/oracles.py.
Every pass of a run repeats the same calls on the same inputs, so a run
attempts whole rounds of the same operations.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable
from dataclasses import dataclass

from cubesum import diophantine as dio
from cubesum import fibration as fib
from cubesum import modular as mod
from cubesum import pointcount as pc
from cubesum import rings
from cubesum import verifysuite as vs
from cubesum.elliptic import add, cm_omega, curve_main, curve_over_omega, multiply
from cubesum.elliptic import point_over_omega, section_sigma1

import oracles as orc
from hostspeed import calibrate


@dataclass
class PassResult:
    outputs: dict  # what the checks read; equal on every pass of a run
    timings: dict  # times the program reports about itself
    attempted: int
    failed: int
    errors: list[str]
    # operation label -> (wall s, cpu s) of its call in this pass, and the
    # (wall s, cpu s) of the calibration loop around it
    op_times: dict


class Ops:
    """Counts and times the operations of one pass; a raising operation counts
    as failed. The calibration loop runs before the first operation and after
    each one, and an operation's loop time is the mean of the runs on either side."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.op_times: dict[str, tuple[float, float, float, float]] = {}
        self._loop = calibrate()

    def run(self, label: str, fn, *args, **kwargs):
        self.attempted += 1
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the run goes on; the failure is counted and reported
            self.failed += 1
            self.errors.append(f"{label}: {exc!r}")
            return None
        finally:
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            before, self._loop = self._loop, calibrate()
            self.op_times[label] = (wall, cpu, (before[0] + self._loop[0]) / 2,
                                    (before[1] + self._loop[1]) / 2)

    def result(self, outputs: dict, timings: dict | None = None) -> PassResult:
        return PassResult(outputs, timings or {}, self.attempted, self.failed, self.errors,
                          self.op_times)


# --- census ---------------------------------------------------------------------
#
# diophantine.search with jobs=1 at a bound in the numpy regime, then the
# family annotation `cubesum search` prints. The seed moves the bound within
# 50 of 20000 (under 0.5% more box pairs).

CENSUS_BOUND = 20000


def census_inputs(seed: int) -> dict:
    return {"bound": CENSUS_BOUND + random.Random(seed).randrange(50)}


def census_warm_up(inputs: dict) -> None:
    for s in dio.search(2000, method="numpy"):
        dio.in_pagliani_family(s)


def census_pass(inputs: dict, tracer) -> PassResult:
    ops = Ops()
    sols = ops.run("search", dio.search, inputs["bound"], jobs=1)
    annotated = None
    if sols is not None:
        annotated = ops.run(
            "annotate", lambda: [(*s.as_tuple(), dio.in_pagliani_family(s)) for s in sols]
        )
    return ops.result({"solutions": annotated})


def census_check(inputs: dict, outputs: dict) -> list[str]:
    sols = outputs["solutions"]
    if sols is None:
        return []
    bound = inputs["bound"]
    bad = []
    triples = [(x, y, z) for x, y, z, _u in sols]
    if len(set(triples)) != len(triples):
        bad.append("census: duplicate solutions")
    for x, y, z in triples:
        if not (orc.on_surface(x, y, z) and 0 < y <= x <= bound and z > 0):
            bad.append(f"census: ({x},{y},{z}) is not a solution inside the box")
    found = set(triples)
    oracle = orc.exhaustive_solutions(bound)
    if found != oracle:
        bad.append(f"census: differs from the exhaustive oracle: "
                   f"missing {sorted(oracle - found)}, extra {sorted(found - oracle)}")
    family = orc.family_in_box(bound)
    missing = sorted(set(family) - found)
    if missing:
        bad.append(f"census: family members missing: {missing}")
    wrong = [(x, y, z, u) for x, y, z, u in sols if family.get((x, y, z)) != u]
    if wrong:
        bad.append(f"census: wrong family annotations: {wrong}")
    return bad


# --- fields ---------------------------------------------------------------------
#
# brute_count_surface over extension fields, each adjudicated under both
# conventions as `cubesum count --convention both` does. The mix covers split
# and inert p, odd and even n; the tuple ExtField arithmetic does the work.
# The seed sets the order of the fields, which leaves the work unchanged.

FIELDS = ((31, 2), (11, 3), (5, 4), (7, 3))


def fields_inputs(seed: int) -> dict:
    fields = list(FIELDS)
    random.Random(seed).shuffle(fields)
    return {"fields": fields}


def fields_warm_up(inputs: dict) -> None:
    pc.adjudicate_conventions([(5, 2), (7, 2)])


def fields_pass(inputs: dict, tracer) -> PassResult:
    ops = Ops()
    out = []
    for p, n in inputs["fields"]:
        res = ops.run(f"count {p}^{n}", pc.adjudicate_conventions, [(p, n)])
        if res is not None:
            winners, reports = res
            out.append((p, n, sorted(winners),
                        [(r.convention, r.brute, r.formula, r.match) for r in reports]))
    return ops.result({"fields": out})


def fields_check(inputs: dict, outputs: dict) -> list[str]:
    bad = []
    alive = set(pc.CONVENTIONS)
    for p, n, winners, reports in outputs["fields"]:
        want = orc.surface_count_formula(p, n)
        for conv, brute, formula, match in reports:
            if brute != want:
                bad.append(f"fields: brute count over F_{p}^{n} is {brute}, expected {want}")
            if match != (brute == formula):
                bad.append(f"fields: F_{p}^{n} {conv} match flag disagrees with its counts")
            if conv == pc.FROBENIUS_POWER and formula != want:
                bad.append(f"fields: F_{p}^{n} frobenius-power formula {formula}, expected {want}")
        if pc.FROBENIUS_POWER not in winners:
            bad.append(f"fields: frobenius-power lost at F_{p}^{n}")
        alive &= set(winners)
    if outputs["fields"] and alive != {pc.FROBENIUS_POWER}:
        bad.append(f"fields: adjudication winners {sorted(alive)}, expected frobenius-power")
    return bad


# --- modular --------------------------------------------------------------------
#
# hecke_expand from scratch (no coefficient cache), ap_closed_form at single
# primes near 10^7, and the eta and lattice-sum expansions. The seed moves the
# Hecke precision within 50 of 5*10^4 and sets the order of the large primes.

HECKE_N = 50000
LARGE_PRIMES = (10000141, 10000189, 10000303)
ETA_N = 1000
SMALL_PRIME_MAX = 199


def modular_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    primes = list(LARGE_PRIMES)
    rng.shuffle(primes)
    return {"hecke_n": HECKE_N + rng.randrange(50), "large_primes": primes, "eta_n": ETA_N}


def modular_warm_up(inputs: dict) -> None:
    mod.hecke_expand(2000)
    mod.ap_closed_form(10007)
    mod.lattice_sum(100)


def modular_pass(inputs: dict, tracer) -> PassResult:
    ops = Ops()
    hecke = ops.run("hecke", mod.hecke_expand, inputs["hecke_n"])
    large = {}
    with tracer.span("modular.ap_large"):
        for p in inputs["large_primes"]:
            large[p] = ops.run(f"ap {p}", mod.ap_closed_form, p)
    eta = ops.run("eta", mod.eta_quotient, mod.CUSP_FORM_ETA, inputs["eta_n"])
    lattice = ops.run("lattice", mod.lattice_sum, inputs["eta_n"])
    return ops.result({
        "hecke": None if hecke is None else list(hecke.coeffs),
        "large": large,
        "eta": None if eta is None else list(eta.coeffs),
        "lattice": None if lattice is None else list(lattice.series.coeffs),
    })


def modular_check(inputs: dict, outputs: dict) -> list[str]:
    bad = []
    hecke, eta, lattice = outputs["hecke"], outputs["eta"], outputs["lattice"]
    if hecke is not None and eta is not None:
        common = min(len(hecke), len(eta))
        if hecke[:common] != eta[:common]:
            bad.append(f"modular: Hecke and eta expansions differ below {common}")
    if lattice is not None and eta is not None and lattice != eta:
        bad.append("modular: lattice sum differs from the eta expansion")
    if hecke is not None:
        primes = orc.prime_sieve(len(hecke))
        for p in primes:
            if 5 <= p <= SMALL_PRIME_MAX and hecke[p - 1] != orc.ap_from_fp_count(p):
                bad.append(f"modular: a_{p} = {hecke[p - 1]} disagrees with the F_{p} count")
        wrong = [p for p in primes if p >= 5 and hecke[p - 1] != orc.ap_from_representation(p)]
        if wrong:
            bad.append(f"modular: a_p disagrees with p = a^2 + 3b^2 at p in {wrong[:5]}")
        bad += [f"modular: {msg}" for msg in orc.hecke_relations_hold(hecke, primes)]
    for p, ap in outputs["large"].items():
        if ap is None:
            continue
        if ap != orc.ap_from_representation(p) or abs(ap) > 2 * p:
            bad.append(f"modular: a_{p} = {ap}, expected {orc.ap_from_representation(p)}")
    return bad


# --- verify ---------------------------------------------------------------------
#
# run_suite() at its defaults (the `cubesum verify` run), the `cubesum heights`
# lattice data, then a `cubesum mw`-style grid of sections
# a*sigma1 + b*[w]sigma1 with their heights. The seed sets the grid order.

GRID = 2


def verify_inputs(seed: int) -> dict:
    grid = [(a, b) for a in range(-GRID, GRID + 1) for b in range(-GRID, GRID + 1)
            if (a, b) != (0, 0)]
    random.Random(seed).shuffle(grid)
    return {"grid": grid}


def verify_warm_up(inputs: dict) -> None:
    vs.check_eta_expansion()
    E = curve_over_omega(curve_main())
    s1 = point_over_omega(section_sigma1())
    P = add(s1, cm_omega(s1, E), E)
    fib.height_pairing(P, P, E)


def _heights():
    E = curve_over_omega(curve_main())
    s1 = point_over_omega(section_sigma1())
    gram = fib.height_gram([s1, cm_omega(s1, E)], E)
    fibers = fib.classify_fibers(E)
    return gram.entries, fib.shioda_tate_rank(fibers, 2), fib.det_ns(fibers, gram)


def _curve_and_sections():
    E = curve_over_omega(curve_main())
    s1 = point_over_omega(section_sigma1())
    return E, s1, cm_omega(s1, E)


def verify_pass(inputs: dict, tracer) -> PassResult:
    ops = Ops()
    report = ops.run("run_suite", vs.run_suite)
    heights = ops.run("heights", _heights)
    curve = ops.run("curve", _curve_and_sections)
    grid = {}

    def section(a, b):
        E, s1, ws1 = curve  # raises, and so fails the section, if the curve failed
        with tracer.span("elliptic.section"):
            P = add(multiply(a, s1, E), multiply(b, ws1, E), E)
        return fib.height_pairing(P, P, E)

    for a, b in inputs["grid"]:
        grid[(a, b)] = ops.run(f"section {a},{b}", section, a, b)
    checks = None if report is None else [(c.name, c.status) for c in report.checks]
    elapsed = {} if report is None else {c.name: c.elapsed for c in report.checks}
    return ops.result({"checks": checks, "heights": heights, "grid": grid}, elapsed)


def verify_check(inputs: dict, outputs: dict) -> list[str]:
    bad = []
    if outputs["checks"] is not None:
        failing = [name for name, status in outputs["checks"] if status != "pass"]
        if failing or not outputs["checks"]:
            bad.append(f"verify: suite checks not passing: {failing}")
    if outputs["heights"] is not None:
        gram, rank, det = outputs["heights"]
        if gram != orc.GRAM_MW:
            bad.append(f"verify: Gram matrix {gram}")
        if rank != 20 or det != orc.DET_NS:
            bad.append(f"verify: rank NS {rank}, det NS {det}")
    for (a, b), h in outputs["grid"].items():
        if h is not None and h != orc.grid_height(a, b):
            bad.append(f"verify: height of {a}*sigma1 + {b}*[w]sigma1 is {h}, "
                       f"expected {orc.grid_height(a, b)}")
    return bad


# --- registry -------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int], dict]  # seed -> inputs
    warm_up: Callable[[dict], None]
    run_pass: Callable[[dict, object], PassResult]  # (inputs, tracer) -> outputs
    check: Callable[[dict, dict], list[str]]  # (inputs, outputs) -> problems found
    # its work runs in the interpreter, whose speed the calibration loop of
    # hostspeed.py tracks; census runs in numpy, which the host's swings barely move
    interpreted: bool


WORKLOADS = {
    "census": Workload(census_inputs, census_warm_up, census_pass, census_check, False),
    "fields": Workload(fields_inputs, fields_warm_up, fields_pass, fields_check, True),
    "modular": Workload(modular_inputs, modular_warm_up, modular_pass, modular_check, True),
    "verify": Workload(verify_inputs, verify_warm_up, verify_pass, verify_check, True),
}


# --- per-layer metrics from a traced pass ----------------------------------------


def _pairs(args, kwargs, result):
    bound = args[0] if args else kwargs["bound"]
    return {"pairs": bound * (bound + 1) // 2, "solutions": len(result)}


def _field_pairs(args, kwargs, result):
    p = args[0]
    n = args[1] if len(args) > 1 else kwargs.get("n", 1)
    return {"pairs": p ** (2 * n)}


def _coeffs(args, kwargs, result):
    return {"coeffs": result.precision}


PATCHES = (
    (dio, "search", "diophantine.search", _pairs),
    (dio, "in_pagliani_family", "diophantine.family", None),
    (pc, "make_field", "pointcount.make_field", None),
    (pc, "brute_count_surface", "pointcount.brute", _field_pairs),
    (pc, "formula_count_surface", "pointcount.formula", None),
    (rings, "represent_eisenstein", "rings.represent_eisenstein", None),
    (mod, "hecke_expand", "modular.hecke", _coeffs),
    (mod, "eta_quotient", "modular.eta", None),
    (mod, "lattice_sum", "modular.lattice", None),
    (fib, "classify_fibers", "fibration.classify", None),
    (fib, "height_pairing", "fibration.height", None),
)

SUITE_CHECKS = (
    "eta-expansion", "coefficient-triple-agreement", "pointcount-n1", "pointcount-n2",
    "fiber-table", "lattice-data", "section-arithmetic", "pagliani-family", "census-fast",
    "symbolic-identities", "character-machinery",
)

# spans opened by the workloads themselves rather than by a patched function
OWN_SPANS = ("modular.ap_large", "elliptic.section")

# per-layer metric name -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "diophantine.search_s": "s", "diophantine.pairs_per_s": "1/s",
    "diophantine.family_s": "s", "diophantine.solutions": "count",
    "pointcount.make_field_s": "s", "pointcount.brute_s": "s",
    "pointcount.pairs_per_s": "1/s", "pointcount.formula_s": "s",
    "rings.represent_eisenstein_s": "s", "modular.hecke_s": "s", "modular.coeffs_per_s": "1/s",
    "modular.ap_large_s": "s", "modular.eta_s": "s", "modular.lattice_s": "s",
    "elliptic.section_s": "s", "fibration.classify_s": "s", "fibration.height_s": "s",
    **{f"verifysuite.{name}_s": "s" for name in SUITE_CHECKS},
}


def layer_metrics(totals: dict, timings: dict) -> dict[str, float]:
    """Per-layer values of one pass from its span totals (name -> (s, work counts))
    and the suite's own per-check times."""

    def seconds(name):
        return totals.get(name, (0.0, {}))[0]

    def work(name, key):
        return totals.get(name, (0.0, {}))[1].get(key, 0)

    def rate(name, key):
        return work(name, key) / seconds(name) if seconds(name) else 0.0

    span_names = [name for _module, _attr, name, _work in PATCHES] + list(OWN_SPANS)
    out = {f"{name}_s": seconds(name) for name in span_names}
    out["diophantine.pairs_per_s"] = rate("diophantine.search", "pairs")
    out["diophantine.solutions"] = work("diophantine.search", "solutions")
    out["pointcount.pairs_per_s"] = rate("pointcount.brute", "pairs")
    out["modular.coeffs_per_s"] = rate("modular.hecke", "coeffs")
    for name in SUITE_CHECKS:
        out[f"verifysuite.{name}_s"] = timings.get(name, 0.0)
    return {name: out[name] for name in LAYER_UNITS}
