"""Each benchmark check passes on real output and fails on a corrupted copy.

    python3 -m pytest -q bench/test_checks.py

The passes run at small sizes so the file takes a few seconds; a check that
accepted the corrupted copies below would be vacuous.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles as orc  # noqa: E402
import workloads as wl  # noqa: E402
from spans import NullTracer  # noqa: E402


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == wl.LAYER_UNITS
    assert list(wl.WORKLOADS) == [w["name"] for w in spec["workloads"]]


def _corrupt(outputs: dict, change) -> dict:
    bad = copy.deepcopy(outputs)
    change(bad)
    return bad


# --- the oracles agree with facts they do not share code with --------------------


def test_representation_trace_matches_fp_counts():
    for p in orc.prime_sieve(200):
        if p >= 5:
            assert orc.ap_from_representation(p) == orc.ap_from_fp_count(p), p
            if p % 3 == 1:
                a, b = orc.represent_a2_3b2(p)
                assert a * a + 3 * b * b == p


def test_exhaustive_oracle_finds_the_smallest_solutions():
    assert {(8, 3, 12), (25, 4, 40), (25, 20, 80)} <= orc.exhaustive_solutions(30)
    assert (8, 3, 12) in orc.family_in_box(30)


# --- census -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def census():
    inputs = {"bound": 3000}
    res = wl.census_pass(inputs, NullTracer())
    assert res.failed == 0
    return inputs, res.outputs


def test_census_real_output_passes(census):
    inputs, outputs = census
    assert wl.census_check(inputs, outputs) == []


def _drop(outputs, triple):
    outputs["solutions"][:] = [s for s in outputs["solutions"] if s[:3] != triple]


@pytest.mark.parametrize("name, change", [
    ("dropped solution", lambda o: _drop(o, (25, 4, 40))),
    ("dropped family member", lambda o: _drop(o, (1323, 512, 11088))),
    ("not on the surface", lambda o: o["solutions"].append((2999, 7, 5000, None))),
    ("wrong annotation", lambda o: o["solutions"].__setitem__(0, (*o["solutions"][0][:3], 99))),
])
def test_census_check_catches(census, name, change):
    inputs, outputs = census
    assert wl.census_check(inputs, _corrupt(outputs, change)), name


# --- fields -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def fields():
    inputs = {"fields": [(5, 2), (7, 2), (5, 3)]}
    res = wl.fields_pass(inputs, NullTracer())
    assert res.failed == 0
    return inputs, res.outputs


def test_fields_real_output_passes(fields):
    inputs, outputs = fields
    assert wl.fields_check(inputs, outputs) == []


def _count_off_by_one(o):
    p, n, winners, reports = o["fields"][0]
    conv, brute, formula, match = reports[0]
    reports[0] = (conv, brute + 1, formula + 1, match)


def _modular_wins(o):
    for entry in o["fields"]:
        entry[2][:] = sorted(wl.pc.CONVENTIONS)


@pytest.mark.parametrize("name, change", [
    ("brute count off by one", _count_off_by_one),
    ("wrong adjudication winner", _modular_wins),
])
def test_fields_check_catches(fields, name, change):
    inputs, outputs = fields
    assert wl.fields_check(inputs, _corrupt(outputs, change)), name


# --- modular ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def modular():
    inputs = {"hecke_n": 3000, "large_primes": [1000003], "eta_n": 300}
    res = wl.modular_pass(inputs, NullTracer())
    assert res.failed == 0
    return inputs, res.outputs


def test_modular_real_output_passes(modular):
    inputs, outputs = modular
    assert wl.modular_check(inputs, outputs) == []


def _bump(key, index):
    def change(o):
        o[key][index] += 1
    return change


@pytest.mark.parametrize("name, change", [
    ("wrong small-prime coefficient", _bump("hecke", 7 - 1)),
    ("wrong prime coefficient past the eta precision", _bump("hecke", 2999 - 1)),
    ("wrong composite coefficient past the eta precision", _bump("hecke", 2 * 1000 - 1)),
    ("wrong lattice coefficient", _bump("lattice", 13 - 1)),
    ("wrong large-prime coefficient", lambda o: o["large"].__setitem__(1000003, o["large"][1000003] + 6)),
])
def test_modular_check_catches(modular, name, change):
    inputs, outputs = modular
    assert wl.modular_check(inputs, _corrupt(outputs, change)), name


# --- verify -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def verify():
    inputs = wl.verify_inputs(0)
    res = wl.verify_pass(inputs, NullTracer())
    assert res.failed == 0
    return inputs, res.outputs


def test_verify_real_output_passes(verify):
    inputs, outputs = verify
    assert wl.verify_check(inputs, outputs) == []


@pytest.mark.parametrize("name, change", [
    ("failing suite check", lambda o: o["checks"].__setitem__(0, (o["checks"][0][0], "fail"))),
    ("wrong section height", lambda o: o["grid"].__setitem__((1, 1), orc.grid_height(1, 0) * 2)),
    ("wrong Gram matrix", lambda o: o.__setitem__("heights", (orc.GRAM_MW[::-1], 20, -48))),
    ("wrong det NS", lambda o: o.__setitem__("heights", (orc.GRAM_MW, 20, 48))),
])
def test_verify_check_catches(verify, name, change):
    inputs, outputs = verify
    assert wl.verify_check(inputs, _corrupt(outputs, change)), name
