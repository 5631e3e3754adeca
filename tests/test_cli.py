import argparse
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cubesum
from cubesum.cli import MAX_JOBS, build_parser, main
from cubesum.modular import CUSP_FORM_ETA, eta_quotient, hecke_expand

DOCS = Path(__file__).resolve().parent.parent / "docs"
GOLDEN = DOCS / "golden"


def run_cli(capsys, argv):
    status = main(argv)
    out = capsys.readouterr().out
    return status, out


def test_importing_the_cli_does_not_load_numpy():
    # every command imports the whole package, so numpy stays inside the
    # functions that use it (the sieve, the search kernel, the field tables)
    env = dict(os.environ, PYTHONPATH=str(Path(cubesum.__file__).resolve().parent.parent))
    code = "import sys, cubesum.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_map_roundtrip_plain(capsys):
    status, out = run_cli(capsys, ["map", "--xyz", "8", "3", "12"])
    assert status == 0
    assert out.splitlines()[1] == "-2\t8\t6"
    status, out = run_cli(capsys, ["map", "--mkl", "-2", "8", "6"])
    assert status == 0
    assert out.splitlines()[1] == "8\t3\t12"


def test_search_json_annotates_family(capsys):
    status, out = run_cli(capsys, ["search", "--bound", "50", "--format", "json"])
    assert status == 0
    doc = json.loads(out)
    sols = {(s["x"], s["y"], s["z"]): s["pagliani_u"] for s in doc["solutions"]}
    assert sols[("8", "3", "12")] == "2"
    assert all(v == "2" or v is None for v in sols.values())


def test_search_csv(capsys):
    status, out = run_cli(capsys, ["search", "--bound", "12", "--format", "csv"])
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("x,y,z")
    assert any(line.startswith("8,3,12") for line in lines)


def test_json_numbers_are_decimal_strings(capsys):
    _, out = run_cli(capsys, ["count", "--p", "13", "--n", "1", "--format", "json"])
    doc = json.loads(out)
    assert doc["brute"] == "173"
    assert isinstance(doc["brute"], str)
    assert doc["match"] is True


def test_json_roundtrip(capsys):
    for argv in (
        ["search", "--bound", "30", "--format", "json"],
        ["fibers", "--format", "json"],
        ["heights", "--format", "json"],
    ):
        _, out = run_cli(capsys, argv)
        doc = json.loads(out)
        assert json.loads(json.dumps(doc)) == doc


def test_count_mismatched_convention_exit_code(capsys):
    status, _ = run_cli(capsys, ["count", "--p", "7", "--n", "2",
                                 "--convention", "modular-coefficient",
                                 "--budget", "30000"])
    assert status == 1
    status, _ = run_cli(capsys, ["count", "--p", "7", "--n", "2",
                                 "--convention", "frobenius-power",
                                 "--budget", "30000"])
    assert status == 0


def test_count_both_conventions(capsys):
    status, out = run_cli(capsys, ["count", "--p", "7", "--n", "2",
                                   "--convention", "both", "--budget", "30000",
                                   "--format", "json"])
    assert status == 0
    doc = json.loads(out)
    assert doc["matching_conventions"] == ["frobenius-power"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-subcommand"])
    assert exc.value.code == 2


def test_domain_error_exit_code(capsys):
    status, _ = run_cli(capsys, ["pagliani", "--u", "3"])
    assert status == 2


@pytest.mark.parametrize("name, value, argv", [
    ("CUBESUM_JOBS", "abc", ["search", "--bound", "10"]),
    ("CUBESUM_BUDGET", "1e5", ["count", "--p", "7"]),
    ("CUBESUM_CENSUS_BOUND", "", ["verify", "--skip-census"]),
    ("CUBESUM_FORMAT", "xml", ["heights"]),
])
def test_bad_environment_value_is_a_usage_error(capsys, monkeypatch, name, value, argv):
    monkeypatch.setenv(name, value)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert name in captured.err


def test_census_bound_below_1_is_a_usage_error(capsys, monkeypatch):
    # rejected before any check runs, from the flag and from the variable
    for argv, env in ((["verify", "--census-bound", "0"], None), (["verify"], "0")):
        if env is not None:
            monkeypatch.setenv("CUBESUM_CENSUS_BOUND", env)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "census bound" in captured.err and "CUBESUM_CENSUS_BOUND" in captured.err


def test_jobs_outside_1_to_the_cap_is_a_usage_error(capsys, monkeypatch):
    # rejected before any work, from the flag and from the variable; a pool
    # that raises when called shows that no worker process is started
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    for argv in (["search", "--bound", "10"], ["count", "--sweep", "40"],
                 ["verify", "--skip-census"]):
        for jobs in ("0", "-5", str(MAX_JOBS + 1)):
            for full, env in ((argv + ["--jobs", jobs], None), (argv, jobs)):
                monkeypatch.delenv("CUBESUM_JOBS", raising=False)
                if env is not None:
                    monkeypatch.setenv("CUBESUM_JOBS", env)
                assert main(full) == 2, (full, env)
                captured = capsys.readouterr()
                assert captured.out == "", (full, env)
                assert "--jobs" in captured.err and "CUBESUM_JOBS" in captured.err, (full, env)


def test_bound_above_the_int32_tables_is_a_usage_error(capsys, monkeypatch):
    # rejected before any table is built or any worker starts, from the flag
    # and from the variable; the largest bound passes the check and reaches
    # the table build, which raises here
    import multiprocessing

    from cubesum import arith, diophantine

    class Refused(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Refused

    monkeypatch.setattr(multiprocessing, "Pool", refuse)
    for module in (arith, diophantine):
        monkeypatch.setattr(module, "smallest_prime_factors", refuse)
    for big in (str(diophantine.MAX_BOUND + 1), str(2**31), str(10**12)):
        cases = [(["search", "--bound", big], None, "--bound"),
                 (["search", "--bound", big, "--jobs", "2"], None, "--bound"),
                 (["verify", "--census-bound", big], None, "CUBESUM_CENSUS_BOUND"),
                 (["verify"], big, "CUBESUM_CENSUS_BOUND")]
        for argv, env, name in cases:
            monkeypatch.delenv("CUBESUM_CENSUS_BOUND", raising=False)
            if env is not None:
                monkeypatch.setenv("CUBESUM_CENSUS_BOUND", env)
            assert main(argv) == 2, (argv, env)
            captured = capsys.readouterr()
            assert captured.out == "", (argv, env)
            assert name in captured.err and str(diophantine.MAX_BOUND) in captured.err, (argv, env)
    monkeypatch.delenv("CUBESUM_CENSUS_BOUND", raising=False)
    with pytest.raises(Refused):
        main(["search", "--bound", str(diophantine.MAX_BOUND)])
    with pytest.raises(ValueError, match="bound must be from 1"):
        diophantine.search(diophantine.MAX_BOUND + 1)


def _load_census_script():
    path = DOCS.parent / "scripts" / "run_extended_census.py"
    spec = importlib.util.spec_from_file_location("run_extended_census", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_census_script_takes_the_ranges_of_search(capsys, monkeypatch):
    # --jobs 0 used to run serial and --bound had no upper end; both now exit
    # 2 before the search, with the message of `cubesum search`
    script = _load_census_script()

    def refuse(*args, **kwargs):
        raise AssertionError("the census search ran")

    monkeypatch.setattr(script, "search", refuse)
    from cubesum.diophantine import MAX_BOUND
    for argv, name in ((["--jobs", "0"], "jobs (--jobs)"), (["--jobs", str(MAX_JOBS + 1)], "jobs (--jobs)"),
                       (["--bound", "0"], "bound (--bound)"), (["--bound", str(MAX_BOUND + 1)], "bound (--bound)"),
                       (["--bound", "1e6"], "bound (--bound)")):
        with pytest.raises(SystemExit) as exc:
            script.main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and name in captured.err, argv
    with pytest.raises(AssertionError, match="census search ran"):
        script.main(["--bound", "10", "--jobs", "1"])


REJECTED_INPUTS = [
    (["count", "--p", "4"], "p must be a prime >= 5, got 4"),
    (["count", "--p", "7", "--n", "0"], "(--n) must be an integer at least 1, not '0'"),
    (["count", "--p", "7", "--budget", "0"], "(--budget) must be an integer at least 1, not '0'"),
    (["count", "--sweep", "1100", "--n", "2"], "q = 1097^2 exceeds the budget 1000000"),
    (["ap", "--p", "9"], "p must be a prime >= 5, got 9"),
    # no proven primality test above OEIS A014233(13)
    (["ap", "--p", "3317044064679887385961981"], "cannot prove whether 3317044064679887385961981"),
    (["count", "--p", "3317044064679887385961981"], "cannot prove whether 3317044064679887385961981"),
    (["eta", "--n", "0"], "(--n) must be an integer at least 1, not '0'"),
    (["eta", "--n", "5", "--spec", "1:x"], "eta spec (--spec) '1:x' is not of the form"),
    (["map", "--xyz", "8", "3", "13"], "(8,3,13) is not on the surface"),
    (["map", "--mkl", "1", "2", "3"], "(1,2,3) fails the cube-sum identity"),
    (["map", "--xyz", "0", "0", "0"], "no integral preimage"),
    (["pagliani", "--u", "3"], "u divisible by 3"),
]


@pytest.mark.parametrize("argv, message", REJECTED_INPUTS, ids=[" ".join(a) for a, _ in REJECTED_INPUTS])
def test_rejected_input_exits_2_before_the_command_runs(capsys, monkeypatch, argv, message):
    # the library's own check of each input, run by cli._validate; every
    # command refuses to run, so the rejection comes before any work
    def refuse(args):
        raise AssertionError(f"{args.command} ran on a rejected command line")

    for name in dir(cubesum.cli):
        if name.startswith("cmd_"):
            monkeypatch.setattr(cubesum.cli, name, refuse)
    monkeypatch.delenv("CUBESUM_BUDGET", raising=False)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_count_sweep_checks_its_largest_field_before_any_count(capsys, monkeypatch):
    # the sweep used to count the 168 primes below 1009 first and fail on
    # 1009^2; 1097, the largest prime to 1100, is checked before any count
    def refuse(*args, **kwargs):
        raise AssertionError("a count ran")

    monkeypatch.setattr(cubesum.pointcount.CountReport, "build", refuse)
    monkeypatch.delenv("CUBESUM_BUDGET", raising=False)
    monkeypatch.delenv("CUBESUM_JOBS", raising=False)
    assert main(["count", "--sweep", "1100", "--n", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "q = 1097^2 exceeds the budget 1000000" in captured.err
    # 997^2 is within the budget, and a larger budget admits 1097^2
    for argv in (["count", "--sweep", "1000", "--n", "2"],
                 ["count", "--sweep", "1100", "--n", "2", "--budget", str(1097**2)]):
        with pytest.raises(AssertionError, match="a count ran"):
            main(argv)


def test_a_fault_inside_a_computation_is_not_a_usage_error(monkeypatch):
    # main reports only rejected command lines as exit 2; any other exception
    # keeps its traceback, so the process exits 1
    monkeypatch.delenv("CUBESUM_JOBS", raising=False)
    monkeypatch.setattr(cubesum.diophantine, "_search_x_range", lambda *args, **kwargs: [(1, 2, 3)])
    with pytest.raises(ValueError, match=r"\(1,2,3\) is not on the surface"):
        main(["search", "--bound", "10"])

    def divide(*args):
        return 1 // 0

    monkeypatch.setattr(cubesum.modular, "eta_quotient", divide)
    with pytest.raises(ZeroDivisionError):
        main(["eta", "--n", "5"])


def test_good_environment_value_is_used(capsys, monkeypatch):
    monkeypatch.setenv("CUBESUM_FORMAT", "json")
    monkeypatch.setenv("CUBESUM_JOBS", "1")
    status, out = run_cli(capsys, ["search", "--bound", "12"])
    assert status == 0
    assert json.loads(out)["count"] == "1"


def test_eta_custom_spec(capsys):
    status, out = run_cli(capsys, ["eta", "--n", "5", "--spec", "1:24", "--format", "json"])
    assert status == 0
    doc = json.loads(out)
    assert doc["coefficients"]["2"] == "-24"


def test_eta_scale_below_1_is_a_usage_error(capsys, monkeypatch):
    # the spec is refused before any expansion starts: a scale d <= 0 never ends it
    def refuse(*args):
        raise AssertionError("eta_quotient ran on a spec with a scale below 1")

    monkeypatch.setattr(cubesum.modular, "eta_quotient", refuse)
    for spec in ("0:24", "-1:24", "1:24,0:0"):
        assert main(["eta", "--n", "5", f"--spec={spec}"]) == 2, spec
        captured = capsys.readouterr()
        assert captured.out == "" and "at least 1" in captured.err, spec


def test_ap_single_prime(capsys):
    status, out = run_cli(capsys, ["ap", "--p", "7", "--format", "json"])
    assert status == 0
    doc = json.loads(out)
    assert doc["prime"]["closed_form"] == "-2"
    assert doc["prime"]["via_characters"] == "-2"


def test_ap_table_equals_the_hecke_and_eta_expansions(capsys):
    status, out = run_cli(capsys, ["ap", "--max", "2000", "--format", "json"])
    assert status == 0
    table = {int(n): int(a) for n, a in json.loads(out)["coefficients"].items()}
    assert sorted(table) == list(range(1, 2001))
    hecke, eta = hecke_expand(2000), eta_quotient(CUSP_FORM_ETA, 2000)
    assert all(table[n] == hecke[n] == eta[n] for n in table)


def test_max_outside_the_lattice_range_is_a_usage_error(capsys, monkeypatch):
    # below 1, or past the int64 bound of the lattice sums, ap --max exits 2
    # before the sum starts
    def refuse(*args):
        raise AssertionError("lattice_sum_variant ran on a rejected --max")

    monkeypatch.setattr(cubesum.modular, "lattice_sum_variant", refuse)
    for max_n, message in (("0", "--max"), ("-4", "--max"),
                           ("1000000000", "too large for the int64 lattice sums")):
        assert main(["ap", "--max", max_n]) == 2, max_n
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err, max_n
    with pytest.raises(AssertionError, match="lattice_sum_variant ran"):
        main(["ap", "--max", "929835279"])


def test_ap_table_nonzero_json_drops_zeros(capsys):
    argv = ["ap", "--max", "30", "--format", "json"]
    _, full = run_cli(capsys, argv)
    _, nonzero = run_cli(capsys, argv + ["--nonzero"])
    full_map = json.loads(full)["coefficients"]
    nonzero_map = json.loads(nonzero)["coefficients"]
    assert full_map["2"] == "0" and full_map["10"] == "0"
    assert nonzero_map == {n: a for n, a in full_map.items() if a != "0"}
    assert nonzero_map["13"] == "-22"


def test_verify_skip_census(capsys):
    status, out = run_cli(capsys, ["verify", "--skip-census"])
    assert status == 0
    assert "result: PASS" in out
    assert "[SKIP] census-fast" in out


def test_mw_section_arithmetic(capsys):
    status, out = run_cli(capsys, ["mw", "--a", "2", "--b", "0", "--to-xyz", "--format", "json"])
    assert status == 0
    doc = json.loads(out)
    assert doc["height_mw"] == "8/3"
    assert doc["height_canonical"] == "4/3"


def test_cli_reference_names_every_subcommand_and_option():
    headings = dict(re.findall(r"^### `([^`\s]+)([^`\n]*)`", (DOCS / "cli.md").read_text(), re.M))
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        assert name in headings, f"docs/cli.md has no heading for {name}"
        for action in parser._actions:
            for opt in action.option_strings:
                if opt.startswith("--") and opt not in ("--format", "--help"):
                    assert re.search(rf"{opt}(?![\w-])", headings[name]), f"{name} {opt}"


# --- golden files ------------------------------------------------------------

GOLDEN_ARGVS = {
    "search.json": ["search", "--bound", "50", "--format", "json"],
    "map.json": ["map", "--xyz", "8", "3", "12", "--format", "json"],
    "pagliani.json": ["pagliani", "--u", "2", "--format", "json"],
    "fibers.json": ["fibers", "--format", "json"],
    "heights.json": ["heights", "--format", "json"],
    "mw.json": ["mw", "--a", "2", "--b", "0", "--to-xyz", "--format", "json"],
    "eta.json": ["eta", "--n", "20", "--format", "json"],
    "ap.json": ["ap", "--p", "7", "--format", "json"],
    "count.json": ["count", "--p", "7", "--n", "1", "--format", "json"],
    "ap_max.json": ["ap", "--max", "30", "--format", "json"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGVS))
def test_golden_outputs(capsys, name):
    status, out = run_cli(capsys, GOLDEN_ARGVS[name])
    assert status == 0
    assert out == (GOLDEN / name).read_text()


def test_golden_verify(capsys):
    status, out = run_cli(capsys, ["verify", "--census-bound", "100", "--format", "json"])
    assert status == 0
    got = json.loads(out)
    for check in got["checks"]:
        check["elapsed_s"] = "0.000"
    expected = json.loads((GOLDEN / "verify.json").read_text())
    assert got == expected


def test_count_sweep(capsys):
    status, out = run_cli(capsys, ["count", "--sweep", "60", "--n", "1", "--format", "json"])
    assert status == 0
    doc = json.loads(out)
    assert doc["all_match"] is True
    assert len(doc["reports"]) == 15


def test_count_sweep_below_5_is_a_usage_error(capsys):
    for max_p in ("4", "2", "0", "-7"):
        assert main(["count", "--sweep", max_p, "--format", "json"]) == 2, max_p
        captured = capsys.readouterr()
        assert captured.out == "", max_p
        assert "--sweep" in captured.err and "5..MAX_P" in captured.err, max_p


def test_pagliani_empty_range_is_a_usage_error(capsys):
    for lo, hi in (("5", "2"), ("-1", "-4")):
        assert main(["pagliani", "--range", lo, hi, "--format", "json"]) == 2, (lo, hi)
        captured = capsys.readouterr()
        assert captured.out == "", (lo, hi)
        assert "--range LO HI" in captured.err and f"LO = {lo} > HI = {hi}" in captured.err, (lo, hi)
    status, out = run_cli(capsys, ["pagliani", "--range", "2", "2", "--format", "json"])
    assert status == 0 and [m["u"] for m in json.loads(out)["members"]] == ["2"]


def test_pagliani_range_without_members_is_a_usage_error(capsys):
    for lo, hi in (("0", "1"), ("-1", "1"), ("3", "3"), ("-3", "-3"), ("6", "6")):
        assert main(["pagliani", "--range", lo, hi]) == 2, (lo, hi)
        captured = capsys.readouterr()
        assert captured.out == "", (lo, hi)
        assert f"--range LO HI) {lo}..{hi} holds no family member" in captured.err, (lo, hi)
    status, out = run_cli(capsys, ["pagliani", "--range", "0", "2", "--format", "json"])
    assert status == 0 and [m["u"] for m in json.loads(out)["members"]] == ["2"]


def test_count_sweep_parallel_matches_serial(capsys):
    _, serial = run_cli(capsys, ["count", "--sweep", "40", "--format", "json"])
    _, parallel = run_cli(capsys, ["count", "--sweep", "40", "--jobs", "2", "--format", "json"])
    assert serial == parallel
