import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cubesum
from cubesum.cache import default_cache_path
from cubesum.cli import build_parser, main

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


def test_jobs_below_1_is_a_usage_error(capsys, monkeypatch):
    # rejected before any work, from the flag and from the variable; a pool
    # that raises when called shows that no worker process is started
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    for argv in (["search", "--bound", "10"], ["count", "--sweep", "40"],
                 ["verify", "--skip-census"]):
        for jobs in ("0", "-5"):
            for full, env in ((argv + ["--jobs", jobs], None), (argv, jobs)):
                monkeypatch.delenv("CUBESUM_JOBS", raising=False)
                if env is not None:
                    monkeypatch.setenv("CUBESUM_JOBS", env)
                assert main(full) == 2, (full, env)
                captured = capsys.readouterr()
                assert captured.out == "", (full, env)
                assert "--jobs" in captured.err and "CUBESUM_JOBS" in captured.err, (full, env)


def test_empty_or_directory_cache_path_is_a_usage_error(capsys, monkeypatch, tmp_path):
    cases = [(["ap", "--max", "10"], ""),
             (["ap", "--max", "10", "--cache-file", ""], None),
             (["ap", "--max", "10", "--cache-file", str(tmp_path)], None),
             (["cache", "show", "--cache-file", str(tmp_path)], None),
             (["cache", "clear"], "")]
    for argv, env in cases:
        monkeypatch.delenv("CUBESUM_CACHE", raising=False)
        if env is not None:
            monkeypatch.setenv("CUBESUM_CACHE", env)
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "error: cache file" in captured.err, argv
    assert list(tmp_path.iterdir()) == []


def test_only_the_cli_reads_the_cache_variable(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("CUBESUM_CACHE", str(tmp_path / "c.txt"))
    assert default_cache_path() == Path.home() / ".cache" / "cubesum" / "coefficients.txt"
    status, out = run_cli(capsys, ["cache", "path"])
    assert status == 0 and out.strip() == str(tmp_path / "c.txt")


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


def test_ap_single_prime(capsys):
    status, out = run_cli(capsys, ["ap", "--p", "7", "--format", "json"])
    assert status == 0
    doc = json.loads(out)
    assert doc["prime"]["closed_form"] == "-2"
    assert doc["prime"]["via_characters"] == "-2"


def test_cache_subcommand(capsys, tmp_path):
    cache_file = str(tmp_path / "c.txt")
    status, _ = run_cli(capsys, ["cache", "build", "--max", "25", "--cache-file", cache_file])
    assert status == 0
    status, out = run_cli(capsys, ["cache", "show", "--cache-file", cache_file, "--format", "json"])
    assert status == 0
    assert json.loads(out)["coefficients"]["7"] == "-2"
    status, out = run_cli(capsys, ["cache", "path", "--cache-file", cache_file])
    assert out.strip() == cache_file
    status, _ = run_cli(capsys, ["cache", "clear", "--cache-file", cache_file])
    assert status == 0


def test_ap_table_uses_cache(capsys, tmp_path):
    cache_file = str(tmp_path / "c.txt")
    _, first = run_cli(capsys, ["ap", "--max", "30", "--cache-file", cache_file, "--format", "json"])
    _, second = run_cli(capsys, ["ap", "--max", "30", "--cache-file", cache_file, "--format", "json"])
    assert first == second
    assert json.loads(first)["coefficients"]["13"] == "-22"


def test_ap_table_nonzero_json_drops_zeros(capsys, tmp_path):
    cache_file = str(tmp_path / "c.txt")
    argv = ["ap", "--max", "30", "--cache-file", cache_file, "--format", "json"]
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


def test_golden_cache(capsys, tmp_path):
    cache_file = str(tmp_path / "c.txt")
    run_cli(capsys, ["cache", "build", "--max", "30", "--cache-file", cache_file])
    _, out = run_cli(capsys, ["cache", "show", "--cache-file", cache_file, "--format", "json"])
    assert out == (GOLDEN / "cache.json").read_text()


def test_count_sweep(capsys):
    status, out = run_cli(capsys, ["count", "--sweep", "60", "--n", "1", "--format", "json"])
    assert status == 0
    doc = json.loads(out)
    assert doc["all_match"] is True
    assert len(doc["reports"]) == 15


def test_count_sweep_parallel_matches_serial(capsys):
    _, serial = run_cli(capsys, ["count", "--sweep", "40", "--format", "json"])
    _, parallel = run_cli(capsys, ["count", "--sweep", "40", "--jobs", "2", "--format", "json"])
    assert serial == parallel
