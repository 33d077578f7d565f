import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import jrp_forge
from jrp_forge import cli
from jrp_forge.cli import main
from jrp_forge.model import (
    Commodity,
    Instance,
    Policy,
    load_instance,
    save_instance,
    save_policy,
)
from jrp_forge.reduction import assignment_to_policy, reduction_from_json

F = Fraction


@pytest.fixture()
def single_files(tmp_path):
    inst = Instance((Commodity("a", F(2), F(1), F(25)),), F(1))
    ipath = tmp_path / "inst.json"
    ppath = tmp_path / "pol.json"
    ipath.write_bytes(save_instance(inst))
    ppath.write_bytes(save_policy(Policy({"a": F(5)})))
    return str(ipath), str(ppath)


@pytest.fixture()
def cnf_file(tmp_path):
    p = tmp_path / "f.cnf"
    p.write_text("p cnf 3 1\n1 2 3 0\n")
    return str(p)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_eval_json(capsys, single_files):
    ipath, ppath = single_files
    rc, out, _ = run(capsys, "eval", ipath, "--policy", ppath)
    assert rc == 0
    doc = json.loads(out)
    assert doc["total"] == {"decimal": "10.2", "exact": "51/5"}
    assert doc["joint_frequency"]["exact"] == "1/5"


def test_eval_csv(capsys, single_files):
    ipath, ppath = single_files
    rc, out, _ = run(capsys, "eval", ipath, "--policy", ppath,
                     "--format", "csv")
    assert rc == 0
    header, row = out.strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["total_exact"] == "51/5"
    assert cols["total"] == "10.2"


def test_eval_digits(capsys, single_files):
    ipath, ppath = single_files
    rc, out, _ = run(capsys, "eval", ipath, "--policy", ppath, "--digits", "3")
    doc = json.loads(out)
    assert doc["joint_cost"]["decimal"] == "0.2"
    assert doc["total"]["decimal"] == "10.2"


@pytest.mark.parametrize("command", ["eval", "solve", "reduce"])
def test_digits_below_one_exits_2(capsys, monkeypatch, single_files, cnf_file,
                                  tmp_path, command):
    # refused before any work: the evaluator, solvers and reduction fail if
    # they are called at all
    def never(*args, **kwargs):
        raise AssertionError("called before --digits was checked")

    for name in ("total_cost", "decompose", "exhaustive_search",
                 "power_of_two", "coordinate_descent", "optimize_seed",
                 "reduce_formula"):
        monkeypatch.setattr(cli, name, never)
    ipath, ppath = single_files
    out_path = tmp_path / "red.json"
    argv = {"eval": ["eval", ipath, "--policy", ppath],
            "solve": ["solve", ipath, "--method", "exhaustive"],
            "reduce": ["reduce", cnf_file, "--out", str(out_path)]}[command]
    rc, out, err = run(capsys, *argv, "--digits", "0")
    assert (rc, out) == (2, "")
    assert "digits must be >= 1, got 0" in err
    assert not out_path.exists()


@pytest.mark.parametrize("argv, message", [
    (["eval", "--cap", "0"], "cap must be >= 1, got 0"),
    (["eval", "--cap", "-1"], "cap must be >= 1, got -1"),
    (["solve", "--method", "pot", "--optimize-base", "--cap", "0"],
     "cap must be >= 1, got 0"),
    (["solve", "--method", "descent", "--cap", "-1"],
     "cap must be >= 1, got -1"),
    (["solve", "--method", "exhaustive", "--profile-cap", "0"],
     "profile-cap must be >= 1, got 0"),
    (["solve", "--method", "exhaustive", "--profile-cap", "-5"],
     "profile-cap must be >= 1, got -5"),
    (["solve", "--method", "descent", "--max-rounds", "-3"],
     "max-rounds must be >= 0, got -3"),
], ids=["eval-cap-0", "eval-cap-negative", "solve-cap-0",
        "solve-cap-negative", "profile-cap-0", "profile-cap-negative",
        "max-rounds-negative"])
def test_caps_below_their_range_exit_2(capsys, monkeypatch, single_files,
                                       argv, message):
    # refused as malformed input before any work, not as a reached cap
    def never(*args, **kwargs):
        raise AssertionError("called before the option was checked")

    for name in ("total_cost", "decompose", "exhaustive_search",
                 "power_of_two", "coordinate_descent", "optimize_seed"):
        monkeypatch.setattr(cli, name, never)
    ipath, ppath = single_files
    command, *rest = argv
    extra = ["--policy", ppath] if command == "eval" else []
    rc, out, err = run(capsys, command, ipath, *extra, *rest)
    assert (rc, out) == (2, "")
    assert message in err


def test_caps_at_the_bottom_of_their_range_run(capsys, single_files):
    ipath, _ = single_files
    for args in (["--method", "exhaustive", "--k-hi", "1", "--profile-cap", "1",
                  "--cap", "1"],
                 ["--method", "descent", "--max-rounds", "0"]):
        rc, out, _ = run(capsys, "solve", ipath, *args)
        assert rc == 0 and json.loads(out)["policy"]


_METHODS = ("exhaustive", "pot", "descent", "seed")
# each solve option with a value, and the methods that read it
_SOLVE_READS = {
    ("--k-lo", "1"): {"exhaustive"},
    ("--k-hi", "8"): {"exhaustive"},
    ("--profile-cap", "1000000"): {"exhaustive"},
    ("--seed-lo", "1"): {"exhaustive", "seed"},
    ("--seed-hi", "2"): {"exhaustive", "seed"},
    ("--base", "1"): {"pot"},
    ("--optimize-base",): {"pot"},
    ("--max-rounds", "100"): {"descent"},
}


_UNREAD = [(option, method) for option, reads in _SOLVE_READS.items()
           for method in _METHODS if method not in reads]


@pytest.mark.parametrize("option, method", _UNREAD, ids=[
    f"{method}{option[0]}" for option, method in _UNREAD])
def test_solve_refuses_options_its_method_never_reads(capsys, monkeypatch,
                                                      single_files, option,
                                                      method):
    # refused before any work, even at the option's default value
    def never(*args, **kwargs):
        raise AssertionError("called before the options were checked")

    for name in ("load_instance", "exhaustive_search", "power_of_two",
                 "coordinate_descent", "optimize_seed"):
        monkeypatch.setattr(cli, name, never)
    ipath, _ = single_files
    rc, out, err = run(capsys, "solve", ipath, "--method", method, *option)
    assert (rc, out) == (2, "")
    assert f"error: --method {method} does not read {option[0]}\n" == err


def test_solve_options_read_by_their_method(capsys, single_files):
    # every unread option is named at once, after the range checks; an
    # option its method reads, given at its default, changes nothing
    ipath, _ = single_files
    rc, _, err = run(capsys, "solve", ipath, "--method", "seed", "--k-hi", "4",
                     "--base", "2", "--max-rounds", "3")
    assert rc == 2
    assert "--method seed does not read --k-hi, --base, --max-rounds" in err
    rc, _, err = run(capsys, "solve", ipath, "--method", "pot",
                     "--max-rounds", "-1")
    assert rc == 2 and "max-rounds must be >= 0, got -1" in err
    for method in _METHODS:
        _, plain, _ = run(capsys, "solve", ipath, "--method", method)
        for option, reads in _SOLVE_READS.items():
            if method in reads and option[0] not in ("--seed-lo", "--seed-hi",
                                                     "--optimize-base"):
                rc, out, _ = run(capsys, "solve", ipath, "--method", method,
                                 *option)
                assert (rc, out) == (0, plain), (method, option)
        if method in ("exhaustive", "seed"):
            rc, out, _ = run(capsys, "solve", ipath, "--method", method,
                             "--seed-lo", "1", "--seed-hi", "2")
            assert rc == 0 and json.loads(out)["policy"]


_BAD_SOLVE_VALUES = [
    (("seed", "--seed-lo", "x", "--seed-hi", "1"),
     "--seed-lo: not a rational: 'x'"),
    (("seed", "--seed-lo", "2", "--seed-hi", "1"),
     "seed interval must satisfy 0 < lo <= hi, got [2, 1]"),
    (("exhaustive", "--seed-lo", "0", "--seed-hi", "1"),
     "seed interval must satisfy 0 < lo <= hi, got [0, 1]"),
    (("seed", "--seed-lo", "1"),
     "--seed-lo and --seed-hi must be given together"),
    (("seed", "--seed-hi", "1"),
     "--seed-lo and --seed-hi must be given together"),
    (("pot", "--base", "0"), "base must be > 0, got 0"),
    (("pot", "--base=-1/2"), "base must be > 0, got -1/2"),
    (("pot", "--base", "y"), "--base: not a rational: 'y'"),
    (("exhaustive", "--k-hi", "0"), "--k-hi must be >= 1, got 0"),
    (("exhaustive", "--k-lo", "0"), "--k-lo must be >= 1, got 0"),
    (("exhaustive", "--k-lo", "9"), "--k-lo 9 exceeds --k-hi 8"),
    (("exhaustive", "--k-lo", "3", "--k-hi", "2"), "--k-lo 3 exceeds --k-hi 2"),
]


@pytest.mark.parametrize("argv, message", _BAD_SOLVE_VALUES,
                         ids=[" ".join(argv) for argv, _ in _BAD_SOLVE_VALUES])
def test_solve_refuses_bad_values_before_reading_the_instance(capsys, tmp_path,
                                                              argv, message):
    # the instance path does not exist: a value checked after the instance
    # is read would report the missing file instead
    missing = str(tmp_path / "missing.json")
    rc, out, err = run(capsys, "solve", missing, "--method", *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: " + message), err


@pytest.mark.parametrize("k_hi", ["0", "-3"])
def test_check_pot_ratio_refuses_k_hi_below_one(capsys, monkeypatch, k_hi):
    def never(*args, **kwargs):
        raise AssertionError("solver ran before the options were checked")

    monkeypatch.setattr(cli, "exhaustive_search", never)
    rc, out, err = run(capsys, "check", "--suite", "pot-ratio",
                       "--k-hi", k_hi)
    assert (rc, out) == (2, "")
    assert err == f"error: --k-hi must be >= 1, got {k_hi}\n"


# each check option with a value, and the suites that read it; the file
# named by --cnf does not exist, so reading it would report that instead
_CHECK_READS = {
    ("--n", "1"): {"lemmas"},
    ("--r-max", "200"): {"lemmas"},
    ("--trials", "5"): {"pot-ratio"},
    ("--k-hi", "8"): {"pot-ratio"},
    ("--rng-seed", "0"): {"pot-ratio"},
    ("--cnf", "missing.cnf"): {"roundtrip"},
}
_CHECK_UNREAD = [(option, suite) for option, reads in _CHECK_READS.items()
                 for suite in ("lemmas", "roundtrip", "pot-ratio")
                 if suite not in reads]


@pytest.mark.parametrize("option, suite", _CHECK_UNREAD, ids=[
    f"{suite}{option[0]}" for option, suite in _CHECK_UNREAD])
def test_check_refuses_options_its_suite_never_reads(capsys, monkeypatch,
                                                     option, suite):
    # refused before any work, even at the option's default value
    def never(*args, **kwargs):
        raise AssertionError("called before the options were checked")

    for name in ("_suite_lemmas", "_suite_roundtrip", "_suite_pot_ratio"):
        monkeypatch.setattr(cli, name, never)
    rc, out, err = run(capsys, "check", "--suite", suite, *option)
    assert (rc, out) == (2, "")
    assert err == f"error: --suite {suite} does not read {option[0]}\n"


@pytest.mark.parametrize("flags", [("--solve",), ("--check-3sat",),
                                   ("--solve", "--check-3sat")])
def test_sat_echo_refuses_options_it_never_reads(capsys, tmp_path, flags):
    # the file does not exist, so reading it first would report that
    missing = str(tmp_path / "missing.cnf")
    rc, out, err = run(capsys, "sat", missing, "--echo", *flags)
    assert (rc, out) == (2, "")
    assert err == "error: --echo does not read --solve or --check-3sat\n"


def test_check_help_shows_the_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["check", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    for text in ("(--suite lemmas, default 2)",
                 "(--suite lemmas, default 200)",
                 "random instances (--suite pot-ratio, default 100)",
                 "(--suite pot-ratio, default 8)",
                 "(--suite pot-ratio, default 0)",
                 "DIMACS file, repeatable (--suite roundtrip)"):
        assert text in out


def test_solve_help_shows_the_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["solve", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    for text in ("least multiplier (--method exhaustive, default 1)",
                 "greatest multiplier (--method exhaustive, default 8)",
                 "(--method exhaustive, default 1000000)",
                 "least common seed (--method exhaustive or seed)",
                 "power-of-two base (--method pot, default 1)",
                 "most descent rounds (--method descent, default 100)"):
        assert text in out


def test_eval_missing_file(capsys, single_files, tmp_path):
    _, ppath = single_files
    rc, _, err = run(capsys, "eval", str(tmp_path / "nope.json"),
                     "--policy", ppath)
    assert rc == 2
    assert "error" in err


def test_eval_malformed_instance(capsys, single_files, tmp_path):
    _, ppath = single_files
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run(capsys, "eval", str(bad), "--policy", ppath)
    assert rc == 2


def test_solve_oversized_json_integer_exits_2(capsys, tmp_path, single_files):
    bad = tmp_path / "big.json"
    bad.write_text('{"k0": %s, "commodities": []}' % ("1" * 5000))
    rc, out, err = run(capsys, "solve", str(bad), "--method", "pot")
    assert (rc, out) == (2, "")
    assert err.startswith("error: malformed instance JSON: ")
    ipath, _ = single_files
    bad_policy = tmp_path / "big_policy.json"
    bad_policy.write_text('{"cycles": {"a": %s}}' % ("1" * 5000))
    rc, out, err = run(capsys, "eval", ipath, "--policy", str(bad_policy))
    assert (rc, out) == (2, "")
    assert err.startswith("error: malformed policy JSON: ")


def test_solve_deeply_nested_json_exits_2(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text('{"k0": "1", "commodities": %s}' % ("[" * 100000 + "]" * 100000))
    rc, out, err = run(capsys, "solve", str(deep), "--method", "pot")
    assert (rc, out) == (2, "")
    assert err == "error: malformed instance JSON: nested too deeply\n"


def test_eval_cap_exceeded(capsys, tmp_path):
    # 22 pairwise non-dividing cycles exceed a cap of 3
    primes = [4, 6, 9, 10, 14, 15]
    inst = Instance(
        tuple(Commodity(f"c{p}", F(2), F(1), F(3)) for p in primes), F(1))
    pol = Policy({f"c{p}": F(p) for p in primes})
    ipath = tmp_path / "i.json"
    ppath = tmp_path / "p.json"
    ipath.write_bytes(save_instance(inst))
    ppath.write_bytes(save_policy(pol))
    rc, _, err = run(capsys, "eval", str(ipath), "--policy", str(ppath),
                     "--cap", "3")
    assert rc == 3
    assert "cap" in err.lower()


def test_solve_exhaustive(capsys, single_files):
    ipath, _ = single_files
    rc, out, _ = run(capsys, "solve", ipath, "--method", "exhaustive",
                     "--k-hi", "6")
    assert rc == 0
    doc = json.loads(out)
    assert doc["method"] == "exhaustive"
    assert doc["nodes_explored"] == 6
    assert "wall_time" not in out  # deterministic output only
    got = F(doc["cost"]["total"]["exact"])
    assert abs(float(got) - 2 * 26**0.5) / (2 * 26**0.5) < 1e-9


def test_solve_pot(capsys, single_files):
    ipath, _ = single_files
    rc, out, _ = run(capsys, "solve", ipath, "--method", "pot")
    doc = json.loads(out)
    assert doc["method"] == "pot(base=1)"
    assert doc["policy"]["a"]["exact"] == "4/1"


def test_solve_pot_grid_is_an_unknown_option(capsys, single_files):
    # the optimized base sweeps the whole octave, so no grid is taken
    ipath, _ = single_files
    with pytest.raises(SystemExit) as exc:
        main(["solve", ipath, "--method", "pot", "--optimize-base",
              "--grid", "64"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --grid 64" in capsys.readouterr().err
    rc, out, _ = run(capsys, "solve", ipath, "--method", "pot",
                     "--optimize-base")
    assert rc == 0 and json.loads(out)["method"] == "pot(opt-base)"


def test_solve_descent_and_seed(capsys, single_files):
    ipath, _ = single_files
    rc, out, _ = run(capsys, "solve", ipath, "--method", "descent")
    assert json.loads(out)["policy"]["a"]["exact"] == "5/1"
    rc, out, _ = run(capsys, "solve", ipath, "--method", "seed")
    assert json.loads(out)["method"].startswith("seed")


def test_solve_deterministic_output(capsys, single_files):
    ipath, _ = single_files
    rc1, out1, _ = run(capsys, "solve", ipath, "--method", "exhaustive")
    rc2, out2, _ = run(capsys, "solve", ipath, "--method", "exhaustive")
    assert (rc1, out1) == (rc2, out2)


def test_sat_solve(capsys, cnf_file):
    rc, out, _ = run(capsys, "sat", cnf_file, "--solve")
    assert rc == 0
    doc = json.loads(out)
    assert doc == {"assignment": "FFT", "clauses": 1, "satisfiable": True,
                   "vars": 3}


def test_sat_echo_idempotent(capsys, cnf_file, tmp_path):
    rc, out, _ = run(capsys, "sat", cnf_file, "--echo")
    assert rc == 0
    echoed = tmp_path / "echo.cnf"
    echoed.write_text(out)
    rc2, out2, _ = run(capsys, "sat", str(echoed), "--echo")
    assert out2 == out


def test_sat_check_3sat(capsys, tmp_path):
    p = tmp_path / "w2.cnf"
    p.write_text("p cnf 2 1\n1 -2 0\n")
    rc, out, _ = run(capsys, "sat", str(p), "--check-3sat")
    assert rc == 0
    doc = json.loads(out)
    assert doc["three_sat"] is False
    assert doc["findings"] == ["clause 1: expected 3 literals, found 2"]


def test_sat_malformed_exits_2(capsys, tmp_path):
    p = tmp_path / "bad.cnf"
    p.write_text("p cnf 2 1\n1 bad 0\n")
    rc, _, err = run(capsys, "sat", str(p))
    assert rc == 2
    assert "non-integer token" in err


def test_reduce_then_eval_pipeline(capsys, cnf_file, tmp_path):
    red = tmp_path / "red.json"
    rc, out, _ = run(capsys, "reduce", cnf_file, "--out", str(red))
    assert rc == 0
    doc = json.loads(out)
    assert doc["commodities"] == 10
    assert doc["constants"] == 6
    assert doc["variables"] == 3
    assert doc["clauses"] == 1
    assert doc["scheme"] == "paired-anchors"
    assert doc["delta"]["exact"] == "1/15975066258"

    # the written file is a complete instance; evaluate an assignment policy
    output = reduction_from_json(red.read_bytes())
    pol = assignment_to_policy(output, (False, False, True))
    ppath = tmp_path / "pol.json"
    ppath.write_bytes(save_policy(pol))
    rc, out, _ = run(capsys, "eval", str(red), "--policy", str(ppath))
    assert rc == 0
    total = F(json.loads(out)["total"]["exact"])
    assert total > 0


def test_reduce_rejected_config_exits_4(capsys, cnf_file, tmp_path):
    rc, _, err = run(capsys, "reduce", cnf_file,
                     "--out", str(tmp_path / "x.json"),
                     "--alpha-v-bar", "30")
    assert rc == 4
    assert "rejected" in err


def test_reduce_reports_bad_clause_before_bad_constant(capsys, tmp_path):
    # the formula is validated before the --alpha-* values are parsed
    cnf = tmp_path / "bad.cnf"
    cnf.write_text("p cnf 4 1\n1 2 3 4 0\n")
    out = tmp_path / "o.json"
    rc, stdout, err = run(capsys, "reduce", str(cnf), "--out", str(out),
                          "--alpha-c", "abc")
    assert (rc, stdout) == (2, "")
    assert err == "error: clause 1: expected 3 literals, found 4\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--format", "csv"], ["--cap", "5"],
                                  ["--scheme", "paired-anchors"]])
def test_reduce_rejects_options_it_would_ignore(capsys, cnf_file, tmp_path, flag):
    # reduce always prints one JSON summary and runs no union-rate expansion
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        main(["reduce", cnf_file, "--out", str(out), *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_check_lemmas(capsys):
    rc, out, _ = run(capsys, "check", "--suite", "lemmas", "--n", "1")
    assert rc == 0
    doc = json.loads(out)
    assert doc["suite"] == "lemmas"
    assert doc["passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert any(n.startswith("theta-anchor") for n in names)
    assert any(n.startswith("variable-interval") for n in names)
    assert any(n.startswith("cross-seed-bound") for n in names)
    assert any(n.startswith("jr-sandwich") for n in names)
    assert any(n.startswith("gap-margin") for n in names)
    assert all(c["pass"] for c in doc["checks"])


@pytest.mark.parametrize("n", [7, 10])
def test_check_lemmas_past_twenty_series(capsys, n):
    # 2n anchors and n variables are 3n > 20 series, but each variable's
    # prime divides one of its anchors, so 2n <= 20 reach the kernel and
    # the cap refuses no row; the gap-margin rows are left to the
    # calibration of alpha_v_bar
    rc, out, _ = run(capsys, "check", "--suite", "lemmas", "--n", str(n))
    doc = json.loads(out)
    assert rc == (0 if doc["passed"] else 1)
    margins = [c for c in doc["checks"] if c["name"].startswith("gap-margin")]
    assert len(margins) == 3
    assert all(c["pass"] for c in doc["checks"] if c not in margins)


def test_check_roundtrip_default_corpus(capsys):
    rc, out, _ = run(capsys, "check", "--suite", "roundtrip")
    assert rc == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert any(c["name"].startswith("sync-iff-sat") for c in doc["checks"])


def test_check_roundtrip_custom_cnf(capsys, cnf_file):
    rc, out, _ = run(capsys, "check", "--suite", "roundtrip",
                     "--cnf", cnf_file)
    assert rc == 0
    assert json.loads(out)["passed"] is True


def test_check_pot_ratio(capsys):
    rc, out, _ = run(capsys, "check", "--suite", "pot-ratio",
                     "--trials", "8", "--rng-seed", "1")
    assert rc == 0
    doc = json.loads(out)
    assert doc["passed"] is True


def test_gen_deterministic(capsys, tmp_path):
    rc1, out1, _ = run(capsys, "gen", "--n", "3", "--rng-seed", "42")
    rc2, out2, _ = run(capsys, "gen", "--n", "3", "--rng-seed", "42")
    rc3, out3, _ = run(capsys, "gen", "--n", "3", "--rng-seed", "43")
    assert rc1 == rc2 == rc3 == 0
    assert out1 == out2
    assert out1 != out3


def test_gen_writes_loadable_instance(capsys, tmp_path):
    out_path = tmp_path / "gen.json"
    rc, _, _ = run(capsys, "gen", "--n", "4", "--k-range", "5:50",
                   "--rng-seed", "7", "--out", str(out_path))
    assert rc == 0
    inst = load_instance(out_path.read_bytes())
    assert len(inst.commodities) == 4
    for c in inst.commodities:
        assert 5 <= c.setup <= 50


def test_gen_bad_range(capsys):
    rc, _, err = run(capsys, "gen", "--n", "2", "--k-range", "9")
    assert rc == 2


@pytest.mark.parametrize("n", ["0", "-3"])
def test_gen_refuses_n_below_one(capsys, tmp_path, n):
    out_path = tmp_path / "gen.json"
    rc, out, err = run(capsys, "gen", "--n", n, "--out", str(out_path))
    assert (rc, out) == (2, "")
    assert f"--n must be >= 1, got {n}" in err
    assert not out_path.exists()


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_check_pot_ratio_refuses_trials_below_one(capsys, trials):
    # no trial run is no evidence: the suite must not pass on it
    rc, out, err = run(capsys, "check", "--suite", "pot-ratio",
                       "--trials", trials)
    assert (rc, out) == (2, "")
    assert f"--trials must be >= 1, got {trials}" in err


@pytest.mark.parametrize("r_max", ["1", "0", "-4"])
def test_check_lemmas_refuses_r_max_below_two(capsys, r_max):
    # below 2 the cross-seed-bound row has no fraction q/r to check
    rc, out, err = run(capsys, "check", "--suite", "lemmas",
                       "--r-max", r_max)
    assert (rc, out) == (2, "")
    assert f"--r-max must be >= 2, got {r_max}" in err


_IN_ONE_PROCESS = """
import contextlib, io, json, sys
from jrp_forge import cli
assert cli._parser is None, "parser built at import"
results, parsers = [], set()
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    parsers.add(id(cli._parser))
    results.append([rc, out.getvalue(), err.getvalue()])
assert len(parsers) == 1, "parser rebuilt between calls"
print(json.dumps(results))
"""


def _python(*args: str, cwd: Path, **env: str) -> subprocess.CompletedProcess:
    src = str(Path(jrp_forge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path, **env))


def test_repeated_main_calls_match_fresh_processes(tmp_path):
    # the parser is built once per process and reused: a later call, even
    # after an argparse error, prints what a fresh process prints
    calls = [
        ["gen", "--n", "3", "--rng-seed", "5", "--out", "inst.json"],
        ["solve", "inst.json"],                     # no --method: exit 2
        ["solve", "inst.json", "--method", "exhaustive", "--k-hi", "4",
         "--format", "csv"],
        ["sat", "f.cnf", "--solve"],
    ]
    (tmp_path / "f.cnf").write_text("p cnf 3 1\n1 -2 3 0\n")
    proc = _python("-c", _IN_ONE_PROCESS, json.dumps(calls), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    in_process = json.loads(proc.stdout)
    fresh = []
    for argv in calls:
        p = _python("-m", "jrp_forge.cli", *argv, cwd=tmp_path)
        fresh.append([p.returncode, p.stdout, p.stderr])
    assert [rc for rc, _, _ in fresh] == [0, 2, 0, 0]
    assert in_process == fresh


def test_output_does_not_depend_on_the_string_hash(tmp_path):
    # identical inputs give byte-identical output in every process,
    # including the findings of a policy that names no cycle at all
    (tmp_path / "f.cnf").write_text("p cnf 3 2\n1 -2 3 0\n-1 2 3 0\n")
    (tmp_path / "empty.json").write_text('{"cycles": {}}')
    calls = [["reduce", "f.cnf", "--out", "red.json"],
             ["eval", "red.json", "--policy", "empty.json"]]
    runs = []
    for seed in ("1", "2"):
        procs = [_python("-m", "jrp_forge.cli", *argv, cwd=tmp_path,
                         PYTHONHASHSEED=seed) for argv in calls]
        runs.append([(p.returncode, p.stdout, p.stderr) for p in procs])
    (reduce_rc, _, _), (eval_rc, _, eval_err) = runs[0]
    assert (reduce_rc, eval_rc) == (0, 2)
    assert "'y1'; policy missing cycle for commodity 'y2'" in eval_err
    assert runs[0] == runs[1]


_GOLDEN_SOLVES = (
    ("--method", "pot"),
    ("--method", "pot", "--optimize-base"),
    ("--method", "exhaustive", "--k-hi", "4"),    # refused at n = 16
    ("--method", "seed"),
    ("--method", "descent"),
)


def _golden_digest(capsys, path: str) -> str:
    # exit code and stdout of every solve above, in json and then csv
    h = hashlib.sha256()
    for fmt in ("json", "csv"):
        for args in _GOLDEN_SOLVES:
            rc, out, _ = run(capsys, "solve", path, *args, "--format", fmt)
            h.update(f"{rc}\n{out}\0".encode())
    return h.hexdigest()


GOLDEN_SOLVE_SHA256 = {
    (4, 0): "5f1aca65c0f563f9020cb8e1db3bb3ec6edd5d3594418023d92ebee1da604180",
    (4, 1): "2a8d1d7894efe840cf53ffa896c3c9df40d687c4c0bd21b97ade22066a676e1e",
    (4, 2): "1447317ccb8d4ac218a398d76af9eefe4709dec6e99304db58fe6e513d669945",
    (16, 0): "dc013bc68e549fdf85bedd49cb78b92c3fb88c369151e1a5b8dcdb3c0d105647",
    (16, 1): "21df37d7bfc295b51232ffa814815f2cc838af63c40ba54a88a5f95aaab0ac7a",
    (16, 2): "3408dfb6b7fad41d572604cadf5c208bbb3a80ca8454783752da16a35e582878",
}


@pytest.mark.parametrize("n,seed", sorted(GOLDEN_SOLVE_SHA256))
def test_solve_stdout_matches_golden_digest(capsys, tmp_path, n, seed):
    # pins the exact bytes every solver prints on generated instances, so a
    # change to how they are computed cannot change what they print
    path = str(tmp_path / "inst.json")
    assert run(capsys, "gen", "--n", str(n), "--rng-seed", str(seed),
               "--out", path)[0] == 0
    assert _golden_digest(capsys, path) == GOLDEN_SOLVE_SHA256[n, seed]


def _golden_roundtrip_cnfs() -> list[str]:
    # seeded random 3-CNF texts with n in {3, 4, 5} and 3n + m <= 20, then
    # one the union-rate cap refuses: at n = 10 the chosen primes and the
    # anchors they leave are 20 series, and an unsynchronized clause is one
    # more, so the first assignment priced exits 3
    rng = random.Random(20261019)
    texts = []
    for _ in range(12):
        n = rng.choice((3, 4, 5))
        m = rng.randint(1, 20 - 3 * n)
        clauses = [" ".join(str(v if rng.random() < 0.5 else -v)
                            for v in sorted(rng.sample(range(1, n + 1), 3)))
                   for _ in range(m)]
        texts.append(f"p cnf {n} {m}\n" + "".join(f"{c} 0\n" for c in clauses))
    texts.append("p cnf 10 1\n1 2 3 0\n")
    return texts


GOLDEN_ROUNDTRIP_SHA256 = (
    "586cf4e14844996fd3451a3f0c14d86f792897fe5d0f5b13a077504f4b168e3f")


def test_roundtrip_stdout_matches_golden_digest(capsys, tmp_path, monkeypatch):
    # pins the exact bytes the roundtrip suite prints, the gap rationals
    # included, so a change to how assignments are priced cannot change them
    monkeypatch.chdir(tmp_path)     # the file name is part of every row
    h = hashlib.sha256()
    rcs = []
    for i, text in enumerate(_golden_roundtrip_cnfs()):
        Path(f"f{i}.cnf").write_text(text)
        rc, out, _ = run(capsys, "check", "--suite", "roundtrip",
                         "--cnf", f"f{i}.cnf")
        rcs.append(rc)
        h.update(f"{rc}\n{out}\0".encode())
    assert rcs[-1] == 3
    assert h.hexdigest() == GOLDEN_ROUNDTRIP_SHA256
