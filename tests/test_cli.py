import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import jrp_forge
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


def test_solve_pot_grid_above_max_exits_2(capsys, single_files):
    ipath, _ = single_files
    rc, out, err = run(capsys, "solve", ipath, "--method", "pot",
                       "--optimize-base", "--grid", "1025")
    assert rc == 2 and out == ""
    assert "grid must be <= 1024, got 1025" in err
    rc, out, _ = run(capsys, "solve", ipath, "--method", "pot",
                     "--optimize-base", "--grid", "1024")
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


@pytest.mark.parametrize("flag", [["--format", "csv"], ["--cap", "5"]])
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


def _python(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    src = str(Path(jrp_forge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path))


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
