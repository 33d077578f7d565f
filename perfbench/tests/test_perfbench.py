"""Tests of the benchmark itself: inputs, output checks, tracing, contract.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(BENCH), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from jrp_forge import cli  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _inputs(name, seed, workdir="w"):
    return workloads.WORKLOADS[name].generate(random.Random(f"{name}:{seed}"), workdir)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_input_bytes(name):
    first = [(f.path, f.data) for f in _inputs(name, 7)]
    again = [(f.path, f.data) for f in _inputs(name, 7)]
    other = [(f.path, f.data) for f in _inputs(name, 8)]
    assert first == again
    assert first != other


def test_roundtrip_sizes_stay_inside_the_bound():
    for f in _inputs("roundtrip-3sat", 3):
        n, clauses = f.value
        assert n in (3, 4, 5)
        assert 1 <= len(clauses) and 3 * n + len(clauses) <= 20
        assert all(len({abs(lit) for lit in c}) == 3 for c in clauses)


def test_probe_formulas_lie_past_the_bound():
    for n, clauses in workloads.probe_formulas(random.Random("probe:1")):
        assert 3 * n + len(clauses) > 20 and len(clauses) <= 15
        assert len(set(clauses)) == len(clauses)


def _run_op(op, tmp_path):
    path = tmp_path / Path(op.source.path).name
    path.write_bytes(op.source.data)
    op = workloads.Op(tuple(str(path) if a == op.source.path else a for a in op.argv),
                      op.kind, workloads.InputFile(str(path), op.source.data,
                                                   op.source.value), op.expect)
    rec = run.invoke(cli, [op], 0)
    return op, rec


def test_solve_check_flags_an_altered_cost(tmp_path):
    src = _inputs("heuristic-n16", 1)[0]
    op, rec = _run_op(workloads.WORKLOADS["heuristic-n16"].ops(src)[0], tmp_path)
    assert rec.rc == 0
    assert not workloads.check_solve(op, rec.rc, rec.stdout).failed

    doc = json.loads(rec.stdout)
    total = Fraction(doc["cost"]["total"]["exact"])
    doc["cost"]["total"]["exact"] = str(total + Fraction(1, 10**9))
    outcome = workloads.check_solve(op, 0, json.dumps(doc))
    assert outcome.failed and "cost" in outcome.reason

    doc = json.loads(rec.stdout)
    cid = sorted(doc["policy"])[0]
    doc["policy"][cid]["exact"] = str(2 * Fraction(doc["policy"][cid]["exact"]))
    assert workloads.check_solve(op, 0, json.dumps(doc)).failed
    assert workloads.check_solve(op, 2, rec.stdout).failed


def test_roundtrip_check_uses_its_own_verdict(tmp_path):
    src = _inputs("roundtrip-3sat", 1)[0]
    op, rec = _run_op(workloads.WORKLOADS["roundtrip-3sat"].ops(src)[0], tmp_path)
    assert not workloads.check_roundtrip(op, rec.rc, rec.stdout).failed
    n, clauses = src.value
    truth = workloads.satisfiable(n, clauses)
    flipped = rec.stdout.replace(f"satisfiable={truth}", f"satisfiable={not truth}")
    assert workloads.check_roundtrip(op, rec.rc, flipped).failed


def test_satisfiable_matches_known_formulas():
    assert workloads.satisfiable(3, ((1, 2, 3),))
    unsat = tuple((s1, 2 * s2, 3 * s3) for s1 in (1, -1) for s2 in (1, -1)
                  for s3 in (1, -1))
    assert not workloads.satisfiable(3, unsat)


def _snapshot(package="jrp_forge"):
    return {name: dict(vars(m)) for name, m in sys.modules.items()
            if m is not None and (name == package or name.startswith(package + "."))}


def test_tracer_restores_every_patched_attribute(tmp_path):
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sites = set(tracer.binding_sites)
        src = _inputs("roundtrip-3sat", 2)[0]
        _, rec = _run_op(workloads.WORKLOADS["roundtrip-3sat"].ops(src)[0], tmp_path)
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert before.keys() == after.keys()
    for name in before:
        for attr, value in before[name].items():
            assert after[name][attr] is value, f"{name}.{attr}"
    assert rec.rc in (0, 1)
    assert not tracer.missing
    assert {"jrp_forge.solve.seed_cost", "jrp_forge.cli.exhaustive_search",
            "jrp_forge.cost.standalone_cost", "jrp_forge.solve.sqrt_fraction",
            "jrp_forge.reduction.total_cost", "jrp_forge.total_cost"} <= sites
    assert tracer.calls[tracer.index("reduction.verify_roundtrip")] == 1
    assert tracer.calls[tracer.index("_kernels.union_count")] >= 1


def _traced_roundtrip(tmp_path, seed):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        src = _inputs("roundtrip-3sat", seed)[0]
        _, rec = _run_op(workloads.WORKLOADS["roundtrip-3sat"].ops(src)[0], tmp_path)
    finally:
        tracer.uninstall()
    assert rec.rc in (0, 1) and rec.error is None
    return tracer, rec


def test_worker_thread_spans_nest_only_in_their_own_thread(tmp_path, monkeypatch):
    monkeypatch.delenv("JRP_FORGE_THREADS", raising=False)
    single, rec1 = _traced_roundtrip(tmp_path, 4)
    monkeypatch.setenv("JRP_FORGE_THREADS", "2")
    threaded, rec2 = _traced_roundtrip(tmp_path, 4)
    assert rec1.stdout == rec2.stdout
    assert threaded.calls == single.calls
    assert threaded.spans_total == sum(threaded.calls)
    assert min(threaded.self_s) >= -1e-9
    # The scan's per-assignment work runs on the pool, so its top spans are
    # roots there; every edge below them matches the single-thread run.
    scan = threaded.index("reduction.verify_roundtrip")
    below = {k: v for k, v in single.child_calls.items() if k[0] != scan}
    assert {k: v for k, v in threaded.child_calls.items() if k[0] != scan} == below
    assert threaded.children_of("reduction.verify_roundtrip",
                                "reduction.clause_synchronized") == 0
    assert single.children_of("reduction.verify_roundtrip",
                              "reduction.clause_synchronized") > 0


def test_self_time_is_span_minus_children():
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.m")

    def inner(x):
        return sum(range(x))

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    mod.inner, mod.outer = inner, outer
    sys.modules.update({"fakepkg": pkg, "fakepkg.m": mod})
    try:
        tracer = tracing.Tracer("fakepkg", (("m", "outer"), ("m", "inner")))
        tracer.install()
        try:
            with tracer.span():
                mod.outer(20000)
        finally:
            tracer.uninstall()
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.m"]
    o, i = tracer.index("m.outer"), tracer.index("m.inner")
    assert (tracer.calls[0], tracer.calls[o], tracer.calls[i]) == (1, 1, 2)
    assert tracer.children_of("m.outer", "m.inner") == 2
    assert tracer.self_s[o] == pytest.approx(tracer.incl_s[o] - tracer.incl_s[i])
    assert tracer.incl_s[0] >= tracer.incl_s[o] >= tracer.incl_s[i] > 0
    assert list(tracer.span_parent).count(-1) == 1
    assert mod.outer is outer and mod.inner is inner


def test_benchmark_json_matches_the_metrics_printed():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["perfbench"]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    for w in doc["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert NAME_RE.match(m["name"]) and UNIT_RE.match(m["unit"])
        assert m["better"] in ("higher", "lower")


def test_kernel_bench_script_stays_where_the_readme_points():
    assert "bench/compare_kernels.py" in (ROOT / "README.md").read_text()
    assert (ROOT / "bench" / "compare_kernels.py").is_file()


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_prints_the_contract_result(trace):
    proc = _bench(ROOT, "--workload", "roundtrip-3sat", "--seed", "5",
                  "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    report = json.loads(report_line)["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = run.per_layer_units() if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert report["metadata"]["kernel_backend"] in ("pure", "fast")
    assert report["refused_within_limits"] >= 0
    assert report["digest_ops"] == workloads.DIGEST_OPS
    if trace == "0":
        assert report["p90_samples_ok"] == (report["timed_ops"] >= run.MIN_P90_OPS)
    else:
        assert report["spans"]["total"] == sum(report["layers"][n]["calls"]
                                                for n in report["layers"])


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "exhaustive-n4", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
