"""Workload inputs, operations and output checks for the jrp-forge benchmark.

Every input is generated here from the workload seed and written as a file;
the program under test only ever reads those files through its CLI. The
checks that decide whether an operation failed live here too, next to the
data they check against. Nothing in this module imports jrp_forge at module
level, so that the set-up timing in run.py covers the package import.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Optional

# A 36 s run makes about 160 solve invocations (80 heuristic instances) or
# 1000 roundtrip invocations on the code this benchmark was written against.
# Past the end of the list the inputs are reused round-robin, which repeats
# the same work only while the program keeps no state between invocations,
# as it does not today; fewer files keep set-up from being mostly disk time.
EXHAUSTIVE_INSTANCES = 256
HEURISTIC_INSTANCES = 128
ROUNDTRIP_FORMULAS = 512

# The digest of a run covers the stdout of the first operations in input
# order, which every run completes, so two runs with one seed must match.
DIGEST_OPS = 16

# Above 3n + m = 20 the union-rate cap refuses the formula before pruning;
# such an operation is a 2 ms refusal, not a roundtrip.
ROUNDTRIP_SIZE_BOUND = 20
PROBE_FORMULAS = 12


@dataclass(frozen=True)
class InputFile:
    path: str                   # relative to the checkout root
    data: bytes
    value: object               # what the file encodes, for the checks


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    kind: str                   # "solve" or "roundtrip"
    source: InputFile
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """Result of checking one invocation."""
    failed: bool = False
    verdict_mismatch: bool = False
    reason: str = ""
    method: str = ""
    nodes: int = 0


# ---------------------------------------------------------------------------
# generation

def _fraction_text(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def random_instance(rng: random.Random, n: int) -> dict:
    """One instance drawn like the `check --suite pot-ratio` corpus.

    Demand 1..8, setup (1..100)/(1..4), squared standalone optimum t*^2 in
    1..64 (holding is derived from it) and joint setup K0 in 1..50.
    """
    commodities = []
    for i in range(n):
        demand = Fraction(rng.randint(1, 8))
        setup = Fraction(rng.randint(1, 100), rng.randint(1, 4))
        target_sq = Fraction(rng.randint(1, 64))
        holding = 2 * setup / (demand * target_sq)
        commodities.append((f"c{i + 1}", demand, holding, setup))
    return {"k0": Fraction(rng.randint(1, 50)), "commodities": commodities}


def instance_bytes(inst: dict) -> bytes:
    doc = {
        "k0": _fraction_text(inst["k0"]),
        "commodities": [
            {"id": cid, "lambda": _fraction_text(d), "h": _fraction_text(h),
             "k": _fraction_text(k)}
            for cid, d, h, k in inst["commodities"]
        ],
    }
    return json.dumps(doc, indent=1).encode("utf-8")


def random_3cnf(rng: random.Random, n: int, m: int,
                distinct: bool = False) -> tuple[tuple[int, ...], ...]:
    """m clauses, each over three distinct variables of 1..n.

    Clauses are drawn independently, so they may repeat (n = 3 has only
    eight distinct clauses); with `distinct` a repeat is drawn again.
    """
    clauses: list[tuple[int, ...]] = []
    while len(clauses) < m:
        clause = tuple(v if rng.random() < 0.5 else -v
                       for v in sorted(rng.sample(range(1, n + 1), 3)))
        if not (distinct and clause in clauses):
            clauses.append(clause)
    return tuple(clauses)


def dimacs_bytes(n: int, clauses) -> bytes:
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(str(lit) for lit in clause) + " 0" for clause in clauses]
    return ("\n".join(lines) + "\n").encode("ascii")


def satisfiable(n: int, clauses) -> bool:
    """Brute force, independent of jrp_forge.sat."""
    for bits in product((False, True), repeat=n):
        if all(any(bits[abs(lit) - 1] == (lit > 0) for lit in clause)
               for clause in clauses):
            return True
    return False


def _roundtrip_size(rng: random.Random) -> tuple[int, int]:
    n = rng.choice((3, 4, 5))
    return n, rng.randint(1, ROUNDTRIP_SIZE_BOUND - 3 * n)


# ---------------------------------------------------------------------------
# workloads

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[random.Random, str], list[InputFile]]
    ops: Callable[[InputFile], list[Op]]


def _gen_instances(n_commodities: int, count: int):
    def generate(rng: random.Random, workdir: str) -> list[InputFile]:
        out = []
        for i in range(count):
            inst = random_instance(rng, n_commodities)
            out.append(InputFile(f"{workdir}/i{i:04d}.json",
                                 instance_bytes(inst), inst))
        return out
    return generate


def _gen_formulas(rng: random.Random, workdir: str) -> list[InputFile]:
    out = []
    for i in range(ROUNDTRIP_FORMULAS):
        n, m = _roundtrip_size(rng)
        clauses = random_3cnf(rng, n, m)
        out.append(InputFile(f"{workdir}/f{i:04d}.cnf", dimacs_bytes(n, clauses),
                             (n, clauses)))
    return out


def _exhaustive_ops(src: InputFile) -> list[Op]:
    return [Op(("solve", src.path, "--method", "exhaustive", "--k-hi", "8"),
               "solve", src, {"method": "exhaustive", "nodes": 8 ** 4})]


def _heuristic_ops(src: InputFile) -> list[Op]:
    return [
        Op(("solve", src.path, "--method", "pot", "--optimize-base"),
           "solve", src, {"method": "pot(opt-base)"}),
        Op(("solve", src.path, "--method", "descent"),
           "solve", src, {"method": "descent"}),
    ]


def _roundtrip_ops(src: InputFile) -> list[Op]:
    return [Op(("check", "--suite", "roundtrip", "--cnf", src.path),
               "roundtrip", src)]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "exhaustive-n4",
            "4-commodity exhaustive search (4096 profiles): Fraction arithmetic "
            "in the solver loop dominates; the cached union rate keeps the kernel "
            "under 1%",
            _gen_instances(4, EXHAUSTIVE_INSTANCES), _exhaustive_ops),
        Workload(
            "heuristic-n16",
            "16-commodity power-of-two then coordinate descent: repeated full "
            "cost evaluation on rational cycles with uncached union rates",
            _gen_instances(16, HEURISTIC_INSTANCES), _heuristic_ops),
        Workload(
            "roundtrip-3sat",
            "3SAT roundtrip on random 3-CNF with 3n+m <= 20: the counting kernel "
            "on prime-product hyperperiods and clause synchronization",
            _gen_formulas, _roundtrip_ops),
    )
}


def probe_formulas(rng: random.Random) -> list[tuple[int, tuple]]:
    """Formulas past the 3n+m bound with 3n+m distinct series (distinct
    clauses have distinct targets), within ROUNDTRIP_MAX_VARS/CLAUSES."""
    out = []
    for _ in range(PROBE_FORMULAS):
        n = rng.choice((4, 5))
        m = rng.randint(ROUNDTRIP_SIZE_BOUND - 3 * n + 1, 15)
        out.append((n, random_3cnf(rng, n, m, distinct=True)))
    return out


# ---------------------------------------------------------------------------
# output checks

def check_solve(op: Op, rc: Optional[int], stdout: str) -> Outcome:
    """Rebuild the printed policy and recompute its exact total cost."""
    from jrp_forge.cost import total_cost
    from jrp_forge.model import Commodity, Instance, Policy

    if rc != 0:
        return Outcome(True, reason=f"exit code {rc}")
    try:
        doc = json.loads(stdout)
        printed_total = Fraction(doc["cost"]["total"]["exact"])
        cycles = {cid: Fraction(v["exact"]) for cid, v in doc["policy"].items()}
        method, nodes = doc["method"], doc["nodes_explored"]
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome(True, reason=f"unreadable output: {exc!r}")
    if method != op.expect["method"]:
        return Outcome(True, reason=f"method {method!r}")
    if "nodes" in op.expect and nodes != op.expect["nodes"]:
        return Outcome(True, reason=f"nodes_explored {nodes}")
    inst = op.source.value
    ids = [cid for cid, *_ in inst["commodities"]]
    if sorted(cycles) != sorted(ids) or any(t <= 0 for t in cycles.values()):
        return Outcome(True, reason="policy does not cover the instance")
    instance = Instance(tuple(Commodity(cid, d, h, k)
                              for cid, d, h, k in inst["commodities"]),
                        inst["k0"])
    if total_cost(instance, Policy(cycles)).total != printed_total:
        return Outcome(True, reason="printed total is not the policy's cost")
    return Outcome(method=method, nodes=nodes)


def check_roundtrip(op: Op, rc: Optional[int], stdout: str) -> Outcome:
    """Compare the printed verdict with the benchmark's own brute force.

    Exit code 1 is the suite reporting a property row that failed; that is
    the reduction's verdict defect, counted apart from failures.
    """
    if rc not in (0, 1):
        return Outcome(True, reason=f"exit code {rc}")
    try:
        doc = json.loads(stdout)
        rows = {row["name"]: row for row in doc["checks"]}
        passed = doc["passed"]
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome(True, reason=f"unreadable output: {exc!r}")
    path = op.source.path
    sync_row = rows.get(f"sync-iff-sat:{path}")
    if sync_row is None:
        return Outcome(True, reason="no sync-iff-sat row")
    n, clauses = op.source.value
    if sync_row["rhs"] != f"satisfiable={satisfiable(n, clauses)}":
        return Outcome(True, reason=f"verdict {sync_row['rhs']!r}")
    if passed != (rc == 0) or passed != all(r["pass"] for r in rows.values()):
        return Outcome(True, reason="suite verdict disagrees with its rows")
    mismatch = not sync_row["pass"] or not rows.get(
        f"gap-sign:{path}", {"pass": True})["pass"]
    return Outcome(verdict_mismatch=mismatch)


CHECKS = {"solve": check_solve, "roundtrip": check_roundtrip}
