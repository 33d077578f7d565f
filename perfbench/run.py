"""Closed-loop benchmark of the jrp-forge command line.

One client in one process and one thread calls `jrp_forge.cli.main(argv)`
in process, one invocation after another, with stdout captured. The inputs
are generated from the workload seed and written as files before timing
starts; the program only reads those files.

Run from the root of a checkout (the package is imported from `src/`):

    python3 perfbench/run.py --workload exhaustive-n4 --seed 1 --seconds 42 --trace 0

Before timing, the first WARMUP_OPS operations run once untimed. With
`--trace 0` one timed phase of `--seconds` gives the end-to-end metrics:
the 90th percentile latency (on a workload that mixes commands, the
geometric mean of each command's 90th percentile, so that a change to either
command shows), the median of several set-ups and the peak resident set.

Invocations per second and each command's median latency are in the report
but not among the metrics. A shared host runs the same invocation in fast
and slow spells of seconds (one exhaustive solve on a 2-vCPU shared VM:
~150 ms or ~250 ms), and the share of each spell in a run varies. The
rate, a mean, moves with that share, by up to a fifth between runs, and a
median jumps between the spells; a 90th percentile lies in the slow spell
and the slowest inputs and moves by a few hundredths.

With `--trace 1` an untraced and a traced phase of half the time each run
the same operations in the same order; the traced phase wraps the functions
in `tracing.TRACED` and gives the per-layer metrics, normalised per
operation, and the two phases give the tracing overhead.

Every invocation's output is checked after timing. An operation fails when
it raises, exits with code 2, 3 or 4, or fails its check; the suite's own
exit code 1 on a roundtrip is a verdict mismatch, reported apart. The
second-to-last stdout line is a report (run metadata, stdout digest, shares,
whether op_p90_ms rests on at least MIN_P90_OPS operations, each command's
median and 90th percentile latency and, when traced, every layer's split);
the last line is the result object.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

PACKAGE = "jrp_forge"
SETUP_REPS = 9
WARMUP_OPS = 2            # one of each command on the mixed workload
MIN_P90_OPS = 100         # fewer timed operations leave op_p90_ms underpowered
WORK = "perfbench/.work"

END_TO_END = {            # name -> unit
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def metric_name(layer: str) -> str:
    """Metric names start with a letter: `_kernels.x` is reported as `kernels.x`."""
    return layer.lstrip("_")


def per_layer_units() -> dict[str, str]:
    units = {}
    for mod, fn in tracing.TRACED:
        base = metric_name(f"{mod}.{fn}")
        units[f"{base}.calls"] = "count/op"
        units[f"{base}.self_s"] = "s/op"
    units.update({
        "solve.profiles": "count/op",
        "solve.ujr_cache_hit_ratio": "ratio",
        "solve.descent_moves": "count/op",
        "solve.exhaustive_search.self_share": "ratio",
        "cost.total_cost.incl_share": "ratio",
        "kernels.union_count.incl_share": "ratio",
        "sync.ujr.series_mean": "count",
        "kernels.union_count.hyper_bits_max": "bits",
        "reduction.verdict_mismatch_share": "ratio",
        "reduction.refused_within_limits": "count",
        "trace.untraced_ops_per_s": "1/s",
        "trace.traced_ops_per_s": "1/s",
        "trace.slowdown": "ratio",
    })
    return units


# ---------------------------------------------------------------------------
# set-up

def _purge_package() -> None:
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def set_up(workload: workloads.Workload, seed: int):
    """Import the package afresh, then generate and write every input.

    Inputs overwrite the files of the previous set-up or run in place:
    deleting them first makes the disk's discards land in the next set-up.
    """
    _purge_package()
    t0 = perf_counter()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    workdir = f"{WORK}/{workload.name}"
    os.makedirs(workdir, exist_ok=True)
    inputs = workload.generate(random.Random(f"{workload.name}:{seed}"), workdir)
    for src in inputs:
        with open(src.path, "wb") as fh:
            fh.write(src.data)
    return perf_counter() - t0, cli, inputs


# ---------------------------------------------------------------------------
# invocations

@dataclass(slots=True)
class Record:
    index: int
    latency: float
    rc: Optional[int]
    stdout: str
    error: Optional[str]


def invoke(cli, ops, index: int, tracer=None) -> Record:
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    span = tracer.span() if tracer is not None else contextlib.nullcontext()
    t0 = perf_counter()
    try:
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(ops[index % len(ops)].argv))
    except SystemExit as exc:          # argparse rejects the command line
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:           # noqa: BLE001 -- counted as a failure
        error = repr(exc)
    return Record(index, perf_counter() - t0, rc, out.getvalue(), error)


def timed_phase(cli, ops, seconds: float, tracer=None):
    records = []
    start = perf_counter()
    deadline = start + seconds
    while perf_counter() < deadline:
        records.append(invoke(cli, ops, len(records), tracer))
    return records, perf_counter() - start


def quantile(values, q: int) -> float:
    """q-th percentile (multiple of 10) by statistics.quantiles, any sample size."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def tail_latency(by_command: dict[str, list[float]]) -> float:
    """Geometric mean over commands of each command's 90th percentile."""
    return statistics.geometric_mean([quantile(v, 90) for v in by_command.values()])


def command_of(op) -> str:
    return " ".join(a for a in op.argv if a != op.source.path)


def latencies_by_command(ops, records) -> dict[str, list[float]]:
    by: dict[str, list[float]] = {}
    for rec in records:
        by.setdefault(command_of(ops[rec.index % len(ops)]), []).append(rec.latency)
    return by


# ---------------------------------------------------------------------------
# checks, probe and metadata

def check(ops, records):
    """Check every record; returns (outcomes, failure reasons)."""
    outcomes, reasons = [], []
    for rec in records:
        op = ops[rec.index % len(ops)]
        if rec.error is not None:
            outcome = workloads.Outcome(True, reason=f"raised {rec.error}")
        else:
            outcome = workloads.CHECKS[op.kind](op, rec.rc, rec.stdout)
        outcomes.append(outcome)
        if outcome.failed:
            reasons.append(f"{' '.join(op.argv)}: {outcome.reason}")
    return outcomes, reasons


def repeats_identical(records) -> bool:
    """Byte-identical stdout whenever one operation ran more than once."""
    first: dict[int, str] = {}
    for rec in records:
        if first.setdefault(rec.index, rec.stdout) != rec.stdout:
            return False
    return True


def cap_probe(seed: int) -> int:
    """Formulas inside the advertised roundtrip caps that the cap refuses."""
    from jrp_forge import reduction, sat
    from jrp_forge.sync import CapExceeded

    refused = 0
    for n, clauses in workloads.probe_formulas(random.Random(f"probe:{seed}")):
        if n > reduction.ROUNDTRIP_MAX_VARS \
                or len(clauses) > reduction.ROUNDTRIP_MAX_CLAUSES:
            continue
        try:
            reduction.verify_roundtrip(sat.CnfFormula(n, clauses))
        except CapExceeded:
            refused += 1
    return refused


def _git_commit() -> str:
    """HEAD of the checkout's own git repository, or 'unknown' outside one."""
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    src = ROOT / "src" / PACKAGE
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata(seed: int) -> dict:
    from jrp_forge import _kernels
    return {
        "kernel_backend": _kernels.backend(),
        "JRP_FORGE_KERNEL": os.environ.get("JRP_FORGE_KERNEL"),
        "JRP_FORGE_THREADS": os.environ.get("JRP_FORGE_THREADS"),
        "python": platform.python_version(),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# per-layer metrics

def layer_metrics(tracer, traced_ops, outcomes_traced, untraced_rate,
                  traced_rate, mismatch_share, refused) -> dict:
    n = max(1, len(traced_ops))
    op_time = tracer.incl_s[0] or 1.0
    values = {}
    for idx, name in enumerate(tracer.names[1:], start=1):
        base = metric_name(name)
        values[f"{base}.calls"] = tracer.calls[idx] / n
        values[f"{base}.self_s"] = tracer.self_s[idx] / n

    def nodes(method):
        return sum(o.nodes for o in outcomes_traced if o.method == method)

    profiles = nodes("exhaustive")
    misses = tracer.children_of("solve.exhaustive_search", "sync.ujr")
    ujr = tracer.index("sync.ujr")
    uc = tracer.index("_kernels.union_count")
    values.update({
        "solve.profiles": profiles / n,
        "solve.ujr_cache_hit_ratio": 1 - misses / profiles if profiles else 0.0,
        "solve.descent_moves": nodes("descent") / n,
        "solve.exhaustive_search.self_share":
            tracer.self_s[tracer.index("solve.exhaustive_search")] / op_time,
        "cost.total_cost.incl_share":
            tracer.incl_s[tracer.index("cost.total_cost")] / op_time,
        "kernels.union_count.incl_share": tracer.incl_s[uc] / op_time,
        "sync.ujr.series_mean":
            tracer.arg_sum[ujr] / tracer.calls[ujr] if tracer.calls[ujr] else 0.0,
        "kernels.union_count.hyper_bits_max": tracer.arg_max[uc],
        "reduction.verdict_mismatch_share": mismatch_share,
        "reduction.refused_within_limits": refused,
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.traced_ops_per_s": traced_rate,
        "trace.slowdown": untraced_rate / traced_rate if traced_rate else 0.0,
    })
    return values


def layer_table(tracer) -> dict:
    op_time = tracer.incl_s[0] or 1.0
    return {
        name: {"calls": tracer.calls[i],
               "self_share": round(tracer.self_s[i] / op_time, 6),
               "incl_share": round(tracer.incl_s[i] / op_time, 6)}
        for i, name in enumerate(tracer.names)
    }


# ---------------------------------------------------------------------------
# driver

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        print(f"no {PACKAGE} sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = workloads.WORKLOADS[args.workload]

    setup_times = []
    for _ in range(SETUP_REPS):
        elapsed, cli, inputs = set_up(workload, args.seed)
        setup_times.append(elapsed)
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported {cli.__file__}, not the checkout's sources", file=sys.stderr)
        return 2
    ops = [op for src in inputs for op in workload.ops(src)]

    # Untimed warm-up; it also makes every run invoke operation 0 twice, so
    # that repeats_identical always compares two invocations byte for byte.
    warmup = [invoke(cli, ops, i) for i in range(min(WARMUP_OPS, len(ops)))]

    tracer = None
    if args.trace:
        half = args.seconds / 2
        records, elapsed = timed_phase(cli, ops, half)
        untraced_rate = len(records) / elapsed
        tracer = tracing.Tracer(PACKAGE)
        tracer.install()
        try:
            traced, traced_elapsed = timed_phase(cli, ops, half, tracer)
        finally:
            tracer.uninstall()
        traced_rate = len(traced) / traced_elapsed
    else:
        records, elapsed = timed_phase(cli, ops, args.seconds)
        traced = []
    by_command = latencies_by_command(ops, records)

    # Untimed: finish the digest prefix.
    extra = [invoke(cli, ops, i)
             for i in range(len(records), workloads.DIGEST_OPS)]
    prefix = {}
    for rec in records + extra:
        if rec.index < workloads.DIGEST_OPS:
            prefix.setdefault(rec.index, rec.stdout)
    digest = hashlib.sha256("".join(prefix[i] for i in sorted(prefix)).encode()).hexdigest()

    everything = records + traced + extra + warmup
    outcomes, reasons = check(ops, everything)
    attempted = len(everything)
    failed = sum(o.failed for o in outcomes)
    mismatches = sum(o.verdict_mismatch for o in outcomes)
    identical = repeats_identical(everything)
    refused = cap_probe(args.seed)

    report = {
        "workload": workload.name,
        "seconds": args.seconds,
        "trace": args.trace,
        "metadata": metadata(args.seed),
        "stdout_sha256": digest,
        "digest_ops": len(prefix),
        "timed_ops": len(records),
        "attempted": attempted,
        "failed_share": failed / attempted,
        "verdict_mismatch_share": mismatches / attempted,
        "refused_within_limits": refused,
        "repeats_identical": identical,
        "failures": reasons[:5],
        "setup_s_reps": setup_times,
        "latency_ms_by_command": {
            cmd: {"n": len(v), "p50": quantile(v, 50) * 1000, "p90": quantile(v, 90) * 1000}
            for cmd, v in by_command.items()},
    }
    if tracer is not None:
        outcomes_traced = outcomes[len(records):len(records) + len(traced)]
        metrics = layer_metrics(tracer, traced, outcomes_traced, untraced_rate,
                                traced_rate, mismatches / attempted, refused)
        units = per_layer_units()
        report["layers"] = layer_table(tracer)
        report["binding_sites"] = tracer.binding_sites
        report["untraced_functions"] = tracer.missing
        spans_path = f"{WORK}/spans-{workload.name}.tsv"
        tracer.write_spans(spans_path)
        report["spans"] = {"total": tracer.spans_total, "file": spans_path}
    else:
        report["p90_samples_ok"] = len(records) >= MIN_P90_OPS
        if not report["p90_samples_ok"]:
            print(f"op_p90_ms rests on {len(records)} operations, "
                  f"fewer than {MIN_P90_OPS}", file=sys.stderr)
        report["ops_per_s"] = len(records) / elapsed
        metrics = {
            "op_p90_ms": tail_latency(by_command) * 1000,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
