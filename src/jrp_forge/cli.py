"""Command-line front end: evaluate, solve, reduce, SAT utilities, checks.

Exit codes: 0 success, 1 property violation (check suites), 2 input error,
3 cap exceeded, 4 configuration rejection. Output on stdout is deterministic
for fixed flags and inputs: randomized flows take --rng-seed (default 0) and
no timing information is printed.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import random
import sys
from fractions import Fraction

from . import __version__
from .cost import CostBreakdown, decompose, jr_bounds, marginal_jr, total_cost
from .eoq import theta_pair
from .model import (
    Commodity,
    CommodityKind,
    InputError,
    Instance,
    JrpError,
    format_rational,
    load_instance,
    load_policy,
    parse_rational,
    rational_to_decimal,
    save_instance,
)
from .reduction import (
    CONSTANTS_SCHEME,
    ConfigRejected,
    ReductionConstants,
    assignment_to_policy,
    check_gap_inequality,
    reduce_formula,
    reduction_to_json,
    verify_roundtrip,
)
from .sat import (
    CnfFormula,
    brute_force_sat,
    parse_dimacs,
    serialize_dimacs,
    validate_3sat,
)
from .solve import (
    DEFAULT_PROFILE_CAP,
    _normalize_base,
    _normalize_interval,
    coordinate_descent,
    exhaustive_search,
    optimize_seed,
    power_of_two,
)
from .sync import CapExceeded, ijr_cross_seed

POT_RATIO_BOUND = Fraction(53, 50)  # 1.06


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return fh.read()


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _emit_json(doc: object) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _q(value: Fraction, digits: int) -> dict:
    return {"exact": format_rational(value),
            "decimal": rational_to_decimal(value, digits)}


def _breakdown_fields(b: CostBreakdown) -> list[tuple[str, Fraction]]:
    # in field order, the class totals only where decompose set them
    return [(f.name, getattr(b, f.name)) for f in dataclasses.fields(b)
            if getattr(b, f.name) is not None]


def _read_options(args, options: dict, flag: str, choice: str) -> None:
    """Default the unset options of the table; refuse the set ones that
    `flag choice` never reads (a given option is never None)."""
    unread = []
    for name, (readers, default, _) in options.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif choice not in readers:
            unread.append("--" + name.replace("_", "-"))
    if unread:
        raise InputError(f"{flag} {choice} does not read {', '.join(unread)}")


def _add_options(parser: argparse.ArgumentParser, options: dict,
                 flag: str) -> None:
    """An argument per table entry, each defaulting to None: a switch for a
    False default, an integer for an int, repeatable for a tuple."""
    for name, (readers, default, what) in options.items():
        kind = ({"action": "store_true"} if default is False
                else {"action": "append"} if default == ()
                else {"type": int} if type(default) is int else {})
        shown = f", default {default}" if type(default) in (int, str) else ""
        parser.add_argument(
            "--" + name.replace("_", "-"), default=None, **kind,
            help=f"{what} ({flag} {' or '.join(sorted(readers))}{shown})")


def _csv_print(header: list[str], rows: list[list[str]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args) -> int:
    instance = load_instance(_read_bytes(args.instance))
    policy = load_policy(_read_bytes(args.policy))
    classed = all(c.kind is not CommodityKind.GENERIC for c in instance.commodities)
    breakdown = (decompose if classed else total_cost)(instance, policy, cap=args.cap)
    fields = _breakdown_fields(breakdown)
    if args.format == "csv":
        header: list[str] = []
        row: list[str] = []
        for name, val in fields:
            header += [name, f"{name}_exact"]
            row += [rational_to_decimal(val, args.digits), format_rational(val)]
        _csv_print(header, [row])
    else:
        _emit_json({name: _q(val, args.digits) for name, val in fields})
    return 0


# ---------------------------------------------------------------------------
# solve

# solve option -> (the methods that read it, its default, its help)
_SOLVE_OPTIONS = {
    "k_lo": ({"exhaustive"}, 1, "least multiplier"),
    "k_hi": ({"exhaustive"}, 8, "greatest multiplier"),
    "profile_cap": ({"exhaustive"}, DEFAULT_PROFILE_CAP, "most profiles"),
    "seed_lo": ({"exhaustive", "seed"}, None, "least common seed"),
    "seed_hi": ({"exhaustive", "seed"}, None, "greatest common seed"),
    "base": ({"pot"}, "1", "power-of-two base"),
    "optimize_base": ({"pot"}, False, "sweep every base in the octave"),
    "max_rounds": ({"descent"}, 100, "most descent rounds"),
}


def cmd_solve(args) -> int:
    _read_options(args, _SOLVE_OPTIONS, "--method", args.method)
    # every value is checked before the instance is read
    if args.k_hi < args.k_lo:
        raise InputError(f"--k-lo {args.k_lo} exceeds --k-hi {args.k_hi}")
    interval = None
    if args.seed_lo is not None or args.seed_hi is not None:
        if args.seed_lo is None or args.seed_hi is None:
            raise InputError("--seed-lo and --seed-hi must be given together")
        interval = _normalize_interval(
            (parse_rational(args.seed_lo, where="--seed-lo"),
             parse_rational(args.seed_hi, where="--seed-hi")))
    base = _normalize_base(parse_rational(args.base, where="--base"))
    instance = load_instance(_read_bytes(args.instance))

    if args.method == "exhaustive":
        result = exhaustive_search(instance, (args.k_lo, args.k_hi),
                                   seed_interval=interval,
                                   profile_cap=args.profile_cap, cap=args.cap)
    elif args.method == "pot":
        result = power_of_two(instance, base=base,
                              optimize_base=args.optimize_base, cap=args.cap)
    elif args.method == "descent":
        result = coordinate_descent(instance, max_rounds=args.max_rounds,
                                    cap=args.cap)
    else:  # seed
        profile = {cid: 1 for cid in instance.ids()}
        result = optimize_seed(instance, profile, seed_interval=interval,
                               cap=args.cap)

    cycles = dict(sorted(result.policy.cycles.items()))
    if args.format == "csv":
        header = ["method", "nodes_explored", "total", "total_exact",
                  "commodity", "cycle", "cycle_exact"]
        rows = [[result.method, str(result.nodes_explored),
                 rational_to_decimal(result.cost.total, args.digits),
                 format_rational(result.cost.total),
                 cid, rational_to_decimal(t, args.digits), format_rational(t)]
                for cid, t in cycles.items()]
        _csv_print(header, rows)
    else:
        _emit_json({
            "method": result.method,
            "nodes_explored": result.nodes_explored,
            "cost": {name: _q(val, args.digits)
                     for name, val in _breakdown_fields(result.cost)},
            "policy": {cid: _q(t, args.digits) for cid, t in cycles.items()},
        })
    return 0


# ---------------------------------------------------------------------------
# reduce

_ALPHAS = ("alpha_c", "alpha_v_bar", "alpha_v", "alpha_n")


def _alpha_from_args(args) -> ReductionConstants:
    kwargs = {}
    for name in _ALPHAS:
        if getattr(args, name) is not None:
            kwargs[name] = parse_rational(getattr(args, name),
                                          where="--" + name.replace("_", "-"))
    return ReductionConstants(**kwargs)


def cmd_reduce(args) -> int:
    formula = parse_dimacs(_read_text(args.cnf))
    # reduce_formula validates again, but only after the --alpha-* values are
    # parsed; checking here reports a malformed formula ahead of a bad value
    shape = validate_3sat(formula)
    if not shape.ok:
        raise InputError("; ".join(shape.findings))
    output = reduce_formula(formula, _alpha_from_args(args))
    payload = reduction_to_json(output)
    with open(args.out, "wb") as fh:
        fh.write(payload)
    _emit_json({
        "out": args.out,
        "variables": len(output.pairs),
        "clauses": len(output.clause_targets),
        "constants": sum(c.kind is CommodityKind.CONSTANT
                         for c in output.instance.commodities),
        "commodities": len(output.instance.commodities),
        "delta": _q(output.delta, args.digits),
        "scheme": CONSTANTS_SCHEME,
    })
    return 0


# ---------------------------------------------------------------------------
# sat

def cmd_sat(args) -> int:
    if args.echo and (args.solve or args.check_3sat):
        raise InputError("--echo does not read --solve or --check-3sat")
    formula = parse_dimacs(_read_text(args.cnf))
    if args.echo:
        sys.stdout.write(serialize_dimacs(formula))
        return 0
    doc: dict[str, object] = {"vars": formula.n_vars,
                              "clauses": len(formula.clauses)}
    if args.check_3sat:
        shape = validate_3sat(formula)
        doc["three_sat"] = shape.ok
        if not shape.ok:
            doc["findings"] = list(shape.findings)
    if args.solve:
        assignment = brute_force_sat(formula)
        doc["satisfiable"] = assignment is not None
        if assignment is not None:
            doc["assignment"] = "".join("T" if v else "F" for v in assignment)
    _emit_json(doc)
    return 0


# ---------------------------------------------------------------------------
# check suites

def _row(name: str, ok: bool, lhs: str, rhs: str) -> dict:
    return {"name": name, "pass": ok, "lhs": lhs, "rhs": rhs}


def _suite_lemmas(args) -> list[dict]:
    checks: list[dict] = []
    output = reduce_formula(CnfFormula(args.n, ()))
    inst = output.instance
    one_plus = 1 + output.delta

    for c in inst.commodities:
        if c.kind in (CommodityKind.CONSTANT, CommodityKind.CLAUSE):
            t1, t2 = theta_pair(c, inst.joint_setup)
            target = output.anchor_targets[c.id]
            ok = (t1.exact and t2.exact and t1.cycle == target
                  and t2.cycle == one_plus * target)
            checks.append(_row(
                f"theta-anchor:{c.id}", ok,
                f"({format_rational(t1.cycle)}, {format_rational(t2.cycle)})",
                f"({target}, {format_rational(one_plus * target)})"))

    for pair in output.pairs:
        c = inst.commodity(output.variable_id(pair.index))
        t2_sq = c.setup / c.holding
        ok = pair.low ** 2 < t2_sq < pair.high ** 2
        checks.append(_row(
            f"variable-interval:x{pair.index}", ok,
            format_rational(t2_sq), f"({pair.low}^2, {pair.high}^2)"))

    worst_val = Fraction(0)
    worst_bound = Fraction(1)
    violations = 0
    for r in range(1, args.r_max + 1):
        for q in range(1, r):
            bound = Fraction(q, r)
            if bound.denominator != r:
                continue  # not irreducible
            value, _, _ = ijr_cross_seed(Fraction(1), 1 + bound)
            if value >= bound:
                violations += 1
            if value * worst_bound > worst_val * bound:  # value/bound maximal
                worst_val, worst_bound = value, bound
    checks.append(_row(
        f"cross-seed-bound:r<={args.r_max}", violations == 0,
        f"worst value {format_rational(worst_val)}",
        f"< {format_rational(worst_bound)}; {violations} violations"))

    for truth, tag in ((False, "low"), (True, "high")):
        policy = assignment_to_policy(
            output, tuple(truth for _ in output.pairs))
        for pair in output.pairs:
            cid = output.variable_id(pair.index)
            rate = marginal_jr(inst, policy, cid)
            lb, ub = jr_bounds(inst, policy, cid, output.alpha)
            checks.append(_row(
                f"jr-sandwich:{cid}@{tag}", lb <= rate <= ub,
                format_rational(rate),
                f"[{format_rational(lb)}, {format_rational(ub)}]"))

    for beta in (Fraction(1), 1 + output.delta / 2, 1 + output.delta):
        report = check_gap_inequality(output, beta)
        checks.append(_row(
            f"gap-margin:beta={format_rational(beta)}", report.passed,
            format_rational(report.margin),
            f"> {format_rational(report.target)}"))
        checks.append(_row(
            f"gap-lemma-direction:beta={format_rational(beta)}",
            report.lemma_ok,
            ",".join(f"{cid}:{'ok' if ok else 'inverted'}"
                     for cid, ok in report.lemma_directions),
            "all ok"))
    return checks


_DEFAULT_ROUNDTRIP = [
    ("x1|x2|x3", ((1, 2, 3),)),
    ("all-sign-patterns-unsat",
     tuple((s1 * 1, s2 * 2, s3 * 3)
           for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1))),
]


def _suite_roundtrip(args) -> list[dict]:
    cases = ([(path, parse_dimacs(_read_text(path))) for path in args.cnf]
             or [(name, CnfFormula(3, clauses))
                 for name, clauses in _DEFAULT_ROUNDTRIP])
    checks = []
    for name, formula in cases:
        report = verify_roundtrip(formula)
        checks.append(_row(
            f"sync-iff-sat:{name}", report.verdict_consistent,
            f"argmin {''.join('T' if v else 'F' for v in report.argmin_assignment)} "
            f"synchronizes_all={report.argmin_synchronizes_all}",
            f"satisfiable={report.satisfiable}"))
        if report.gap is not None:
            expect_positive = report.satisfiable
            ok = (report.gap > 0) == expect_positive
            checks.append(_row(
                f"gap-sign:{name}", ok, format_rational(report.gap),
                "positive iff satisfiable"))
    return checks


def _random_instance(rng: random.Random, n: int) -> Instance:
    commodities = []
    for i in range(n):
        demand = Fraction(rng.randint(1, 8))
        setup = Fraction(rng.randint(1, 100), rng.randint(1, 4))
        target_sq = Fraction(rng.randint(1, 64))
        holding = 2 * setup / (demand * target_sq)  # puts t* in [1, 8]
        commodities.append(Commodity(
            id=f"c{i + 1}", demand=demand, holding=holding, setup=setup))
    return Instance(tuple(commodities), joint_setup=Fraction(rng.randint(1, 50)))


def _suite_pot_ratio(args) -> list[dict]:
    rng = random.Random(args.rng_seed)
    worst = Fraction(0)
    failures = 0
    for _ in range(args.trials):
        inst = _random_instance(rng, rng.randint(1, 5))
        baseline = exhaustive_search(inst, (1, args.k_hi))
        pot = power_of_two(inst, optimize_base=True)
        ratio = pot.cost.total / baseline.cost.total
        if ratio > POT_RATIO_BOUND:
            failures += 1
        worst = max(worst, ratio)
    return [_row(
        f"pot-ratio:{args.trials}x(rng={args.rng_seed})", failures == 0,
        f"max ratio {rational_to_decimal(worst, 8)}",
        f"<= {rational_to_decimal(POT_RATIO_BOUND, 8)}; {failures} over bound")]


# check option -> (the suites that read it, its default, its help)
_CHECK_OPTIONS = {
    "n": ({"lemmas"}, 2, "variable count of the generated formula"),
    "r_max": ({"lemmas"}, 200, "greatest denominator of the cross-seed bound"),
    "trials": ({"pot-ratio"}, 100, "random instances"),
    "k_hi": ({"pot-ratio"}, 8, "greatest multiplier of the exhaustive baseline"),
    "rng_seed": ({"pot-ratio"}, 0, "seed of the random instances"),
    "cnf": ({"roundtrip"}, (), "DIMACS file, repeatable"),
}


def cmd_check(args) -> int:
    _read_options(args, _CHECK_OPTIONS, "--suite", args.suite)
    if args.suite == "lemmas":
        checks = _suite_lemmas(args)
    elif args.suite == "roundtrip":
        checks = _suite_roundtrip(args)
    else:
        checks = _suite_pot_ratio(args)
    passed = all(row["pass"] for row in checks)
    _emit_json({"suite": args.suite, "passed": passed, "checks": checks})
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# gen

def cmd_gen(args) -> int:
    try:
        lo_s, hi_s = args.k_range.split(":", 1)
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise InputError(f"--k-range must be LO:HI integers, got {args.k_range!r}")
    if lo < 1 or hi < lo:
        raise InputError(f"--k-range must satisfy 1 <= LO <= HI, got {args.k_range!r}")
    rng = random.Random(args.rng_seed)
    commodities = []
    for i in range(args.n):
        demand = Fraction(rng.randint(1, 8))
        setup = Fraction(rng.randint(lo, hi))
        holding = Fraction(rng.randint(1, 40), rng.randint(1, 10))
        commodities.append(Commodity(
            id=f"c{i + 1}", demand=demand, holding=holding, setup=setup))
    instance = Instance(tuple(commodities),
                        joint_setup=Fraction(rng.randint(lo, hi)))
    payload = save_instance(instance)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
        _emit_json({"out": args.out, "commodities": args.n})
    else:
        sys.stdout.write(payload.decode("utf-8") + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jrp-forge",
        description="Exact-arithmetic joint replenishment toolkit.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--digits", type=int, default=12,
                       help="decimal digits in rendered columns")
        p.add_argument("--cap", type=int, default=None,
                       help="cap on the series a union rate counts, after "
                            "dropping those another series divides")

    p_eval = sub.add_parser("eval", help="evaluate a policy's exact cost")
    p_eval.add_argument("instance")
    p_eval.add_argument("--policy", required=True)
    add_common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_solve = sub.add_parser("solve", help="optimize a policy")
    p_solve.add_argument("instance")
    p_solve.add_argument("--method", required=True,
                         choices=["exhaustive", "pot", "descent", "seed"])
    _add_options(p_solve, _SOLVE_OPTIONS, "--method")
    add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_reduce = sub.add_parser("reduce", help="compile a 3SAT file to an instance")
    p_reduce.add_argument("cnf")
    p_reduce.add_argument("--out", required=True)
    for name in _ALPHAS:
        p_reduce.add_argument("--" + name.replace("_", "-"), default=None)
    p_reduce.add_argument("--digits", type=int, default=12,
                          help="decimal digits in rendered columns")
    p_reduce.set_defaults(func=cmd_reduce)

    p_sat = sub.add_parser("sat", help="parse, validate, or brute-force DIMACS")
    p_sat.add_argument("cnf")
    p_sat.add_argument("--solve", action="store_true")
    p_sat.add_argument("--echo", action="store_true",
                       help="print the canonical serialization")
    p_sat.add_argument("--check-3sat", action="store_true")
    p_sat.set_defaults(func=cmd_sat)

    p_check = sub.add_parser("check", help="run a property suite")
    p_check.add_argument("--suite", required=True,
                         choices=["lemmas", "roundtrip", "pot-ratio"])
    _add_options(p_check, _CHECK_OPTIONS, "--suite")
    p_check.set_defaults(func=cmd_check)

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--k-range", default="1:100")
    p_gen.add_argument("--rng-seed", type=int, default=0)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_gen)
    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # one parser per process, built on first use rather than at import
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        # checked once here, so a bad value is refused before any work; an
        # --r-max below 2 leaves the lemmas no fraction q/r with 1 <= q < r
        for name, least in (("digits", 1), ("cap", 1), ("profile_cap", 1),
                            ("max_rounds", 0), ("k_lo", 1), ("k_hi", 1),
                            ("trials", 1), ("r_max", 2), ("n", 1)):
            value = getattr(args, name, None)
            if value is not None and value < least:
                flag = name.replace("_", "-")
                raise InputError(f"--{flag} must be >= {least}, got {value}")
        return args.func(args)
    except ConfigRejected as exc:
        print(f"configuration rejected: {exc}", file=sys.stderr)
        return 4
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except JrpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
