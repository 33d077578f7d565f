"""3SAT-to-replenishment instance construction and its desk-scale checks.

A formula over n variables becomes an instance with three commodity classes:

* Variables x_i — may cycle at beta*p_low_i (false) or beta*p_high_i (true),
  where (p_low_i, p_high_i) is a prime pair unique to the variable;
* Clauses z_j — anchored at beta times the product of the three literal
  primes, so a clause's series synchronizes with a variable's exactly when
  the variable's chosen prime divides the product (the literal is true);
* Constants y_k — two anchored series per variable pair, at 7*p_low and
  7*p_high, that pin the common seed beta. The factor 7 is coprime to every
  pair prime and never divides a clause target, so the anchors pin the seed
  without pre-synchronizing any clause.

Constants and Clauses use the anchored construction h = 1/((d^2+2d)t*^2),
K = 1/(d^2+2d) with d the drift tolerance, which makes the bracketing pair
of optima exactly (t*, (1+d)t*). Joint setup is 1 and every demand is 2, so
t*^2 = K/h throughout.

reduction_from_json is reduce_formula's inverse: it reads the formula and
the alpha constants back from a document, rebuilds it through reduce_formula
and refuses a document that differs from the rebuild.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from typing import Mapping, Optional, Sequence

from .cost import _profile_pricer, _scaled_costs, decompose, total_cost
from .model import (
    Commodity,
    CommodityKind,
    InputError,
    Instance,
    JrpError,
    Policy,
    format_rational,
    load_instance,
    parse_rational,
    save_instance,
)
from .sat import CnfFormula, brute_force_sat, validate_3sat
from .sync import CapExceeded

_ANCHOR_PRIME = 7
# the name of the anchor construction, written to meta.constants_scheme
CONSTANTS_SCHEME = "paired-anchors"

ROUNDTRIP_MAX_VARS = 10
ROUNDTRIP_MAX_CLAUSES = 15


class ConfigRejected(JrpError):
    """Constants configuration violates a build-time invariant."""


@dataclass(frozen=True)
class PrimePair:
    index: int      # 1-based variable index
    low: int        # false prime
    gap: int        # positive even spacing
    @property
    def high(self) -> int:  # true prime
        return self.low + self.gap


# Default alpha_v_bar is calibrated per variable count so that, at the
# final drift tolerance, flipping any variable to its high prime raises the
# variable-class cost by more than the largest cross-seed rate a clause can
# recover. Only n=1 and n=2 are calibrated; every larger n gets the
# uncalibrated fallback below.
_ALPHA_V_BAR_DEFAULTS = {
    1: Fraction(15827, 20000),
    2: Fraction(74617, 100000),
}
_ALPHA_V_BAR_FALLBACK = Fraction(147, 200)


@dataclass(frozen=True)
class ReductionConstants:
    alpha_c: Fraction = Fraction(1)
    alpha_v_bar: Optional[Fraction] = None   # None -> per-n calibrated default
    alpha_v: Fraction = Fraction(1, 10)
    alpha_n: Fraction = Fraction(1, 10)

    def resolved(self, n: int) -> "ReductionConstants":
        if self.alpha_v_bar is not None:
            return self
        return replace(self, alpha_v_bar=default_alpha_v_bar(n))


def default_alpha_v_bar(n: int) -> Fraction:
    return _ALPHA_V_BAR_DEFAULTS.get(n, _ALPHA_V_BAR_FALLBACK)


# ---------------------------------------------------------------------------
# primes

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The least strong pseudoprime to every base in _MR_BASES,
# 399165290221 * 798330580441: below it the test is a proof.
_MR_PROVEN_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the bases 2..37.

    Exact for every n < 318665857834031151167461 (`_MR_PROVEN_BOUND`), the
    least number that passes all twelve bases and is composite. Raises
    InputError for n at or above that bound rather than guess.
    """
    if n >= _MR_PROVEN_BOUND:
        raise InputError(
            f"is_prime is exact only below {_MR_PROVEN_BOUND}, got {n}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def select_prime_pairs(n: int) -> tuple[PrimePair, ...]:
    """First n twin-prime pairs starting at (11, 13); ascending and disjoint."""
    if n < 1:
        raise InputError(f"need at least one pair, got n={n}")
    pairs: list[PrimePair] = []
    candidate = 11
    while len(pairs) < n:
        if is_prime(candidate) and is_prime(candidate + 2):
            pairs.append(PrimePair(index=len(pairs) + 1, low=candidate, gap=2))
            candidate += 4
        else:
            candidate += 2
    return tuple(pairs)


def compute_delta(n: int, pairs: Sequence[PrimePair]) -> Fraction:
    """Drift tolerance 1/(6*n*p_high_n^6)."""
    if not pairs:
        raise InputError("compute_delta needs at least one pair")
    return Fraction(1, 6 * n * pairs[-1].high ** 6)


# ---------------------------------------------------------------------------
# commodity builders

def _anchored_commodity(t_star: int, delta: Fraction, cid: str,
                        kind: CommodityKind) -> Commodity:
    denom = delta * delta + 2 * delta
    return Commodity(id=cid, demand=Fraction(2),
                     holding=Fraction(1) / (denom * t_star * t_star),
                     setup=Fraction(1) / denom, kind=kind)


def build_constant_commodity(t_star: int, delta: Fraction,
                             cid: Optional[str] = None) -> Commodity:
    """Anchored commodity whose bracketing optima are exactly (t*, (1+d)t*)."""
    if t_star < 1:
        raise InputError(f"anchor target must be >= 1, got {t_star}")
    if delta <= 0:
        raise InputError(f"drift tolerance must be > 0, got {delta}")
    return _anchored_commodity(t_star, delta, cid or f"y@{t_star}",
                               CommodityKind.CONSTANT)


def clause_target(clause: Sequence[int], pairs: Sequence[PrimePair]) -> int:
    """Product of the three literal primes: negative -> low, positive -> high."""
    if len(clause) != 3 or len({abs(lit) for lit in clause}) != 3:
        raise InputError(f"clause {tuple(clause)} must use three distinct variables")
    target = 1
    for lit in clause:
        v = abs(lit)
        if lit == 0 or v > len(pairs):
            raise InputError(f"literal {lit} out of range for {len(pairs)} pairs")
        pair = pairs[v - 1]
        target *= pair.high if lit > 0 else pair.low
    return target


def build_clause_commodity(clause: Sequence[int], pairs: Sequence[PrimePair],
                           delta: Fraction,
                           cid: Optional[str] = None) -> Commodity:
    target = clause_target(clause, pairs)
    return _anchored_commodity(target, delta, cid or f"z@{target}",
                               CommodityKind.CLAUSE)


def build_variable_commodity(pair: PrimePair, constants: ReductionConstants,
                             cid: Optional[str] = None) -> Commodity:
    """Choice commodity whose standalone optimum falls strictly between the
    pair's primes, with the high prime dearer by a calibrated sliver."""
    if constants.alpha_v_bar is None:
        raise InputError("alpha_v_bar unresolved; call ReductionConstants.resolved(n)")
    lo, b, hi = pair.low, pair.gap, pair.high
    if b <= 0 or b % 2:
        raise InputError(f"pair spacing must be positive and even, got {b}")
    half = Fraction(b, 2)
    h = constants.alpha_c * (lo * lo - b * b) / (lo * (lo + half) * half)
    if h <= 0:
        raise ConfigRejected(f"pair ({lo},{hi}): holding cost not positive")
    k = h * lo * hi - Fraction(hi, hi - 1) * constants.alpha_c * constants.alpha_v_bar
    if k <= 0:
        raise ConfigRejected(
            f"pair ({lo},{hi}): alpha_v_bar={constants.alpha_v_bar} drives the "
            f"setup cost to {k} <= 0")
    t2 = k / h
    if not (lo * lo < t2 < hi * hi):
        raise ConfigRejected(
            f"pair ({lo},{hi}): standalone optimum t*^2={t2} leaves "
            f"({lo}^2, {hi}^2)")
    return Commodity(id=cid or f"x{pair.index}", demand=Fraction(2), holding=h,
                     setup=k, kind=CommodityKind.VARIABLE)


# ---------------------------------------------------------------------------
# the reduction

@dataclass(frozen=True)
class ReductionOutput:
    instance: Instance
    pairs: tuple[PrimePair, ...]
    delta: Fraction
    literal_map: Mapping[int, tuple[int, int]]      # var index -> (low, high)
    clause_targets: Mapping[int, int]               # clause index (1-based) -> t*
    alpha: ReductionConstants                       # resolved values
    anchor_targets: Mapping[str, int]               # constant/clause id -> t*

    def variable_id(self, i: int) -> str:
        return f"x{i}"


def reduce_formula(formula: CnfFormula,
                   constants: Optional[ReductionConstants] = None) -> ReductionOutput:
    """Build the instance for a 3SAT formula; joint setup 1, every demand 2."""
    shape = validate_3sat(formula)
    if not shape.ok:
        raise InputError("; ".join(shape.findings))
    n = formula.n_vars
    if n < 1:
        raise InputError("formula must have at least one variable")
    alpha = (constants or ReductionConstants()).resolved(n)
    pairs = select_prime_pairs(n)
    delta = compute_delta(n, pairs)
    for name in ("alpha_c", "alpha_v", "alpha_n", "alpha_v_bar"):
        if getattr(alpha, name) <= 0:
            raise ConfigRejected(f"{name} must be > 0, got {getattr(alpha, name)}")
    commodities: list[Commodity] = []
    anchor_targets: dict[str, int] = {}

    # y1 = 7*p_low_1, y2 = 7*p_high_1, y3 = 7*p_low_2, ...
    anchors = (_ANCHOR_PRIME * p for pair in pairs for p in (pair.low, pair.high))
    for idx, t_star in enumerate(anchors, start=1):
        cid = f"y{idx}"
        commodities.append(build_constant_commodity(t_star, delta, cid=cid))
        anchor_targets[cid] = t_star

    for pair in pairs:
        commodities.append(build_variable_commodity(pair, alpha))

    clause_targets: dict[int, int] = {}
    for j, clause in enumerate(formula.clauses, start=1):
        cid = f"z{j}"
        target = clause_target(clause, pairs)
        commodities.append(
            _anchored_commodity(target, delta, cid, CommodityKind.CLAUSE))
        clause_targets[j] = target
        anchor_targets[cid] = target

    instance = Instance(
        commodities=tuple(commodities),
        joint_setup=Fraction(1),
        meta=_meta_dict(pairs, delta, clause_targets, alpha),
    )
    return ReductionOutput(
        instance=instance,
        pairs=pairs,
        delta=delta,
        literal_map={p.index: (p.low, p.high) for p in pairs},
        clause_targets=clause_targets,
        alpha=alpha,
        anchor_targets=anchor_targets,
    )


def _meta_dict(pairs, delta, clause_targets, alpha) -> dict:
    return {
        "delta": format_rational(delta),
        "pairs": [[p.low, p.gap, p.high] for p in pairs],
        "literal_map": {str(p.index): [p.low, p.high] for p in pairs},
        "clause_targets": {str(j): t for j, t in clause_targets.items()},
        "constants_scheme": CONSTANTS_SCHEME,
        "alpha": {
            "alpha_c": format_rational(alpha.alpha_c),
            "alpha_v_bar": format_rational(alpha.alpha_v_bar),
            "alpha_v": format_rational(alpha.alpha_v),
            "alpha_n": format_rational(alpha.alpha_n),
        },
    }


def reduction_to_json(output: ReductionOutput) -> bytes:
    return save_instance(output.instance)


def _meta_get(obj, key: str, where: str):
    if not isinstance(obj, dict):
        raise InputError(f"reduction JSON {where} must be an object")
    if key not in obj:
        raise InputError(f"reduction JSON {where} missing {key!r}")
    return obj[key]


def _meta_int(value, where: str) -> int:
    """An integer, or the decimal text of one (object keys are text)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise InputError(f"{where}: expected an integer, got {value!r}")


def _same_json(a, b) -> bool:
    """Equal as JSON values: 1.0 is not 1 and true is not 1. Stops at the
    first difference in type, so it never descends deeper than b."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_json(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_json, a, b))
    return a == b


def reduction_from_json(data: bytes | str) -> ReductionOutput:
    """Load a reduction document: the inverse of reduce_formula.

    meta gives only what the construction cannot derive, the four alpha
    values and the clause targets. n is the number of variable commodities,
    and each target is read back as the three literals whose primes over
    select_prime_pairs(n) divide it. The formula is rebuilt through
    reduce_formula, and the document is refused, naming the first
    difference, unless its commodities (by id), its k0 and its whole meta
    (key by key, as JSON values) equal the rebuild's. The output keeps the
    loaded instance, in the document's commodity order.
    """
    instance = load_instance(data)
    meta = instance.meta
    if not isinstance(meta, dict):
        raise InputError("reduction JSON missing 'meta' object")
    raw_alpha = _meta_get(meta, "alpha", "meta")
    raw_targets = _meta_get(meta, "clause_targets", "meta")
    alpha = ReductionConstants(**{
        name: parse_rational(_meta_get(raw_alpha, name, "meta.alpha"),
                             where=f"meta.alpha.{name}")
        for name in ("alpha_c", "alpha_v_bar", "alpha_v", "alpha_n")})
    if not isinstance(raw_targets, dict):
        raise InputError("meta.clause_targets must be an object")
    m = len(raw_targets)
    targets = {
        _meta_int(j, "meta.clause_targets"): _meta_int(t, f"meta.clause_targets[{j!r}]")
        for j, t in raw_targets.items()}
    if len(targets) != m or set(targets) != set(range(1, m + 1)):
        raise InputError(
            f"meta.clause_targets must map 1..{m}, got keys {sorted(raw_targets)}")
    n = sum(c.kind is CommodityKind.VARIABLE for c in instance.commodities)
    pairs = select_prime_pairs(n)
    clauses = []
    for j in range(1, m + 1):
        # the literals whose prime divides the target
        clause = tuple(sign * p.index for p in pairs
                       for sign, q in ((-1, p.low), (1, p.high))
                       if targets[j] % q == 0)
        if len(clause) != 3 or len({abs(lit) for lit in clause}) != 3 \
                or clause_target(clause, pairs) != targets[j]:
            raise InputError(
                f"meta.clause_targets must map 1..{m} to products of three "
                f"literal primes of distinct pairs, got {targets[j]} for {j}")
        clauses.append(clause)
    try:
        rebuilt = reduce_formula(CnfFormula(n, tuple(clauses)), alpha)
    except ConfigRejected as exc:
        raise InputError(str(exc)) from None
    loaded = {c.id: c for c in instance.commodities}
    built = {c.id: c for c in rebuilt.instance.commodities}
    for cid in dict.fromkeys([*built, *loaded]):
        if loaded.get(cid) != built.get(cid):
            raise InputError(f"commodity {cid!r} differs from the construction's")
    if instance.joint_setup != rebuilt.instance.joint_setup:
        raise InputError(
            f"k0 {instance.joint_setup} differs from the construction's "
            f"{rebuilt.instance.joint_setup}")
    built_meta = rebuilt.instance.meta
    for key in dict.fromkeys([*built_meta, *meta]):
        if not (key in meta and key in built_meta
                and _same_json(meta[key], built_meta[key])):
            raise InputError(f"meta.{key} differs from the construction's")
    return replace(rebuilt, instance=instance)


# ---------------------------------------------------------------------------
# assignments <-> policies

def _check_beta(output: ReductionOutput, beta: Fraction) -> Fraction:
    beta = Fraction(beta)
    if not 1 <= beta <= 1 + output.delta:
        raise InputError(
            f"seed {beta} outside [1, 1 + {output.delta}]")
    return beta


def assignment_to_policy(output: ReductionOutput, assignment: Sequence[bool],
                         beta: Fraction = Fraction(1)) -> Policy:
    """Variables at beta times their truth prime; anchors at beta times t*."""
    beta = _check_beta(output, beta)
    if len(assignment) != len(output.pairs):
        raise InputError(
            f"assignment length {len(assignment)} != {len(output.pairs)} variables")
    cycles: dict[str, Fraction] = {}
    for pair, value in zip(output.pairs, assignment):
        prime = pair.high if value else pair.low
        cycles[output.variable_id(pair.index)] = beta * prime
    for cid, target in output.anchor_targets.items():
        cycles[cid] = beta * target
    return Policy(cycles)


def policy_to_assignment(output: ReductionOutput,
                         policy: Policy) -> tuple[tuple[bool, ...], Fraction]:
    """Invert assignment_to_policy; rejects policies of any other shape."""
    if not output.anchor_targets:
        raise InputError("reduction has no anchor commodities to infer the seed")
    anchor_id, target = next(iter(output.anchor_targets.items()))
    beta = policy.cycle(anchor_id) / target
    if beta <= 0:
        raise InputError("inferred seed is not positive")
    for cid, t in output.anchor_targets.items():
        if policy.cycle(cid) != beta * t:
            raise InputError(f"anchor {cid!r} is not at the common seed")
    assignment: list[bool] = []
    for pair in output.pairs:
        t = policy.cycle(output.variable_id(pair.index))
        if t == beta * pair.low:
            assignment.append(False)
        elif t == beta * pair.high:
            assignment.append(True)
        else:
            raise InputError(
                f"variable x{pair.index} cycles at {t}, which is neither seed "
                f"times {pair.low} nor seed times {pair.high}")
    return tuple(assignment), beta


def clause_synchronized(output: ReductionOutput, policy: Policy,
                        clause_index: int) -> bool:
    """True iff some variable's integer cycle divides the clause target."""
    if clause_index not in output.clause_targets:
        raise InputError(f"no clause with index {clause_index}")
    _assignment, beta = policy_to_assignment(output, policy)
    target = output.clause_targets[clause_index]
    for pair in output.pairs:
        q = policy.cycle(output.variable_id(pair.index)) / beta
        if q.denominator == 1 and target % q.numerator == 0:
            return True
    return False


# ---------------------------------------------------------------------------
# desk-scale verification

def _thread_count() -> int:
    raw = os.environ.get("JRP_FORGE_THREADS", "")
    try:
        return max(1, int(raw)) if raw else 1
    except ValueError:
        return 1


def _map_assignments(fn, assignments):
    workers = _thread_count()
    if workers == 1:
        return [fn(a) for a in assignments]
    # imported here: the module (and the logging it pulls in) is needed only
    # for a pool, and costs about 1 MB of resident memory at import
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, assignments))


@dataclass(frozen=True)
class RoundtripReport:
    satisfiable: bool
    sat_assignment: Optional[tuple[bool, ...]]
    argmin_assignment: tuple[bool, ...]
    argmin_cost: Fraction
    argmin_synchronizes_all: bool
    verdict_consistent: bool       # argmin_synchronizes_all == satisfiable
    gap: Optional[Fraction]        # best violating cost - best synchronized cost
    n_assignments: int
    scope: str


class _AssignmentTables:
    """Price one reduction's assignment policies at seed 1 without building
    a policy.

    At seed 1 every cycle of an assignment policy is an integer (the anchor
    and clause targets and the chosen primes), so the policy is a
    multiplier profile at beta = 1, priced exactly by cost's shared
    _profile_pricer as (a + b*H) / (S*H), S the scale of the costs. One
    profile template holds the targets at their commodities' positions and
    a slot per variable for its chosen prime. A clause is synchronized when
    a chosen prime divides its target; each clause keeps two bit masks
    (variable i at bit n-1-i, as in the scan order) of the variables whose
    high, and whose low, prime divides it.
    """

    def __init__(self, output: ReductionOutput, cap: int | None):
        instance = output.instance
        self.scaled = _scaled_costs(instance)
        self.pricer = _profile_pricer(self.scaled, cap)
        position = {cid: i for i, cid in enumerate(instance.ids())}
        self.template = [0] * len(position)
        for cid, target in output.anchor_targets.items():
            self.template[position[cid]] = target
        self.slots = tuple(position[output.variable_id(p.index)]
                           for p in output.pairs)
        self.primes = tuple((p.low, p.high) for p in output.pairs)
        bits = [1 << i for i in reversed(range(len(self.primes)))]
        self.clause_masks = tuple(
            (sum(b for b, (_, high) in zip(bits, self.primes) if t % high == 0),
             sum(b for b, (low, _) in zip(bits, self.primes) if t % low == 0))
            for t in output.clause_targets.values())

    def price(self, assignment: Sequence[bool]) -> tuple[Fraction, bool]:
        """Exact total cost of the assignment's policy, and whether it
        synchronizes every clause."""
        ks = self.template.copy()
        for slot, pair, v in zip(self.slots, self.primes, assignment):
            ks[slot] = pair[v]
        a, b, h = self.pricer(tuple(ks))
        cost = Fraction(a + b * h, self.scaled.scale * h)
        mask = 0
        for v in assignment:
            mask = 2 * mask + v
        synced = all(mask & high or ~mask & low for high, low in self.clause_masks)
        return cost, synced


def verify_roundtrip(formula: CnfFormula,
                     constants: Optional[ReductionConstants] = None,
                     cap: int | None = None) -> RoundtripReport:
    """Compare the assignment-policy argmin against the brute-force verdict.

    Scans all 2^n assignment policies at seed 1. The scan covers assignment
    policies only, not the continuous policy space; the report says so.
    Per-formula tables price each assignment through cost's integer profile
    pricer and test its clauses from the assignment bits, with no policy
    built. The report's costs come from at most two rows, the argmin and the
    cheapest row of the other kind (synchronized or violating); those rows
    are priced again through assignment_to_policy, total_cost and
    clause_synchronized, so a disagreement between the shared pricer and
    total_cost raises RuntimeError.
    """
    if formula.n_vars > ROUNDTRIP_MAX_VARS:
        raise CapExceeded(
            f"{formula.n_vars} variables exceeds the round-trip cap of "
            f"{ROUNDTRIP_MAX_VARS}")
    if len(formula.clauses) > ROUNDTRIP_MAX_CLAUSES:
        raise CapExceeded(
            f"{len(formula.clauses)} clauses exceeds the round-trip cap of "
            f"{ROUNDTRIP_MAX_CLAUSES}")
    output = reduce_formula(formula, constants)
    sat_assignment = brute_force_sat(formula)
    tables = _AssignmentTables(output, cap)

    # the cheapest row of each kind (synchronized or not), first on ties
    best: dict[bool, tuple[Fraction, tuple[bool, ...]]] = {}
    assignments = list(product((False, True), repeat=formula.n_vars))
    for assignment in assignments:
        cost, synced = tables.price(assignment)
        if synced not in best or cost < best[synced][0]:
            best[synced] = (cost, assignment)
    kinds = sorted(best, key=best.__getitem__)      # the argmin's kind first

    def reprice(assignment: tuple[bool, ...]):
        policy = assignment_to_policy(output, assignment)
        cost = total_cost(output.instance, policy, cap=cap).total
        synced = all(clause_synchronized(output, policy, j)
                     for j in output.clause_targets)
        return cost, synced

    repriced = _map_assignments(reprice, [best[kind][1] for kind in kinds])
    for kind, row in zip(kinds, repriced):
        if row != (best[kind][0], kind):
            raise RuntimeError(
                f"assignment tables priced {best[kind][1]} as "
                f"{(best[kind][0], kind)}, total_cost as {row}")

    argmin_cost, argmin = best[kinds[0]]
    gap = best[False][0] - best[True][0] if len(best) == 2 else None
    return RoundtripReport(
        satisfiable=sat_assignment is not None,
        sat_assignment=sat_assignment,
        argmin_assignment=argmin,
        argmin_cost=argmin_cost,
        argmin_synchronizes_all=kinds[0],
        verdict_consistent=kinds[0] == (sat_assignment is not None),
        gap=gap,
        n_assignments=len(assignments),
        scope="assignment policies at seed 1 only; the continuous policy "
              "space is out of scope",
    )


@dataclass(frozen=True)
class GapReport:
    beta: Fraction
    tc_variables_low: Fraction     # all variables at their low primes
    tc_variables_high: Fraction    # all variables at their high primes
    lb_term: Fraction              # K0*alpha_v*alpha_n/(beta*t_z)
    margin: Fraction               # tc_low - tc_high + lb_term
    target: Fraction               # discrete at beta=1, else continuous
    passed: bool
    lemma_directions: tuple[tuple[str, bool], ...]

    @property
    def lemma_ok(self) -> bool:
        return all(ok for _, ok in self.lemma_directions)


def _tc_variables(output: ReductionOutput, assignment: Sequence[bool],
                  beta: Fraction, cap: int | None) -> Fraction:
    policy = assignment_to_policy(output, assignment, beta)
    breakdown = decompose(output.instance, policy, cap=cap)
    assert breakdown.tc_variables is not None
    return breakdown.tc_variables


def check_gap_inequality(output: ReductionOutput, beta: Fraction,
                         cap: int | None = None) -> GapReport:
    """Exact margin of the all-low vs all-high variable-class comparison.

    margin = TC_Variables(all-low) - TC_Variables(all-high) + LB, where LB
    is the calibrated floor on the rate a clause could recover by aligning
    with a flipped variable. At seed 1 the margin is held against
    1/p_high_n^6; inside the drift window against a quarter of that. When
    the instance has no clauses, LB uses the synthetic worst-case target
    p_high_n^3 (the largest any clause could have).
    """
    beta = _check_beta(output, beta)
    n = len(output.pairs)
    all_low = (False,) * n
    all_high = (True,) * n
    tc_low = _tc_variables(output, all_low, beta, cap)
    tc_high = _tc_variables(output, all_high, beta, cap)

    p_max = output.pairs[-1].high
    t_z = max(output.clause_targets.values()) if output.clause_targets \
        else p_max ** 3
    lb = (output.instance.joint_setup * output.alpha.alpha_v
          * output.alpha.alpha_n / (beta * t_z))
    margin = tc_low - tc_high + lb
    target = Fraction(1, p_max ** 6) if beta == 1 else Fraction(1, 4 * p_max ** 6)

    directions = []
    for i, pair in enumerate(output.pairs):
        context = list(all_low)
        context[i] = True
        flipped = _tc_variables(output, context, beta, cap)
        directions.append((output.variable_id(pair.index), tc_low < flipped))
    return GapReport(
        beta=beta,
        tc_variables_low=tc_low,
        tc_variables_high=tc_high,
        lb_term=lb,
        margin=margin,
        target=target,
        passed=margin > target,
        lemma_directions=tuple(directions),
    )
