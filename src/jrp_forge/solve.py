"""Policy search: seed scaling, exhaustive profiles, descent, power-of-two.

Every winner is selected with exact rational comparisons. Optima of the form
2*sqrt(A*B) are compared through A*B (and against rational endpoint costs
through squares), so ties break deterministically and never through floats.
exhaustive_search compares profiles as plain integers: a*b over each
profile's hyperperiod lcm(ks), with no Fraction and no square root until the
final refinement of the winning seed. power_of_two rounds to exponents by
integer bit lengths and builds its base grid from exact integer roots.
coordinate_descent prices each trial move incrementally: only the moved
cycle's standalone cost and the union rate change, and the other cycles are
scaled and pruned once per commodity.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Mapping, Optional, Union

from . import sync
from .cost import CostBreakdown, seed_cost, total_cost
from .eoq import optimal_cycle, sqrt_fraction, standalone_cost
from .model import (
    InputError,
    Instance,
    Policy,
    SeedProfile,
    expand_profile,
)

DEFAULT_PROFILE_CAP = 1_000_000

ProfileLike = Union[SeedProfile, Mapping[str, int]]
Interval = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class SolveResult:
    policy: Policy
    cost: CostBreakdown
    method: str
    nodes_explored: int
    wall_time: float


# ---------------------------------------------------------------------------
# exact comparison of per-profile optima

@dataclass(frozen=True)
class _Cand:
    kind: str        # "sqrt": value = A*B, cost 2*sqrt(A*B); "rat": value = cost
    value: Fraction


def _cand_lt(a: _Cand, b: _Cand) -> bool:
    if a.kind == b.kind:
        return a.value < b.value
    if a.kind == "sqrt":  # 2*sqrt(ab) < r  <=>  4*ab < r*r  (costs positive)
        return 4 * a.value < b.value * b.value
    return a.value * a.value < 4 * b.value


def _scaled_lt(x: tuple[bool, int, int], y: tuple[bool, int, int],
               dsb: int) -> bool:
    """x < y for integer candidates (root, p, q) of one exhaustive scan.

    A root candidate costs 2*sqrt(A*B) with A*B = p / (q*dsb); any other
    costs the rational p/q. Every integer is positive, so cross-multiplying
    (and squaring across kinds) keeps the order exact.
    """
    x_root, xp, xq = x
    y_root, yp, yq = y
    if x_root == y_root:
        return xp * yq < yp * xq
    if x_root:   # 2*sqrt(xp/(xq*dsb)) < yp/yq  <=>  4*xp*yq^2 < yp^2*xq*dsb
        return 4 * xp * yq * yq < yp * yp * xq * dsb
    return xp * xp * yq * dsb < 4 * yp * xq * xq


def _normalize_interval(seed_interval) -> Optional[Interval]:
    if seed_interval is None:
        return None
    lo, hi = seed_interval
    lo, hi = Fraction(lo), Fraction(hi)
    if lo <= 0 or hi < lo:
        raise InputError(f"seed interval must satisfy 0 < lo <= hi, got [{lo}, {hi}]")
    return lo, hi


def _multipliers(profile: ProfileLike) -> dict[str, int]:
    return dict(profile.multipliers) if isinstance(profile, SeedProfile) else dict(profile)


def _best_seed(a: Fraction, b: Fraction,
               interval: Optional[Interval]) -> tuple[Fraction, str, bool]:
    """Minimizer of a/beta + b*beta over the interval (or over beta > 0)."""
    b2 = a / b
    if interval is not None:
        lo, hi = interval
        if b2 <= lo * lo:
            return lo, "clamped-lo", True
        if b2 >= hi * hi:
            return hi, "clamped-hi", True
    root, exact = sqrt_fraction(b2)
    return root, "interior", exact


def optimize_seed(instance: Instance, profile: ProfileLike,
                  seed_interval=None, cap: int | None = None) -> SolveResult:
    """Best common seed for a fixed multiplier profile.

    cost(beta) = A/beta + B*beta is convex; the interior optimum is
    beta* = sqrt(A/B) with cost 2*sqrt(A*B), exact whenever A/B is a perfect
    rational square and otherwise refined to relative error far below 1e-12.
    An interval clamps to the nearer endpoint, where the cost is exact.
    """
    t0 = time.perf_counter()
    if not instance.commodities:
        raise InputError("cannot optimize an empty instance")
    interval = _normalize_interval(seed_interval)
    mult = _multipliers(profile)
    a, b = seed_cost(instance, SeedProfile(mult), cap=cap)
    beta, where, exact = _best_seed(a, b, interval)
    if where == "interior":
        method = "seed(exact)" if exact else "seed(refined)"
    else:
        method = f"seed({where})"
    policy = expand_profile(SeedProfile(mult, beta))
    breakdown = total_cost(instance, policy, cap=cap)
    return SolveResult(policy, breakdown, method, 1, time.perf_counter() - t0)


def _bounds_map(instance: Instance, k_bounds) -> dict[str, tuple[int, int]]:
    if isinstance(k_bounds, tuple) and len(k_bounds) == 2 \
            and all(isinstance(x, int) for x in k_bounds):
        k_bounds = {cid: k_bounds for cid in instance.ids()}
    out = {}
    for cid in instance.ids():
        if cid not in k_bounds:
            raise InputError(f"k_bounds missing commodity {cid!r}")
        lo, hi = k_bounds[cid]
        if not (isinstance(lo, int) and isinstance(hi, int)) or lo < 1 or hi < lo:
            raise InputError(f"k_bounds for {cid!r} must be integers 1 <= lo <= hi")
        out[cid] = (lo, hi)
    return out


def exhaustive_search(instance: Instance, k_bounds,
                      seed_interval=None,
                      profile_cap: int = DEFAULT_PROFILE_CAP,
                      cap: int | None = None) -> SolveResult:
    """Enumerate every multiplier profile in the bounds, optimize each seed.

    Profiles are scanned in lexicographic order over the instance's commodity
    order, so cost ties keep the lexicographically smallest profile.

    The scan is exact integer arithmetic. With D and SB the lcms of the setup
    denominators (K0 included) and of the holding-weight denominators, and
    H = lcm(ks) the profile's hyperperiod, a = A*D*H and b = B*SB are
    integers and A*B = a*b / (D*SB*H); interior optima compare by
    cross-multiplying a*b with the other profile's H. A seed interval's
    clamp tests and endpoint costs stay integer fractions as well. Only the
    winning profile's seed is refined, by optimize_seed.
    """
    t0 = time.perf_counter()
    if not instance.commodities:
        raise InputError("cannot optimize an empty instance")
    interval = _normalize_interval(seed_interval)
    bounds = _bounds_map(instance, k_bounds)
    n_profiles = 1
    for lo, hi in bounds.values():
        n_profiles *= hi - lo + 1
    if n_profiles > profile_cap:
        raise sync.CapExceeded(
            f"{n_profiles} profiles exceed the cap of {profile_cap}")

    ids = instance.ids()
    k0 = instance.joint_setup
    setups = [c.setup for c in instance.commodities]
    weights = [c.demand * c.holding / 2 for c in instance.commodities]
    d = lcm(k0.denominator, *(s.denominator for s in setups))
    sb = lcm(*(w.denominator for w in weights))
    k0_int = k0.numerator * (d // k0.denominator)
    setup_ints = [s.numerator * (d // s.denominator) for s in setups]
    weight_ints = [w.numerator * (sb // w.denominator) for w in weights]
    dsb = d * sb
    joint_cache: dict[frozenset[int], tuple[int, int]] = {}

    def joint_term(ks: tuple[int, ...]) -> tuple[int, int]:
        """(K0 * UJR(ks) * D * H, H) with H = lcm(ks)."""
        key = frozenset(ks)
        val = joint_cache.get(key)
        if val is None:
            rate = sync.ujr(key, cap=cap)
            h = lcm(*key)
            val = joint_cache[key] = (
                k0_int * rate.numerator * (h // rate.denominator), h)
        return val

    if interval is not None:
        (lo_n, lo_m), (hi_n, hi_m) = (q.as_integer_ratio() for q in interval)
    best: Optional[tuple[bool, int, int]] = None
    best_profile: Optional[tuple[int, ...]] = None
    ranges = [range(lo, hi + 1) for lo, hi in (bounds[cid] for cid in ids)]
    for ks in itertools.product(*ranges):
        joint, h = joint_term(ks)
        a = joint       # A * D * H
        b = 0           # B * SB
        for setup, weight, k in zip(setup_ints, weight_ints, ks):
            a += setup * (h // k)
            b += weight * k
        cand = (True, a * b, h)
        if interval is not None:
            x, y = a * sb, b * d * h                    # A/B = x/y
            if x * lo_m * lo_m <= y * lo_n * lo_n:      # A/B <= lo^2
                cand = (False, x * lo_m * lo_m + y * lo_n * lo_n,
                        lo_n * lo_m * dsb * h)
            elif x * hi_m * hi_m >= y * hi_n * hi_n:    # A/B >= hi^2
                cand = (False, x * hi_m * hi_m + y * hi_n * hi_n,
                        hi_n * hi_m * dsb * h)
        if best is None or _scaled_lt(cand, best, dsb):
            best, best_profile = cand, ks

    assert best_profile is not None
    refined = optimize_seed(instance, dict(zip(ids, best_profile)),
                            seed_interval=interval, cap=cap)
    return SolveResult(refined.policy, refined.cost, "exhaustive",
                       n_profiles, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# coordinate descent

CandidateFn = Callable[[Instance, Policy, str], Iterable[Fraction]]


def default_candidates(instance: Instance, policy: Policy,
                       cid: str) -> set[Fraction]:
    """Integer cycles near the standalone optimum plus small multiples and
    unit fractions of the other commodities' current cycles."""
    c = instance.commodity(cid)
    tstar = optimal_cycle(c).cycle
    floor_t = tstar.numerator // tstar.denominator
    cands: set[Fraction] = set()
    for k in range(max(1, floor_t - 2), floor_t + 3):
        cands.add(Fraction(k))
    for other, t in policy.cycles.items():
        if other == cid:
            continue
        for m in (1, 2, 3, 4):
            cands.add(t * m)
            cands.add(t / m)
    return cands


def _default_start(instance: Instance) -> Policy:
    cycles = {}
    for c in instance.commodities:
        tstar = optimal_cycle(c).cycle
        floor_t = max(1, tstar.numerator // tstar.denominator)
        lo, hi = Fraction(floor_t), Fraction(floor_t + 1)
        cycles[c.id] = lo if standalone_cost(c, lo) <= standalone_cost(c, hi) else hi
    return Policy(cycles)


def coordinate_descent(instance: Instance, start: Optional[Policy] = None,
                       candidate_fn: Optional[CandidateFn] = None,
                       max_rounds: int = 100,
                       cap: int | None = None) -> SolveResult:
    """Cycle-by-cycle improvement until a full pass finds nothing better.

    Each commodity in turn is moved to the exact-cost-minimizing candidate
    (ties broken toward the smaller cycle) while the others stay fixed. The
    cost sequence is strictly decreasing, so termination is guaranteed.

    A trial changes one cycle, so it is priced incrementally and exactly:
    rest + K/t + w*t + K0*UJR, where rest is the other commodities' fixed
    standalone cost and the union rate comes from sync._ujr_with, which
    scales and prunes the other cycles once per commodity. The start policy
    and every accepted move go through total_cost.
    """
    t0 = time.perf_counter()
    if not instance.commodities:
        raise InputError("cannot optimize an empty instance")
    if candidate_fn is None:
        candidate_fn = default_candidates
    policy = start if start is not None else _default_start(instance)
    current = total_cost(instance, policy, cap=cap)
    k0 = instance.joint_setup
    # g summed over the commodities sharing an id: K/t + w*t
    setup_weight: dict[str, tuple[Fraction, Fraction]] = {}
    for c in instance.commodities:
        k, w = setup_weight.get(c.id, (Fraction(0), Fraction(0)))
        setup_weight[c.id] = (k + c.setup, w + c.demand * c.holding / 2)
    nodes = 1
    for _ in range(max_rounds):
        improved = False
        for cid in instance.ids():
            k, w = setup_weight[cid]
            t_now = policy.cycle(cid)
            rest = current.standalone_total - (k / t_now + w * t_now)
            rate = sync._ujr_with([policy.cycle(c.id) for c in instance.commodities
                                   if c.id != cid], cap)
            best_t = t_now
            best_total = current.total
            for t in sorted(set(candidate_fn(instance, policy, cid))):
                if t <= 0 or t == t_now:
                    continue
                nodes += 1
                trial_total = rest + k / t + w * t + k0 * rate(t)
                if trial_total < best_total or (
                        trial_total == best_total and t < best_t):
                    best_t, best_total = t, trial_total
            if best_total < current.total:
                policy = Policy({**policy.cycles, cid: best_t})
                current = total_cost(instance, policy, cap=cap)
                improved = True
        if not improved:
            break
    return SolveResult(policy, current, "descent", nodes,
                       time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# power-of-two policies

def _ceil_log2(p: int, q: int) -> int:
    """Smallest integer e with p <= q * 2**e, for positive integers p, q."""
    e = p.bit_length() - q.bit_length()     # 2^(e-1) < p/q < 2^(e+1)
    fits = p <= q << e if e >= 0 else p << -e <= q
    return e if fits else e + 1


def _pot_exponent(t_sq: Fraction, base_sq: Fraction) -> int:
    """m with base*2^m in [t/sqrt(2), t*sqrt(2)), from t^2 and base^2.

    m is the smallest integer with r = t^2/base^2 <= 2*4^m. For a
    commodity's standalone optimum t* this is the exact g-minimizing
    exponent, ties going to the smaller m: g(x) <= g(2x) iff x^2 >= t*^2/2.
    """
    return _ceil_log2(t_sq.numerator * base_sq.denominator,
                      t_sq.denominator * base_sq.numerator) // 2


_GRID_BITS = 24     # power_of_two's base grid steps are multiples of 2^-24
# _grid_step raises a 26-bit integer to the grid-th power for every step, so
# the base table costs more than linearly in the grid
MAX_GRID = 1024


def _grid_step(j: int, grid: int) -> int:
    """round(2**(24 + j/grid)) exactly, without libm.

    The result x is the integer with (2x-1)^grid <= 2^(25*grid + j)
    < (2x+1)^grid; the root is never a half-integer, so no tie arises. The
    float only picks where the search starts: the loops make the result
    exact whatever libm returns.
    """
    k = grid * (_GRID_BITS + 1) + j
    x = round(2 ** (j / grid) * 2 ** _GRID_BITS)
    # the powers of odd 2x+-1 are never 2^k, so bit lengths decide exactly
    while ((2 * x + 1) ** grid).bit_length() <= k:
        x += 1
    while ((2 * x - 1) ** grid).bit_length() > k:
        x -= 1
    return x


def _cluster_target_squares(instance: Instance) -> dict[str, Fraction]:
    """Squared cycle targets from the joint-setup relaxation.

    The joint cost is bounded below by the joint setup paid at the most
    frequent commodity's rate.  Minimizing that relaxation glues the
    commodities with the smallest standalone optima onto one shared cycle
    that carries the joint setup; the rest keep their standalone optima.
    The cluster grows greedily in ascending t* order while the next
    standalone optimum still undercuts the running shared cycle.
    """
    hs = {c.id: c.demand * c.holding / 2 for c in instance.commodities}
    t_sq = {c.id: c.setup / hs[c.id] for c in instance.commodities}
    order = sorted(instance.ids(), key=lambda cid: t_sq[cid])
    by_id = {c.id: c for c in instance.commodities}
    sum_k = instance.joint_setup + by_id[order[0]].setup
    sum_h = hs[order[0]]
    cluster = 1
    for cid in order[1:]:
        if t_sq[cid] >= sum_k / sum_h:
            break
        sum_k += by_id[cid].setup
        sum_h += hs[cid]
        cluster += 1
    shared_sq = sum_k / sum_h
    return {cid: shared_sq if i < cluster else t_sq[cid]
            for i, cid in enumerate(order)}


def power_of_two(instance: Instance, base: Fraction = Fraction(1),
                 optimize_base: bool = False, grid: int = 64,
                 cap: int | None = None) -> SolveResult:
    """Restrict every cycle to base*2^m with integer m.

    With a fixed base each commodity's exponent minimizes its standalone
    cost exactly (rounding log2(t*/base), half-points rounding down), found
    from bit lengths of t*^2/base^2. With optimize_base=True, `grid` bases
    base * round(2^(j/grid)) (to 24 bits, exactly rounded integer roots)
    spanning one octave above `base` are tried; for each base two exponent
    patterns are formed — one rounding the standalone optima, one rounding
    the joint-setup relaxation targets, which share one cycle across the
    cluster of most frequent commodities — and every distinct pattern is
    reduced to an integer multiplier profile whose common seed is then
    optimized exactly, so the returned policy is the best seed-scaled
    power-of-two pattern seen. `grid` must lie in 1..MAX_GRID; outside it
    InputError is raised.
    """
    t0 = time.perf_counter()
    if not instance.commodities:
        raise InputError("cannot optimize an empty instance")
    base = Fraction(base)
    if base <= 0:
        raise InputError(f"base must be > 0, got {base}")
    # t*^2 = K/w with w = lambda*h/2
    weights = [c.demand * c.holding / 2 for c in instance.commodities]

    if not optimize_base:
        base_sq = base * base
        cycles = {c.id: base * Fraction(2) ** _pot_exponent(c.setup / w, base_sq)
                  for c, w in zip(instance.commodities, weights)}
        policy = Policy(cycles)
        return SolveResult(policy, total_cost(instance, policy, cap=cap),
                           f"pot(base={base})", len(cycles),
                           time.perf_counter() - t0)

    if grid < 1:
        raise InputError(f"grid must be >= 1, got {grid}")
    if grid > MAX_GRID:
        raise InputError(f"grid must be <= {MAX_GRID}, got {grid}")
    targets = _cluster_target_squares(instance)
    standalone_sqs = [c.setup / w for c, w in zip(instance.commodities, weights)]
    target_sqs = [targets[cid] for cid in instance.ids()]
    seen: set[tuple[int, ...]] = set()
    best: Optional[_Cand] = None
    best_profile: Optional[dict[str, int]] = None
    for j in range(grid):
        step = Fraction(_grid_step(j, grid), 2 ** _GRID_BITS)
        b_j = base * step
        b_sq = b_j * b_j
        patterns = (
            [_pot_exponent(t_sq, b_sq) for t_sq in standalone_sqs],
            [_pot_exponent(t_sq, b_sq) for t_sq in target_sqs],
        )
        for exps in patterns:
            m_min = min(exps)
            ks = tuple(2 ** (m - m_min) for m in exps)
            if ks in seen:
                continue
            seen.add(ks)
            profile = dict(zip(instance.ids(), ks))
            a, b = seed_cost(instance, SeedProfile(profile), cap=cap)
            cand = _Cand("sqrt", a * b)
            if best is None or _cand_lt(cand, best):
                best, best_profile = cand, profile

    assert best_profile is not None
    refined = optimize_seed(instance, best_profile, cap=cap)
    return SolveResult(refined.policy, refined.cost, "pot(opt-base)",
                       grid, time.perf_counter() - t0)
