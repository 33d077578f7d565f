"""Policy search: seed scaling, exhaustive profiles, descent, power-of-two.

Every winner is selected with exact rational comparisons, in one integer
cost model: the costs cost._scaled_costs puts over one integer scale S.
exhaustive_search and power_of_two price profiles by cost._profile_pricer
and rank each by its squared optimum cost times S^2/4, an integer pair
compared by cross-multiplication, with no Fraction and no square root until
the winning seed is refined. The refinement, optimize_seed, reads the cost
breakdown off the seed coefficients (A, B) and the union count of the
multipliers instead of repricing the policy. power_of_two rounds to
exponents by one rule on integer bit lengths; across the octave of bases
each exponent falls at most once, at an exact rational point, so the
optimized-base sweep visits those points in order, keyed by integers.
coordinate_descent reads its start and trial constants off the same scaled
costs and prices each trial move incrementally in plain integers, compared
by cross-multiplication. The candidates are not sorted; an explicit tie
rule makes the result independent of their order.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from . import sync
from .cost import (
    CostBreakdown,
    _profile_pricer,
    _scaled_costs,
    _ScaledCosts,
    seed_cost,
    total_cost,
)
from .eoq import sqrt_fraction
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


def _normalize_interval(seed_interval) -> Optional[Interval]:
    if seed_interval is None:
        return None
    lo, hi = seed_interval
    lo, hi = Fraction(lo), Fraction(hi)
    if lo <= 0 or hi < lo:
        raise InputError(f"seed interval must satisfy 0 < lo <= hi, got [{lo}, {hi}]")
    return lo, hi


def _normalize_base(base) -> Fraction:
    base = Fraction(base)
    if base <= 0:
        raise InputError(f"base must be > 0, got {base}")
    return base


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

    The breakdown is read off (A, B) rather than repriced: the policy
    beta*k costs A/beta + B*beta exactly, its union rate is UJR(ks)/beta
    with UJR(ks) from sync's integer core, and the standalone total is the
    rest. It equals total_cost of the policy field by field.
    """
    t0 = time.perf_counter()
    if not instance.commodities:
        raise InputError("cannot optimize an empty instance")
    interval = _normalize_interval(seed_interval)
    mult = dict(profile.multipliers if isinstance(profile, SeedProfile)
                else profile)
    a, b = seed_cost(instance, SeedProfile(mult), cap=cap)
    beta, where, exact = _best_seed(a, b, interval)
    if where == "interior":
        method = "seed(exact)" if exact else "seed(refined)"
    else:
        method = f"seed({where})"
    policy = expand_profile(SeedProfile(mult, beta))
    count, hyper = sync._int_ujr(set(mult.values()), cap)
    total = a / beta + b * beta
    joint_frequency = Fraction(count, hyper) / beta
    joint_cost = instance.joint_setup * joint_frequency
    breakdown = CostBreakdown(total - joint_cost, joint_frequency, joint_cost,
                              total)
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

    The scan is exact integer arithmetic. With cost._profile_pricer's a, b
    and H, A*B = a*b / (S^2*H); a profile ranks by its optimum cost squared
    times S^2/4: (a*b, H) at an interior seed, which costs 2*sqrt(A*B), and
    (cn^2, 4*cm^2) at a clamped endpoint en/em, which costs cn / (S*cm) with
    cn = a*em^2 + b*H*en^2 and cm = en*em*H. Only the winning profile's seed
    is refined, by optimize_seed.
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
    scaled = _scaled_costs(instance)
    price = _profile_pricer(scaled, cap)
    if interval is not None:
        (lo_n, lo_m), (hi_n, hi_m) = (q.as_integer_ratio() for q in interval)
    best_num = best_den = 0
    best_profile: Optional[tuple[int, ...]] = None
    ranges = [range(lo, hi + 1) for lo, hi in (bounds[cid] for cid in ids)]
    for ks in itertools.product(*ranges):
        a, b, h = price(ks)     # A*S*H, B*S, lcm(ks)
        num, den = a * b, h
        if interval is not None:
            bh = b * h                                  # A/B = a/bh
            if a * lo_m * lo_m <= bh * lo_n * lo_n:     # A/B <= lo^2
                en, em = lo_n, lo_m
            elif a * hi_m * hi_m >= bh * hi_n * hi_n:   # A/B >= hi^2
                en, em = hi_n, hi_m
            else:
                en = 0
            if en:      # beta = en/em costs A/beta + B*beta = cn/(S*cm)
                cn, cm = a * em * em + bh * en * en, en * em * h
                num, den = cn * cn, 4 * cm * cm
        if best_profile is None or num * best_den < best_num * den:
            best_num, best_den, best_profile = num, den, ks

    assert best_profile is not None
    refined = optimize_seed(instance, dict(zip(ids, best_profile)),
                            seed_interval=interval, cap=cap)
    return SolveResult(refined.policy, refined.cost, "exhaustive",
                       n_profiles, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# coordinate descent

def default_candidates(instance: Instance, policy: Policy,
                       cid: str) -> set[Fraction]:
    """Integer cycles near the standalone optimum plus small multiples and
    unit fractions of the other commodities' current cycles."""
    c = instance.commodity(cid)
    k, lam, h = c.setup, c.demand, c.holding    # t*^2 = 2K/(lambda*h)
    floor_t = math.isqrt(2 * k.numerator * lam.denominator * h.denominator
                         // (k.denominator * lam.numerator * h.numerator))
    cands: set[Fraction] = set()
    for m in range(max(1, floor_t - 2), floor_t + 3):
        cands.add(Fraction(m))
    for other, t in policy.cycles.items():
        if other == cid:
            continue
        if type(t) is not Fraction:     # an int would give float quotients
            t = Fraction(t)
        for m in (1, 2, 3, 4):
            cands.add(t * m)
            cands.add(t / m)
    return cands


def _default_start(ids: list[str], scaled: _ScaledCosts) -> Policy:
    """Per commodity the cheaper of f = max(1, floor(t*)) and f + 1, ties to
    f: g(f) > g(f+1) iff t*^2 = s/w > f*(f+1), s and w over the scale."""
    cycles = {}
    for cid, s, w in zip(ids, scaled.setups, scaled.weights):
        f = max(1, math.isqrt(s // w))
        cycles[cid] = Fraction(f + 1 if s > f * (f + 1) * w else f)
    return Policy(cycles)


def coordinate_descent(instance: Instance, start: Optional[Policy] = None,
                       max_rounds: int = 100,
                       cap: int | None = None) -> SolveResult:
    """Cycle-by-cycle improvement until a full pass finds nothing better.

    Each commodity in turn moves to its cheapest default_candidates cycle
    (ties toward the smaller cycle) while the others stay fixed; the cost
    strictly decreases, so the search ends. The default start rounds each
    standalone optimum t* to the cheaper neighbouring integer.

    A trial t = p/q changes one cycle, so it costs rest + K/t + w*t + K0*UJR
    with rest the others' standalone cost and UJR = num/den from
    sync._ujr_with, which prunes the other cycles once per commodity. Over
    cost._scaled_costs, read once per solve (K0 = k0/S, K = s/S and
    w = W/S), and S*rest = rn/rd, the total times rd*S is
    ((cr*pq + ck*q^2 + cw*p^2)*den + c0*num*pq) / (pq*den) with the integers
    cr = rn, ck = rd*s, cw = rd*W and c0 = rd*k0; trials compare by
    cross-multiplication. The candidates are visited unsorted: a trial
    replaces the best when its total is strictly lower, or equal with a
    smaller t, so the least (total, t) wins in any order. A move is made
    only when strictly cheaper; the start and every move go through
    total_cost.
    """
    t0 = time.perf_counter()
    if not instance.commodities:
        raise InputError("cannot optimize an empty instance")
    ids = instance.ids()
    scaled = _scaled_costs(instance)
    policy = start if start is not None else _default_start(ids, scaled)
    current = total_cost(instance, policy, cap=cap)
    nodes = 1
    for _ in range(max_rounds):
        improved = False
        for cid, s, w in zip(ids, scaled.setups, scaled.weights):
            t_now = policy.cycle(cid)
            pn, qn = t_now.numerator, t_now.denominator
            # S*rest: the standalone total less s/t + W*t at t_now
            rest = current.standalone_total * scaled.scale \
                - Fraction(s * qn * qn + w * pn * pn, pn * qn)
            rn, rd = rest.numerator, rest.denominator
            cr, ck, cw, c0 = rn, rd * s, rd * w, rd * scaled.k0
            rate = sync._ujr_with([policy.cycle(o) for o in ids if o != cid],
                                  cap)
            # the best so far: rd*S*total = best_num/best_den at bp/bq
            best_t, bp, bq = t_now, pn, qn
            best_num = current.total.numerator * rd * scaled.scale
            best_den = current.total.denominator
            start_num, start_den = best_num, best_den
            for t in default_candidates(instance, policy, cid):
                q, p = t.denominator, t.numerator
                if p == pn and q == qn:
                    continue
                nodes += 1
                num, den = rate(t)
                pq = p * q
                trial_num = (cr * pq + ck * q * q + cw * p * p) * den + c0 * num * pq
                trial_den = pq * den
                # strictly lower, or equal with the smaller cycle: the least
                # (total, t) whatever order the set yields
                lhs, rhs = trial_num * best_den, best_num * trial_den
                if lhs < rhs or (lhs == rhs and p * bq < bp * q):
                    best_t, bp, bq = t, p, q
                    best_num, best_den = trial_num, trial_den
            if best_num * start_den < start_num * best_den:
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


def _exponent_falls(t_sqs: Iterable[tuple[int, int]],
                    base_sq: Fraction) -> list[tuple[int, int, int]]:
    """(m0, p, q) per target: its exponent m0 at base, and the squared ratio
    x^2 = p/q at which it falls to m0 - 1 as the base rises to base*x.

    A target t's exponent at a base b is the m with b*2^m in
    [t/sqrt(2), t*sqrt(2)): the smallest integer m with t^2/b^2 <= 2*4^m.
    For a commodity's standalone optimum t* this is the exact g-minimizing
    exponent, ties going to the smaller m: g(x) <= g(2x) iff
    x^2 >= t*^2/2. m0 is the exponent at b = base, from bit lengths.

    Each target's square comes as positive integers (tp, tq), t^2 = tp/tq.
    With t^2/base^2 = P/Q, the exponent at base*x is m0 - 1 exactly where
    x^2 >= P / (Q*2^(2*m0 - 1)) = p/q, and m0 below it. By m0's choice that
    ratio lies in (1, 4], so the exponent falls at most once as x sweeps
    the octave [1, 2), and it falls inside the octave iff p < 4*q.
    """
    bn, bd = base_sq.numerator, base_sq.denominator
    out = []
    for tp, tq in t_sqs:
        p, q = tp * bd, tq * bn
        m0 = _ceil_log2(p, q) // 2
        shift = 2 * m0 - 1
        if shift >= 0:
            q <<= shift
        else:
            p <<= -shift
        out.append((m0, p, q))
    return out


def _octave_sweeps(lists: list[list[tuple[int, int, int]]]
                   ) -> list[tuple[list[int], dict[int, list[int]]]]:
    """Per list of _exponent_falls results: the exponents at the base, and
    the indices whose exponent falls at each threshold inside the octave,
    under an integer key.

    A threshold p/q < 4 is keyed by (p << B) // q with 2^B above every q
    squared: two distinct thresholds differ by at least 1/(q*q') > 2^-B, so
    their keys keep their order, and equal ones share a key. Sorting the
    keys orders the thresholds exactly, with no Fraction.
    """
    bits = 2 * max(q.bit_length() for falls in lists for _, _, q in falls)
    sweeps = []
    for falls in lists:
        exps, at = [], {}
        for i, (m0, p, q) in enumerate(falls):
            exps.append(m0)
            if p < 4 * q:
                at.setdefault((p << bits) // q, []).append(i)
        sweeps.append((exps, at))
    return sweeps


def _cluster_targets(scaled: _ScaledCosts) -> list[tuple[int, int]]:
    """Squared cycle targets from the joint-setup relaxation, as integer
    pairs (tp, tq) with t^2 = tp/tq, in commodity order.

    The joint cost is bounded below by the joint setup paid at the most
    frequent commodity's rate.  Minimizing that relaxation glues the
    commodities with the smallest standalone optima onto one shared cycle
    that carries the joint setup; the rest keep their standalone optima.
    The cluster grows greedily in ascending t* order (ties in commodity
    order) while the next standalone optimum still undercuts the running
    shared cycle. With K0 = k0/S, setups s/S and weights w/S,
    t*^2 = s/w and the shared cycle's square is (k0 + sum s) / sum w, so
    every comparison cross-multiplies.
    """
    k0, setups, weights, _ = scaled
    # t*^2 * lcm(w), an integer that orders the t* exactly
    w_lcm = math.lcm(*weights)
    order = sorted(range(len(setups)),
                   key=lambda i: setups[i] * (w_lcm // weights[i]))
    sum_k, sum_h = k0 + setups[order[0]], weights[order[0]]
    cluster = 1
    for i in order[1:]:
        if setups[i] * sum_h >= sum_k * weights[i]:     # t*^2 >= shared^2
            break
        sum_k += setups[i]
        sum_h += weights[i]
        cluster += 1
    targets = list(zip(setups, weights))
    for i in order[:cluster]:
        targets[i] = (sum_k, sum_h)
    return targets


def power_of_two(instance: Instance, base: Fraction = Fraction(1),
                 optimize_base: bool = False,
                 cap: int | None = None) -> SolveResult:
    """Restrict every cycle to base*2^m with integer m.

    With a fixed base each commodity's exponent minimizes its standalone
    cost exactly (rounding log2(t*/base), half-points rounding down): it is
    _exponent_falls' m0 for t*^2 = s/w, the setup over the holding weight
    on the pricer's scale, and the policy is priced by total_cost. With
    optimize_base=True every base in the octave [base, 2*base) is covered;
    for each base two exponent patterns are formed — one rounding the
    standalone optima, one rounding the joint-setup relaxation targets,
    which share one cycle across the cluster of most frequent commodities —
    and every distinct pattern is reduced to an integer multiplier profile.
    Profiles are ranked by A*B as the integer pair (a*b, H) of
    cost._profile_pricer, the first seen winning ties, and only the best
    one's common seed is optimized exactly, so the returned policy is the
    best seed-scaled power-of-two pattern of any base. nodes_explored
    counts the distinct profiles priced.

    The octave is swept exactly: as the base rises from base to base*x,
    each exponent falls at most once, at the rational x^2 in (1, 4] that
    _exponent_falls returns. The distinct thresholds below 4 are visited in
    ascending order, at one threshold the standalone pattern before the
    cluster pattern, so `base` only decides where the sweep starts and
    with it which of two equal-cost patterns is seen first; _octave_sweeps
    orders the thresholds by exact integer keys. A pattern is rebuilt
    and priced only at the first base and where one of its exponents falls,
    so a sweep costs O(n log n) integer work and at most 2n + 2 pricings.
    """
    t0 = time.perf_counter()
    if not instance.commodities:
        raise InputError("cannot optimize an empty instance")
    base = _normalize_base(base)
    ids = instance.ids()
    scaled = _scaled_costs(instance)
    # t*^2 = K/w with w = lambda*h/2, both over the scale
    standalone_sqs = list(zip(scaled.setups, scaled.weights))

    if not optimize_base:
        policy = Policy({cid: base * Fraction(2) ** m0 for cid, (m0, _, _)
                         in zip(ids, _exponent_falls(standalone_sqs,
                                                     base * base))})
        return SolveResult(policy, total_cost(instance, policy, cap=cap),
                           f"pot(base={base})", len(ids),
                           time.perf_counter() - t0)

    sweeps = _octave_sweeps([_exponent_falls(sqs, base * base) for sqs
                             in (standalone_sqs, _cluster_targets(scaled))])
    price = _profile_pricer(scaled, cap)
    seen: set[tuple[int, ...]] = set()
    # a profile costs 2*sqrt(A*B) with A*B = a*b / (S^2*H), so it ranks by
    # a*b/H; the first seen wins ties
    best_ab = best_h = 0
    best_profile: Optional[tuple[int, ...]] = None
    keys = sorted({key for _, at in sweeps for key in at})
    for key in [None, *keys]:
        for exps, at in sweeps:
            if key is not None:
                fallen = at.get(key)
                if fallen is None:      # the pattern before, already seen
                    continue
                for i in fallen:
                    exps[i] -= 1
            m_min = min(exps)
            ks = tuple(1 << (m - m_min) for m in exps)
            if ks in seen:
                continue
            seen.add(ks)
            a, b, h = price(ks)
            if best_profile is None or a * b * best_h < best_ab * h:
                best_ab, best_h, best_profile = a * b, h, ks

    assert best_profile is not None
    refined = optimize_seed(instance, dict(zip(ids, best_profile)), cap=cap)
    return SolveResult(refined.policy, refined.cost, "pot(opt-base)",
                       len(seen), time.perf_counter() - t0)
