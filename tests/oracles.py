"""Independent oracles the tests compare the package against.

Everything here is deliberately implemented differently from the package:
set-based epoch counting instead of inclusion-exclusion, float golden-section
search instead of the closed form, reversed-order clause evaluation,
Fraction loops for decimal rendering, power-of-two exponents, cluster
targets and the thresholds where exponents fall, all in Fractions where
the package uses integers, and sympy's primality test. None of it
imports package internals beyond types, except reference_descent and
reference_roundtrip, which price every trial through the public total_cost,
reference_fixed_power_of_two, which prices its policy the same way, and
reference_power_of_two, which ranks every pattern through the public
seed_cost.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, sqrt
from typing import Callable, Sequence

_INVPHI = (sqrt(5) - 1) / 2


def golden_section(f: Callable[[float], float], lo: float, hi: float,
                   tol: float = 1e-12) -> float:
    """Minimizer of a unimodal f on [lo, hi] to absolute tolerance tol."""
    a, b = lo, hi
    c = b - (b - a) * _INVPHI
    d = a + (b - a) * _INVPHI
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INVPHI
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INVPHI
            fd = f(d)
    return (a + b) / 2


def golden_section_exact(f: Callable[[Fraction], Fraction], lo: Fraction,
                         hi: Fraction, iters: int = 80,
                         grid_bits: int = 64) -> Fraction:
    """Minimizer of a unimodal f on [lo, hi] with exact comparisons.

    Probes live on a dyadic grid of 2**-grid_bits so the interval state is a
    pair of integers; the probe ratio is a 32-bit approximation of 1/phi and
    both probes are recomputed each round, so only the contraction rate
    depends on the approximation. f is evaluated at exact rationals and the
    comparisons are exact.
    """
    scale = 1 << grid_bits
    rho = 2654435769                     # ~0.618034 * 2**32
    a = (lo.numerator * scale) // lo.denominator            # floor
    b = -((-hi.numerator * scale) // hi.denominator)        # ceil
    for _ in range(iters):
        span = b - a
        c = a + (span * (4294967296 - rho) >> 32)
        d = a + (span * rho >> 32)
        if not a < c < d < b:
            break
        if f(Fraction(c, scale)) < f(Fraction(d, scale)):
            b = d
        else:
            a = c
    return Fraction(a + b, 2 * scale)


def _scale(periods: Sequence[Fraction]) -> tuple[list[int], int]:
    denom_lcm = 1
    for q in periods:
        denom_lcm = denom_lcm * q.denominator // gcd(denom_lcm, q.denominator)
    return [int(q * denom_lcm) for q in periods], denom_lcm


def _epoch_set(int_periods: Sequence[int], hyper: int) -> set[int]:
    epochs: set[int] = set()
    for p in int_periods:
        epochs.update(range(p, hyper + 1, p))
    return epochs


def enum_union_rate(periods: Sequence[Fraction],
                    max_points: int = 5_000_000) -> Fraction:
    """Order epochs per unit time for the union of in-phase series."""
    ints, scale = _scale([Fraction(q) for q in periods])
    hyper = 1
    for p in ints:
        hyper = hyper * p // gcd(hyper, p)
    if sum(hyper // p for p in ints) > max_points:
        raise ValueError("enumeration oracle over budget")
    return Fraction(len(_epoch_set(ints, hyper)) * scale, hyper)


def enum_intersection_rate(families: Sequence[Sequence[Fraction]],
                           max_points: int = 5_000_000) -> Fraction:
    """Epochs per unit time where every family has some series ordering."""
    flat = [Fraction(q) for fam in families for q in fam]
    ints, scale = _scale(flat)
    hyper = 1
    for p in ints:
        hyper = hyper * p // gcd(hyper, p)
    if sum(hyper // p for p in ints) > max_points:
        raise ValueError("enumeration oracle over budget")
    shared: set[int] | None = None
    pos = 0
    for fam in families:
        fam_ints = ints[pos:pos + len(fam)]
        pos += len(fam)
        epochs = _epoch_set(fam_ints, hyper)
        shared = epochs if shared is None else shared & epochs
    assert shared is not None
    return Fraction(len(shared) * scale, hyper)


def sat_eval_reversed(clauses: Sequence[Sequence[int]],
                      assignment: Sequence[bool]) -> bool:
    """Clause evaluation walking clauses and literals back to front."""
    for clause in reversed(list(clauses)):
        clause_true = False
        for lit in sorted(clause, reverse=True):
            value = assignment[abs(lit) - 1]
            if (lit > 0 and value) or (lit < 0 and not value):
                clause_true = True
                break
        if not clause_true:
            return False
    return True


def exhaustive_argmin(instance, bounds: Sequence[tuple[int, int]],
                      seed_interval: tuple[Fraction, Fraction] | None = None
                      ) -> tuple[tuple[int, ...], set[str]]:
    """Lexicographically first multiplier profile of least seed-optimal cost.

    Plain Fraction sums A = K0*U(ks) + sum K_c/k_c and B = sum lambda_c*h_c*k_c/2
    per profile, with the union rate U from the epoch-set oracle. Squared
    costs are compared: 4*A*B at the interior seed sqrt(A/B), and
    (A/beta + B*beta)**2 at a clamped seed beta. `bounds` lists (lo, hi) in
    commodity order. Also returns the seed kinds seen ("interior", "lo",
    "hi") over all profiles.
    """
    union_rates: dict[frozenset[int], Fraction] = {}
    kinds: set[str] = set()
    best_sq: Fraction | None = None
    best: tuple[int, ...] | None = None
    profiles: list[tuple[int, ...]] = [()]
    for lo, hi in bounds:
        profiles = [p + (k,) for p in profiles for k in range(lo, hi + 1)]
    for ks in profiles:
        key = frozenset(ks)
        if key not in union_rates:
            union_rates[key] = enum_union_rate([Fraction(k) for k in key])
        a = instance.joint_setup * union_rates[key]
        b = Fraction(0)
        for c, k in zip(instance.commodities, ks):
            a += c.setup / k
            b += c.demand * c.holding * k / 2
        ratio = a / b               # square of the interior seed
        if seed_interval is not None and ratio < seed_interval[0] ** 2:
            kind, beta = "lo", seed_interval[0]
        elif seed_interval is not None and ratio > seed_interval[1] ** 2:
            kind, beta = "hi", seed_interval[1]
        else:
            kind, beta = "interior", None
        kinds.add(kind)
        cost_sq = 4 * a * b if beta is None else (a / beta + b * beta) ** 2
        if best_sq is None or cost_sq < best_sq:
            best_sq, best = cost_sq, ks
    assert best is not None
    return best, kinds


def reference_descent(instance, start, candidate_fn, max_rounds: int = 100,
                      cap: int | None = None):
    """Coordinate descent with a full total_cost per trial policy.

    The straightforward loop: each commodity in turn tries every candidate
    (sorted, deduplicated, skipping non-positive ones and its current
    cycle) with the other cycles fixed, keeps the least total with ties to
    the smaller cycle, and moves when that total is strictly lower. Returns
    (policy, cost breakdown, trials + 1).
    """
    from jrp_forge.cost import total_cost
    from jrp_forge.model import Policy

    policy = start
    current = total_cost(instance, policy, cap=cap)
    nodes = 1
    for _ in range(max_rounds):
        improved = False
        for cid in instance.ids():
            best_t = policy.cycle(cid)
            best_total = current.total
            for t in sorted(set(candidate_fn(instance, policy, cid))):
                if t <= 0 or t == policy.cycle(cid):
                    continue
                nodes += 1
                trial = total_cost(instance, Policy({**policy.cycles, cid: t}),
                                   cap=cap).total
                if trial < best_total or (trial == best_total and t < best_t):
                    best_t, best_total = t, trial
            if best_total < current.total:
                policy = Policy({**policy.cycles, cid: best_t})
                current = total_cost(instance, policy, cap=cap)
                improved = True
        if not improved:
            break
    return policy, current, nodes


def reference_roundtrip(formula, constants=None, cap: int | None = None):
    """verify_roundtrip as one full pricing per assignment.

    The straightforward scan: every assignment policy at seed 1 is built,
    priced by total_cost and tested by clause_synchronized on every clause;
    the argmin is the least (cost, assignment) and the gap the cheapest
    violating cost minus the cheapest synchronized one. Returns the same
    RoundtripReport.
    """
    from itertools import product

    from jrp_forge.cost import total_cost
    from jrp_forge.reduction import (
        RoundtripReport,
        assignment_to_policy,
        clause_synchronized,
        reduce_formula,
    )
    from jrp_forge.sat import brute_force_sat

    output = reduce_formula(formula, constants)
    sat_assignment = brute_force_sat(formula)
    rows = []
    for assignment in product((False, True), repeat=formula.n_vars):
        policy = assignment_to_policy(output, assignment)
        cost = total_cost(output.instance, policy, cap=cap).total
        synced = all(clause_synchronized(output, policy, j)
                     for j in output.clause_targets)
        rows.append((assignment, cost, synced))
    best = min(rows, key=lambda row: (row[1], row[0]))
    synced_costs = [cost for _, cost, synced in rows if synced]
    violating_costs = [cost for _, cost, synced in rows if not synced]
    gap = None
    if synced_costs and violating_costs:
        gap = min(violating_costs) - min(synced_costs)
    return RoundtripReport(
        satisfiable=sat_assignment is not None,
        sat_assignment=sat_assignment,
        argmin_assignment=best[0],
        argmin_cost=best[1],
        argmin_synchronizes_all=best[2],
        verdict_consistent=best[2] == (sat_assignment is not None),
        gap=gap,
        n_assignments=len(rows),
        scope="assignment policies at seed 1 only; the continuous policy "
              "space is out of scope",
    )


def cluster_target_squares(instance) -> dict:
    """Squared cycle targets from the joint-setup relaxation, in Fractions.

    The commodities with the smallest standalone optima t* (ties in
    instance order) are glued onto one shared cycle carrying the joint
    setup, sum K / sum w with w = lambda*h/2 and K0 in the sum, while the
    next t*^2 is still below the running shared square; the rest keep t*^2.
    Returns {id: t^2}.
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


def pot_exponent(t_sq: Fraction, base_sq: Fraction) -> int:
    """m with base*2^m in [t/sqrt(2), t*sqrt(2)), from t^2 and base^2.

    The smallest integer m with t^2/base^2 <= 2*4^m, found by stepping m
    over Fraction comparisons from a bit-length guess.
    """
    r = t_sq / base_sq
    m = (r.numerator.bit_length() - r.denominator.bit_length()) // 2
    while r > 2 * Fraction(4) ** m:
        m += 1
    while r <= 2 * Fraction(4) ** (m - 1):
        m -= 1
    return m


def reference_fixed_power_of_two(instance, base: Fraction = Fraction(1),
                                 cap: int | None = None):
    """power_of_two at a fixed base, with Fraction targets.

    Each cycle is base*2^m with m = pot_exponent(t*^2, base^2) and
    t*^2 = K / (lambda*h/2); the policy is priced by the public total_cost.
    Returns (policy, cost breakdown, method, nodes explored).
    """
    from jrp_forge.cost import total_cost
    from jrp_forge.model import Policy

    base = Fraction(base)
    policy = Policy({c.id: base * Fraction(2) ** pot_exponent(
                         c.setup / (c.demand * c.holding / 2), base * base)
                     for c in instance.commodities})
    return (policy, total_cost(instance, policy, cap=cap), f"pot(base={base})",
            len(policy.cycles))


def reference_power_of_two(instance, base: Fraction = Fraction(1),
                           cap: int | None = None):
    """power_of_two(optimize_base=True) over the octave, in Fractions.

    Each target's exponent falls once as the base rises from `base` to
    base*x, where x^2 = t^2 / (base^2 * 2*4^(m0 - 1)) with m0 its exponent
    at `base`; the distinct falls with x^2 < 4 are visited in ascending
    order after x = 1. At each such base both exponent patterns are read
    afresh by pot_exponent, the standalone one first; each distinct
    pattern's profile is priced by seed_cost and ranked by the Fraction
    A*B, the first seen keeping a tie (a strict <). The winner's seed is
    refined by optimize_seed. Returns (policy, cost breakdown, method,
    profiles priced).
    """
    from jrp_forge.cost import seed_cost
    from jrp_forge.model import SeedProfile
    from jrp_forge.solve import optimize_seed

    ids = instance.ids()
    base_sq = Fraction(base) ** 2
    targets = cluster_target_squares(instance)
    lists = ([c.setup / (c.demand * c.holding / 2) for c in instance.commodities],
             [targets[cid] for cid in ids])
    falls = {t_sq / (base_sq * 2 * Fraction(4) ** (pot_exponent(t_sq, base_sq) - 1))
             for sqs in lists for t_sq in sqs}
    seen: set[tuple[int, ...]] = set()
    best: Fraction | None = None
    best_profile: dict[str, int] | None = None
    for x_sq in [Fraction(1)] + sorted(x for x in falls if x < 4):
        for sqs in lists:
            exps = [pot_exponent(t_sq, base_sq * x_sq) for t_sq in sqs]
            ks = tuple(2 ** (m - min(exps)) for m in exps)
            if ks in seen:
                continue
            seen.add(ks)
            profile = dict(zip(ids, ks))
            a, b = seed_cost(instance, SeedProfile(profile), cap=cap)
            if best is None or a * b < best:
                best, best_profile = a * b, profile
    assert best_profile is not None
    refined = optimize_seed(instance, best_profile, cap=cap)
    return refined.policy, refined.cost, "pot(opt-base)", len(seen)


def reference_rational_to_decimal(q: Fraction, digits: int = 12) -> str:
    """rational_to_decimal by Fraction division: q is divided or multiplied
    by 10 one step at a time into [1, 10), scaled to `digits` significant
    digits and rounded half to even; the same output layout."""
    if q == 0:
        return "0"
    sign = "-" if q < 0 else ""
    q = abs(q)
    exp = 0
    while q >= 10:
        q /= 10
        exp += 1
    while q < 1:
        q *= 10
        exp -= 1
    scaled = q * Fraction(10) ** (digits - 1)
    mantissa = scaled.numerator // scaled.denominator
    rem = scaled - mantissa
    if rem > Fraction(1, 2) or (rem == Fraction(1, 2) and mantissa % 2):
        mantissa += 1
    digits_str = str(mantissa)
    if len(digits_str) > digits:  # rounding overflowed, e.g. 9.99.. -> 10.0
        digits_str = digits_str[:digits]
        exp += 1
    point = exp + 1
    if 0 < point <= digits:
        out = digits_str[:point] + "." + digits_str[point:]
        out = out.rstrip(".") if out.endswith(".") else out
    elif point <= 0:
        out = "0." + "0" * (-point) + digits_str
    else:
        out = digits_str + "0" * (point - digits)
    return sign + out.rstrip("0").rstrip(".") if "." in out else sign + out
