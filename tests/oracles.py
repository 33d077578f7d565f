"""Independent oracles the tests compare the package against.

Everything here is deliberately implemented differently from the package:
set-based epoch counting instead of inclusion-exclusion, float golden-section
search instead of the closed form, reversed-order clause evaluation, and
sympy's primality test. None of it imports package internals beyond types,
except reference_descent and reference_roundtrip, which price every trial
through the public total_cost.
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


def reference_roundtrip(formula, constants=None, scheme=None,
                        cap: int | None = None):
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
        DEFAULT_SCHEME,
        RoundtripReport,
        assignment_to_policy,
        clause_synchronized,
        reduce_formula,
    )
    from jrp_forge.sat import brute_force_sat

    output = reduce_formula(formula, constants, scheme or DEFAULT_SCHEME)
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
