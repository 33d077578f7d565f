import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jrp_forge import _kernels, sync
from jrp_forge import solve as solve_mod
from jrp_forge.cli import _random_instance
from jrp_forge.cost import _scaled_costs, seed_cost, total_cost
from jrp_forge.eoq import optimal_cycle, sqrt_fraction, standalone_cost
from jrp_forge.model import Commodity, InputError, Instance, Policy, SeedProfile
from jrp_forge.solve import (
    _cluster_targets,
    _exponent_falls,
    _octave_sweeps,
    coordinate_descent,
    default_candidates,
    exhaustive_search,
    optimize_seed,
    power_of_two,
)

from .oracles import (
    cluster_target_squares,
    exhaustive_argmin,
    pot_exponent,
    reference_descent,
    reference_fixed_power_of_two,
    reference_power_of_two,
)

F = Fraction


def single(k=F(25)):
    return Instance((Commodity("a", F(2), F(1), k),), F(1))


def trio(ks=(F(8), F(18), F(50))):
    cs = tuple(Commodity(f"c{i}", F(2), F(1), k) for i, k in enumerate(ks))
    return Instance(cs, F(1))


def rel_err(x: Fraction, target: float) -> float:
    return abs(float(x) - target) / target


def test_optimize_seed_exact_square():
    # A = 26, B = 1 -> beta* = sqrt(26), inexact -> refined
    res = optimize_seed(single(), SeedProfile({"a": 1}))
    assert res.method == "seed(refined)"
    assert rel_err(res.cost.total, 2 * math.sqrt(26)) < 1e-12

    # A/B a perfect square: K = 24, k = 5 -> A = 29/5, B = 5, beta* = sqrt(29/25)
    res2 = optimize_seed(
        Instance((Commodity("a", F(2), F(1), F(4)),), F(1)),
        SeedProfile({"a": 2}),
    )
    # A = (4/2 + 1/2) = 5/2, B = 2 -> beta* = sqrt(5)/2 inexact
    assert res2.method in ("seed(exact)", "seed(refined)")


def test_optimize_seed_perfectly_square_ratio():
    # K_c chosen so A/B is a rational square: A = K/k + K0/k, B = lam*h*k/2
    # k=1: A = K + 1, B = 1. Want (K+1) = square -> K = 3: A = 4, B = 1.
    res = optimize_seed(single(F(3)), SeedProfile({"a": 1}))
    assert res.method == "seed(exact)"
    assert res.policy.cycles["a"] == F(2)
    assert res.cost.total == F(4)


def test_optimize_seed_clamped():
    res = optimize_seed(single(F(3)), SeedProfile({"a": 1}),
                        seed_interval=(F(3), F(4)))
    assert res.method == "seed(clamped-lo)"
    assert res.policy.cycles["a"] == F(3)
    res2 = optimize_seed(single(F(3)), SeedProfile({"a": 1}),
                         seed_interval=(F(1, 4), F(1, 2)))
    assert res2.method == "seed(clamped-hi)"
    assert res2.policy.cycles["a"] == F(1, 2)


def _seed_instance(rng: random.Random, n: int) -> Instance:
    # rational K0, setups and holding costs, so the cost scale exceeds 1
    return Instance(tuple(
        Commodity(f"c{j}", F(rng.randint(1, 8), rng.randint(1, 3)),
                  F(rng.randint(1, 30), rng.randint(1, 8)),
                  F(rng.randint(1, 100), rng.randint(1, 4)))
        for j in range(n)), F(rng.randint(1, 50), rng.randint(1, 3)))


def test_optimize_seed_breakdown_equals_total_cost():
    # the breakdown read off (A, B) is the policy's total_cost, field by
    # field, at interior seeds (exact and refined) and clamped ones
    rng = random.Random(20261021)
    methods = Counter()
    for i in range(240):
        n = rng.randint(1, 8)
        inst = _seed_instance(rng, n)
        ks = {c.id: rng.randint(1, 6) for c in inst.commodities}
        if i % 8 == 0:
            # k = 1 and K = lambda*h/2 * (x^2 - K0) make A/B = x^2: exact
            c = inst.commodities[0]
            x = F(rng.randint(1, 9), rng.randint(1, 3)) + inst.joint_setup
            inst = Instance((Commodity(c.id, c.demand, c.holding,
                                       c.demand * c.holding / 2 * x * x
                                       - inst.joint_setup),), inst.joint_setup)
            ks = {c.id: 1}
        a, b = seed_cost(inst, SeedProfile(ks))
        root = sqrt_fraction(a / b)[0]
        interval = (None, (root * 2, root * 3), (root / 3, root / 2),
                    (root / 2, root * 2))[i % 4]
        res = optimize_seed(inst, ks, seed_interval=interval)
        methods[res.method] += 1
        assert res.cost == total_cost(inst, res.policy), i
        cid = inst.ids()[0]
        beta = res.policy.cycles[cid] / ks[cid]
        assert res.cost.total == a / beta + b * beta
    assert set(methods) == {"seed(exact)", "seed(refined)", "seed(clamped-lo)",
                            "seed(clamped-hi)"}
    assert min(methods.values()) >= 20, methods


def test_optimize_seed_cap_message_matches_ujr():
    # (2, 3, 5) leaves three series after pruning: refused at cap 2 with
    # the union rate's own message, answered at cap 3
    inst = trio()
    ks = {"c0": 2, "c1": 3, "c2": 5}
    with pytest.raises(sync.CapExceeded) as exc:
        optimize_seed(inst, ks, cap=2)
    with pytest.raises(sync.CapExceeded) as from_ujr:
        sync.ujr([F(2), F(3), F(5)], cap=2)
    assert str(exc.value) == str(from_ujr.value)
    res = optimize_seed(inst, ks, cap=3)
    assert res.cost == total_cost(inst, res.policy, cap=3)
    # (2, 4, 8) prunes to one series, so cap 1 answers
    chain = optimize_seed(inst, {"c0": 2, "c1": 4, "c2": 8}, cap=1)
    assert chain.cost == total_cost(inst, chain.policy)


def test_optimize_seed_interval_validation():
    with pytest.raises(InputError):
        optimize_seed(single(), SeedProfile({"a": 1}), seed_interval=(F(2), F(1)))
    with pytest.raises(InputError):
        optimize_seed(single(), SeedProfile({"a": 1}), seed_interval=(F(0), F(1)))


def test_exhaustive_single_tie_prefers_smaller_multiplier():
    # k=1: AB = 26*1 = 26. k=... larger k gives 26k^2... actually with K=25:
    # A = 25/k + 1/k, B = k -> AB = 26 independent? A*B = 26. All k tie!
    res = exhaustive_search(single(), (1, 10))
    ks = {cid: None for cid in res.policy.cycles}
    assert res.method.startswith("exhaustive")
    # lexicographically first profile wins the tie: k = 1
    beta = res.policy.cycles["a"]
    assert rel_err(res.cost.total, 2 * math.sqrt(26)) < 1e-9
    assert rel_err(beta, math.sqrt(26)) < 1e-9


def test_exhaustive_matches_hand_optimum():
    # two commodities, forced common seed in [1,1]: integer cycles only
    inst = trio()
    res = exhaustive_search(inst, (1, 12), seed_interval=(F(1), F(1)))
    # brute-force the same space directly on total_cost
    best = None
    for k0 in range(1, 13):
        for k1 in range(1, 13):
            for k2 in range(1, 13):
                pol = Policy({"c0": F(k0), "c1": F(k1), "c2": F(k2)})
                c = total_cost(inst, pol).total
                if best is None or c < best:
                    best = c
    assert res.cost.total == best


def test_exhaustive_profile_cap():
    from jrp_forge.sync import CapExceeded

    with pytest.raises(CapExceeded):
        exhaustive_search(trio(), (1, 200), profile_cap=1000)


def quartet():
    return trio((F(8), F(18), F(50), F(32)))


def test_exhaustive_cap_counts_pruned_multipliers():
    # no three multipliers in 1..4 are pairwise non-dividing, so a cap of 2
    # answers profiles such as (1, 2, 3, 4) with four distinct multipliers
    capped = exhaustive_search(quartet(), (1, 4), cap=2)
    free = exhaustive_search(quartet(), (1, 4))
    assert (capped.policy, capped.cost) == (free.policy, free.cost)
    # in 1..8 the first profile of four pairwise non-dividing multipliers,
    # (2, 3, 5, 7), is refused at a cap of 3 with the message ujr gives; no
    # five exist there, so a cap of 4 answers every profile
    with pytest.raises(sync.CapExceeded) as from_ujr:
        sync.ujr([2, 3, 5, 7], cap=3)
    with pytest.raises(sync.CapExceeded) as exc:
        exhaustive_search(quartet(), (1, 8), cap=3)
    assert str(exc.value) == str(from_ujr.value) == (
        "more than 3 series remain after pruning (the inclusion-exclusion "
        "cap); use ujr_enumerate or raise the cap")
    capped = exhaustive_search(quartet(), (1, 8), cap=4)
    free = exhaustive_search(quartet(), (1, 8))
    assert (capped.policy, capped.cost) == (free.policy, free.cost)


def test_exhaustive_counts_each_multiplier_set_once(monkeypatch):
    # the scan takes union counts from sync's integer core, once per
    # distinct set of multipliers, and the refinement reads the winner's
    # breakdown off its seed coefficients: sync.ujr never runs
    calls = {"ujr": 0, "scan_counts": 0}
    refining = []
    ujr, union_count, optimize_seed = (
        sync.ujr, _kernels.union_count, solve_mod.optimize_seed)

    def traced_ujr(*args, **kwargs):
        assert refining, "sync.ujr called outside the seed refinement"
        calls["ujr"] += 1
        return ujr(*args, **kwargs)

    def traced_union_count(*args, **kwargs):
        if not refining:
            calls["scan_counts"] += 1
        return union_count(*args, **kwargs)

    def traced_optimize_seed(*args, **kwargs):
        refining.append(True)
        try:
            return optimize_seed(*args, **kwargs)
        finally:
            refining.pop()

    monkeypatch.setattr(sync, "ujr", traced_ujr)
    monkeypatch.setattr(_kernels, "union_count", traced_union_count)
    monkeypatch.setattr(solve_mod, "optimize_seed", traced_optimize_seed)
    exhaustive_search(quartet(), (1, 8))
    distinct_sets = {frozenset(ks) for ks in itertools.product(range(1, 9), repeat=4)}
    assert calls["scan_counts"] == len(distinct_sets) == 162
    assert calls["ujr"] == 0


def test_exhaustive_per_commodity_bounds():
    inst = trio()
    res = exhaustive_search(
        inst, {"c0": (2, 2), "c1": (3, 3), "c2": (5, 5)},
        seed_interval=(F(1), F(1)))
    assert res.policy.cycles == {"c0": F(2), "c1": F(3), "c2": F(5)}


def _random_exhaustive_case(rng: random.Random):
    n = rng.randint(1, 4)
    commodities = tuple(
        Commodity(f"c{i}", F(rng.randint(1, 8)),
                  F(rng.randint(1, 30), rng.randint(1, 8)),
                  F(rng.randint(1, 100), rng.randint(1, 4)))
        for i in range(n))
    inst = Instance(commodities, F(rng.randint(1, 50), rng.randint(1, 3)))
    span = {1: 12, 2: 6, 3: 4, 4: 3}[n]
    if rng.random() < 0.5:
        lo = rng.randint(1, 3)
        k_bounds = (lo, lo + rng.randint(0, span))
        per_commodity = [k_bounds] * n
    else:
        k_bounds = {}
        for c in commodities:
            lo = rng.randint(1, 4)
            k_bounds[c.id] = (lo, lo + rng.randint(0, span))
        per_commodity = [k_bounds[c.id] for c in commodities]
    interval = None
    if rng.random() < 0.4:
        # profile seeds sqrt(A/B) mostly lie in 1/4..3/2 here
        lo = F(rng.randint(1, 12), 16)
        interval = (lo, lo + F(rng.randint(0, 12), 16))
    return inst, k_bounds, per_commodity, interval


def test_exhaustive_matches_fraction_reference():
    # the integer scan picks the same profile as a plain-Fraction argmin
    # built on the set oracle, whether seeds are free, interior or clamped
    rng = random.Random(20261018)
    mixed = 0
    kinds_seen: set[str] = set()
    winners: Counter[str] = Counter()
    for _ in range(240):
        inst, k_bounds, per_commodity, interval = _random_exhaustive_case(rng)
        res = exhaustive_search(inst, k_bounds, seed_interval=interval)
        profile, kinds = exhaustive_argmin(inst, per_commodity, interval)
        expect = optimize_seed(inst, dict(zip(inst.ids(), profile)),
                               seed_interval=interval)
        assert res.policy == expect.policy
        assert res.cost == expect.cost
        if interval is not None:
            kinds_seen |= kinds
            mixed += "interior" in kinds and len(kinds) > 1
            winners[expect.method] += 1
    # interior and clamped candidates were compared with each other, and
    # interior seeds and both endpoints won somewhere inside an interval
    assert kinds_seen == {"interior", "lo", "hi"}
    assert mixed >= 30
    assert winners["seed(refined)"] + winners["seed(exact)"] >= 30
    assert winners["seed(clamped-lo)"] >= 10
    assert winners["seed(clamped-hi)"] >= 10


def test_exhaustive_exact_tie_keeps_lexicographically_first():
    # two identical commodities (K = 1, lambda*h/2 = 1) at the fixed seed 1
    # with K0 = 1: g(1) = 2, g(2) = 5/2, so the asymmetric profile pays
    # 1 + 2 + 5/2 and the symmetric (2, 2) pays 1/2 + 5 -- an exact tie.
    # A full box would let (1, 1) win, so one commodity is pinned.
    twins = Instance((Commodity("c1", F(2), F(1), F(1)),
                      Commodity("c2", F(2), F(1), F(1))), F(1))
    fixed = (F(1), F(1))
    for k_bounds, winner in (({"c1": (2, 2), "c2": (1, 2)}, {"c1": 2, "c2": 1}),
                             ({"c1": (1, 2), "c2": (2, 2)}, {"c1": 1, "c2": 2})):
        res = exhaustive_search(twins, k_bounds, seed_interval=fixed)
        assert res.policy == Policy({cid: F(k) for cid, k in winner.items()})
        tied = total_cost(twins, Policy({"c1": F(2), "c2": F(2)}))
        assert res.cost.total == tied.total == F(11, 2)
        per_commodity = [k_bounds["c1"], k_bounds["c2"]]
        assert exhaustive_argmin(twins, per_commodity, fixed)[0] == \
            (winner["c1"], winner["c2"])


def test_exhaustive_exact_tie_across_seed_kinds():
    # an endpoint cost p/q against an interior cost 2*sqrt(A*B), both exactly
    # 6 (first case) or 12 (second), in both scan orders: the profile
    # scanned first keeps the win
    def two(k1, k2, w1, w2, k0):   # setups K, weights lambda*h/2, K0
        return Instance((Commodity("c1", 2 * w1, F(1), F(k1)),
                         Commodity("c2", 2 * w2, F(1), F(k2))), F(k0))

    # (1, 2) clamps to hi = 3/2 (A = 9/2, B = 2) and costs 3 + 3; then
    # (2, 2) is interior at beta = 1 (A = B = 3) and costs 2*sqrt(9)
    first_clamped = two(1, 3, F(1), F(1, 2), 2)
    res = exhaustive_search(first_clamped, (1, 3),
                            seed_interval=(F(2, 3), F(3, 2)))
    assert res.policy == Policy({"c1": F(3, 2), "c2": F(3)})
    assert total_cost(first_clamped, Policy({"c1": F(2), "c2": F(2)})).total \
        == res.cost.total == F(6)
    # (1, 1) is interior at beta = 3/2 (A = 9, B = 4) and costs 2*sqrt(36);
    # then (1, 2) clamps to lo = 1 (A = B = 6) and costs 6 + 6
    first_interior = two(1, 6, F(2), F(2), 2)
    res = exhaustive_search(first_interior, (1, 3),
                            seed_interval=(F(1), F(2)))
    assert res.policy == Policy({"c1": F(3, 2), "c2": F(3, 2)})
    assert total_cost(first_interior, Policy({"c1": F(1), "c2": F(2)})).total \
        == res.cost.total == F(12)


def test_coordinate_descent_improves_to_local_opt():
    inst = trio()
    res = coordinate_descent(inst)
    # no single-coordinate candidate move improves the final policy
    pol = res.policy
    base = total_cost(inst, pol).total
    for cid in pol.cycles:
        for cand in default_candidates(inst, pol, cid):
            trial = dict(pol.cycles)
            trial[cid] = cand
            assert total_cost(inst, Policy(trial)).total >= base


def test_coordinate_descent_explicit_start():
    inst = trio()
    start = Policy({"c0": F(1), "c1": F(1), "c2": F(1)})
    res = coordinate_descent(inst, start=start)
    assert res.cost.total <= total_cost(inst, start).total
    assert res.method == "descent"


def test_coordinate_descent_int_start_matches_fraction_start():
    # int cycles are taken as Fractions, so the candidates stay rational
    inst = trio()
    for cycles in ({"c0": 2, "c1": 3, "c2": 5}, {"c0": 1, "c1": 4, "c2": 4}):
        ints = Policy(cycles)
        fracs = Policy({cid: F(t) for cid, t in cycles.items()})
        cands = default_candidates(inst, ints, "c0")
        assert all(type(t) is F for t in cands)
        assert cands == default_candidates(inst, fracs, "c0")
        got = coordinate_descent(inst, start=ints)
        want = coordinate_descent(inst, start=fracs)
        assert (got.policy, got.cost, got.nodes_explored) \
            == (want.policy, want.cost, want.nodes_explored)


def _floor(q: Fraction) -> int:
    return q.numerator // q.denominator


def _eoq_start(c: Commodity) -> Fraction:
    """The default start by optimal_cycle and standalone_cost: the cheaper
    of max(1, floor(t*)) and the next integer, ties to the smaller."""
    lo = F(max(1, _floor(optimal_cycle(c).cycle)))
    return lo if standalone_cost(c, lo) <= standalone_cost(c, lo + 1) else lo + 1


def _start_and_floor_cases():
    # t*^2 = K here: squares, exact ties f*(f+1), values just off both,
    # and optima below 1
    tiny = F(1, 10**12)
    t_sqs = [F(1, 1000), F(1, 4), F(99, 100), 1 - tiny]
    for f in range(1, 8):
        for t_sq in (F(f * f), F(f * (f + 1))):
            t_sqs += [t_sq - tiny, t_sq, t_sq + tiny]
    yield from (_with_target(t_sq) for t_sq in t_sqs)
    rng = random.Random(41)
    for _ in range(300):
        yield Instance((Commodity("a", F(rng.randint(1, 9), rng.randint(1, 9)),
                                  F(rng.randint(1, 9), rng.randint(1, 9)),
                                  F(rng.randint(1, 999), rng.randint(1, 99))),),
                       F(1))


def test_descent_start_and_candidates_match_the_eoq_optimum():
    # the integer start and candidate floor agree with the Fraction root of
    # optimal_cycle and the standalone_cost comparison, ties included
    ties = 0
    for inst in _start_and_floor_cases():
        c = inst.commodities[0]
        start = coordinate_descent(inst, max_rounds=0).policy
        assert start.cycles == {"a": _eoq_start(c)}
        f = _floor(optimal_cycle(c).cycle)
        assert default_candidates(inst, start, "a") \
            == {F(m) for m in range(max(1, f - 2), f + 3)}
        lo = max(1, f)
        ties += standalone_cost(c, F(lo)) == standalone_cost(c, F(lo + 1))
    assert ties >= 7    # t*^2 = f*(f+1), f = 1..7, keeps f
    assert coordinate_descent(_with_target(F(12)), max_rounds=0) \
        .policy.cycle("a") == 3


def test_descent_matches_exhaustive_often():
    # descent should land on the integer-lattice optimum for most small
    # instances and stay within a fraction of a percent when it does not
    # (its candidate set also holds rational divisors, so it may even win)
    rng = random.Random(7)
    hits = 0
    trials = 40
    for _ in range(trials):
        ks = tuple(F(rng.randint(2, 120)) for _ in range(3))
        inst = trio(ks)
        ex = exhaustive_search(inst, (1, 14), seed_interval=(F(1), F(1)))
        cd = coordinate_descent(inst)
        if cd.cost.total == ex.cost.total:
            hits += 1
        else:
            assert cd.cost.total <= ex.cost.total * F(102, 100)
    assert hits >= 30, f"descent matched exhaustive only {hits}/{trials}"


def _typed(policy: Policy) -> dict:
    # int and Fraction cycles compare equal; keep the type in the comparison
    return {cid: (type(t), t) for cid, t in policy.cycles.items()}


def _mixed_candidates(instance, policy, cid):
    # integers, the current cycle and rationals derived from the others'
    # cycles, as default_candidates returns them: a set of Fractions
    others = [t for other, t in policy.cycles.items() if other != cid]
    return ({F(t) for t in (1, 2, 3, 4, 6, 8)} | {F(5, 2), F(16, 3)}
            | {F(policy.cycle(cid))} | {F(_floor(t) + 1) for t in others}
            | {t * F(3, 2) for t in others[:3]})


def _descent_with(monkeypatch, candidates, instance, **kwargs):
    """coordinate_descent with default_candidates replaced by `candidates`."""
    with monkeypatch.context() as m:
        m.setattr(solve_mod, "default_candidates", candidates)
        return coordinate_descent(instance, **kwargs)


def test_descent_matches_total_cost_reference(monkeypatch):
    rng = random.Random(2024)
    runs = 0
    for n in range(2, 17):
        inst = _random_instance(rng, n)
        rational_start = Policy({cid: F(rng.randint(1, 40), rng.randint(1, 6))
                                 for cid in inst.ids()})
        cases = [(None, None), (rational_start, None),
                 (rational_start, _mixed_candidates)]
        if n > 8:   # the reference is slow at large n: fewer cases and rounds
            cases = [cases[0], cases[2]] if n == 16 else [cases[n % 2 * 2]]
        for start, cand_fn in cases:
            for max_rounds in ((1, 100) if n <= 8 else (100,)):
                got = _descent_with(monkeypatch, cand_fn or default_candidates,
                                    inst, start=start, max_rounds=max_rounds)
                policy, cost, nodes = reference_descent(
                    inst, start or coordinate_descent(inst, max_rounds=0).policy,
                    cand_fn or default_candidates, max_rounds=max_rounds)
                assert _typed(got.policy) == _typed(policy), (n, max_rounds)
                assert got.cost == cost
                assert got.nodes_explored == nodes
                runs += 1
    assert runs == 7 * 3 * 2 + 7 + 2


def test_descent_cap_refusal_matches_ujr(monkeypatch):
    inst = trio()
    # the start policy alone holds 2 series after pruning
    start = Policy({"c0": F(2), "c1": F(3), "c2": F(3)})
    with pytest.raises(sync.CapExceeded) as from_ujr:
        sync.ujr(list(start.cycles.values()), cap=1)
    with pytest.raises(sync.CapExceeded) as from_descent:
        coordinate_descent(inst, start=start, cap=1)
    assert str(from_descent.value) == str(from_ujr.value)

    # within the cap at the start; only c1 has a candidate, a new third
    # series (its own cycle 3 stays with c2) too costly to accept, so only
    # the trial itself can refuse it
    def new_series(instance, policy, cid):
        return {F(101)} if cid == "c1" else set()
    with pytest.raises(sync.CapExceeded) as from_ujr:
        sync.ujr([F(2), F(101), F(3)], cap=2)
    with pytest.raises(sync.CapExceeded) as from_descent:
        _descent_with(monkeypatch, new_series, inst, start=start, cap=2)
    with pytest.raises(sync.CapExceeded) as from_reference:
        reference_descent(inst, start, new_series, cap=2)
    assert str(from_descent.value) == str(from_ujr.value) \
        == str(from_reference.value)

    # a trial cycle another commodity already has adds no series: c2 tries
    # c0's cycle 2 against the others' two series
    def repeated_series(instance, policy, cid):
        return {F(2)} if cid == "c2" else set()
    res = _descent_with(monkeypatch, repeated_series, inst, start=start, cap=2)
    assert (res.policy, res.nodes_explored) == (start, 2)
    assert res.policy == reference_descent(inst, start, repeated_series,
                                           cap=2)[0]

    # nor does a trial the prune absorbs: 2 and 3 divide 6, and 1 divides
    # every cycle. c2 moves to 6 within a cap of 2, and from 4 to 6 within
    # a cap of 1, where 2 divides every cycle
    def absorbed_series(instance, policy, cid):
        return {F(6), F(12)} if cid == "c2" else {F(1)}
    narrow = Policy({"c0": F(2), "c1": F(4), "c2": F(4)})
    for cap, start in ((2, start), (1, narrow)):
        res = _descent_with(monkeypatch, absorbed_series, inst, start=start,
                            cap=cap)
        policy, cost, nodes = reference_descent(inst, start, absorbed_series,
                                                cap=cap)
        assert (res.policy, res.cost, res.nodes_explored) \
            == (policy, cost, nodes)
        assert res.policy.cycle("c2") == 6


def _in_orders(cands, seed):
    shuffled = list(cands)
    random.Random(seed).shuffle(shuffled)
    return (sorted(cands), sorted(cands, reverse=True), shuffled)


def test_descent_does_not_depend_on_candidate_order(monkeypatch):
    # the candidates come back in a given order, not a set's
    def descent_result(instance, start, candidates):
        res = _descent_with(monkeypatch, candidates, instance, start=start)
        return _typed(res.policy), res.cost, res.nodes_explored

    # "a" sits on cycle 1, so every integer cycle of "b" has union rate 1
    # and b pays 30/t + t + 1: cycles 5 and 6 tie exactly at the minimum
    inst = Instance((Commodity("a", F(2), F(1), F(3)),
                     Commodity("b", F(2), F(1), F(30))), F(1))
    start = Policy({"a": F(1), "b": F(10)})
    cands = [F(t) for t in (1, 2, 3, 4, 5, 6, 7, 8)] \
        + [F(11, 2), F(9, 2), F(3, 2)]
    assert total_cost(inst, Policy({"a": F(1), "b": F(5)})).total \
        == total_cost(inst, Policy({"a": F(1), "b": F(6)})).total
    want = None
    for order in _in_orders(cands, 13):
        got = descent_result(inst, start, lambda ins, pol, cid, order=order:
                             order if cid == "b" else [])
        assert got[0]["b"] == (F, 5)    # the smaller of the tied cycles
        assert want is None or got == want
        want = got
    policy, cost, nodes = reference_descent(
        inst, start, lambda ins, pol, cid: cands if cid == "b" else [])
    assert want == (_typed(policy), cost, nodes)

    # the same on random instances, with every commodity moving
    rng = random.Random(31)
    for n in (2, 3, 5, 8):
        inst = _random_instance(rng, n)
        start = coordinate_descent(inst, max_rounds=0).policy
        cands = sorted(_mixed_candidates(inst, start, inst.ids()[0]))
        first, *others = [descent_result(inst, start,
                                         lambda ins, pol, cid, order=order: order)
                          for order in _in_orders(cands, n)]
        assert all(got == first for got in others), n


def _with_target(t_sq: Fraction) -> Instance:
    # lambda = 2 and h = 1 give the holding weight 1, so t*^2 = K
    return Instance((Commodity("a", F(2), F(1), t_sq),), F(1))


def _fixed_exponent(instance: Instance, base: Fraction) -> int:
    """m of the cycle base*2^m that power_of_two gives the first commodity."""
    q = power_of_two(instance, base=base).policy.cycles[instance.ids()[0]] / base
    m = q.numerator.bit_length() - q.denominator.bit_length()
    assert q == F(2) ** m
    return m


def test_pot_exponent_matches_cost_comparison():
    rng = random.Random(99)
    signs = Counter()
    for _ in range(400):
        c = Commodity("a", F(rng.randint(1, 9), rng.randint(1, 3)),
                      F(rng.randint(1, 50), rng.randint(1, 9)),
                      F(rng.randint(1, 10**4), rng.randint(1, 40)))
        base = F(rng.randint(1, 10**4), rng.randint(1, 10**3))
        m = _fixed_exponent(Instance((c,), F(1)), base)
        # the g-minimizing exponent, ties to the smaller m
        costs = {e: standalone_cost(c, base * F(2) ** e) for e in range(m - 3, m + 4)}
        assert min(costs, key=lambda e: (costs[e], e)) == m
        # base*2^m in [t/sqrt(2), t*sqrt(2)), in squares, for t^2 = t_sq and
        # for a joint-setup target of another rational square
        t_sq = 2 * c.setup / (c.demand * c.holding)
        target_sq = t_sq * F(rng.randint(1, 20), rng.randint(1, 20))
        for sq in (t_sq, target_sq):
            e = _fixed_exponent(_with_target(sq), base)
            x_sq = (base * F(2) ** e) ** 2
            assert sq / 2 <= x_sq < 2 * sq
            assert e == pot_exponent(sq, base * base)
        signs[(m > 0) - (m < 0)] += 1
    assert signs[-1] > 50 and signs[1] > 50 and signs[0] > 0
    # exact half-points go down: x = base*2^m with x^2 = t^2/2 is kept, so
    # x^2 = 2*t^2 is not
    assert _fixed_exponent(_with_target(F(8)), F(1)) == 1      # x = 2, x^2 = 4
    assert _fixed_exponent(_with_target(F(1, 8)), F(1)) == -2  # x^2 = 1/16
    assert _fixed_exponent(_with_target(F(1, 2)), F(1)) == -1  # not x^2 = 1


def test_power_of_two_fixed_base_matches_fraction_reference():
    # the fixed base rounds integer pairs over the scaled costs; the oracle
    # rounds Fraction targets, so cycles, their types, the breakdown, the
    # method and the node count must all agree
    rng = random.Random(20261023)
    bases = (F(1), F(5, 4), F(3, 7), F(7, 3), F(1, 1000), F(1000))
    for i in range(60):
        n = rng.randint(1, 16)
        if i % 2:
            inst = _random_instance(rng, n)
        else:   # rational costs, standalone optima several octaves apart
            inst = Instance(tuple(
                Commodity(f"c{j}", F(rng.randint(1, 8), rng.randint(1, 3)),
                          F(rng.randint(1, 30), rng.randint(1, 8)),
                          F(rng.randint(1, 10 ** rng.randint(1, 6)),
                            rng.randint(1, 40)))
                for j in range(n)), F(rng.randint(1, 50), rng.randint(1, 3)))
        for base in bases:
            res = power_of_two(inst, base=base)
            policy, cost, method, nodes = reference_fixed_power_of_two(inst, base)
            assert [(cid, type(t), t) for cid, t in res.policy.cycles.items()] \
                == [(cid, type(t), t) for cid, t in policy.cycles.items()], (i, base)
            assert (res.cost, res.method, res.nodes_explored) \
                == (cost, method, nodes), (i, base)


def test_power_of_two_fixed_base_example():
    # t* = sqrt(25/ (2*1/2)) = 5 -> nearest power of two by cost is 4
    res = power_of_two(single())
    assert res.policy.cycles["a"] == F(4)
    assert res.method == "pot(base=1)"


def test_power_of_two_exponent_cost_comparison():
    # K chosen so t* = sqrt(32) = 5.65..: cost(4) = 32/4+4 = 12, cost(8) = 8
    # exact comparison must pick 8 even though floor(log2 t*) = 2
    inst = single(F(31))
    res = power_of_two(inst)
    c4 = F(32, 4) + F(4)
    c8 = F(32, 8) + F(8)
    assert res.cost.total == min(c4, c8)


def test_power_of_two_fractional_base():
    res = power_of_two(single(), base=F(5, 4))
    assert res.method == "pot(base=5/4)"
    # cycle is 5/4 * 2^m for integer m
    q = res.policy.cycles["a"] / F(5, 4)
    m = q.as_integer_ratio()
    assert q > 0 and (q.numerator == 1 or q.denominator == 1)


def test_power_of_two_optimized_base_near_global():
    inst = trio()
    free = exhaustive_search(inst, (1, 12))
    pot = power_of_two(inst, optimize_base=True)
    assert pot.method == "pot(opt-base)"
    ratio = float(pot.cost.total) / float(free.cost.total)
    assert 1.0 - 1e-12 <= ratio <= 1.06


def test_power_of_two_matches_fraction_reference():
    # the integer pricer ranks every pattern as seed_cost's Fraction A*B
    # does, ties to the first seen, so policy, cost and method all agree
    rng = random.Random(20261019)
    winners = set()
    refused = 0
    for i in range(198):
        n = rng.randint(1, 8)
        if i % 2:
            inst = _random_instance(rng, n)
        else:   # rational K0, setups and holding costs: scale > 1
            # every tenth repeats ids c0, c1, c0, ...
            ids = [f"c{j % 2}" if i % 10 == 0 else f"c{j}" for j in range(n)]
            commodities = tuple(
                Commodity(ids[j], F(rng.randint(1, 8)),
                          F(rng.randint(1, 30), rng.randint(1, 8)),
                          F(rng.randint(1, 100), rng.randint(1, 4)))
                for j in range(n))
            k0 = F(rng.randint(1, 50), rng.randint(1, 3))
            inst = None
            if len(set(ids)) < n:   # refused when built
                with pytest.raises(InputError, match="duplicate commodity id 'c0'"):
                    Instance(commodities, k0)
            else:
                inst = Instance(commodities, k0)
        base = rng.choice((F(1), F(1), F(3, 2), F(5, 7)))
        if inst is None:
            refused += 1
            continue
        res = power_of_two(inst, base=base, optimize_base=True)
        want = reference_power_of_two(inst, base=base)
        assert (res.policy, res.cost, res.method, res.nodes_explored) == want, i
        winners.add(tuple(sorted(set(res.policy.cycles.values()))))
    assert refused > 10 and len(winners) > 150


def test_power_of_two_answers_a_chain_past_the_cap():
    # t* = 2^i for i < 25: 25 distinct cycles, but at any base the least
    # divides every other, so one series reaches the kernel
    inst = Instance(tuple(Commodity(f"c{i}", F(2), F(1), F(4) ** i)
                          for i in range(25)), F(3))
    fixed = power_of_two(inst)
    assert fixed.policy.cycles == {f"c{i}": F(2) ** i for i in range(25)}
    assert fixed.cost == total_cost(inst, fixed.policy)
    assert fixed.cost.joint_frequency == 1
    res = power_of_two(inst, optimize_base=True)
    assert (res.policy, res.cost, res.method, res.nodes_explored) \
        == reference_power_of_two(inst)
    assert res.cost.total <= fixed.cost.total     # base 1 starts the sweep


def test_power_of_two_sweep_matches_reference():
    # the integer sweep forms the patterns that rounding every target afresh
    # at every threshold base forms, in the same order, at bases of every
    # kind; nodes are the distinct profiles priced
    rng = random.Random(20261020)
    bases = (F(1), F(3, 2), F(5, 7), F(1, 3), F(7), F(1, 1000), F(1000))
    for case in range(3 * 24):
        n = case // 3 + 1
        if case % 3 == 0:
            inst = _random_instance(rng, n)
        else:   # standalone optima several octaves apart
            inst = Instance(tuple(
                Commodity(f"c{j}", F(rng.randint(1, 8)),
                          F(rng.randint(1, 30), rng.randint(1, 8)),
                          F(rng.randint(1, 10 ** rng.randint(1, 5)),
                            rng.randint(1, 4)))
                for j in range(n)), F(rng.randint(1, 50), rng.randint(1, 3)))
        base = bases[case % len(bases)]
        res = power_of_two(inst, base=base, optimize_base=True)
        policy, cost, method, nodes = reference_power_of_two(inst, base=base)
        assert (res.cost, res.method, res.nodes_explored) == (cost, method, nodes)
        assert [(cid, type(t), t) for cid, t in res.policy.cycles.items()] \
            == [(cid, type(t), t) for cid, t in policy.cycles.items()], case
        assert 1 <= nodes <= 2 * n + 2


def test_power_of_two_beats_both_patterns_at_any_base():
    # every base of the octave is covered: at a random b in [base, 2*base)
    # the seed-optimized standalone and cluster patterns cost no less than
    # the sweep's winner
    rng = random.Random(20261024)
    for i in range(120):
        n = rng.randint(1, 10)
        inst = _random_instance(rng, n) if i % 2 else Instance(tuple(
            Commodity(f"c{j}", F(rng.randint(1, 8), rng.randint(1, 3)),
                      F(rng.randint(1, 30), rng.randint(1, 8)),
                      F(rng.randint(1, 10 ** rng.randint(1, 5)),
                        rng.randint(1, 40)))
            for j in range(n)), F(rng.randint(1, 50), rng.randint(1, 3)))
        base = rng.choice((F(1), F(3, 2), F(5, 7), F(1, 1000)))
        res = power_of_two(inst, base=base, optimize_base=True)
        targets = cluster_target_squares(inst)
        for _ in range(3):
            b = base * (1 + F(rng.randint(0, 10 ** 6 - 1), 10 ** 6))
            for sqs in ([c.setup / (c.demand * c.holding / 2)
                         for c in inst.commodities],
                        [targets[cid] for cid in inst.ids()]):
                exps = [pot_exponent(t_sq, b * b) for t_sq in sqs]
                profile = {cid: 2 ** (m - min(exps))
                           for cid, m in zip(inst.ids(), exps)}
                assert res.cost.total <= optimize_seed(inst, profile).cost.total, \
                    (i, b)


def _pair(q: Fraction) -> tuple[int, int]:
    return q.numerator, q.denominator


def test_exponent_falls_at_its_exact_threshold():
    # t^2 = 2*4^m*b^2 for b = base*x: the exponent is m at b and m + 1
    # below it, so the squared ratio returned is x^2 exactly
    rng = random.Random(7)
    for m in range(-30, 31, 3):     # 2*m0 - 1 on both sides of 0
        base = rng.choice((F(1), F(3, 2), F(5, 7), F(7)))
        x_sq = 1 + F(rng.randint(1, 10 ** 6), 10 ** 6 + 1) * 3     # in (1, 4)
        exact = 2 * F(4) ** m * base * base * x_sq
        # t^2 just above and just below that, by one part in 10^9
        above, below = exact * (1 + F(1, 10 ** 9)), exact * (1 - F(1, 10 ** 9))
        got = _exponent_falls([_pair(exact), _pair(above), _pair(below)],
                              base * base)
        assert [m0 for m0, _, _ in got] == [m + 1] * 3
        falls = [F(p, q) for _, p, q in got]
        assert falls[0] == x_sq and falls[2] < x_sq < falls[1], m
        for t_sq, (m0, p, q) in zip((exact, above, below), got):
            for y_sq in (F(1), F(p, q) * (1 - F(1, 10 ** 12)), F(p, q),
                         F(p, q) * (1 + F(1, 10 ** 12))):
                if y_sq < 4:
                    assert pot_exponent(t_sq, base * base * y_sq) \
                        == m0 - (y_sq >= F(p, q))
    # a target at the top of its rounding interval falls only at x^2 = 4,
    # outside the octave: t^2/base^2 = 2*4^m
    assert _exponent_falls([(8, 1)], F(1)) == [(1, 8, 2)]


def test_pot_exponent_falls_at_most_once_per_octave():
    rng = random.Random(11)
    for _ in range(60):
        base = F(rng.randint(1, 50), rng.randint(1, 50))
        t_sqs = [F(rng.randint(1, 10 ** rng.randint(1, 12)),
                   rng.randint(1, 10 ** rng.randint(1, 12))) for _ in range(4)]
        falls = _exponent_falls([_pair(t_sq) for t_sq in t_sqs], base * base)
        x_sqs = sorted(1 + F(rng.randint(0, 3 * 10 ** 6 - 1), 10 ** 6)
                       for _ in range(50))
        for t_sq, (m0, p, q) in zip(t_sqs, falls):
            assert 1 < F(p, q) <= 4
            exps = [pot_exponent(t_sq, base * base * x_sq) for x_sq in x_sqs]
            # m0 below the threshold and m0 - 1 from it on, across the octave
            assert exps == [m0 - (x_sq >= F(p, q)) for x_sq in x_sqs]


def test_octave_sweeps_order_thresholds_as_fractions():
    # integer keys order the thresholds exactly as Fractions do: distinct
    # ones close together, equal ones written with different (p, q), and
    # x^2 = 4, which lies outside the octave and gets no key
    rng = random.Random(20261025)
    for _ in range(200):
        lists, fracs = [], {}
        for li in range(2):
            falls = []
            for i in range(rng.randint(1, 8)):
                q = rng.randint(1, 10 ** rng.randint(1, 30))
                kind = rng.random()
                if kind < 0.15:
                    p = 4 * q
                elif kind < 0.4 and fracs:     # equal to an earlier one
                    r = rng.choice(list(fracs.values()))
                    k = rng.randint(1, 1000)
                    p, q = r.numerator * k, r.denominator * k
                elif kind < 0.6 and fracs:     # just above an earlier one
                    r = rng.choice(list(fracs.values()))
                    k = rng.randint(2, 10 ** 6)
                    p, q = min(r.numerator * k + 1, 4 * r.denominator * k - 1), \
                        r.denominator * k
                else:
                    p = rng.randint(q + 1, 4 * q)
                falls.append((rng.randint(-5, 5), p, q))
                fracs[li, i] = F(p, q)
            lists.append(falls)
        sweeps = _octave_sweeps(lists)
        inside = {li_i: r for li_i, r in fracs.items() if r < 4}
        key_of = {}
        for li, (exps, at) in enumerate(sweeps):
            assert exps == [m0 for m0, _, _ in lists[li]]
            for key, indices in at.items():
                for i in indices:
                    key_of[li, i] = key
        assert set(key_of) == set(inside)
        for a in inside:
            for b in inside:
                assert (key_of[a] < key_of[b]) == (inside[a] < inside[b])
                assert (key_of[a] == key_of[b]) == (inside[a] == inside[b])


def _weighted(k0, setups_weights) -> Instance:
    # lambda = 2 and h = w give the holding weight lambda*h/2 = w
    return Instance(tuple(Commodity(f"c{i}", F(2), F(w), F(k))
                          for i, (k, w) in enumerate(setups_weights)), F(k0))


def test_cluster_targets_match_the_fraction_oracle():
    # K0 = 1: c0 and c2 tie at t*^2 = 1 and both join, which makes the
    # shared square (1 + 2 + 1) / (2 + 1) = 4/3; c1 sits exactly there,
    # t*^2 = 8/6, and stays out with its own pair
    inst = _weighted(1, [(2, 2), (8, 6), (1, 1)])
    targets = _cluster_targets(_scaled_costs(inst))     # scale 1
    assert targets == [(4, 3), (8, 6), (4, 3)]
    want = cluster_target_squares(inst)
    assert [F(p, q) for p, q in targets] == [want[cid] for cid in inst.ids()]
    # c0 and c1 tie at t*^2 = 1 and both join, over the scale 2:
    # (1 + 6 + 2) / (6 + 2) = 9/8; c2 keeps t*^2 = 18/4
    inst = _weighted(F(1, 2), [(3, 3), (1, 1), (9, 2)])
    assert _cluster_targets(_scaled_costs(inst)) == [(9, 8), (9, 8), (18, 4)]
    # t*^2 drawn from a few values, so ties and boundary hits are common
    rng = random.Random(20261022)
    at_boundary = 0
    for _ in range(400):
        n = rng.randint(1, 8)
        kw = []
        for _ in range(n):
            w = F(rng.randint(1, 3), rng.randint(1, 2))
            kw.append((w * rng.choice((F(1, 2), F(1), F(3, 2), F(2), F(3))), w))
        inst = _weighted(rng.choice((F(1, 2), F(1), F(2))), kw)
        scaled = _scaled_costs(inst)
        targets = _cluster_targets(scaled)
        want = cluster_target_squares(inst)
        assert [F(p, q) for p, q in targets] == [want[cid] for cid in inst.ids()]
        shared = max(targets)   # the cluster's pair has the largest terms
        own = list(zip(scaled.setups, scaled.weights))
        at_boundary += any(t == o != shared and F(*o) == F(*shared)
                           for t, o in zip(targets, own))
    assert at_boundary > 10


def test_repeated_id_is_refused_before_any_solve():
    # ids a, a, b: a policy gives a one cycle, so no profile of the scan
    # could be realised; every such instance is refused when it is built
    rng = random.Random(20261019)
    for _ in range(200):
        commodities = tuple(
            Commodity(cid, F(rng.randint(1, 8)),
                      F(rng.randint(1, 30), rng.randint(1, 8)),
                      F(rng.randint(1, 100), rng.randint(1, 4)))
            for cid in ("a", "a", "b"))
        result = None
        with pytest.raises(InputError, match=r"^duplicate commodity id 'a'$"):
            result = exhaustive_search(Instance(commodities, F(rng.randint(1, 50))),
                                       (1, 4))
        assert result is None


def test_power_of_two_exact_tie_keeps_first_pattern():
    # at base 1 the standalone pattern (2, 1, 4) comes before the cluster
    # pattern (1, 1, 2); both cost exactly 20 with different policies
    inst = Instance((Commodity("c0", F(1), F(4), F(11)),
                     Commodity("c1", F(1), F(4), F(4)),
                     Commodity("c2", F(1), F(1), F(8))), F(1))
    first, second = (optimize_seed(inst, dict(zip(inst.ids(), ks)))
                     for ks in ((2, 1, 4), (1, 1, 2)))
    assert first.cost.total == second.cost.total == 20
    assert first.policy != second.policy
    # base 2 starts the sweep at the same point of the octave as base 1
    for base in (F(1), F(2)):
        res = power_of_two(inst, base=base, optimize_base=True)
        assert (res.policy, res.cost) == (first.policy, first.cost)


def test_power_of_two_ujr_is_min_cycle():
    # all cycles share one base: the union rate is 1/min cycle
    inst = trio()
    res = power_of_two(inst, optimize_base=True)
    assert res.cost.joint_frequency == 1 / min(res.policy.cycles.values())


def test_solve_results_are_self_consistent():
    inst = trio()
    for res in (
        exhaustive_search(inst, (1, 8)),
        coordinate_descent(inst),
        power_of_two(inst),
        power_of_two(inst, optimize_base=True),
        optimize_seed(inst, SeedProfile({"c0": 1, "c1": 1, "c2": 2})),
    ):
        again = total_cost(inst, res.policy)
        assert again.total == res.cost.total
        assert res.nodes_explored >= 1
        assert res.wall_time >= 0.0


def test_empty_instance_rejected():
    empty = Instance((), F(1))
    with pytest.raises(InputError):
        exhaustive_search(empty, (1, 4))
    with pytest.raises(InputError):
        coordinate_descent(empty)
    with pytest.raises(InputError):
        power_of_two(empty)
    with pytest.raises(InputError):
        optimize_seed(empty, SeedProfile({}))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=400), min_size=1,
                max_size=3),
       st.data())
def test_exhaustive_dominates_its_own_space(ks, data):
    # the exhaustive result is no worse than any sampled profile from the
    # same multiplier space under its own best seed
    inst = Instance(
        tuple(Commodity(f"c{i}", F(2), F(1), F(k))
              for i, k in enumerate(ks)), F(1))
    ex = exhaustive_search(inst, (1, 6))
    for _ in range(5):
        profile = {c.id: data.draw(st.integers(min_value=1, max_value=6))
                   for c in inst.commodities}
        rival = optimize_seed(inst, SeedProfile(profile))
        assert ex.cost.total <= rival.cost.total * (1 + F(1, 10**12))
