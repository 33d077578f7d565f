import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jrp_forge import sync
from jrp_forge.cli import _random_instance
from jrp_forge.cost import total_cost
from jrp_forge.eoq import optimal_cycle, sqrt_fraction, standalone_cost
from jrp_forge.model import Commodity, InputError, Instance, Policy, SeedProfile
from jrp_forge.solve import (
    MAX_GRID,
    _grid_step,
    _pot_exponent,
    coordinate_descent,
    default_candidates,
    exhaustive_search,
    optimize_seed,
    power_of_two,
)

from .oracles import exhaustive_argmin, reference_descent

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
    # both endpoints won somewhere
    assert kinds_seen == {"interior", "lo", "hi"}
    assert mixed >= 30
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


def test_coordinate_descent_custom_candidates():
    inst = single()
    res = coordinate_descent(
        inst, candidate_fn=lambda ins, pol, cid: [F(4), F(5), F(6)])
    assert res.policy.cycles["a"] == F(5)


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
    # ints and equal Fractions, duplicates, non-positive values, the current
    # cycle and rationals derived from the others' cycles
    others = [t for other, t in policy.cycles.items() if other != cid]
    return ([0, -2, 1, 2, 3, 4, 6, 8, F(8), F(5, 2), F(16, 3),
             policy.cycle(cid)]
            + [t.numerator // t.denominator + 1 for t in others]
            + [t * F(3, 2) for t in others[:3]])


def test_descent_matches_total_cost_reference():
    rng = random.Random(2024)
    runs = int_moves = 0
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
                got = coordinate_descent(inst, start=start, candidate_fn=cand_fn,
                                         max_rounds=max_rounds)
                policy, cost, nodes = reference_descent(
                    inst, start or coordinate_descent(inst, max_rounds=0).policy,
                    cand_fn or default_candidates, max_rounds=max_rounds)
                assert _typed(got.policy) == _typed(policy), (n, max_rounds)
                assert got.cost == cost
                assert got.nodes_explored == nodes
                runs += 1
                int_moves += any(type(t) is int for t in policy.cycles.values())
    assert runs == 7 * 3 * 2 + 7 + 2
    assert int_moves > 0


def test_descent_cap_refusal_matches_ujr():
    inst = trio()
    # the start policy alone holds 2 distinct cycles
    start = Policy({"c0": F(1), "c1": F(2), "c2": F(2)})
    with pytest.raises(sync.CapExceeded) as from_ujr:
        sync.ujr(list(start.cycles.values()), cap=1)
    with pytest.raises(sync.CapExceeded) as from_descent:
        coordinate_descent(inst, start=start, cap=1)
    assert str(from_descent.value) == str(from_ujr.value)

    # within the cap at the start; only c1 has a candidate, a new third
    # distinct series (its own cycle 2 stays with c2) too costly to accept,
    # so only the trial itself can refuse it
    def new_series(instance, policy, cid):
        return [F(100)] if cid == "c1" else []
    with pytest.raises(sync.CapExceeded) as from_ujr:
        sync.ujr([F(1), F(100), F(2)], cap=2)
    with pytest.raises(sync.CapExceeded) as from_descent:
        coordinate_descent(inst, start=start, candidate_fn=new_series, cap=2)
    with pytest.raises(sync.CapExceeded) as from_reference:
        reference_descent(inst, start, new_series, cap=2)
    assert str(from_descent.value) == str(from_ujr.value) \
        == str(from_reference.value)

    # a trial cycle another commodity already has adds no distinct series:
    # c2 tries c0's cycle 1 against the others' two distinct series
    def repeated_series(instance, policy, cid):
        return [F(1)] if cid == "c2" else []
    res = coordinate_descent(inst, start=start, candidate_fn=repeated_series,
                             cap=2)
    assert (res.policy, res.nodes_explored) == (start, 2)
    assert res.policy == reference_descent(inst, start, repeated_series,
                                           cap=2)[0]


def test_pot_exponent_matches_cost_comparison():
    rng = random.Random(99)
    signs = Counter()
    for _ in range(400):
        c = Commodity("a", F(rng.randint(1, 9), rng.randint(1, 3)),
                      F(rng.randint(1, 50), rng.randint(1, 9)),
                      F(rng.randint(1, 10**4), rng.randint(1, 40)))
        base = F(rng.randint(1, 10**4), rng.randint(1, 10**3))
        t_sq = 2 * c.setup / (c.demand * c.holding)
        m = _pot_exponent(t_sq, base * base)
        # the g-minimizing exponent, ties to the smaller m
        costs = {e: standalone_cost(c, base * F(2) ** e) for e in range(m - 3, m + 4)}
        assert min(costs, key=lambda e: (costs[e], e)) == m
        # base*2^m in [t/sqrt(2), t*sqrt(2)), in squares, for t^2 = t_sq and
        # for a joint-setup target of another rational square
        target_sq = t_sq * F(rng.randint(1, 20), rng.randint(1, 20))
        for sq in (t_sq, target_sq):
            e = _pot_exponent(sq, base * base)
            x_sq = (base * F(2) ** e) ** 2
            assert sq / 2 <= x_sq < 2 * sq
        signs[(m > 0) - (m < 0)] += 1
    assert signs[-1] > 50 and signs[1] > 50 and signs[0] > 0
    # exact half-points go down: x = base*2^m with x^2 = t^2/2 is kept, so
    # x^2 = 2*t^2 is not
    assert _pot_exponent(F(8), F(1)) == 1           # x = 2, x^2 = 4
    assert _pot_exponent(F(1, 8), F(1)) == -2       # x = 1/4, x^2 = 1/16
    assert _pot_exponent(F(1, 2), F(1)) == -1       # not x = 1, x^2 = 1


# round(2**(24 + j/64)) for j = 0..63, the default grid of power_of_two
GRID_64 = (
    16777216, 16959908, 17144589, 17331282, 17520007, 17710787, 17903645,
    18098603, 18295684, 18494911, 18696307, 18899897, 19105703, 19313750,
    19524063, 19736666, 19951585, 20168843, 20388467, 20610483, 20834917,
    21061794, 21291142, 21522987, 21757357, 21994279, 22233781, 22475891,
    22720638, 22968049, 23218155, 23470984, 23726566, 23984932, 24246111,
    24510133, 24777031, 25046835, 25319578, 25595290, 25874004, 26155754,
    26440571, 26728490, 27019544, 27313768, 27611195, 27911861, 28215802,
    28523052, 28833647, 29147625, 29465022, 29785875, 30110222, 30438101,
    30769550, 31104608, 31443315, 31785710, 32131834, 32481727, 32835430,
    33192984,
)


def test_grid_steps_are_exact_roots():
    assert tuple(_grid_step(j, 64) for j in range(64)) == GRID_64
    for j, x in enumerate(GRID_64):
        # x - 1/2 < 2^(24 + j/64) < x + 1/2, raised to the 64th power
        assert (2 * x - 1) ** 64 < 2 ** (25 * 64 + j) < (2 * x + 1) ** 64
    # the float formula the grid used before agrees on every grid up to 256
    for grid in range(1, 257):
        assert [_grid_step(j, grid) for j in range(grid)] \
            == [round(2 ** (j / grid) * 2 ** 24) for j in range(grid)], grid


def test_power_of_two_grid_range():
    assert power_of_two(single(), optimize_base=True,
                        grid=MAX_GRID).method == "pot(opt-base)"
    # refused before any grid step is computed (grid 4096 would take seconds)
    for grid in (0, MAX_GRID + 1, 4096):
        with pytest.raises(InputError, match="grid must be"):
            power_of_two(single(), optimize_base=True, grid=grid)


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
