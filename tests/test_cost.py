import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jrp_forge.cost import (
    _scaled_costs,
    decompose,
    jr_bounds,
    marginal_jr,
    seed_cost,
    total_cost,
)
from jrp_forge.model import (
    Commodity,
    CommodityKind,
    InputError,
    Instance,
    Policy,
    SeedProfile,
    expand_profile,
)
from jrp_forge.reduction import ReductionConstants, assignment_to_policy, reduce_formula
from jrp_forge.sat import CnfFormula
from jrp_forge.sync import CapExceeded, ujr

from .oracles import enum_union_rate

F = Fraction


def single():
    c = Commodity("a", F(2), F(1), F(25))
    return Instance((c,), F(1))


def classed_instance():
    return Instance(
        commodities=(
            Commodity("y1", F(2), F(1), F(8), CommodityKind.CONSTANT),
            Commodity("x1", F(2), F(1, 2), F(9), CommodityKind.VARIABLE),
            Commodity("z1", F(1), F(1, 3), F(6), CommodityKind.CLAUSE),
        ),
        joint_setup=F(2),
    )


def test_total_cost_example():
    b = total_cost(single(), Policy({"a": F(5)}))
    assert b.total == F(51, 5)
    assert b.standalone_total == F(10)
    assert b.joint_frequency == F(1, 5)
    assert b.joint_cost == F(1, 5)
    assert b.tc_constants is None


def test_total_cost_requires_coverage():
    with pytest.raises(InputError):
        total_cost(single(), Policy({}))
    with pytest.raises(InputError):
        total_cost(single(), Policy({"a": F(5), "ghost": F(2)}))


def test_decompose_conserves_total():
    inst = classed_instance()
    pol = Policy({"y1": F(2), "x1": F(3), "z1": F(6)})
    b = decompose(inst, pol)
    assert b.tc_constants + b.tc_variables + b.tc_clauses == b.total
    assert b.total == total_cost(inst, pol).total


def test_decompose_marginal_order():
    # constants absorb their own union; variables pay only growth; clauses rest
    inst = classed_instance()
    pol = Policy({"y1": F(2), "x1": F(2), "z1": F(4)})
    b = decompose(inst, pol)
    # x1 at the same cycle as y1 adds no joint epochs
    assert b.tc_variables == F(9) / 2 + F(2) * F(1, 2) * 2 / 2
    # z1 at 4 adds nothing either (multiples of 4 are multiples of 2)
    assert b.tc_clauses == F(6) / 4 + F(1) * F(1, 3) * 4 / 2


def test_decompose_rejects_unclassed():
    with pytest.raises(InputError):
        decompose(single(), Policy({"a": F(5)}))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=5),
       st.fractions(min_value=F(1), max_value=F(2), max_denominator=16))
def test_marginal_jr_consistent_and_oracle(periods, seed):
    cs = tuple(Commodity(f"c{i}", F(2), F(1), F(3))
               for i in range(len(periods)))
    inst = Instance(cs, F(1))
    pol = Policy({f"c{i}": p * seed for i, p in enumerate(periods)})
    # marginal_jr internally cross-checks the union and intersection routes
    m = marginal_jr(inst, pol, "c0")
    others = [p * seed for p in periods[1:]]
    expect = enum_union_rate([periods[0] * seed] + others)
    if others:
        expect -= enum_union_rate(others)
    assert m == expect


def test_marginal_jr_singleton():
    inst = single()
    assert marginal_jr(inst, Policy({"a": F(5)}), "a") == F(1, 5)


def test_jr_bounds_example():
    # variable at cycle 11, joint setup 1, alpha_c = 1 -> ub = 1/11
    out = reduce_formula(CnfFormula(1, ()))
    pol = assignment_to_policy(out, (False,))
    lb, ub = jr_bounds(out.instance, pol, "x1", out.alpha)
    assert ub == F(1, 11)
    assert lb == out.alpha.alpha_v * out.alpha.alpha_n / 11
    rate = marginal_jr(out.instance, pol, "x1")
    assert lb <= rate <= ub


def test_jr_bounds_requires_variable():
    out = reduce_formula(CnfFormula(1, ()))
    pol = assignment_to_policy(out, (False,))
    with pytest.raises(InputError):
        jr_bounds(out.instance, pol, "y1", out.alpha)


def test_jr_bounds_sandwich_generated_instance():
    # both truth values of every variable on a generated 2-variable instance
    out = reduce_formula(CnfFormula(2, ()))
    for bits in range(4):
        assign = (bool(bits & 1), bool(bits & 2))
        pol = assignment_to_policy(out, assign)
        for cid in ("x1", "x2"):
            lb, ub = jr_bounds(out.instance, pol, cid, out.alpha)
            rate = marginal_jr(out.instance, pol, cid)
            assert lb <= rate <= ub


def test_seed_cost_example():
    a, b = seed_cost(single(), SeedProfile({"a": 5}))
    assert (a, b) == (F(26, 5), F(5))


def test_seed_cost_validates():
    with pytest.raises(InputError):
        seed_cost(single(), SeedProfile({"b": 1}))
    with pytest.raises(InputError):
        seed_cost(single(), SeedProfile({"a": 0}))
    with pytest.raises(InputError):
        seed_cost(Instance((), F(1)), SeedProfile({}))


def test_seed_cost_cap_counts_pruned_multipliers():
    # three distinct multipliers of which one absorbs the others pass a cap
    # of 1, and two left after the prune pass a cap of 2; three pairwise
    # non-dividing multipliers are refused with the message ujr gives
    cs = tuple(Commodity(f"c{i}", F(1), F(1), F(1)) for i in range(3))
    inst = Instance(cs, F(1))
    a, b = seed_cost(inst, SeedProfile({"c0": 2, "c1": 4, "c2": 8}), cap=1)
    assert (a, b) == (F(1, 2) + F(1, 4) + F(1, 8) + F(1, 2), F(7))
    a, b = seed_cost(inst, SeedProfile({"c0": 2, "c1": 3, "c2": 6}), cap=2)
    assert (a, b) == (F(1, 2) + F(1, 3) + F(1, 6) + F(2, 3), F(11, 2))
    with pytest.raises(CapExceeded) as want:
        ujr([2, 3, 5], cap=2)
    with pytest.raises(CapExceeded) as exc:
        seed_cost(inst, SeedProfile({"c0": 2, "c1": 3, "c2": 5}), cap=2)
    assert str(exc.value) == str(want.value) == (
        "more than 2 series remain after pruning (the inclusion-exclusion "
        "cap); use ujr_enumerate or raise the cap")


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
       st.fractions(min_value=F(1, 4), max_value=F(4), max_denominator=12))
def test_seed_cost_identity(multipliers, beta):
    cs = tuple(Commodity(f"c{i}", F(i + 1), F(1, i + 1), F(2 * i + 1))
               for i in range(len(multipliers)))
    inst = Instance(cs, F(3, 2))
    profile = {f"c{i}": k for i, k in enumerate(multipliers)}
    a, b = seed_cost(inst, SeedProfile(profile))
    pol = expand_profile(SeedProfile(profile, beta))
    assert total_cost(inst, pol).total == a / beta + b * beta


_POSITIVE = st.fractions(min_value=F(1, 64), max_value=F(500), max_denominator=96)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_POSITIVE, st.lists(st.tuples(_POSITIVE, _POSITIVE, _POSITIVE),
                           min_size=1, max_size=6))
def test_scaled_costs_share_one_scale(k0, costs):
    # every cost over the one scale S, which is the lcm of the
    # denominators of K0, of the setups and of the weights lambda*h/2
    inst = Instance(tuple(Commodity(f"c{i}", lam, h, k)
                          for i, (lam, h, k) in enumerate(costs)), k0)
    scaled = _scaled_costs(inst)
    s = scaled.scale
    weights = [lam * h / 2 for lam, h, _ in costs]
    assert F(scaled.k0, s) == k0
    assert [F(x, s) for x in scaled.setups] == [k for _, _, k in costs]
    assert [F(x, s) for x in scaled.weights] == weights
    assert s == math.lcm(k0.denominator,
                         *(k.denominator for _, _, k in costs),
                         *(w.denominator for w in weights))
