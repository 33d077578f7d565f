"""Policy cost evaluation: totals, class decomposition, marginal rates.

Total average periodic cost of a policy is the sum of standalone costs plus
the joint setup paid at the union rate:

    TC = sum_c g_c(t_c) + K0 * UJR({t_c})

The decomposition charges each commodity class its marginal union
contribution in the fixed order constants -> variables -> clauses.

seed_cost, the exhaustive and power-of-two scans and the roundtrip's
assignment policies (integer profiles at seed 1) price a multiplier profile
through one integer helper, _profile_pricer, over the instance's costs
scaled to integers once by _scaled_costs.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Optional

from . import sync
from .eoq import standalone_cost
from .model import (
    Commodity,
    CommodityKind,
    InputError,
    Instance,
    JrpError,
    Policy,
    SeedProfile,
    validate_policy,
)

@dataclass(frozen=True)
class CostBreakdown:
    standalone_total: Fraction
    joint_frequency: Fraction     # orders per period paying K0
    joint_cost: Fraction          # K0 * joint_frequency
    total: Fraction
    tc_constants: Optional[Fraction] = None
    tc_variables: Optional[Fraction] = None
    tc_clauses: Optional[Fraction] = None


def _require_coverage(instance: Instance, policy: Policy) -> None:
    report = validate_policy(instance, policy)
    if not report.ok:
        raise InputError("; ".join(report.findings))


def total_cost(instance: Instance, policy: Policy,
               cap: int | None = None) -> CostBreakdown:
    """Exact cost of a policy; joint term via the union rate of all cycles."""
    _require_coverage(instance, policy)
    standalone = Fraction(0)
    for c in instance.commodities:
        standalone += standalone_cost(c, policy.cycle(c.id))
    freq = sync.ujr([policy.cycle(c.id) for c in instance.commodities], cap=cap) \
        if instance.commodities else Fraction(0)
    joint = instance.joint_setup * freq
    return CostBreakdown(standalone, freq, joint, standalone + joint)


def decompose(instance: Instance, policy: Policy,
              cap: int | None = None) -> CostBreakdown:
    """Class decomposition: each class pays its marginal joint contribution.

    With TC the total cost of the sub-instance on the listed classes, the
    constants pay TC(C), the variables the growth TC(C+V) - TC(C) and the
    clauses the rest, TC(C+V+Z) - TC(C+V); joint terms grow with the union
    of the series. Requires every commodity to carry a class tag.
    """
    _require_coverage(instance, policy)
    for c in instance.commodities:
        if c.kind is CommodityKind.GENERIC:
            raise InputError(
                f"decompose requires classed commodities; {c.id!r} is {c.kind.value}")
    prefix: list[Commodity] = []
    totals = []
    for kind in (CommodityKind.CONSTANT, CommodityKind.VARIABLE, CommodityKind.CLAUSE):
        prefix += [c for c in instance.commodities if c.kind is kind]
        sub_policy = Policy({c.id: policy.cycle(c.id) for c in prefix})
        totals.append(total_cost(Instance(tuple(prefix), instance.joint_setup),
                                 sub_policy, cap=cap))
    tc_c, tc_cv, tc_all = (t.total for t in totals)
    return replace(totals[-1], tc_constants=tc_c, tc_variables=tc_cv - tc_c,
                   tc_clauses=tc_all - tc_cv)


def marginal_jr(instance: Instance, policy: Policy, commodity_id: str,
                cap: int | None = None) -> Fraction:
    """Marginal union-rate contribution of one commodity's series.

    Computed both as UJR(all) - UJR(others) and as UJR(own) - IJR(own, others);
    the two must agree exactly (union/intersection cardinality), and the
    agreement is verified on every call.
    """
    _require_coverage(instance, policy)
    t = policy.cycle(commodity_id)
    instance.commodity(commodity_id)  # raises if unknown
    others = [policy.cycle(c.id) for c in instance.commodities if c.id != commodity_id]
    if not others:
        return Fraction(1) / t
    via_union = sync.ujr(others + [t], cap=cap) - sync.ujr(others, cap=cap)
    via_intersection = Fraction(1) / t - sync.ijr([[t], others], cap=cap)
    if via_union != via_intersection:
        raise JrpError(
            f"marginal rate mismatch for {commodity_id!r}: "
            f"{via_union} != {via_intersection}")
    return via_union


class _ScaledCosts(NamedTuple):
    """An instance's costs as integers over one denominator, the scale S:
    K0 = k0/S, each setup K = s/S and each holding weight lambda*h/2 = w/S.
    S is the lcm of the denominators of all of them."""
    k0: int
    setups: list[int]
    weights: list[int]
    scale: int


def _scaled_costs(instance: Instance) -> _ScaledCosts:
    parts = [(q.numerator, q.denominator) for q in
             (instance.joint_setup, *(c.setup for c in instance.commodities))]
    # each weight in lowest terms from the integers of lambda and h, which
    # is several times cheaper than Fraction products
    for c in instance.commodities:
        num = c.demand.numerator * c.holding.numerator
        den = 2 * c.demand.denominator * c.holding.denominator
        g = gcd(num, den)
        parts.append((num // g, den // g))
    scale = lcm(*(den for _, den in parts))
    k0, *ints = (num * (scale // den) for num, den in parts)
    n = len(instance.commodities)
    return _ScaledCosts(k0, ints[:n], ints[n:], scale)


def _profile_pricer(scaled: _ScaledCosts, cap: int | None):
    """Integer prices of multiplier profiles.

    With S the scale of scaled and H = lcm(ks) a profile's hyperperiod,
    cost(beta) = A/beta + B*beta has integer a = A*S*H and b = B*S, so
    A*B = a*b / (S^2*H). The returned price(ks) gives (a, b, H) for
    multipliers ks in commodity order. The joint term of a is K0*S times
    the union count of sync's integer core, scaled from the core's
    hyperperiod up to H, computed once per distinct set of multipliers; as
    in ujr, the cap counts the multipliers left after the core prunes those
    another divides.
    """
    k0_int, setup_ints, weight_ints = scaled.k0, scaled.setups, scaled.weights
    joint_cache: dict[frozenset[int], tuple[int, int]] = {}

    def price(ks: tuple[int, ...]) -> tuple[int, int, int]:
        key = frozenset(ks)
        joint = joint_cache.get(key)
        if joint is None:
            count, hyper = sync._int_ujr(key, cap)     # UJR = count / hyper
            h = lcm(*key)
            joint = joint_cache[key] = (k0_int * count * (h // hyper), h)
        a, h = joint
        b = 0
        for setup, weight, k in zip(setup_ints, weight_ints, ks):
            a += setup * (h // k)
            b += weight * k
        return a, b, h

    return price


def seed_cost(instance: Instance, profile: SeedProfile,
              cap: int | None = None) -> tuple[Fraction, Fraction]:
    """Coefficients (A, B) with cost(beta) = A/beta + B*beta for the profile.

    A collects setups and the joint term at the unscaled integer profile
    (union rates scale as 1/beta); B collects holding. The identity
    cost(beta) = total_cost(expand_profile) holds for every rational beta.
    """
    ids = set(instance.ids())
    if set(profile.multipliers) != ids:
        raise InputError("profile does not cover the instance's commodities")
    if not ids:
        raise InputError("cannot price an empty instance")
    ks = tuple(profile.multipliers[c.id] for c in instance.commodities)
    for c, k in zip(instance.commodities, ks):
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise InputError(f"multiplier for {c.id!r} must be a positive integer")
    scaled = _scaled_costs(instance)
    a, b, h = _profile_pricer(scaled, cap)(ks)
    return Fraction(a, scaled.scale * h), Fraction(b, scaled.scale)
