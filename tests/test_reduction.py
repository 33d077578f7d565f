import json
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from jrp_forge import _kernels, reduction
from jrp_forge.cost import decompose, total_cost
from jrp_forge.eoq import theta_pair
from jrp_forge.model import CommodityKind, InputError
from jrp_forge.reduction import (
    ROUNDTRIP_MAX_CLAUSES,
    ROUNDTRIP_MAX_VARS,
    _MR_PROVEN_BOUND,
    ConfigRejected,
    PrimePair,
    ReductionConstants,
    _AssignmentTables,
    assignment_to_policy,
    build_clause_commodity,
    build_constant_commodity,
    build_variable_commodity,
    check_gap_inequality,
    clause_synchronized,
    clause_target,
    compute_delta,
    default_alpha_v_bar,
    is_prime,
    policy_to_assignment,
    reduce_formula,
    reduction_from_json,
    reduction_to_json,
    select_prime_pairs,
    verify_roundtrip,
)
from jrp_forge.sat import CapExceeded, CnfFormula, brute_force_sat, evaluate

from .oracles import reference_roundtrip

F = Fraction

# the frozen desk-scale corpus over three variables
CORPUS = {
    "empty": (),
    "one_pos": ((1, 2, 3),),
    "one_neg": ((-1, -2, -3),),
    "pos_and_neg": ((1, 2, 3), (-1, -2, -3)),
    "mixed3": ((1, -2, 3), (-1, 2, -3), (1, 2, -3)),
    "mixed4": ((1, 2, 3), (-1, -2, 3), (1, -2, -3), (-1, 2, -3)),
    "unsat8": tuple(
        tuple(s * v for s, v in zip(signs, (1, 2, 3)))
        for signs in product((1, -1), repeat=3)
    ),
}


# ---------------------------------------------------------------------------
# primes and constants


def test_is_prime_matches_sympy():
    for n in range(0, 5000):
        assert is_prime(n) == sympy.isprime(n), n
    for n in (2**31 - 1, 2**61 - 1, 10**12 + 39, 10**12 + 61,
              sympy.prevprime(_MR_PROVEN_BOUND), _MR_PROVEN_BOUND - 2):
        assert is_prime(n) == sympy.isprime(n), n
    # the least strong pseudoprime to bases 2..37 is the bound itself, and
    # every n from there up is refused
    assert _MR_PROVEN_BOUND == 399165290221 * 798330580441
    for n in (_MR_PROVEN_BOUND, _MR_PROVEN_BOUND + 2, 2**89 - 1):
        with pytest.raises(InputError):
            is_prime(n)


def test_select_prime_pairs_frozen():
    pairs = select_prime_pairs(5)
    assert [(p.low, p.high) for p in pairs] == [
        (11, 13), (17, 19), (29, 31), (41, 43), (59, 61)]
    assert [p.index for p in pairs] == [1, 2, 3, 4, 5]
    assert all(p.gap == 2 for p in pairs)


def test_select_prime_pairs_are_twin_primes():
    for p in select_prime_pairs(12):
        assert sympy.isprime(p.low) and sympy.isprime(p.high)
        assert p.high == p.low + 2
        assert p.low >= 11


def test_select_prime_pairs_rejects_nonpositive():
    with pytest.raises(InputError):
        select_prime_pairs(0)


def test_compute_delta_frozen():
    assert compute_delta(1, select_prime_pairs(1)) == F(1, 28_960_854)
    assert compute_delta(3, select_prime_pairs(3)) == F(1, 15_975_066_258)
    # closed form: 1 / (6 n high_n^6)
    for n in (1, 2, 4):
        pairs = select_prime_pairs(n)
        assert compute_delta(n, pairs) == F(1, 6 * n * pairs[-1].high ** 6)


def test_alpha_defaults_resolve_per_size():
    assert default_alpha_v_bar(1) == F(15827, 20000)
    assert default_alpha_v_bar(2) == F(74617, 100000)
    assert default_alpha_v_bar(3) == F(147, 200)
    assert default_alpha_v_bar(9) == F(147, 200)
    alpha = ReductionConstants().resolved(2)
    assert alpha.alpha_c == 1
    assert alpha.alpha_v == F(1, 10)
    assert alpha.alpha_n == F(1, 10)
    assert alpha.alpha_v_bar == F(74617, 100000)
    # explicit override survives resolution
    custom = ReductionConstants(alpha_v_bar=F(1, 2)).resolved(5)
    assert custom.alpha_v_bar == F(1, 2)


# ---------------------------------------------------------------------------
# commodity builders


def test_constant_commodity_bracketing_is_exact():
    delta = compute_delta(1, select_prime_pairs(1))
    c = build_constant_commodity(77, delta)
    # anchored identities: K * (delta^2 + 2 delta) = 1 = K0 and h = K / t*^2
    assert c.setup * (delta * delta + 2 * delta) == 1
    assert c.holding == c.setup / 77**2
    assert c.demand == 2
    lo, hi = theta_pair(c, F(1))
    assert (lo.cycle, hi.cycle) == (F(77), (1 + delta) * 77)
    assert lo.exact and hi.exact


def test_constant_commodity_frozen_values():
    delta = F(1, 28_960_854)
    c = build_constant_commodity(77, delta)
    assert c.setup == F(838_731_064_409_316, 57_921_709)
    assert c.holding == F(838_731_064_409_316, 343_417_812_661)


def test_constant_commodity_validation():
    with pytest.raises(InputError):
        build_constant_commodity(0, F(1, 100))
    with pytest.raises(InputError):
        build_constant_commodity(7, F(0))


def test_clause_target_sign_convention():
    pairs = select_prime_pairs(3)
    # negative literal -> low prime, positive -> high prime
    assert clause_target((-1, 2, -3), pairs) == 11 * 19 * 29
    assert clause_target((1, 2, 3), pairs) == 13 * 19 * 31
    assert clause_target((-1, -2, -3), pairs) == 11 * 17 * 29


def test_clause_target_requires_three_distinct():
    pairs = select_prime_pairs(3)
    with pytest.raises(InputError):
        clause_target((1, 2), pairs)
    with pytest.raises(InputError):
        clause_target((1, -1, 2), pairs)


def test_clause_commodity_same_anchor_shape():
    pairs = select_prime_pairs(3)
    delta = compute_delta(3, pairs)
    z = build_clause_commodity((-1, 2, -3), pairs, delta)
    t = 11 * 19 * 29
    assert z.kind is CommodityKind.CLAUSE
    assert z.setup * (delta * delta + 2 * delta) == 1
    lo, hi = theta_pair(z, F(1))
    assert (lo.cycle, hi.cycle) == (F(t), (1 + delta) * t)


def test_variable_commodity_frozen_values():
    alpha = ReductionConstants().resolved(1)
    vc = build_variable_commodity(PrimePair(1, 11, 2), alpha)
    assert vc.holding == F(39, 44)
    assert vc.setup == F(30_214_249, 240_000)
    assert vc.demand == 2
    t_sq = vc.setup / (vc.demand * vc.holding / 2)
    assert t_sq == F(25_565_903, 180_000)
    assert 11**2 < t_sq < 13**2


def test_variable_commodity_formula_restated():
    # independent restatement: b = gap, half = b/2,
    #   h = alpha_c (low^2 - b^2) / (low (low + half) half)
    #   K = h low high - (high / (high - 1)) alpha_c alpha_v_bar
    alpha = ReductionConstants().resolved(2)
    for pair in select_prime_pairs(2):
        vc = build_variable_commodity(pair, alpha)
        lo, hi, b = pair.low, pair.high, F(pair.gap)
        half = b / 2
        h = alpha.alpha_c * (lo * lo - b * b) / (lo * (lo + half) * half)
        k = h * lo * hi - F(hi, hi - 1) * alpha.alpha_c * alpha.alpha_v_bar
        assert vc.holding == h
        assert vc.setup == k


def test_variable_commodity_truth_costs_order():
    # the high prime must be the dearer standalone cycle by design
    alpha = ReductionConstants().resolved(1)
    vc = build_variable_commodity(PrimePair(1, 11, 2), alpha)

    def standalone(t):
        return vc.setup / t + vc.demand * vc.holding * t / 2

    assert standalone(F(11)) < standalone(F(13))


def test_variable_commodity_config_rejected():
    # a heavy alpha_v_bar drags the interior optimum below the low prime
    bad = ReductionConstants(alpha_v_bar=F(30)).resolved(1)
    with pytest.raises(ConfigRejected):
        build_variable_commodity(PrimePair(1, 11, 2), bad)
    # heavier still drives the setup cost negative
    worse = ReductionConstants(alpha_v_bar=F(200)).resolved(1)
    with pytest.raises(ConfigRejected):
        build_variable_commodity(PrimePair(1, 11, 2), worse)


# ---------------------------------------------------------------------------
# whole-formula reduction


def test_reduce_formula_shape():
    out = reduce_formula(CnfFormula(3, CORPUS["one_pos"]))
    inst = out.instance
    assert inst.joint_setup == 1
    kinds = [c.kind for c in inst.commodities]
    assert kinds.count(CommodityKind.CONSTANT) == 6  # two anchors per pair
    assert kinds.count(CommodityKind.VARIABLE) == 3
    assert kinds.count(CommodityKind.CLAUSE) == 1
    assert all(c.demand == 2 for c in inst.commodities)
    assert inst.meta["constants_scheme"] == "paired-anchors"
    # two anchors per pair at 7*p_low and 7*p_high, in pair order
    assert [out.anchor_targets[f"y{k}"] for k in range(1, 7)] \
        == [7 * 11, 7 * 13, 7 * 17, 7 * 19, 7 * 29, 7 * 31]
    assert out.clause_targets == {1: 13 * 19 * 31}
    assert out.literal_map == {1: (11, 13), 2: (17, 19), 3: (29, 31)}


def test_reduce_formula_anchor_targets_avoid_clause_targets():
    out = reduce_formula(CnfFormula(3, CORPUS["mixed4"]))
    constant_targets = {
        cid: t for cid, t in out.anchor_targets.items()
        if out.instance.commodity(cid).kind is CommodityKind.CONSTANT}
    assert len(constant_targets) == 6
    for target in constant_targets.values():
        assert target % 7 == 0  # constants ride on the reserved prime
    for t in out.clause_targets.values():
        assert t % 7 != 0
        # no constant target divides a clause target
        for a in constant_targets.values():
            assert t % a != 0
    # clause targets appear in anchor_targets too (same anchored build)
    assert set(out.clause_targets.values()) <= set(out.anchor_targets.values())


def test_reduce_formula_validates():
    with pytest.raises(InputError):
        reduce_formula(CnfFormula(0, ()))
    with pytest.raises(InputError):
        reduce_formula(CnfFormula(3, ((1, 2),)))  # not width 3
    with pytest.raises(InputError):
        reduce_formula(CnfFormula(3, ((1, 1, 2),)))  # repeated variable
    with pytest.raises(ConfigRejected):
        reduce_formula(CnfFormula(2, ()),
                       constants=ReductionConstants(alpha_c=F(0)))


def test_reduction_json_roundtrip():
    out = reduce_formula(CnfFormula(3, CORPUS["mixed3"]))
    blob = reduction_to_json(out)
    back = reduction_from_json(blob)
    assert back.instance == out.instance
    assert back.pairs == out.pairs
    assert back.delta == out.delta
    assert dict(back.literal_map) == dict(out.literal_map)
    assert dict(back.clause_targets) == dict(out.clause_targets)
    assert dict(back.anchor_targets) == dict(out.anchor_targets)
    assert back.alpha == out.alpha


_DROP = object()


@pytest.mark.parametrize("path, value, needle", [
    (("pairs", 0), [11, 2], r"meta\.pairs\[0\]"),
    (("pairs", 1, 1), "two", r"meta\.pairs\[1\]"),
    (("pairs", 2, 0), 29.5, r"meta\.pairs\[2\]"),
    (("alpha", "alpha_v"), _DROP, "'alpha_v'"),
    (("alpha", "alpha_n"), "-1", "alpha_n must be > 0"),
    (("pairs",), [], r"meta\.pairs must be a non-empty list"),
    (("clause_targets",), [1001, 2431], r"meta\.clause_targets"),
    (("clause_targets",), {"1": 7, "2": 11}, r"meta\.clause_targets must map 1\.\.\d"),
    (("clause_targets", "1"), _DROP, r"meta\.clause_targets must map"),
    (("constants_scheme",), ["paired-anchors"], r"meta\.constants_scheme"),
    (("constants_scheme",), 42, r"meta\.constants_scheme"),
    (("constants_scheme",), None, r"meta\.constants_scheme"),
    (("constants_scheme",), "no-such", r"meta\.constants_scheme"),
], ids=["short-pair-row", "non-integer-pair-entry", "float-pair-entry",
        "missing-alpha-v", "negative-alpha-n", "no-pairs", "clause-targets-list",
        "clause-targets-foreign", "clause-targets-missing-one",
        "scheme-list", "scheme-int",
        "scheme-null", "scheme-unknown"])
def test_reduction_json_malformed_meta_is_input_error(path, value, needle):
    doc = json.loads(reduction_to_json(reduce_formula(CnfFormula(3, CORPUS["mixed3"]))))
    *parents, last = path
    node = doc["meta"]
    for key in parents:
        node = node[key]
    if value is _DROP:
        del node[last]
    else:
        node[last] = value
    with pytest.raises(InputError, match=needle):
        reduction_from_json(json.dumps(doc))


def test_reduction_json_clause_targets_follow_the_clause_commodities():
    # value j must be the anchor target of clause commodity z{j}: a swapped
    # pair rebuilds a different z1, and a second spelling of key 1 makes the
    # keys 1..4 with 4 missing
    doc = json.loads(reduction_to_json(reduce_formula(CnfFormula(3, CORPUS["mixed3"]))))
    targets = doc["meta"]["clause_targets"]
    assert reduction_from_json(json.dumps(doc)).clause_targets \
        == {int(j): t for j, t in targets.items()}
    for bad, needle in (
            ({**targets, "1": targets["2"], "2": targets["1"]}, r"commodity 'z1'"),
            ({**targets, "01": targets["1"]}, r"meta\.clause_targets must map 1\.\.4,")):
        doc["meta"]["clause_targets"] = bad
        with pytest.raises(InputError, match=needle):
            reduction_from_json(json.dumps(doc))


def _set_demands(doc, demand):
    for c in doc["commodities"]:
        c["lambda"] = demand


def _drop_x1(doc):
    doc["commodities"] = [c for c in doc["commodities"] if c["id"] != "x1"]


def _tag_x1_generic(doc):
    next(c for c in doc["commodities"] if c["id"] == "x1")["class"] = "generic"


@pytest.mark.parametrize("edit, needle", [
    (lambda doc: _set_demands(doc, "4"), r"commodity 'y1'"),
    (_drop_x1, r"commodity 'x1'"),
    (_tag_x1_generic, r"commodity 'x1'"),
    (lambda doc: doc["meta"]["pairs"].pop(), r"meta\.clause_targets must map 1\.\.3 to products"),
    (lambda doc: doc["meta"]["pairs"].__setitem__(0, [13, 4, 17]),
     r"meta\.pairs\[1\]: 17 must exceed the previous pair's 17"),
    (lambda doc: doc.update(k0="2"), r"k0 2 differs"),
    (lambda doc: doc["meta"]["clause_targets"].update({"1": 1001}), r"got 1001 for 1"),
], ids=["demands-4", "x1-dropped", "x1-generic", "two-pairs", "overlapping-pairs",
        "k0-2", "target-not-literal-primes"])
def test_reduction_json_refuses_documents_the_construction_does_not_make(edit, needle):
    doc = json.loads(reduction_to_json(reduce_formula(CnfFormula(3, CORPUS["mixed3"]))))
    edit(doc)
    with pytest.raises(InputError, match=needle):
        reduction_from_json(json.dumps(doc))


@pytest.mark.parametrize("row, needle", [
    ([12, -2, 10], "gap -2"),
    ([9, 2, 11], "9 is not prime"),
    ([23, 2, 25], "25 is not prime"),
    ([7, -2, 5], "gap -2"),
    ([11, 0, 11], "gap 0"),
    ([2, 1, 3], "gap 1"),
    ([2**64 + 13, 2, 2**64 + 15], "not below 2\\*\\*64"),
    ([13, 4, 17], "13 must exceed the previous pair's 13"),
    ([3, 2, 5], "3 must exceed the previous pair's 13"),
    ([5, 2, 7], "7 is the anchor prime"),
], ids=["composite-low-negative-gap", "composite-low", "composite-high",
        "negative-gap", "zero-gap", "odd-gap", "past-the-bound",
        "overlapping", "descending", "anchor-prime"])
def test_reduction_json_pair_rows_must_be_prime_pairs(row, needle):
    doc = json.loads(reduction_to_json(reduce_formula(CnfFormula(3, CORPUS["mixed3"]))))
    doc["meta"]["pairs"][1] = row
    with pytest.raises(InputError, match=r"meta\.pairs\[1\]: .*" + needle):
        reduction_from_json(json.dumps(doc))


def test_reduction_json_accepts_a_wider_prime_pair():
    # a document the shared builder makes over a pair with gap 4 loads
    pairs = (PrimePair(1, 11, 2), PrimePair(2, 17, 2), PrimePair(3, 37, 4))
    out = reduction._assemble(CORPUS["mixed3"], pairs, compute_delta(3, pairs),
                              ReductionConstants().resolved(3))
    back = reduction_from_json(reduction_to_json(out))
    assert back == out
    assert back.literal_map[3] == (37, 41)


# ---------------------------------------------------------------------------
# assignment <-> policy


def test_assignment_policy_example():
    out = reduce_formula(CnfFormula(1, ()))
    pol = assignment_to_policy(out, (False,))
    assert pol.cycles["x1"] == 11
    assert pol.cycles["y1"] == 77 and pol.cycles["y2"] == 91
    pol_t = assignment_to_policy(out, (True,))
    assert pol_t.cycles["x1"] == 13


def test_assignment_policy_beta_bounds():
    out = reduce_formula(CnfFormula(1, ()))
    assignment_to_policy(out, (True,), beta=1 + out.delta)  # boundary ok
    with pytest.raises(InputError):
        assignment_to_policy(out, (True,), beta=F(1, 2))
    with pytest.raises(InputError):
        assignment_to_policy(out, (True,), beta=1 + 2 * out.delta)
    with pytest.raises(InputError):
        assignment_to_policy(out, (True, False))  # wrong arity


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.data())
def test_assignment_policy_roundtrip(n, data):
    out = reduce_formula(CnfFormula(n, ()))
    assignment = tuple(data.draw(st.booleans()) for _ in range(n))
    beta = data.draw(st.sampled_from(
        (F(1), 1 + out.delta / 2, 1 + out.delta)))
    pol = assignment_to_policy(out, assignment, beta=beta)
    back, beta_back = policy_to_assignment(out, pol)
    assert back == assignment
    assert beta_back == beta


def test_policy_to_assignment_rejects_foreign_shape():
    out = reduce_formula(CnfFormula(1, ()))
    pol = assignment_to_policy(out, (False,))
    twisted = dict(pol.cycles)
    twisted["x1"] = F(12)  # neither 11 beta nor 13 beta
    from jrp_forge.model import Policy

    with pytest.raises(InputError):
        policy_to_assignment(out, Policy(twisted))


def test_clause_synchronized_iff_clause_true():
    formula = CnfFormula(3, CORPUS["mixed3"])
    out = reduce_formula(formula)
    for bits in range(8):
        assignment = tuple(bool((bits >> (2 - v)) & 1) for v in range(3))
        pol = assignment_to_policy(out, assignment)
        for idx, clause in enumerate(formula.clauses, start=1):
            truth = any(
                (lit > 0) == assignment[abs(lit) - 1] for lit in clause)
            assert clause_synchronized(out, pol, idx) == truth


def test_clause_synchronized_unknown_index():
    out = reduce_formula(CnfFormula(3, CORPUS["one_pos"]))
    pol = assignment_to_policy(out, (False, False, False))
    with pytest.raises(InputError):
        clause_synchronized(out, pol, 99)


# ---------------------------------------------------------------------------
# the desk-scale roundtrip corpus (frozen argmins and gaps)


@pytest.mark.parametrize(
    "name, n, argmin, sat",
    [
        ("empty", 3, (False, False, False), True),
        ("one_pos", 3, (False, False, True), True),
        ("one_neg", 3, (False, False, False), True),
        ("pos_and_neg", 3, (False, False, True), True),
        ("mixed3", 3, (False, False, False), True),
        ("mixed4", 3, (False, False, True), True),
        ("unsat8", 3, (False, False, False), False),
    ],
)
def test_roundtrip_corpus(name, n, argmin, sat):
    rep = verify_roundtrip(CnfFormula(n, CORPUS[name]))
    assert rep.satisfiable is sat
    assert rep.argmin_assignment == argmin
    assert rep.argmin_synchronizes_all is sat
    assert rep.verdict_consistent
    assert rep.n_assignments == 2**n
    if sat:
        assert rep.sat_assignment == brute_force_sat(CnfFormula(n, CORPUS[name]))
    else:
        assert rep.sat_assignment is None


def test_roundtrip_small_sizes():
    for n in (1, 2):
        rep = verify_roundtrip(CnfFormula(n, ()))
        assert rep.verdict_consistent
        assert rep.argmin_assignment == (False,) * n


def test_roundtrip_frozen_gaps():
    gap1 = verify_roundtrip(CnfFormula(3, CORPUS["one_pos"])).gap
    assert abs(float(gap1) - 3.437731163067536e-05) < 1e-17
    gap2 = verify_roundtrip(CnfFormula(3, CORPUS["one_neg"])).gap
    assert abs(float(gap2) - 4.721841425178811e-04) < 1e-16
    gap4 = verify_roundtrip(CnfFormula(3, CORPUS["mixed3"])).gap
    assert abs(float(gap4) - 1.5718185326315447e-04) < 1e-16
    # the empty formula has no clauses, hence no violating policies
    assert verify_roundtrip(CnfFormula(3, ())).gap is None


def test_roundtrip_gap_sign_separates_verdicts():
    # satisfiable: every synchronized assignment undercuts every violating one
    for name in ("one_pos", "one_neg", "mixed3", "mixed4"):
        rep = verify_roundtrip(CnfFormula(3, CORPUS[name]))
        assert rep.gap is not None and rep.gap > 0


def test_roundtrip_caps():
    with pytest.raises(CapExceeded):
        verify_roundtrip(CnfFormula(ROUNDTRIP_MAX_VARS + 1, ()))
    too_many = tuple((1, 2, 3) for _ in range(ROUNDTRIP_MAX_CLAUSES + 1))
    with pytest.raises(CapExceeded):
        verify_roundtrip(CnfFormula(3, too_many))


def test_roundtrip_argmin_cost_matches_direct_evaluation():
    formula = CnfFormula(3, CORPUS["mixed4"])
    rep = verify_roundtrip(formula)
    out = reduce_formula(formula)
    pol = assignment_to_policy(out, rep.argmin_assignment)
    assert total_cost(out.instance, pol).total == rep.argmin_cost
    assert "assignment policies" in rep.scope


def _random_3cnf(rng, n, m):
    return tuple(
        tuple(v if rng.random() < 0.5 else -v
              for v in sorted(rng.sample(range(1, n + 1), 3)))
        for _ in range(m))


def _roundtrip_corpus():
    """Seeded random formulas with 1..6 variables and 3n+m <= 20, plus
    unsatisfiable and repeated-clause formulas."""
    rng = random.Random(20261018)
    formulas = []
    for n in range(1, 7):
        for _ in range(4):
            m = rng.randint(0, 20 - 3 * n) if n >= 3 else 0
            formulas.append(CnfFormula(n, _random_3cnf(rng, n, m)))
    formulas += [
        CnfFormula(3, CORPUS["unsat8"]),
        CnfFormula(4, CORPUS["unsat8"]),
        CnfFormula(4, tuple((s1 * 2, s2 * 3, s3 * 4)
                            for s1, s2, s3 in product((1, -1), repeat=3))),
        CnfFormula(4, ((1, 2, 3), (1, 2, 3), (-1, -2, 4), (-1, -2, 4))),
        CnfFormula(5, ((-1, 2, 5),) * 5),
    ]
    return formulas


ROUNDTRIP_CORPUS = _roundtrip_corpus()


def test_roundtrip_corpus_covers_its_cases():
    assert {f.n_vars for f in ROUNDTRIP_CORPUS} == set(range(1, 7))
    assert all(3 * f.n_vars + len(f.clauses) <= 20 for f in ROUNDTRIP_CORPUS)
    assert sum(brute_force_sat(f) is None for f in ROUNDTRIP_CORPUS) >= 3
    assert sum(len(set(f.clauses)) < len(f.clauses) for f in ROUNDTRIP_CORPUS) >= 2


@pytest.mark.parametrize("formula", ROUNDTRIP_CORPUS,
                         ids=[f"f{i}" for i in range(len(ROUNDTRIP_CORPUS))])
def test_roundtrip_matches_reference_scan(formula):
    assert verify_roundtrip(formula) == reference_roundtrip(formula)


@pytest.mark.parametrize("n, constants", [
    (3, ReductionConstants(alpha_v_bar=F(18, 25))),
    (4, ReductionConstants(alpha_v_bar=F(281, 400), alpha_v=F(1, 5))),
    (3, ReductionConstants(alpha_c=F(3, 2), alpha_v_bar=F(1, 2))),
])
def test_roundtrip_custom_constants_match_reference_scan(n, constants):
    for m in (1, 4, 20 - 3 * n):
        formula = CnfFormula(n, _random_3cnf(random.Random(m), n, m))
        assert verify_roundtrip(formula, constants) \
            == reference_roundtrip(formula, constants)


def test_roundtrip_cap_refuses_like_reference_scan(monkeypatch):
    formula = CnfFormula(4, ((1, 2, 3), (-1, 2, 4), (1, -3, -4)))
    out = reduce_formula(formula)
    # the cap counts each assignment's periods after the prune
    primes = [(p.low, p.high) for p in out.pairs]
    fixed = list(out.anchor_targets.values())
    most = max(len(_kernels._absorb(
        fixed + [pair[v] for pair, v in zip(primes, assignment)]))
        for assignment in product((0, 1), repeat=formula.n_vars))
    assert most < len(set(out.anchor_targets.values())) + formula.n_vars
    assert verify_roundtrip(formula, cap=most) \
        == reference_roundtrip(formula, cap=most)
    with pytest.raises(CapExceeded) as ours:
        verify_roundtrip(formula, cap=most - 1)
    with pytest.raises(CapExceeded) as reference:
        reference_roundtrip(formula, cap=most - 1)
    assert type(ours.value) is type(reference.value)
    assert str(ours.value) == str(reference.value)
    # the tables refuse on their own count, before any row is re-priced
    def no_repricing(*_args, **_kwargs):
        raise AssertionError("re-priced a row the tables should have refused")

    monkeypatch.setattr(reduction, "total_cost", no_repricing)
    with pytest.raises(CapExceeded) as ours:
        verify_roundtrip(formula, cap=most - 1)
    assert str(ours.value) == str(reference.value)


def _distinct_3cnf(rng, n, m):
    """m distinct random 3-clauses over n variables, as the benchmark's
    probe draws them."""
    every = [tuple(s * v for s, v in zip(signs, vs))
             for vs in combinations(range(1, n + 1), 3)
             for signs in product((1, -1), repeat=3)]
    return tuple(rng.sample(every, m))


def test_roundtrip_past_twenty_series_matches_reference_scan():
    # 3n + m > 20 series before the prune. A chosen prime absorbs its own
    # anchor and every clause target it divides, and an assignment leaves
    # at most one distinct clause per triple of variables unsynchronized,
    # so at most 2n + C(n, 3) <= 20 series reach the kernel
    rng = random.Random(20261019)
    sizes = [(n, total - 3 * n) for n in (4, 5) for total in range(21, 26)]
    for n, m in sizes:
        formula = CnfFormula(n, _distinct_3cnf(rng, n, m))
        assert len(set(formula.clauses)) == m
        assert verify_roundtrip(formula) == reference_roundtrip(formula), (n, m)


@pytest.mark.parametrize("n, clauses", [
    (3, CORPUS["mixed4"]),
    (3, CORPUS["unsat8"]),
    (4, ((1, 2, 3), (1, 2, 3), (-2, -3, -4), (1, -3, 4))),
    (5, ((1, 2, 3), (-3, 4, 5))),
], ids=["3-clauses0-paired-anchors", "3-clauses1-paired-anchors",
        "4-clauses2-paired-anchors", "5-clauses3-paired-anchors"])
def test_assignment_tables_price_every_assignment(n, clauses):
    formula = CnfFormula(n, clauses)
    out = reduce_formula(formula)
    tables = _AssignmentTables(out, None)
    # one table per clause tests each clause's masks on their own
    singles = [_AssignmentTables(reduce_formula(CnfFormula(n, (c,))), None)
               for c in clauses]
    for assignment in product((False, True), repeat=n):
        policy = assignment_to_policy(out, assignment)
        cost, synced = tables.price(assignment)
        assert cost == total_cost(out.instance, policy).total
        per_clause = [clause_synchronized(out, policy, j) for j in out.clause_targets]
        assert synced == all(per_clause)
        assert [t.price(assignment)[1] for t in singles] == per_clause


def test_assignment_tables_price_by_id_not_position():
    # a reduced document with its commodities listed in reverse loads to an
    # instance whose positions differ from reduce_formula's; the tables
    # place every target and chosen prime by commodity id
    formula = CnfFormula(4, ((1, 2, 3), (-2, -3, -4), (1, -3, 4)))
    doc = json.loads(reduction_to_json(reduce_formula(formula)))
    doc["commodities"].reverse()
    out = reduction_from_json(json.dumps(doc))
    assert out.instance.ids()[0] == "z3"
    tables = _AssignmentTables(out, None)
    for assignment in product((False, True), repeat=4):
        policy = assignment_to_policy(out, assignment)
        cost, _synced = tables.price(assignment)
        assert cost == total_cost(out.instance, policy).total


def test_roundtrip_reprices_its_reported_rows(monkeypatch):
    formula = CnfFormula(3, CORPUS["mixed4"])
    price = _AssignmentTables.price

    def off_by_a_sliver(self, assignment):
        cost, synced = price(self, assignment)
        return cost + F(1, 10**30), synced

    monkeypatch.setattr(_AssignmentTables, "price", off_by_a_sliver)
    with pytest.raises(RuntimeError, match="total_cost"):
        verify_roundtrip(formula)


def test_roundtrip_threads_env(monkeypatch):
    monkeypatch.setenv("JRP_FORGE_THREADS", "4")
    rep = verify_roundtrip(CnfFormula(3, CORPUS["one_pos"]))
    assert rep.argmin_assignment == (False, False, True)


# ---------------------------------------------------------------------------
# gap inequality reports (frozen margins)


@pytest.mark.parametrize(
    "n, at_one, margin_repr",
    [
        (1, True, F(48_967, 20_300_280_000)),
        (1, False, F(37_916_626_400_207, 16_559_562_612_693_100_000)),
        (2, True, F(185_772_071, 210_095_285_400_000)),
        (2, False,
         F(177_219_648_677_184_509_677, 203_385_492_240_104_744_019_450_000)),
    ],
)
def test_gap_inequality_frozen_margins(n, at_one, margin_repr):
    out = reduce_formula(CnfFormula(n, ()))
    beta = F(1) if at_one else 1 + out.delta
    rep = check_gap_inequality(out, beta)
    assert rep.margin == margin_repr
    assert rep.passed
    assert rep.lemma_ok
    high = out.pairs[-1].high
    expected_target = F(1, high**6) if at_one else F(1, 4 * high**6)
    assert rep.target == expected_target
    assert rep.margin > rep.target


def test_gap_inequality_interior_beta():
    out = reduce_formula(CnfFormula(2, ()))
    rep = check_gap_inequality(out, 1 + out.delta / 2)
    assert rep.passed and rep.lemma_ok
    assert rep.target == F(1, 4 * out.pairs[-1].high ** 6)


def test_gap_inequality_rejects_foreign_beta():
    out = reduce_formula(CnfFormula(1, ()))
    with pytest.raises(InputError):
        check_gap_inequality(out, F(2))


# ---------------------------------------------------------------------------
# structural invariants of generated instances


def test_decomposition_classes_cover_generated_instance():
    out = reduce_formula(CnfFormula(2, ((1, 2, -1),)) if False else
                         CnfFormula(3, CORPUS["mixed3"]))
    pol = assignment_to_policy(out, (True, False, True))
    b = decompose(out.instance, pol)
    assert b.tc_constants + b.tc_variables + b.tc_clauses == b.total


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(min_value=1, max_value=4))
def test_generated_instances_share_invariants(n):
    out = reduce_formula(CnfFormula(n, ()))
    assert out.instance.joint_setup == 1
    assert all(c.demand == 2 for c in out.instance.commodities)
    assert all(c.holding > 0 and c.setup > 0 for c in out.instance.commodities)
    assert out.delta == F(1, 6 * n * out.pairs[-1].high ** 6)
