import gc
import importlib.util
import itertools
import math
import random
from functools import reduce
from pathlib import Path

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from jrp_forge import _kernels
from jrp_forge.reduction import clause_target, select_prime_pairs

_COMPARE_KERNELS = Path(__file__).resolve().parent.parent / "bench" / "compare_kernels.py"


def _lcm_all(values):
    return reduce(math.lcm, values, 1)


def _normalize(periods):
    """Dedup and drop any period that another period divides."""
    uniq = sorted(set(periods))
    keep = [p for p in uniq
            if not any(q != p and p % q == 0 for q in uniq)]
    return keep


def _set_oracle(periods, hyper):
    pts = set()
    for p in periods:
        pts.update(range(p, hyper + 1, p))
    return len(pts)


def _subset_oracle(periods, hyper):
    # inclusion-exclusion over every non-empty subset, without the kernels'
    # recursion or saturation prune
    return sum((-1) ** (r + 1) * (hyper // math.lcm(*subset))
               for r in range(1, len(periods) + 1)
               for subset in itertools.combinations(periods, r))


def _reduction_n3_periods():
    # unpruned period sets of a 3-variable reduction, one per assignment;
    # every set holds a period and one of its multiples, which sync prunes
    # before it counts. Their hyperperiod is about 2.9e8, too long to
    # enumerate.
    pairs = [(11, 13), (17, 19), (29, 31)]
    cases = []
    for pick in range(8):
        periods = [11 * 17 * 29, 13 * 19 * 31]
        for i, (lo, hi) in enumerate(pairs):
            on_high = pick >> i & 1
            periods += [hi if on_high else lo, (lo if on_high else hi) * 7]
        cases.append(sorted(periods))
    return cases


def _random_normalized_periods(count=200):
    # seeded antichains of up to 8 divisors of 27720 = 2^3*3^2*5*7*11: no
    # duplicates, no period dividing another, and short enough to enumerate
    divisors = [d for d in range(2, 27721) if 27720 % d == 0]
    rng = random.Random(0)
    cases = []
    for _ in range(count):
        size = rng.randint(1, 8)
        periods = []
        for d in rng.sample(divisors, len(divisors)):
            if all(d % p and p % d for p in periods):
                periods.append(d)
                if len(periods) == size:
                    break
        cases.append(sorted(periods))
    return cases


def _reduction_sets(n, clauses):
    # what verify_roundtrip counts at seed 1, one pruned set per assignment:
    # the picked primes, the anchors 7*low and 7*high of every pair, and the
    # clause targets
    pairs = select_prime_pairs(n)
    fixed = [7 * q for p in pairs for q in (p.low, p.high)]
    fixed += [clause_target(clause, pairs) for clause in clauses]
    return [_normalize([p.high if on else p.low for p, on in zip(pairs, bits)]
                       + fixed)
            for bits in itertools.product((False, True), repeat=n)]


def _reduction_shaped_cases():
    rng = random.Random(6)
    cases = []
    for n, m in ((3, 11), (4, 8), (5, 5), (6, 2), (6, 4)):
        clauses = [tuple(v * rng.choice((1, -1))
                         for v in rng.sample(range(1, n + 1), 3))
                   for _ in range(m)]
        cases += _reduction_sets(n, clauses)
    return cases


def _random_antichain(rng, pool, size):
    # greedy in a random order, restarted when it gets stuck short of size
    while True:
        periods = []
        for d in rng.sample(pool, len(pool)):
            if all(d % p and p % d for p in periods):
                periods.append(d)
                if len(periods) == size:
                    return sorted(periods)


def _antichain_of_divisors(rng, size, of=27720):
    return _random_antichain(rng, [d for d in range(2, of + 1) if of % d == 0], size)


def _squarefree_products(rng, size, primes=(2, 3, 5, 7, 11, 13, 17, 19, 23)):
    while True:
        periods = _normalize(math.prod(rng.sample(primes, rng.randint(2, 3)))
                             for _ in range(size + 4))
        if len(periods) >= size:
            return periods[:size]


def _above_leaf(cases):
    return [ps for ps in cases if _kernels._IE_LEAF < len(ps) <= 14]


def test_backend_reports_lane():
    assert _kernels.backend() == "pure"


def test_union_count_hand_values():
    assert _kernels.union_count([2, 3], 6) == 4        # 2,3,4,6
    assert _kernels.union_count([2], 6) == 3
    assert _kernels.union_count([5, 7], 35) == 11


@settings(max_examples=250, derandomize=True, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=40), min_size=1,
                max_size=6))
def test_union_count_and_enumeration_agree(raw):
    periods = _normalize(raw)
    hyper = _lcm_all(periods)
    expected = _set_oracle(periods, hyper)
    assert _kernels.union_count(periods, hyper) == expected
    assert _kernels.epoch_count(periods, hyper) == expected


def test_big_integer_inputs_use_pure_fallback():
    # hyperperiod beyond 64-bit range must still produce exact counts
    p1, p2 = 2**40, 3**30
    hyper = p1 * p2  # ~2.26e23 >> 2**63
    assert hyper > 2**63
    count = _kernels.union_count([p1, p2], hyper)
    assert count == p2 + p1 - 1  # hyper/p1 + hyper/p2 - hyper/lcm


def test_large_prime_products_from_generated_instances():
    # the reduction's clause targets are three-prime products; scaled far
    # past int64 the counting identity must be unaffected
    primes = [10**7 + 19, 10**7 + 79, 10**7 + 103]
    hyper = primes[0] * primes[1] * primes[2]
    got = _kernels.union_count(primes, hyper)
    expect = (primes[1] * primes[2] + primes[0] * primes[2]
              + primes[0] * primes[1]
              - primes[0] - primes[1] - primes[2] + 1)
    assert got == expect


def test_pure_union_count_leaves_no_reference_cycles():
    # and neither does the split above the leaf size; both count exactly
    cases = _random_normalized_periods()
    large = _above_leaf(_reduction_shaped_cases())[::8]
    rng = random.Random(10)
    large += [_antichain_of_divisors(rng, size)
              for size in range(_kernels._IE_LEAF + 1, 15)]
    hypers = [_lcm_all(periods) for periods in cases]
    large_hypers = [_lcm_all(periods) for periods in large]
    gc.collect()
    gc.disable()
    try:
        counts = [_kernels._ie(periods, hyper)
                  for periods, hyper in zip(cases, hypers)]
        split_counts = [_kernels.union_count(periods, hyper)
                        for periods, hyper in zip(large, large_hypers)]
        assert gc.collect() == 0
    finally:
        gc.enable()
    expected = [_set_oracle(periods, hyper)
                for periods, hyper in zip(cases, hypers)]
    assert counts == expected
    assert [_kernels.union_count(periods, hyper)
            for periods, hyper in zip(cases, hypers)] == expected
    assert [_kernels.epoch_count(periods, hyper)
            for periods, hyper in zip(cases, hypers)] == expected
    assert split_counts == [_kernels._ie(periods, hyper)
                            for periods, hyper in zip(large, large_hypers)]


def test_split_matches_inclusion_exclusion_on_reduction_sets():
    cases = _above_leaf(_reduction_shaped_cases())
    assert {len(ps) for ps in cases} == set(range(_kernels._IE_LEAF + 1, 15))
    for periods in cases:
        hyper = _lcm_all(periods)
        assert _kernels.union_count(periods, hyper) == _kernels._ie(periods, hyper)


def test_split_matches_enumeration_on_divisor_antichains():
    rng = random.Random(7)
    for size in range(_kernels._IE_LEAF + 1, 15):
        for _ in range(12):
            periods = _antichain_of_divisors(rng, size)
            hyper = _lcm_all(periods) * rng.choice((1, 2))
            assert _kernels.union_count(periods, hyper) == _set_oracle(periods, hyper)


def test_split_matches_subset_oracle_on_squarefree_products():
    rng = random.Random(8)
    for size in range(_kernels._IE_LEAF + 1, 15):
        for _ in range(3):
            periods = _squarefree_products(rng, size)
            hyper = _lcm_all(periods)
            assert _kernels.union_count(periods, hyper) == _subset_oracle(periods, hyper)


def test_split_on_composite_base_elements():
    # atoms 6, 35, 143 and 323 never split, so the base holds them (or their
    # powers) whole and the split runs on non-prime b
    atoms = (6, 35, 143, 323)
    pool = [math.prod(a**e for a, e in zip(atoms, exps))
            for exps in itertools.product(range(3), repeat=4)][1:]
    rng = random.Random(9)
    for size in range(_kernels._IE_LEAF + 1, 15):
        periods = _random_antichain(rng, pool, size)
        base = _kernels._coprime_base(periods)
        assert not any(sympy.isprime(b) for b in base)
        hyper = _lcm_all(periods)
        assert _kernels.union_count(periods, hyper) == _kernels._ie(periods, hyper)


def test_split_counts_pruned_reduction_sets_below_the_leaf():
    # union_count takes sorted antichains, so the sets go in pruned; pruned
    # they fit a leaf, so the split is called directly as well
    for periods in _reduction_n3_periods():
        pruned = _normalize(periods)
        hyper = _lcm_all(periods)
        assert len(pruned) <= _kernels._IE_LEAF < len(periods)
        expected = _subset_oracle(periods, hyper)
        assert _kernels._split_count(pruned, hyper) == expected
        assert _kernels.union_count(pruned, hyper) == expected


def test_split_counts_leaves_past_int64_exactly():
    # the products of pairs of five primes near 2**40: every leaf's lcm is a
    # product of at least three of them, so every leaf counts integers past
    # 64 bits
    primes = [sympy.nextprime(2**40 + 1000 * i) for i in range(5)]
    periods = sorted(a * b for a, b in itertools.combinations(primes, 2))
    hyper = _lcm_all(periods)
    assert len(periods) > _kernels._IE_LEAF and hyper > 2**63
    assert _kernels.union_count(periods, hyper) == _subset_oracle(periods, hyper)


def test_compare_kernels_script_checks_its_workloads():
    # bench/compare_kernels.py times the counts that set _IE_LEAF; its
    # exactness check runs here on both workloads, without the timing
    spec = importlib.util.spec_from_file_location("compare_kernels", _COMPARE_KERNELS)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    workloads = script.workloads(random.Random(0))
    assert [name for name, _ in workloads] == ["reduction(n=3..6)", "random-composite"]
    for _, cases in workloads:
        assert cases
        script.check(cases)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=10**6), max_size=12))
def test_coprime_base_refines_every_number(nums):
    base = _kernels._coprime_base(nums)
    assert all(b > 1 for b in base)
    assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(base, 2))
    for x in nums:
        for b in base:
            while x % b == 0:
                x //= b
        assert x == 1
