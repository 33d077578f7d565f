"""Time the union-count kernel: inclusion-exclusion beside the dispatcher.

Per workload it prints microseconds per count of two routes to the same
number:

- IE: inclusion-exclusion alone (`_kernels._ie`);
- dispatch: `_kernels.union_count`, which splits a set of more than
  `_IE_LEAF` periods on a coprime base and counts the small leaves by IE.

The workloads mirror real usage: the pruned period sets of 3SAT reductions
(one per assignment) and random composite sets. Then a table by candidate
`_IE_LEAF` value times the dispatcher on the reduction workload, and a table
by set size compares IE with one split (`_kernels._split_count`). Together
they set `_IE_LEAF`.

Usage: python bench/compare_kernels.py [--rounds 5] [--rng-seed 0]
Each cell is the median over `--rounds` of the mean time per call, where a
round repeats the workload until at least 0.05 s have passed.
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import random
import statistics
import time
from math import lcm

from jrp_forge import _kernels
from jrp_forge.reduction import clause_target, select_prime_pairs

ROUND_S = 0.05
LEAF_SIZES = range(4, 13)
CROSSOVER_SIZES = range(5, 15)


def _drop_multiples(periods: list[int]) -> list[int]:
    # a period divisible by another adds no epochs; sync prunes them before
    # every call
    return [p for p in periods if not any(q != p and p % q == 0 for q in periods)]


def reduction_sets(n: int, clauses) -> list[tuple[list[int], int]]:
    """One pruned period set per assignment of a reduced n-variable formula:
    each variable's picked prime, the anchors 7*low and 7*high of every pair,
    and every clause target (the product of its three literal primes)."""
    pairs = select_prime_pairs(n)
    anchors = [7 * q for p in pairs for q in (p.low, p.high)]
    targets = [clause_target(clause, pairs) for clause in clauses]
    cases = []
    for bits in itertools.product((False, True), repeat=n):
        picked = [p.high if on else p.low for p, on in zip(pairs, bits)]
        periods = _drop_multiples(sorted(set(picked + anchors + targets)))
        cases.append((periods, lcm(*periods)))
    return cases


def random_clauses(rng: random.Random, n: int, m: int) -> list[tuple[int, ...]]:
    return [tuple(v if rng.random() < 0.5 else -v
                  for v in rng.sample(range(1, n + 1), 3)) for _ in range(m)]


def reduction_workload(rng: random.Random) -> list[tuple[list[int], int]]:
    # three formulas per n = 3..6 with 3n + m <= 20, the roundtrip shape
    cases = []
    for n in range(3, 7):
        for _ in range(3):
            m = rng.randint(1, 20 - 3 * n)
            cases += reduction_sets(n, random_clauses(rng, n, m))
    return cases


def random_workload(rng: random.Random, count: int) -> list[tuple[list[int], int]]:
    cases = []
    while len(cases) < count:
        periods = sorted({rng.randint(2, 60) for _ in range(rng.randint(3, 8))})
        kept = _drop_multiples(periods)
        if not kept:
            continue
        hyper = lcm(*kept)
        if hyper > 2 ** 62:
            continue
        cases.append((kept, hyper))
    return cases


def workloads(rng: random.Random) -> list[tuple[str, list[tuple[list[int], int]]]]:
    return [
        ("reduction(n=3..6)", reduction_workload(rng)),
        ("random-composite", random_workload(rng, 32)),
    ]


def time_per_call(count, cases, rounds: int) -> float:
    """Median over rounds of the mean seconds per call of count(periods, hyper)."""
    means = []
    for _ in range(rounds):
        calls = 0
        start = time.perf_counter()
        while True:
            for periods, hyper in cases:
                count(periods, hyper)
            calls += len(cases)
            elapsed = time.perf_counter() - start
            if elapsed >= ROUND_S:
                break
        means.append(elapsed / calls)
    return statistics.median(means)


@contextlib.contextmanager
def ie_leaf(value: int):
    """Set `_kernels._IE_LEAF` for the block."""
    saved = _kernels._IE_LEAF
    _kernels._IE_LEAF = value
    try:
        yield
    finally:
        _kernels._IE_LEAF = saved


def check(cases) -> None:
    """Every route counts each case as inclusion-exclusion does."""
    for periods, hyper in cases:
        expected = _kernels._ie(periods, hyper)
        assert _kernels.union_count(periods, hyper) == expected, (periods, hyper)
        assert _kernels._split_count(periods, hyper) == expected, (periods, hyper)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--rng-seed", type=int, default=0)
    args = ap.parse_args()

    named = workloads(random.Random(args.rng_seed))
    reduction = named[0][1]
    print(f"_IE_LEAF = {_kernels._IE_LEAF}; us/call")
    for name, cases in named:
        check(cases)
        t_ie = time_per_call(_kernels._ie, cases, args.rounds)
        t_dispatch = time_per_call(_kernels.union_count, cases, args.rounds)
        print(f"{name:18s}   IE {t_ie * 1e6:9.2f}  dispatch {t_dispatch * 1e6:9.2f}")

    print("\ndispatch on reduction(n=3..6) by _IE_LEAF, us/call")
    for leaf in LEAF_SIZES:
        with ie_leaf(leaf):
            t = time_per_call(_kernels.union_count, reduction, args.rounds)
        print(f"{leaf:4d}  {t * 1e6:8.1f}")

    print("\nus/call of IE and of one split with IE leaves, by set size")
    print("size  sets          IE       split")
    by_size = {k: [c for c in reduction if len(c[0]) == k] for k in CROSSOVER_SIZES}
    for k, cases in by_size.items():
        if not cases:
            continue
        cases = cases[:24]
        t_ie = time_per_call(_kernels._ie, cases, args.rounds)
        t_split = time_per_call(_kernels._split_count, cases, args.rounds)
        print(f"{k:4d}  {len(cases):4d}  {t_ie * 1e6:10.1f}  {t_split * 1e6:10.1f}")


if __name__ == "__main__":
    main()
