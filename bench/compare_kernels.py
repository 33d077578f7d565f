"""Benchmark the compiled union/epoch kernels against the pure-Python lane.

Runs the same workloads through both backends and prints per-call timings
and the speedup. The workloads mirror real usage: prime-product period sets
(what the 3SAT reduction produces) and random composite sets.

Usage: python bench/compare_kernels.py [--trials 200] [--rng-seed 0]
"""
from __future__ import annotations

import argparse
import random
import time
from math import gcd

from jrp_forge._kernels import pure

try:
    from jrp_forge._kernels import fast
except ImportError:
    fast = None


def _drop_multiples(periods: list[int]) -> list[int]:
    # a period divisible by another adds no epochs; the kernel requires none
    # (sync prunes them before every call)
    return [p for p in periods if not any(q != p and p % q == 0 for q in periods)]


def reduction_workload() -> list[tuple[list[int], int]]:
    # the period sets of a 3-variable reduction after sync's pruning: a
    # clause period, 11*17*29 or 13*19*31, is dropped as soon as one of its
    # primes is a picked period, so only the all-low and all-high picks keep one
    primes = [(11, 13), (17, 19), (29, 31)]
    anchor = 7
    cases = []
    for pick in range(8):
        periods = []
        for i, (lo, hi) in enumerate(primes):
            on_high = pick >> i & 1
            periods.append(hi if on_high else lo)
            periods.append((lo if on_high else hi) * anchor)
        periods.append(11 * 17 * 29)
        periods.append(13 * 19 * 31)
        periods = _drop_multiples(periods)
        hyper = 1
        for p in periods:
            hyper = hyper * p // gcd(hyper, p)
        cases.append((sorted(periods), hyper))
    return cases


def random_workload(rng: random.Random, count: int) -> list[tuple[list[int], int]]:
    cases = []
    while len(cases) < count:
        periods = sorted({rng.randint(2, 60) for _ in range(rng.randint(3, 8))})
        kept = _drop_multiples(periods)
        if not kept:
            continue
        hyper = 1
        for p in kept:
            hyper = hyper * p // gcd(hyper, p)
        if hyper > 2 ** 62:
            continue
        cases.append((kept, hyper))
    return cases


def time_backend(mod, cases, trials: int) -> float:
    start = time.perf_counter()
    for _ in range(trials):
        for periods, hyper in cases:
            mod.union_count(periods, hyper)
    return (time.perf_counter() - start) / (trials * len(cases))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--rng-seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.rng_seed)
    workloads = [
        ("reduction(n=3)", reduction_workload()),
        ("random-composite", random_workload(rng, 32)),
    ]
    for name, cases in workloads:
        # correctness cross-check before timing
        for periods, hyper in cases:
            expected = pure.union_count(periods, hyper)
            if fast is not None:
                got = fast.union_count(periods, hyper)
                assert got == expected, (periods, hyper, got, expected)
        t_pure = time_backend(pure, cases, args.trials)
        line = f"{name:18s} pure {t_pure * 1e6:9.2f} us/call"
        if fast is not None:
            t_fast = time_backend(fast, cases, args.trials)
            line += f"   fast {t_fast * 1e6:9.2f} us/call   speedup {t_pure / t_fast:6.1f}x"
        else:
            line += "   (compiled kernel unavailable)"
        print(line)


if __name__ == "__main__":
    main()
