"""Integer counting kernel, exact for arbitrary-precision integers.

`union_count` counts the epochs in (0, hyper] that are a multiple of at
least one period. A set of at most `_IE_LEAF` periods is counted by
inclusion-exclusion (IE), which sums 2^k signed terms.

A larger set is split exactly instead. Its periods are refined by gcds into
a pairwise-coprime base, which needs no factoring. The count of residues
modulo the lcm that no period covers is then split on the base element b
that divides the most periods: a residue whose b-part is exactly b^e (of
b^top in the lcm) is covered exactly when the rest of it is covered by the
periods with at most e factors of b, with b divided out, by the Chinese
remainder theorem; b need not be prime. A pairwise-coprime set is counted
as the product of (p - 1), a set of at most `_IE_LEAF` periods by IE, and
each distinct set once per call.
"""
from __future__ import annotations

from math import gcd, lcm, prod

# Largest set counted by inclusion-exclusion rather than split: the crossover
# measured in BENCH_2026-10-18_kernel-split.json.
_IE_LEAF = 7


def backend() -> str:
    """Name of the counting lane, always "pure" (Python integers).

    Kept because the benchmark harness writes it into every report's
    metadata.
    """
    return "pure"


def _branch(ps, hyper, idx, lcm_val, sign):
    """Signed inclusion-exclusion terms of every subset extending one prefix.

    A module-level function rather than a closure over itself, so a call
    leaves no reference cycle behind for the collector.
    """
    if lcm_val == hyper and idx != len(ps) - 1:
        return 0
    total = sign * (hyper // lcm_val)
    for j in range(idx + 1, len(ps)):
        g = gcd(lcm_val, ps[j])
        total += _branch(ps, hyper, j, lcm_val // g * ps[j], -sign)
    return total


def _ie(ps, hyper):
    """Inclusion-exclusion count of the union of multiples in (0, hyper].

    Subset sum with a saturation prune: once a partial lcm reaches the
    hyperperiod, the branch's remaining terms telescope to zero unless the
    subset cannot be extended further.
    """
    return sum(_branch(ps, hyper, j, ps[j], 1) for j in range(len(ps)))


def union_count(periods, hyper):
    """|union of multiples of each period in (0, hyper]|, exactly.

    Preconditions (caller-enforced): positive integers, each dividing hyper.
    Duplicates and periods that divide another are counted correctly, but
    callers prune them first.
    """
    ps = list(periods)
    if len(ps) <= _IE_LEAF:
        return _ie(ps, hyper)
    return _split_count(ps, hyper)


def _split_count(ps, hyper):
    """union_count through the coprime-base split, at any set size."""
    kept = _absorb(ps)
    own = lcm(*kept)
    missed = _uncovered(tuple(kept), own, _coprime_base(kept), {})
    return hyper - missed * (hyper // own)


def _absorb(ps):
    """Sorted distinct periods that no other period divides."""
    kept = []
    for q in sorted(set(ps)):
        for p in kept:
            if q % p == 0:
                break
        else:
            kept.append(q)
    return kept


def _coprime_base(nums):
    """Sorted pairwise-coprime integers > 1 of which every num is a product
    of powers, by gcd refinement."""
    base = set()
    whole = 1                       # product of the base
    todo = list(nums)
    while todo:
        x = todo.pop()
        if gcd(x, whole) == 1:
            if x != 1:
                base.add(x)
                whole *= x
            continue
        for b in base:
            g = gcd(x, b)
            if g != 1:
                break
        if g != b:
            base.remove(b)
            whole //= b
            todo += (g, b // g)
        if g != x:
            todo.append(x // g)
    return sorted(base)


def _uncovered(ps, hyper, base, memo):
    """Residues modulo hyper = lcm(ps) that no period in the sorted antichain
    ps divides. Module-level recursion, so a call leaves no reference cycle."""
    got = memo.get(ps)
    if got is None:
        if prod(ps) == hyper:       # pairwise coprime, empty included
            got = prod(p - 1 for p in ps)
        elif len(ps) <= _IE_LEAF:
            got = hyper - _ie(ps, hyper)
        else:
            got = _split(ps, hyper, base, memo)
        memo[ps] = got
    return got


def _split(ps, hyper, base, memo):
    """_uncovered by levels of the base element that divides most periods;
    ps is not pairwise coprime, so one divides at least two."""
    b, most = 0, 1
    for d in base:
        n = 0
        for p in ps:
            if p % d == 0:
                n += 1
        if n > most:
            b, most = d, n
    by_level = {0: []}              # b-exponent -> periods with b divided out
    for p in ps:
        e = 0
        while p % b == 0:
            p //= b
            e += 1
        by_level.setdefault(e, []).append(p)
    levels = sorted(by_level)
    top = levels[-1]
    rest_hyper = hyper // b**top
    total = 0
    kept = []
    for i, e in enumerate(levels):
        # kept and new are antichains (new lost the same power of b), so only
        # a pair across them can absorb one member; a period b^e becomes 1
        # here and absorbs every other
        new = [q for q in by_level[e] if all(q % p for p in kept)]
        kept = sorted([p for p in kept if all(p % q for q in new)] + new)
        # residues mod b^top that b^e divides but b^next does not (0 at top)
        weight = b**(top - e) - b**(top - levels[i + 1]) if e < top else 1
        sub_hyper = lcm(*kept)
        total += weight * (rest_hyper // sub_hyper) * _uncovered(
            tuple(kept), sub_hyper, base, memo)
    return total


def epoch_count(periods, hyper):
    """|union| by explicit enumeration of the multiples (oracle lane)."""
    pts: set = set()
    for p in periods:
        pts.update(range(p, hyper + 1, p))
    return len(pts)
