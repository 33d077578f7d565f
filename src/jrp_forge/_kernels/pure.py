"""Pure-Python kernels; exact for arbitrary-precision integers.

`union_count` is this lane's inclusion-exclusion. The dispatcher in
`_kernels` calls it for sets of at most `_IE_LEAF` periods and for the
small leaves of its coprime-base split, whenever the compiled lane is not
built or the hyperperiod does not fit in a signed 64-bit integer.
"""
from __future__ import annotations

from math import gcd


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


def union_count(periods, hyper):
    """Inclusion-exclusion count of the union of multiples in (0, hyper].

    Subset sum with a saturation prune: once a partial lcm reaches the
    hyperperiod, the branch's remaining terms telescope to zero unless the
    subset cannot be extended further.
    """
    ps = list(periods)
    return sum(_branch(ps, hyper, j, ps[j], 1) for j in range(len(ps)))


def epoch_count(periods, hyper):
    pts: set = set()
    for p in periods:
        pts.update(range(p, hyper + 1, p))
    return len(pts)
