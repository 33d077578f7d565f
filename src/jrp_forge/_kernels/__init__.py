"""Integer counting kernels with a compiled fast path.

The compiled extension handles the common case where every epoch fits in a
signed 64-bit integer; arbitrary-precision inputs (hyperperiods >= 2**63,
as produced by the instance generator's prime products under large seeds)
route to the pure-Python implementation automatically, as does every input
when the extension is not built.
"""
from __future__ import annotations

from . import pure

try:
    from . import fast as _fast
except ImportError:
    _fast = None

_I64_MAX = 2**63 - 1


def backend() -> str:
    """Name of the lane used for 64-bit-safe inputs."""
    return "fast" if _fast is not None else "pure"


def union_count(periods, hyper):
    """|union of multiples of each period in (0, hyper]| via inclusion-exclusion.

    Preconditions (caller-enforced): positive integers, each dividing hyper,
    no duplicates, no period dividing another.
    """
    if _fast is not None and hyper <= _I64_MAX:
        return _fast.union_count(list(periods), hyper)
    return pure.union_count(list(periods), hyper)


def epoch_count(periods, hyper):
    """|union| by explicit enumeration of the multiples (oracle lane)."""
    if _fast is not None and hyper <= _I64_MAX:
        return _fast.epoch_count(list(periods), hyper)
    return pure.epoch_count(list(periods), hyper)
