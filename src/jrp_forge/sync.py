"""Exact synchronization calculus over in-phase periodic order series.

An order series with period t places orders at t, 2t, 3t, ... (phase 0 for
every series; in-phase is a modeling assumption, not an option). The union
joint-replenishment rate UJR is the density of epochs where at least one
series orders; the intersection rate IJR is the density of epochs where
every given family has some series ordering. Both are exact rationals.

Each union is counted over one hyperperiod by `_kernels.union_count`: by
inclusion-exclusion for a few series, and above that by an exact split on a
pairwise-coprime base of the periods with inclusion-exclusion only at small
leaves. `_int_union` counts every union rate, and `_int_ujr` prunes for it:
callers whose periods are already integers call `_int_ujr` directly and get
the count and the hyperperiod, with no Fraction. Chief among them is cost's
_profile_pricer, the one integer pricer of seed_cost, the exhaustive and
power-of-two scans and the roundtrip's assignment policies.
`_kernels._absorb` first drops duplicates and periods another divides. The
cap bounds the series the kernel counts: at most `cap` (default 20) per
rate, counted after that prune, for ujr and ijr alike. `_int_union` is the
one place that refuses; larger inputs raise CapExceeded and should go
through ujr_enumerate.

A period is an int, a Fraction, or any value Fraction() accepts, a string
included; a collection of periods is any other iterable, and so is a
SeriesFamily's `periods`, which may also hold one period. bytes and bytearray
are one period as well, which Fraction() rejects with InputError.
"""
from __future__ import annotations

from bisect import insort
from collections.abc import Callable, Collection, Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import _kernels
from .model import InputError, JrpError

DEFAULT_IE_CAP = 20
DEFAULT_ENUM_CAP = 10_000_000


class CapExceeded(JrpError):
    """Input exceeds a configured resource cap; no silent approximation."""


@dataclass(frozen=True)
class SeriesFamily:
    """A union of order series, e.g. one commodity group's epochs."""
    periods: tuple[Fraction, ...]
    label: str = ""

    def __post_init__(self):
        if not self.periods:
            raise InputError("series family must be non-empty")


def _is_period(value) -> bool:
    """True for one period (a string, bytes or any non-iterable value), False
    for a collection of periods."""
    return isinstance(value, (Fraction, int, str, bytes, bytearray)) \
        or not isinstance(value, Iterable)


def _as_periods(family) -> list[Fraction | int]:
    """The positive periods of one family, a SeriesFamily's included. int and
    Fraction periods are kept as they are; any other value goes through
    Fraction()."""
    if isinstance(family, SeriesFamily):
        family = family.periods
    raw = [family] if _is_period(family) else family
    out = []
    for t in raw:
        if type(t) is not int and type(t) is not Fraction:
            try:
                t = Fraction(t)
            except (TypeError, ValueError, OverflowError):
                raise InputError(
                    f"series period must be a rational number, got {t!r}") from None
        if t.numerator <= 0:
            raise InputError(f"series period must be > 0, got {t}")
        out.append(t)
    return out


def _flatten(families, what: str) -> list[Fraction | int]:
    """All periods of flat periods, one family, or a collection of families."""
    if isinstance(families, SeriesFamily) or _is_period(families):
        periods = _as_periods(families)
    else:
        periods = [t for fam in families for t in _as_periods(fam)]
    if not periods:
        raise InputError(f"{what} of empty input")
    return periods


def lcm_rational(a: Fraction, b: Fraction) -> Fraction:
    """Smallest positive rational that is an integer multiple of both."""
    a, b = Fraction(a), Fraction(b)
    if a <= 0 or b <= 0:
        raise InputError("lcm_rational requires positive arguments")
    den = a.denominator * b.denominator
    return Fraction(lcm(a.numerator * b.denominator, b.numerator * a.denominator), den)


def hyperperiod(families) -> Fraction:
    """lcm of all periods across the given families (or flat periods)."""
    ints, scale = _scale_to_integers(_flatten(families, "hyperperiod"))
    return Fraction(lcm(*ints), scale)


def _scale_to_integers(rationals: Sequence[Fraction]) -> tuple[list[int], int]:
    """Put rationals over one common denominator, their denominator lcm L.

    Returns (integers, L); a rational q maps to q*L.
    """
    scale = lcm(*(q.denominator for q in rationals))
    return [q.numerator * (scale // q.denominator) for q in rationals], scale


def _int_families(families, what: str) -> tuple[list[list[int]], int]:
    """Per-family integer periods over one common scale L, and L."""
    fams = [_as_periods(f) for f in families]
    if not fams:
        raise InputError(f"{what} of empty input")
    ints, scale = _scale_to_integers([t for fam in fams for t in fam])
    it = iter(ints)
    return [[next(it) for _ in fam] for fam in fams], scale


def _enumeration_hyper(ints: Sequence[int], max_points: int | None) -> int:
    """Hyperperiod of the integer periods; refuses more than max_points epochs."""
    max_points = DEFAULT_ENUM_CAP if max_points is None else max_points
    hyper = lcm(*ints)
    points = sum(hyper // p for p in ints)
    if points > max_points:
        raise CapExceeded(
            f"enumeration needs {points} points, over the cap {max_points}"
        )
    return hyper


def _int_union(int_periods: Sequence[int], scale: int,
               cap: int | None) -> tuple[int, int]:
    """(count*scale, hyper): the union rate of non-empty pruned integer
    periods over the scale L, not reduced; hyper is their lcm. Refuses more
    than `cap` periods."""
    cap = DEFAULT_IE_CAP if cap is None else cap
    if len(int_periods) > cap:
        raise CapExceeded(
            f"more than {cap} series remain after pruning (the "
            f"inclusion-exclusion cap); use ujr_enumerate or raise the cap"
        )
    hyper = lcm(*int_periods)
    return _kernels.union_count(int_periods, hyper) * scale, hyper


def _int_ujr(distinct_ints: Collection[int], cap: int | None) -> tuple[int, int]:
    """(count, hyper) for distinct positive integer periods: the union of
    their multiples holds `count` epochs in (0, hyper], so the union rate is
    count/hyper, not reduced. hyper is the lcm of the periods left after
    pruning. The prune stops past the cap, so an input over it costs at
    most cap+1 divisibility tests per period."""
    cap = DEFAULT_IE_CAP if cap is None else cap
    return _int_union(_kernels._absorb(distinct_ints, cap), 1, cap)


def ujr(families, cap: int | None = None) -> Fraction:
    """Union joint-replenishment rate |union of all series| / hyperperiod.

    Grouping is irrelevant for a union, so the input may be flat periods,
    one family, or a collection of families. Exact.
    """
    ints, scale = _scale_to_integers(_flatten(families, "ujr"))
    count, hyper = _int_ujr(set(ints), cap)
    return Fraction(count * scale, hyper)


def _ujr_with(others: Sequence[Fraction],
              cap: int | None) -> Callable[[Fraction], tuple[int, int]]:
    """t -> (num, den) with ujr(others + [t]) == num/den, for many positive
    t against fixed `others`; the pair is count*scale over the hyperperiod,
    not reduced.

    The others are scaled to integers over their denominator lcm L0 and
    pruned once. A candidate t = p/q rescales them to lcm(L0, q): when an
    other divides t the union is the others' own rate, otherwise the others
    that t divides drop out and t joins the rest. The cap counts the series
    left after that prune, as ujr does.
    """
    ints, l0 = _scale_to_integers(others)
    pruned = _kernels._absorb(ints)
    own_rate: tuple[int, int] | None = None

    def rate(t: Fraction) -> tuple[int, int]:
        nonlocal own_rate
        scale = lcm(l0, t.denominator)
        up = scale // l0
        tp = t.numerator * (scale // t.denominator)
        kept = []
        for b in pruned:
            b *= up
            if tp % b == 0:
                if own_rate is None:
                    own_rate = _int_union(pruned, l0, cap)
                return own_rate
            if b % tp:
                kept.append(b)
        insort(kept, tp)
        return _int_union(kept, scale, cap)

    return rate


def ujr_enumerate(families, max_points: int | None = None) -> Fraction:
    """Oracle lane: build the explicit epoch set over one hyperperiod."""
    ints, scale = _scale_to_integers(_flatten(families, "ujr_enumerate"))
    ints = sorted(set(ints))
    hyper = _enumeration_hyper(ints, max_points)
    count = _kernels.epoch_count(ints, hyper)
    return Fraction(count * scale, hyper)


def ijr(families, cap: int | None = None) -> Fraction:
    """Intersection rate: density of epochs where every family orders.

    The intersection of unions expands to a union over one series per
    family, each with period lcm(choice); the expansion is deduplicated and
    absorbed before counting, and the cap counts what remains, as in ujr.
    """
    int_fams, scale = _int_families(families, "ijr")
    # absorb multiples eagerly to keep the cross product small
    cross = _kernels._absorb(int_fams[0])
    for fam in int_fams[1:]:
        cross = _kernels._absorb(lcm(a, b) for a in cross for b in fam)
    return Fraction(*_int_union(cross, scale, cap)) if cross else Fraction(0)


def ijr_enumerate(families, max_points: int | None = None) -> Fraction:
    """Enumeration cross-check for ijr: intersect per-family epoch sets."""
    int_fams, scale = _int_families(families, "ijr_enumerate")
    hyper = _enumeration_hyper([p for fam in int_fams for p in fam], max_points)
    epochs: set[int] | None = None
    for fam in int_fams:
        fam_epochs: set[int] = set()
        for p in fam:
            fam_epochs.update(range(p, hyper + 1, p))
        epochs = fam_epochs if epochs is None else (epochs & fam_epochs)
    assert epochs is not None
    return Fraction(len(epochs) * scale, hyper)


def ijr_cross_seed(beta_i: Fraction, beta_j: Fraction) -> tuple[Fraction, int, int]:
    """IJR of two unit-period series at seeds beta_i <= beta_j.

    Writing beta_j/beta_i = 1 + q/r irreducibly, the joint epochs recur every
    beta_i*(r+q), so the rate is 1/(beta_i*(r+q)). Equal seeds give (0, 1)
    and rate 1/beta_i.
    """
    beta_i, beta_j = Fraction(beta_i), Fraction(beta_j)
    if beta_i <= 0:
        raise InputError(f"seed must be > 0, got {beta_i}")
    if beta_i < 1 or beta_j < beta_i:
        raise InputError("requires 1 <= beta_i <= beta_j")
    ratio_minus_one = beta_j / beta_i - 1
    q, r = ratio_minus_one.numerator, ratio_minus_one.denominator
    if q == 0:
        return Fraction(1) / beta_i, 0, 1
    return Fraction(1) / (beta_i * (r + q)), q, r


@dataclass(frozen=True)
class IdentityCheck:
    identity: int
    description: str
    lhs: Fraction
    rhs: Fraction
    ok: bool


@dataclass(frozen=True)
class CardinalityReport:
    checks: tuple[IdentityCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def violations(self) -> tuple[IdentityCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def check_cardinality_identities(families, which: int | None = None,
                                 cap: int | None = None) -> CardinalityReport:
    """Evaluate the four union/intersection cardinality identities exactly.

    1. UJR(F1 u F2) = UJR(F1) + UJR(F2) - IJR(F1, F2)
    2. IJR(F1, F2, F3) <= IJR(F1, F2)
    3. IJR(F1, F2 u F3) = IJR(F1, F2) + IJR(F1, F3) - IJR(F1, F2, F3)
    4. adding series grows both UJR and IJR (monotonicity under inclusion)

    `which` selects one identity; None runs every identity the family count
    supports (1 and 4 need two families; 2 and 3 need three).
    """
    fams = [_as_periods(f) for f in families]
    wanted = [which] if which is not None else [1, 2, 3, 4]
    checks: list[IdentityCheck] = []

    def need(k: int):
        if len(fams) < k:
            raise InputError(f"identity needs at least {k} families, got {len(fams)}")

    for ident in wanted:
        if ident == 1:
            need(2)
            lhs = ujr(fams[0] + fams[1], cap=cap)
            rhs = ujr(fams[0], cap=cap) + ujr(fams[1], cap=cap) - ijr(fams[:2], cap=cap)
            checks.append(IdentityCheck(1, "UJR(F1 u F2) = UJR(F1)+UJR(F2)-IJR(F1,F2)",
                                        lhs, rhs, lhs == rhs))
        elif ident == 2:
            if which is None and len(fams) < 3:
                continue
            need(3)
            lhs = ijr(fams[:3], cap=cap)
            rhs = ijr(fams[:2], cap=cap)
            checks.append(IdentityCheck(2, "IJR(F1,F2,F3) <= IJR(F1,F2)",
                                        lhs, rhs, lhs <= rhs))
        elif ident == 3:
            if which is None and len(fams) < 3:
                continue
            need(3)
            lhs = ijr([fams[0], fams[1] + fams[2]], cap=cap)
            rhs = (ijr([fams[0], fams[1]], cap=cap) + ijr([fams[0], fams[2]], cap=cap)
                   - ijr(fams[:3], cap=cap))
            checks.append(IdentityCheck(3, "IJR(F1,F2 u F3) expansion", lhs, rhs, lhs == rhs))
        elif ident == 4:
            need(2)
            grown = fams[0] + fams[1]
            u_ok = ujr(fams[0], cap=cap) <= ujr(grown, cap=cap)
            i_ok = ijr([fams[0], fams[1]], cap=cap) <= ijr([grown, fams[1]], cap=cap)
            checks.append(IdentityCheck(4, "monotonicity under series inclusion",
                                        ujr(fams[0], cap=cap), ujr(grown, cap=cap),
                                        u_ok and i_ok))
        else:
            raise InputError(f"unknown identity {ident}; expected 1..4")
    return CardinalityReport(tuple(checks))
