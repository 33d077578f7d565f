from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jrp_forge import _kernels, sync
from jrp_forge.model import InputError
from jrp_forge.sync import (
    CapExceeded,
    SeriesFamily,
    check_cardinality_identities,
    hyperperiod,
    ijr,
    ijr_cross_seed,
    ijr_enumerate,
    lcm_rational,
    ujr,
    ujr_enumerate,
)

from .oracles import enum_intersection_rate, enum_union_rate

F = Fraction


def test_lcm_rational():
    assert lcm_rational(F(1, 2), F(1, 3)) == F(1)
    assert lcm_rational(F(2), F(3)) == F(6)
    assert lcm_rational(F(3, 4), F(5, 6)) == F(15, 2)


def test_hyperperiod_nested():
    assert hyperperiod([[F(2), F(3)], [F(4)]]) == F(12)


def test_ujr_hand_values():
    assert ujr([F(2), F(3)]) == F(2, 3)          # 1/2 + 1/3 - 1/6
    assert ujr([F(2), F(4)]) == F(1, 2)          # 4 absorbed by 2
    assert ujr([F(5)]) == F(1, 5)
    assert ujr([F(1, 2), F(1, 3)]) == F(4)       # rates add on the scaled grid
    assert ujr([F(2), F(2), F(2)]) == F(1, 2)    # duplicates are one series


def test_ijr_hand_values():
    assert ijr([[F(2)], [F(3)]]) == F(1, 6)
    assert ijr([[F(2), F(3)], [F(5)]]) == F(1, 10) + F(1, 15) - F(1, 30)
    assert ijr([[F(2)], [F(2)]]) == F(1, 2)


def test_single_family_ijr_is_ujr():
    fam = [F(2), F(3), F(5)]
    assert ijr([fam]) == ujr(fam)


def test_enumerate_matches_closed_form():
    fams = [[F(2), F(3)], [F(4), F(5)]]
    assert ujr_enumerate([q for fam in fams for q in fam]) == ujr(
        [q for fam in fams for q in fam])
    assert ijr_enumerate(fams) == ijr(fams)


periods = st.integers(min_value=1, max_value=30).map(F)
seeds = st.fractions(min_value=F(1, 50), max_value=F(3), max_denominator=50)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(periods, min_size=1, max_size=6), seeds)
def test_ujr_matches_set_oracle(ints, seed):
    series = [p * seed for p in ints]
    assert ujr(series) == enum_union_rate(series)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.lists(periods, min_size=1, max_size=3),
                min_size=2, max_size=3), seeds)
def test_ijr_matches_set_oracle(fams, seed):
    series = [[p * seed for p in fam] for fam in fams]
    assert ijr(series) == enum_intersection_rate(series)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.lists(st.lists(periods, min_size=1, max_size=3),
                min_size=2, max_size=4))
def test_cardinality_identities_hold(fams):
    report = check_cardinality_identities([SeriesFamily(tuple(f)) for f in fams])
    assert report.ok, report.violations()


def test_cardinality_identities_need_enough_families():
    with pytest.raises(InputError):
        check_cardinality_identities([SeriesFamily((F(2),))], which=2)


def test_cap_exceeded_and_override():
    # 21 pairwise non-dividing smooth numbers; saturation pruning keeps the
    # raised-cap run fast
    nums = (4, 6, 9, 10, 14, 15, 21, 22, 25, 26, 33, 34, 35, 38, 39, 46,
            49, 51, 55, 57, 58)
    series = [F(p) for p in nums]
    with pytest.raises(CapExceeded):
        ujr(series)
    val = ujr(series, cap=21)
    assert F(1, 4) < val < sum(F(1, p) for p in nums)


# divisors of 5040 = 2^4*3^2*5*7: sets of up to 10 keep enumeration small
# and reach the kernel's split above 7 series
divisors_5040 = [d for d in range(1, 5041) if 5040 % d == 0]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sets(st.sampled_from(divisors_5040), min_size=1, max_size=10))
def test_int_core_matches_enumeration_and_every_form(ints):
    count, hyper = sync._int_ujr(ints, None)
    rate = F(count, hyper)
    assert rate == ujr_enumerate(sorted(ints))
    flat = sorted(ints)
    forms = (flat, [F(p) for p in flat], SeriesFamily(tuple(F(p) for p in flat)),
             [[p] for p in flat], [flat[:1], [F(p) for p in flat[1:]]])
    for form in forms:
        assert ujr(form) == rate


CAP_MESSAGE = ("more than {} series remain after pruning (the "
               "inclusion-exclusion cap); use ujr_enumerate or raise the cap")


def test_int_core_cap_counts_after_pruning():
    # 4 divides 8 and 16: one series after pruning, three before
    assert sync._int_ujr({4, 8, 16}, 1) == (1, 4)
    assert sync._int_ujr({4, 8, 16}, 3) == (1, 4)
    # an antichain loses nothing to the prune
    assert sync._int_ujr({4, 6, 9}, 3) == (14, 36)
    with pytest.raises(CapExceeded) as exc:
        sync._int_ujr({4, 6, 9}, 2)
    assert str(exc.value) == CAP_MESSAGE.format(2)
    # ijr refuses on the same count, with the same message
    assert ijr([[4, 8, 16], [4]], cap=1) == F(1, 4)
    with pytest.raises(CapExceeded) as exc:
        ijr([[4, 6, 9], [1]], cap=2)
    assert str(exc.value) == CAP_MESSAGE.format(2)


def test_bounded_prune_stops_past_the_limit():
    # no period in 15001..30000 divides another, so the full antichain is
    # the whole range; the bounded prune keeps only its first limit + 1
    periods = range(15001, 30001)
    assert _kernels._absorb(periods, 20) == list(range(15001, 15022))
    assert _kernels._absorb(range(15001, 15101)) == list(range(15001, 15101))
    with pytest.raises(CapExceeded) as exc:
        ujr(list(periods))
    assert str(exc.value) == CAP_MESSAGE.format(sync.DEFAULT_IE_CAP)
    # a limit counts kept periods only: every multiple of 2 is absorbed
    assert _kernels._absorb([2, *range(4, 400, 2), 3], 1) == [2, 3]


def test_string_in_flat_list_is_one_period():
    assert ujr(["12"]) == F(1, 12)
    assert ujr([["12"]]) == F(1, 12)


def test_bare_string_is_one_period():
    assert ujr("12") == F(1, 12)


def test_hyperperiod_string_is_one_period():
    assert hyperperiod(["35"]) == F(35)


def test_float_in_flat_list_is_one_period():
    assert ujr([2.5, 2]) == ujr([[2.5], [2]]) == F(4, 5)


def test_none_period_raises_input_error():
    with pytest.raises(InputError, match="rational number, got None"):
        ujr([None, 2])


def test_unparsable_string_period_raises_input_error():
    with pytest.raises(InputError, match="rational number, got 'abc'"):
        ujr([["abc"]])


def test_bytes_period_raises_input_error():
    with pytest.raises(InputError, match=r"rational number, got b'12'"):
        ujr(b"12")


def test_bytearray_in_flat_list_raises_input_error():
    with pytest.raises(InputError, match=r"got bytearray\(b'12'\)"):
        ujr([bytearray(b"12")])


def test_series_family_of_one_string_is_one_period():
    assert ujr(SeriesFamily("12")) == F(1, 12)


def test_series_family_of_one_int_is_one_period():
    assert ujr(SeriesFamily(12)) == F(1, 12)


def _rate_with(others, t, cap=None):
    num, den = sync._ujr_with(others, cap)(t)
    return F(num, den)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.fractions(min_value=F(1, 6), max_value=F(40),
                             max_denominator=6) | st.integers(1, 40),
                min_size=0, max_size=6),
       st.lists(st.fractions(min_value=F(1, 8), max_value=F(60),
                             max_denominator=8) | st.integers(1, 60),
                min_size=1, max_size=4))
def test_ujr_with_matches_ujr(others, ts):
    # one closure answers many trials, as descent uses it
    rate = sync._ujr_with(others, None)
    for t in ts:
        num, den = rate(t)
        assert F(num, den) == ujr(others + [t])


def test_ujr_with_cases():
    assert _rate_with([], F(7, 2)) == F(2, 7)            # a lone series
    assert _rate_with([], 5) == F(1, 5)
    # an other divides t: the others' own rate, twice from one closure
    rate = sync._ujr_with([F(2), 3], None)
    assert F(*rate(F(6))) == F(*rate(4)) == ujr([2, 3]) == F(2, 3)
    # t divides an other, which drops out
    assert _rate_with([F(6), 5], 3) == ujr([3, 5]) == F(7, 15)
    # t brings a new denominator
    assert _rate_with([F(2), F(3, 2)], F(5, 3)) == ujr([2, F(3, 2), F(5, 3)])
    # int and Fraction others are the same series
    assert _rate_with([2, F(2), 3], F(5)) == ujr([2, 3, 5])


def test_ujr_with_cap_message_matches_ujr():
    refused = [([F(2), 3], F(5), 2),          # a new third series
               ([F(2), F(3), F(5)], F(7), 2),  # the others alone exceed it
               ([F(2), F(3), F(5)], 3, 2),
               ([F(2), F(3), F(5)], 30, 2)]    # an other divides t
    for others, t, cap in refused:
        with pytest.raises(CapExceeded) as want:
            ujr(others + [t], cap=cap)
        with pytest.raises(CapExceeded) as got:
            _rate_with(others, t, cap)
        assert str(got.value) == str(want.value) == CAP_MESSAGE.format(cap)
    answered = [([F(2), 3], 2, 2),            # t repeats an other
                ([4, 8], 16, 2),              # one series after pruning
                ([4, 8], 16, 1),
                ([F(6), F(10), F(15)], 1, 1),  # t divides every other
                ([F(3), F(9, 2)], F(3, 2), 1)]  # and over a new scale
    for others, t, cap in answered:
        assert _rate_with(others, t, cap) == ujr(others + [t], cap=cap)


def test_enumerate_cap():
    with pytest.raises(CapExceeded):
        ujr_enumerate([F(2), F(999983)], max_points=10)


def test_positivity_required():
    with pytest.raises(InputError):
        ujr([F(0)])
    with pytest.raises(InputError):
        ijr([[F(2)], [F(-1)]])


# --- cross-seed rate ---------------------------------------------------------

def test_cross_seed_equal_seeds():
    value, q, r = ijr_cross_seed(F(3, 2), F(3, 2))
    assert (value, q, r) == (F(2, 3), 0, 1)


def test_cross_seed_known_value():
    # beta_j/beta_i = 1 + 1/3 -> shared epochs every beta_i*(3+1)
    value, q, r = ijr_cross_seed(F(1), F(4, 3))
    assert (q, r) == (1, 3)
    assert value == F(1, 4)
    # straight enumeration over the scaled grid agrees
    assert enum_intersection_rate([[F(1)], [F(4, 3)]]) == value


def test_cross_seed_rejects_bad_order():
    with pytest.raises(InputError):
        ijr_cross_seed(F(2), F(1))
    with pytest.raises(InputError):
        ijr_cross_seed(F(0), F(1))
    with pytest.raises(InputError):
        ijr_cross_seed(F(1, 2), F(1))  # seeds below 1 are out of scope


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60),
       st.fractions(min_value=F(1), max_value=F(3), max_denominator=20))
def test_cross_seed_matches_oracle(q_raw, r_raw, beta_i):
    ratio = 1 + F(q_raw, r_raw)
    value, q, r = ijr_cross_seed(beta_i, beta_i * ratio)
    assert F(q, r) == F(q_raw, r_raw)
    assert value == enum_intersection_rate([[beta_i], [beta_i * ratio]])


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.integers(min_value=1, max_value=200))
def test_cross_seed_below_drift_bound(r):
    # with drift q/r the shared rate 1/(r+q) stays under q/r
    for q in range(1, r + 1):
        if F(q, r).denominator != r:
            continue
        value, _, _ = ijr_cross_seed(F(1), 1 + F(q, r))
        assert value < F(q, r)
