import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jrp_forge.cost import total_cost
from jrp_forge.model import (
    Commodity,
    CommodityKind,
    InputError,
    Instance,
    Policy,
    SeedProfile,
    expand_profile,
    format_rational,
    load_instance,
    load_policy,
    parse_rational,
    rational_to_decimal,
    save_instance,
    save_policy,
    validate_policy,
)
from jrp_forge.solve import coordinate_descent

from .oracles import reference_rational_to_decimal

F = Fraction


def make_instance():
    return Instance(
        commodities=(
            Commodity("a", F(2), F(1), F(25), CommodityKind.CONSTANT),
            Commodity("b", F(3), F(1, 2), F(7), CommodityKind.VARIABLE),
        ),
        joint_setup=F(1),
    )


def test_parse_rational_forms():
    assert parse_rational(3) == F(3)
    assert parse_rational("25/7") == F(25, 7)
    assert parse_rational("-3/9") == F(-1, 3)
    assert parse_rational(" 4/2 ") == F(2)


@pytest.mark.parametrize("bad", ["", "1/0", "x", "1.5.2", None, 2.5, True])
def test_parse_rational_rejects(bad):
    with pytest.raises(InputError):
        parse_rational(bad, where="field")


def test_parse_rational_bounds_input_cost():
    # "1e10000000" would otherwise build a 33M-bit integer, taking seconds
    for text in ("1e10000000", "-1E-10000000", "3.5e1001", "1e1_001"):
        start = time.perf_counter()
        with pytest.raises(InputError, match="exponent"):
            parse_rational(text, where="field")
        assert time.perf_counter() - start < 0.5
    with pytest.raises(InputError, match="characters"):
        parse_rational("1" * 5000 + "/3")
    assert parse_rational("1e1000") == F(10) ** 1000
    assert parse_rational(" -2.5e-1000 ") == F(-5, 2) / F(10) ** 1000
    assert parse_rational("1/" + "7" * 4000) == F(1, int("7" * 4000))


def test_format_roundtrip():
    q = F(-355, 113)
    assert parse_rational(format_rational(q)) == q


rationals = st.fractions(
    min_value=F(-10**6), max_value=F(10**6), max_denominator=10**6)


@settings(max_examples=200, derandomize=True)
@given(rationals)
def test_format_parse_identity(q):
    assert parse_rational(format_rational(q)) == q


@pytest.mark.parametrize("q,expect", [
    (F(0), "0"),
    (F(51, 5), "10.2"),
    (F(1), "1"),
    (F(1, 3), "0.333333333333"),
    (F(-1, 8), "-0.125"),
    (F(10**13), "10000000000000"),
    (F(1, 10**4), "0.0001"),
])
def test_rational_to_decimal(q, expect):
    assert rational_to_decimal(q) == expect


@settings(max_examples=200, derandomize=True)
@given(st.fractions(min_value=F(1, 10**9), max_value=F(10**9),
                    max_denominator=10**9))
def test_decimal_rendering_close(q):
    # 12 significant digits -> relative error below 5e-12
    rendered = float(rational_to_decimal(q))
    assert abs(rendered - float(q)) <= 5e-12 * float(q) + 1e-15


signs = st.sampled_from((1, -1))
decimal_digits = st.integers(1, 30)
exponents = st.integers(-40, 40)


@settings(max_examples=400, derandomize=True)
@given(signs, st.integers(1, 10**40), st.integers(1, 10**40), decimal_digits)
def test_rational_to_decimal_matches_reference(sign, num, den, digits):
    # magnitudes from 10^-40 to 10^40
    q = sign * F(num, den)
    assert rational_to_decimal(q, digits) == reference_rational_to_decimal(q, digits)


@settings(max_examples=300, derandomize=True)
@given(signs, st.data(), decimal_digits, exponents)
def test_rational_to_decimal_ties_round_half_to_even(sign, data, digits, exp):
    # M + 1/2 at the last digit kept: even M stays, odd M rounds up
    mantissa = data.draw(st.integers(10 ** (digits - 1), 10 ** digits - 2))
    q = sign * F(2 * mantissa + 1, 2) * F(10) ** exp
    got = rational_to_decimal(q, digits)
    assert got == reference_rational_to_decimal(q, digits)
    rounded = mantissa + mantissa % 2
    assert F(got) == sign * rounded * F(10) ** exp


@settings(max_examples=200, derandomize=True)
@given(signs, decimal_digits, exponents,
       st.sampled_from((F(1, 2), F(1, 2) + F(1, 10**6), F(3, 4), F(99, 100))))
def test_rational_to_decimal_carry_adds_a_digit(sign, digits, exp, tail):
    # 99..9 (digits nines) plus a tail of at least a half rounds up to the
    # next power of ten; at exactly a half the odd 99..9 goes up as well
    q = sign * (10 ** digits - 1 + tail) * F(10) ** exp
    got = rational_to_decimal(q, digits)
    assert got == reference_rational_to_decimal(q, digits)
    assert F(got) == sign * F(10) ** (exp + digits)


@settings(max_examples=40, derandomize=True)
@given(signs, st.integers(1, 10**30), st.integers(1, 10**30), decimal_digits,
       st.sampled_from((-1, 1)), st.integers(1000, 1300))
def test_rational_to_decimal_far_beyond_float_range(sign, num, den, digits,
                                                    side, exp):
    # magnitudes past 10^+-1000, outside any default decimal context
    q = sign * F(num, den) * F(10) ** (side * exp)
    got = rational_to_decimal(q, digits)
    assert got == reference_rational_to_decimal(q, digits)
    assert abs(F(got) - q) <= abs(q) / 10 ** (digits - 1)


@pytest.mark.parametrize("q", [F(0), F(293, 1), F(-1, 3)])
@pytest.mark.parametrize("digits", [0, -1])
def test_rational_to_decimal_refuses_digits_below_one(q, digits):
    with pytest.raises(InputError, match=f"digits must be >= 1, got {digits}"):
        rational_to_decimal(q, digits)


def test_validate_instance_findings():
    # an instance refuses every non-positive cost, all named in one error,
    # so no solver sees one
    with pytest.raises(InputError) as exc:
        Instance(
            commodities=(
                Commodity("a", F(0), F(1), F(1)),
                Commodity("b", F(1), F(-1), F(1)),
                Commodity("c", F(1), F(1), F(0)),
            ),
            joint_setup=F(0),
        )
    assert str(exc.value) == ("commodity 'a': demand must be > 0, got 0; "
                              "commodity 'b': holding must be > 0, got -1; "
                              "commodity 'c': setup must be > 0, got 0; "
                              "joint_setup must be > 0, got 0")
    # int costs are rationals too
    with pytest.raises(InputError, match=r"^commodity 'a': setup must be > 0, got -3$"):
        Instance((Commodity("a", 2, 1, -3),), 1)
    # a repeated id is refused when the instance is built, and a document
    # that repeats ids is refused with one finding per repeat
    with pytest.raises(InputError, match=r"^duplicate commodity id 'a'$"):
        Instance((Commodity("a", F(1), F(1), F(1)),) * 2, F(1))
    doc = {"k0": "1", "commodities": [
        {"id": cid, "lambda": "1", "h": "1", "k": "1"} for cid in "abab"]}
    with pytest.raises(InputError) as exc:
        load_instance(json.dumps(doc))
    assert str(exc.value) == ("duplicate commodity id 'a'; "
                              "duplicate commodity id 'b'")


def test_validate_policy_both_directions():
    inst = make_instance()
    report = validate_policy(inst, Policy({"a": F(5), "zzz": F(1)}))
    text = "; ".join(report.findings)
    assert "missing cycle" in text and "unknown commodity" in text
    assert validate_policy(inst, Policy({"a": F(5), "b": F(3)})).ok


@pytest.mark.parametrize("cycle, type_name", [
    (0.5, "float"), (True, "bool"), ("5", "str"), (None, "NoneType")])
def test_validate_policy_refuses_cycles_that_are_not_rationals(cycle, type_name):
    # a float cycle used to be priced in floats (total_cost 52.5 here), True
    # as cycle 1, and "5" raised an untyped TypeError
    inst = Instance((Commodity("a", F(2), F(1), F(25)),), F(1))
    message = f"cycle for 'a' must be an int or Fraction, got {type_name}"
    assert validate_policy(inst, Policy({"a": cycle})).findings == (message,)
    with pytest.raises(InputError, match=message):
        total_cost(inst, Policy({"a": cycle}))
    with pytest.raises(InputError, match=message):
        coordinate_descent(inst, start=Policy({"a": cycle}))
    for ok in (5, F(5, 2)):
        assert validate_policy(inst, Policy({"a": ok})).ok


def test_validate_policy_reports_missing_ids_in_instance_order():
    # neither sorted nor in string-hash order: the order the instance lists
    ids = [f"c{7 * i % 20}" for i in range(20)]
    inst = Instance(tuple(Commodity(cid, F(2), F(1), F(1)) for cid in ids), F(1))
    report = validate_policy(inst, Policy({}))
    assert report.findings == tuple(
        f"policy missing cycle for commodity {cid!r}" for cid in ids)


def test_expand_profile():
    pol = expand_profile(SeedProfile({"a": 2, "b": 5}, beta=F(3, 2)))
    assert pol.cycle("a") == F(3) and pol.cycle("b") == F(15, 2)
    with pytest.raises(InputError):
        expand_profile(SeedProfile({"a": 0}))
    with pytest.raises(InputError):
        expand_profile(SeedProfile({"a": 1}, beta=F(0)))


def test_instance_json_roundtrip():
    inst = make_instance()
    again = load_instance(save_instance(inst))
    assert again == inst


def test_instance_json_meta_preserved():
    inst = Instance(make_instance().commodities, F(1), meta={"note": "x"})
    again = load_instance(save_instance(inst))
    assert again.meta == {"note": "x"}


@pytest.mark.parametrize("payload,needle", [
    ("{", "malformed instance JSON"),
    ("[]", "must be an object"),
    ("{}", "missing 'k0'"),
    ('{"k0": "0"}', "k0 must be > 0"),
    ('{"k0": "1"}', "missing 'commodities'"),
    ('{"k0": "1", "commodities": [{}]}', "missing 'id'"),
    ('{"k0": "1", "commodities": [{"id": "a", "class": "wat", "lambda": "1", "h": "1", "k": "1"}]}',
     "unknown class tag"),
    ('{"k0": "1", "commodities": [{"id": "a", "lambda": "1", "h": "1"}]}',
     "missing field(s) k"),
    ('{"k0": "1", "commodities": [{"id": "a", "lambda": "1", "h": "1", "k": "7/x"}]}',
     "not a rational"),
    ('{"k0": "1", "commodities": [{"id": "a", "lambda": "1", "h": "-1", "k": "1"}]}',
     "must be > 0"),
])
def test_instance_json_diagnostics(payload, needle):
    with pytest.raises(InputError) as excinfo:
        load_instance(payload)
    assert needle in str(excinfo.value)


def test_policy_json_roundtrip():
    pol = Policy({"b": F(7, 3), "a": F(5)})
    again = load_policy(save_policy(pol))
    assert dict(again.cycles) == dict(pol.cycles)
    doc = json.loads(save_policy(pol))
    assert list(doc["cycles"]) == ["a", "b"]  # sorted ids


def test_policy_json_diagnostics():
    with pytest.raises(InputError):
        load_policy("{}")
    with pytest.raises(InputError):
        load_policy('{"cycles": {"a": "0"}}')


_HUGE_INT = "1" * 5000      # over Python's default 4300-digit int conversion limit


@pytest.mark.parametrize("payload", [
    '{"k0": %s, "commodities": []}' % _HUGE_INT,
    '{"k0": "1", "commodities": [{"id": "a", "lambda": %s, "h": "1", "k": "1"}]}'
    % _HUGE_INT,
    b'{"k0": "1", "commodities": [{"id": "\xff", "lambda": "1", "h": "1", "k": "1"}]}',
])
def test_instance_json_value_errors_are_input_errors(payload):
    # an oversized integer literal or non-UTF-8 bytes raise ValueError inside
    # the decoder; the loader reports them like any other malformed JSON
    with pytest.raises(InputError, match="malformed instance JSON"):
        load_instance(payload)


def test_policy_json_value_errors_are_input_errors():
    with pytest.raises(InputError, match="malformed policy JSON"):
        load_policy('{"cycles": {"a": %s}}' % _HUGE_INT)
    with pytest.raises(InputError, match="malformed policy JSON"):
        load_policy(b'{"cycles": {"\xff": "1"}}')


_DEEP = "[" * 100000 + "]" * 100000     # nested past the decoder's recursion limit


def test_deeply_nested_json_is_input_error():
    with pytest.raises(InputError, match="malformed instance JSON: nested too deeply"):
        load_instance('{"k0": "1", "commodities": %s}' % _DEEP)
    with pytest.raises(InputError, match="malformed policy JSON: nested too deeply"):
        load_policy('{"cycles": {"a": %s}}' % _DEEP)
