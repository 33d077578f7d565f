"""Core domain types: commodities, instances, policies, seed profiles.

All quantities are exact rationals (`fractions.Fraction`). Costs and cycle
times never touch floating point except in presentation helpers.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Optional


class JrpError(Exception):
    """Base class for all toolkit errors."""


class InputError(JrpError):
    """Malformed or invalid input data (files, formulas, parameters)."""


class CommodityKind(str, Enum):
    CONSTANT = "constant"
    VARIABLE = "variable"
    CLAUSE = "clause"
    GENERIC = "generic"


@dataclass(frozen=True)
class Commodity:
    id: str
    demand: Fraction      # lambda_c, units per period
    holding: Fraction     # h_c, $ per unit-period
    setup: Fraction       # K_c, $ per order
    kind: CommodityKind = CommodityKind.GENERIC


@dataclass(frozen=True)
class Instance:
    commodities: tuple[Commodity, ...]
    joint_setup: Fraction                      # K_0
    meta: Optional[Mapping[str, object]] = None

    def __post_init__(self) -> None:
        # the solvers' answers hold only for positive costs (a rational's
        # sign is its numerator's, which is much cheaper to compare); and a
        # policy maps each id to one cycle, so a repeated id could not be
        # given the cycles its commodities are priced at
        seen: set[str] = set()
        findings = []
        for c in self.commodities:
            if c.id in seen:
                findings.append(f"duplicate commodity id {c.id!r}")
            seen.add(c.id)
            for name, val in (("demand", c.demand), ("holding", c.holding),
                              ("setup", c.setup)):
                if val.numerator <= 0:
                    findings.append(f"commodity {c.id!r}: {name} must be > 0, got {val}")
        if self.joint_setup.numerator <= 0:
            findings.append(f"joint_setup must be > 0, got {self.joint_setup}")
        if findings:
            raise InputError("; ".join(findings))

    def commodity(self, cid: str) -> Commodity:
        for c in self.commodities:
            if c.id == cid:
                return c
        raise InputError(f"no commodity with id {cid!r}")

    def ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.commodities)


@dataclass(frozen=True)
class Policy:
    cycles: Mapping[str, Fraction]   # commodity id -> t_c > 0

    def cycle(self, cid: str) -> Fraction:
        try:
            return self.cycles[cid]
        except KeyError:
            raise InputError(f"policy has no cycle for commodity {cid!r}") from None


@dataclass(frozen=True)
class SeedProfile:
    multipliers: Mapping[str, int]   # commodity id -> k_c >= 1
    beta: Fraction = Fraction(1)     # shared seed >= 1


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.findings


def validate_policy(instance: Instance, policy: Policy) -> ValidationReport:
    findings: list[str] = []
    ids = dict.fromkeys(instance.ids())   # instance order, once per id
    for cid in ids:
        if cid not in policy.cycles:
            findings.append(f"policy missing cycle for commodity {cid!r}")
    for cid, t in policy.cycles.items():
        if cid not in ids:
            findings.append(f"policy names unknown commodity {cid!r}")
        if not isinstance(t, (Fraction, int)) or isinstance(t, bool):
            findings.append(f"cycle for {cid!r} must be an int or Fraction, "
                            f"got {type(t).__name__}")
        elif t <= 0:
            findings.append(f"cycle for {cid!r} must be > 0, got {t}")
    return ValidationReport(tuple(findings))


def expand_profile(profile: SeedProfile) -> Policy:
    """t_c = beta * k_c for every commodity in the profile."""
    if profile.beta <= 0:
        raise InputError(f"seed must be > 0, got {profile.beta}")
    for cid, k in profile.multipliers.items():
        if not isinstance(k, int) or k < 1:
            raise InputError(f"multiplier for {cid!r} must be a positive integer, got {k!r}")
    return Policy({cid: profile.beta * k for cid, k in profile.multipliers.items()})


# ---------------------------------------------------------------------------
# serialization-- rationals travel as "num/den" strings, never floats

# Bounds on the cost of parsing untrusted rational text: "1e10000000" is 10
# characters but would build a 33M-bit integer.
MAX_RATIONAL_CHARS = 4096
MAX_DECIMAL_EXPONENT = 1000


def parse_rational(text: object, *, where: str = "value") -> Fraction:
    if isinstance(text, bool):
        raise InputError(f"{where}: expected rational, got boolean")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        if len(text) > MAX_RATIONAL_CHARS:
            raise InputError(f"{where}: rational text of {len(text)} characters "
                             f"exceeds the limit of {MAX_RATIONAL_CHARS}")
        stripped = text.strip()
        _, marker, exponent = stripped.lower().partition("e")
        if marker:
            try:
                too_big = abs(int(exponent)) > MAX_DECIMAL_EXPONENT
            except ValueError:
                too_big = False     # malformed; Fraction reports it below
            if too_big:
                raise InputError(f"{where}: decimal exponent in {text!r} exceeds "
                                 f"the limit of {MAX_DECIMAL_EXPONENT} in magnitude")
        try:
            return Fraction(stripped)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{where}: not a rational: {text!r} ({exc})") from None
    raise InputError(f"{where}: expected 'num/den' string, got {type(text).__name__}")


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def rational_to_decimal(q: Fraction, digits: int = 12) -> str:
    """Presentation-layer decimal rendering: `digits` significant digits,
    rounded half to even, by one correctly rounded decimal division whose
    exponent range holds any rational. Refuses digits below 1.
    """
    if digits < 1:
        raise InputError(f"digits must be >= 1, got {digits}")
    if q == 0:
        return "0"
    ctx = Context(prec=digits, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX,
                  Emin=MIN_EMIN)
    out = format(ctx.divide(Decimal(q.numerator), Decimal(q.denominator)), "f")
    return out.rstrip("0").rstrip(".") if "." in out else out


_KINDS = {k.value: k for k in CommodityKind}


def _commodity_from_obj(obj: object, idx: int) -> Commodity:
    where = f"commodities[{idx}]"
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected object")
    try:
        cid = obj["id"]
    except KeyError:
        raise InputError(f"{where}: missing 'id'") from None
    if not isinstance(cid, str):
        raise InputError(f"{where}: 'id' must be a string")
    kind_tag = obj.get("class", "generic")
    if not isinstance(kind_tag, str) or kind_tag not in _KINDS:
        raise InputError(f"{where}: unknown class tag {kind_tag!r}")
    missing = [key for key in ("lambda", "h", "k") if key not in obj]
    if missing:
        raise InputError(f"{where}: missing field(s) {', '.join(missing)}")
    c = Commodity(
        id=cid,
        demand=parse_rational(obj["lambda"], where=f"{where}.lambda"),
        holding=parse_rational(obj["h"], where=f"{where}.h"),
        setup=parse_rational(obj["k"], where=f"{where}.k"),
        kind=_KINDS[kind_tag],
    )
    for name, val in (("lambda", c.demand), ("h", c.holding), ("k", c.setup)):
        if val <= 0:
            raise InputError(f"{where}.{name}: must be > 0, got {val}")
    return c


def _load_json(data: bytes | str, what: str) -> object:
    """json.loads, with every error that input can cause reported as
    InputError: malformed JSON, bytes that are not UTF-8, an integer literal
    over the interpreter's limit on digits converted to int, and nesting
    deeper than the decoder's recursion allows."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return json.loads(data)
    except ValueError as exc:
        raise InputError(f"malformed {what} JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"malformed {what} JSON: nested too deeply") from None


def load_instance(data: bytes | str) -> Instance:
    doc = _load_json(data, "instance")
    if not isinstance(doc, dict):
        raise InputError("instance JSON must be an object")
    if "k0" not in doc:
        raise InputError("instance JSON missing 'k0'")
    k0 = parse_rational(doc["k0"], where="k0")
    if k0 <= 0:
        raise InputError(f"k0 must be > 0, got {k0}")
    raw = doc.get("commodities")
    if not isinstance(raw, list):
        raise InputError("instance JSON missing 'commodities' array")
    commodities = tuple(_commodity_from_obj(o, i) for i, o in enumerate(raw))
    return Instance(commodities, k0, meta=doc.get("meta"))


def save_instance(instance: Instance) -> bytes:
    doc: dict[str, object] = {
        "k0": format_rational(instance.joint_setup),
        "commodities": [
            {
                "id": c.id,
                "class": c.kind.value,
                "lambda": format_rational(c.demand),
                "h": format_rational(c.holding),
                "k": format_rational(c.setup),
            }
            for c in instance.commodities
        ],
    }
    if instance.meta is not None:
        doc["meta"] = instance.meta
    return json.dumps(doc, indent=2, sort_keys=False).encode("utf-8")


def load_policy(data: bytes | str) -> Policy:
    doc = _load_json(data, "policy")
    if not isinstance(doc, dict) or not isinstance(doc.get("cycles"), dict):
        raise InputError("policy JSON must be an object with a 'cycles' map")
    cycles = {}
    for cid, val in doc["cycles"].items():
        t = parse_rational(val, where=f"cycles[{cid!r}]")
        if t <= 0:
            raise InputError(f"cycles[{cid!r}]: must be > 0, got {t}")
        cycles[cid] = t
    return Policy(cycles)


def save_policy(policy: Policy) -> bytes:
    doc = {"cycles": {cid: format_rational(t) for cid, t in sorted(policy.cycles.items())}}
    return json.dumps(doc, indent=2).encode("utf-8")
