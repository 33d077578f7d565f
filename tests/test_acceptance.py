"""End-to-end acceptance checks, one test per shipped guarantee.

Each test states its tolerance and wall-clock budget inline and fails loudly
when either is missed. Randomness is seeded, so every run sees the same data.
"""
from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from itertools import product
from math import isqrt

from jrp_forge.cli import _random_instance
from jrp_forge.cost import total_cost
from jrp_forge.eoq import optimal_cycle, theta_pair
from jrp_forge.model import (
    Commodity,
    InputError,
    Instance,
    Policy,
    load_instance,
    load_policy,
    save_instance,
    save_policy,
)
from jrp_forge.reduction import (
    ReductionConstants,
    build_clause_commodity,
    build_constant_commodity,
    check_gap_inequality,
    reduce_formula,
    reduction_from_json,
    reduction_to_json,
    select_prime_pairs,
    verify_roundtrip,
)
from jrp_forge.sat import CnfFormula, parse_dimacs, serialize_dimacs
from jrp_forge.solve import exhaustive_search, power_of_two
from jrp_forge.sync import (
    SeriesFamily,
    check_cardinality_identities,
    ijr,
    ijr_cross_seed,
    ijr_enumerate,
    ujr,
    ujr_enumerate,
)

from .oracles import golden_section_exact

F = Fraction


def _magnitude(rng: random.Random) -> Fraction:
    """Random rational in [2**-10, 2**10]: mantissa in [1, 2) times 2**k."""
    mantissa = F(rng.randint(2**16, 2**17 - 1), 2**16)
    return mantissa * F(2) ** rng.randint(-10, 9)


def test_criterion_1_eoq_closed_form_vs_golden_section():
    # 1000 random commodities, parameter magnitudes 2**-10 .. 2**10:
    # exact-comparison golden-section search must match the closed-form
    # optimal cycle to relative 1e-9. Budget: 5 s.
    rng = random.Random(101)
    start = time.perf_counter()
    for i in range(1000):
        c = Commodity(f"c{i}", _magnitude(rng), _magnitude(rng),
                      _magnitude(rng))
        t_star = optimal_cycle(c).cycle

        def g(t: Fraction) -> Fraction:
            return c.setup / t + c.demand * c.holding * t / 2

        # bracket the minimizer from integer square roots only:
        # s = isqrt(floor(t2)) satisfies s <= sqrt(t2) < s + 2, so the
        # bracket below provably straddles sqrt(t2) on either branch
        t2 = 2 * c.setup / (c.holding * c.demand)
        if t2 >= 1:
            s = isqrt(int(t2))
            lo, hi = F(max(s, 1), 2), F(s + 2)
        else:
            s = max(isqrt(int(1 / t2)), 1)
            lo, hi = F(1, s + 2), F(1, s)
        assert lo < t_star < hi
        t_gs = golden_section_exact(g, lo, hi, iters=60)
        assert abs(t_gs - t_star) <= t_star / 10**9, (
            f"commodity {i}: golden-section {float(t_gs)} vs "
            f"closed form {float(t_star)}")
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s (budget 5s)"


def test_criterion_2_theta_sandwich_exact():
    # 100 anchored commodities across random (t*, delta): the bracketing
    # optima equal (t*, (1+delta) t*) exactly, zero tolerance. Budget: 1 s.
    rng = random.Random(202)
    pairs = select_prime_pairs(3)
    start = time.perf_counter()
    for i in range(100):
        delta = F(1, rng.randint(10**3, 10**10))
        if i % 2 == 0:
            t_star = rng.randint(1, 10**6)
            c = build_constant_commodity(t_star, delta)
        else:
            lits = rng.sample((1, 2, 3), 3)
            clause = tuple(lit * rng.choice((1, -1)) for lit in lits)
            c = build_clause_commodity(clause, pairs, delta)
            t_star = 1
            for lit in clause:
                p = pairs[abs(lit) - 1]
                t_star *= p.low if lit < 0 else p.high
        lo, hi = theta_pair(c, F(1))
        assert lo.cycle == t_star
        assert hi.cycle == (1 + delta) * t_star
        assert lo.exact and hi.exact
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s (budget 1s)"


_PERIOD_PALETTE = (1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30)
_SEED_PALETTE = (F(1), F(1, 2), F(3, 2), F(2, 3), F(4, 3), F(5, 4),
                 F(5, 6), F(7, 6), F(49, 50), F(31, 25))


def _draw_families(rng: random.Random) -> list[SeriesFamily] | None:
    fams = []
    for _ in range(rng.randint(3, 4)):
        seed = rng.choice(_SEED_PALETTE)
        n_series = rng.randint(1, 4)
        periods = tuple(sorted({seed * rng.choice(_PERIOD_PALETTE)
                                for _ in range(n_series)}))
        fams.append(SeriesFamily(periods))
    # keep the enumeration tractable: bound the epoch count
    flat = [t for fam in fams for t in fam.periods]
    den = 1
    for t in flat:
        den = den * t.denominator // __import__("math").gcd(den, t.denominator)
    ints = [int(t * den) for t in flat]
    hyper = 1
    for p in ints:
        hyper = hyper * p // __import__("math").gcd(hyper, p)
    if sum(hyper // p for p in ints) > 150_000:
        return None
    return fams


def test_criterion_3_ujr_ijr_oracle_equivalence():
    # 500 random family collections (<=6 series each, integer periods <=30,
    # seed denominators <=50): inclusion-exclusion equals explicit epoch
    # enumeration exactly, and the four cardinality identities hold exactly.
    # Budget: 30 s.
    rng = random.Random(303)
    start = time.perf_counter()
    done = 0
    while done < 500:
        fams = _draw_families(rng)
        if fams is None:
            continue
        done += 1
        u_ie = ujr(fams)
        u_enum = ujr_enumerate(fams)
        assert u_ie == u_enum, f"trial {done}: UJR {u_ie} != enum {u_enum}"
        i_ie = ijr(fams)
        i_enum = ijr_enumerate(fams)
        assert i_ie == i_enum, f"trial {done}: IJR {i_ie} != enum {i_enum}"
        report = check_cardinality_identities(fams)
        assert {c.identity for c in report.checks} == {1, 2, 3, 4}
        assert report.ok, f"trial {done}: {report.violations()}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.2f}s (budget 30s)"


def test_criterion_4_cross_seed_drift_bound():
    # every irreducible drift q/r with r <= 200: the cross-seed intersection
    # rate stays strictly below the drift, exact arithmetic. Budget: 5 s.
    start = time.perf_counter()
    checked = 0
    from math import gcd

    for r in range(1, 201):
        for q in range(1, r + 1):
            if gcd(q, r) != 1:
                continue
            drift = F(q, r)
            value, q_out, r_out = ijr_cross_seed(F(1), 1 + drift)
            assert (q_out, r_out) == (q, r)
            assert value < drift, f"q/r={q}/{r}: {value} >= {drift}"
            checked += 1
    assert checked == sum(1 for r in range(1, 201)
                          for q in range(1, r + 1)
                          if __import__("math").gcd(q, r) == 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 4 took {elapsed:.2f}s (budget 5s)"


def test_criterion_5_same_seed_dominance():
    # 20 instances of 1..3 anchored commodities, 5-point seed grid inside
    # [1, 1+delta], every commodity seeded independently: the best policy on
    # the grid is always achieved with one shared seed. Budget: 60 s.
    rng = random.Random(505)
    start = time.perf_counter()
    for trial in range(20):
        delta = F(1, rng.randint(10**4, 10**8))
        k = rng.randint(1, 3)
        targets = rng.sample(range(2, 10**4), k)
        commodities = tuple(
            build_constant_commodity(t, delta, cid=f"y{j + 1}")
            for j, t in enumerate(targets))
        inst = Instance(commodities, F(1))
        grid = tuple(1 + i * delta / 4 for i in range(5))

        best_any = None
        best_common = None
        for seeds in product(grid, repeat=k):
            pol = Policy({c.id: seeds[j] * targets[j]
                          for j, c in enumerate(commodities)})
            cost = total_cost(inst, pol).total
            if best_any is None or cost < best_any:
                best_any = cost
            if len(set(seeds)) == 1 and (best_common is None
                                         or cost < best_common):
                best_common = cost
        assert best_any == best_common, (
            f"trial {trial}: mixed-seed policy beats every common-seed "
            f"policy ({best_any} < {best_common})")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 5 took {elapsed:.2f}s (budget 60s)"


def test_criterion_6_power_of_two_ratio():
    # 100 random instances (n <= 5): base-optimized power-of-two cost within
    # a factor 1.06 of the exhaustive family optimum. Budget: 5 min.
    rng = random.Random(0)
    start = time.perf_counter()
    worst = F(0)
    for _ in range(100):
        inst = _random_instance(rng, rng.randint(1, 5))
        baseline = exhaustive_search(inst, (1, 8))
        pot = power_of_two(inst, optimize_base=True)
        ratio = pot.cost.total / baseline.cost.total
        worst = max(worst, ratio)
    print(f"max PoT/exhaustive ratio over 100 instances: {float(worst):.7f}")
    assert worst <= F(106, 100), f"worst ratio {float(worst)} > 1.06"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"criterion 6 took {elapsed:.2f}s (budget 5min)"


def test_criterion_7_roundtrip_equivalence():
    # fixed corpus over three variables (plus smaller smoke sizes): the
    # assignment-policy argmin synchronizes every clause commodity iff the
    # formula is satisfiable. Zero tolerance. Budget: 5 min.
    corpus = [
        CnfFormula(1, ()),
        CnfFormula(2, ()),
        CnfFormula(3, ()),
        CnfFormula(3, ((1, 2, 3),)),
        CnfFormula(3, ((-1, -2, -3),)),
        CnfFormula(3, ((1, 2, 3), (-1, -2, -3))),
        CnfFormula(3, ((1, -2, 3), (-1, 2, -3), (1, 2, -3))),
        CnfFormula(3, ((1, 2, 3), (-1, -2, 3), (1, -2, -3), (-1, 2, -3))),
        CnfFormula(3, tuple(
            tuple(s * v for s, v in zip(signs, (1, 2, 3)))
            for signs in product((1, -1), repeat=3))),  # unsatisfiable
    ]
    start = time.perf_counter()
    verdicts = []
    for formula in corpus:
        rep = verify_roundtrip(formula)
        assert rep.verdict_consistent, (
            f"{formula}: argmin sync {rep.argmin_synchronizes_all} vs "
            f"satisfiable {rep.satisfiable}")
        assert rep.argmin_synchronizes_all == rep.satisfiable
        verdicts.append(rep.satisfiable)
    assert verdicts[-1] is False  # the 8-clause formula is unsatisfiable
    assert all(verdicts[:-1])
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"criterion 7 took {elapsed:.2f}s (budget 5min)"


def test_criterion_8_gap_inequality_probe():
    # generated instances at n in {1, 2}, default constants: the variable
    # class cost margin clears 1/high^6 at seed 1 and 1/(4 high^6) across
    # the seed window. Budget: 60 s.
    start = time.perf_counter()
    for n in (1, 2):
        out = reduce_formula(CnfFormula(n, ()),
                             constants=ReductionConstants())
        high = out.pairs[-1].high
        for beta in (F(1), 1 + out.delta / 2, 1 + out.delta):
            rep = check_gap_inequality(out, beta)
            assert rep.margin > 0
            expected_target = (F(1, high**6) if beta == 1
                               else F(1, 4 * high**6))
            assert rep.target == expected_target
            assert rep.margin > rep.target, (
                f"n={n} beta={beta}: margin {float(rep.margin)} <= "
                f"target {float(rep.target)}")
            assert rep.passed and rep.lemma_ok
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 8 took {elapsed:.2f}s (budget 60s)"


_VALID_CNFS = (
    "p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n",
    "c comment\np cnf 2 1\n1 2 0\n",
    "p cnf 4 3\n1 2 -3 0\n-2\n3 4 0\n-1 -4 2 0\n",
    "p cnf 1 1\n1 0\n",
    "p cnf 3 1\n1 -2 3 0\n%\n0\n",
    "c top\nc more\np cnf 5 2\n1 2 3 0\n-4 -5 1 0\n",
)

_MUTATION_CHARS = "pc 0123456789-\n\t\r\x00\xff%xyz!@"


def _mutate(rng: random.Random, text: str, chars: str = _MUTATION_CHARS,
            corpus: tuple[str, ...] = _VALID_CNFS) -> str:
    op = rng.randrange(7)
    if not text:
        return rng.choice(chars)
    pos = rng.randrange(len(text))
    if op == 0:    # insert a byte
        return text[:pos] + rng.choice(chars) + text[pos:]
    if op == 1:    # delete a slice
        end = min(len(text), pos + rng.randint(1, 8))
        return text[:pos] + text[end:]
    if op == 2:    # replace a byte
        return text[:pos] + rng.choice(chars) + text[pos + 1:]
    if op == 3:    # duplicate a slice
        end = min(len(text), pos + rng.randint(1, 12))
        return text[:pos] + text[pos:end] + text[pos:]
    if op == 4:    # truncate
        return text[:pos]
    if op == 5:    # shuffle lines
        lines = text.splitlines(keepends=True)
        rng.shuffle(lines)
        return "".join(lines)
    # splice two corpus files together
    other = rng.choice(corpus)
    return text[:pos] + other[rng.randrange(len(other)):]


def test_criterion_9_parser_robustness():
    # 10^4 mutated DIMACS inputs: the parser either returns a formula or
    # raises a diagnostic error with a message — nothing else. Valid files
    # survive a parse/serialize/parse cycle unchanged. Budget: 60 s.
    rng = random.Random(909)
    start = time.perf_counter()

    for text in _VALID_CNFS:
        f = parse_dimacs(text)
        blob = serialize_dimacs(f)
        assert parse_dimacs(blob) == f
        assert serialize_dimacs(parse_dimacs(blob)) == blob

    crashes = 0
    silent_failures = 0
    parsed_ok = 0
    for i in range(10_000):
        text = rng.choice(_VALID_CNFS)
        for _ in range(rng.randint(1, 4)):
            text = _mutate(rng, text)
        try:
            formula = parse_dimacs(text)
        except InputError as exc:
            if not str(exc):
                silent_failures += 1
        except Exception:  # noqa: BLE001 - the point is to catch any crash
            crashes += 1
        else:
            parsed_ok += 1
            blob = serialize_dimacs(formula)
            assert parse_dimacs(blob) == formula
    assert crashes == 0, f"{crashes} crashes among 10000 mutations"
    assert silent_failures == 0, f"{silent_failures} diagnostics were empty"
    assert parsed_ok > 0  # some mutants stay valid; the parser accepts them
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 9 took {elapsed:.2f}s (budget 60s)"


_JSON_CHARS = '{}[]",:.-+/0123456789eE \n\x00\xff\\tnul'
# decoded values swapped in for one node of a valid document: wrong types,
# out-of-range numbers, rationals that divide by zero, numerals too long to
# parse cheaply, and nesting
_HOSTILE_JSON = (None, True, 0, -1, 2.5, 2**70, "", "0", "-3/4", "1/0",
                 "1e999999", "x1", "9" * 5000, [], {}, [[[[]]]], {"k0": "1"},
                 [11, 2, 13], "318665857834031151167461")


def _json_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _json_paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _json_paths(child, path + (i,))


def _mutate_json_value(rng: random.Random, text: str) -> str:
    """Replace one node of a decoded document, or drop one object key."""
    doc = json.loads(text)
    path = rng.choice(list(_json_paths(doc)))
    value = rng.choice(_HOSTILE_JSON)
    if not path:
        return json.dumps(value)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and rng.random() < 0.25:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc)


def test_json_loader_robustness():
    # mutated instance, policy and reduction JSON: each loader either loads
    # a mutant or raises InputError with a message, within 2 s a mutant.
    # Budget: 60 s.
    rng = random.Random(910)
    instances = tuple(save_instance(_random_instance(rng, n)).decode()
                      for n in (1, 3, 5))
    policies = tuple(save_policy(Policy({f"c{i}": Fraction(i, 3)
                                         for i in range(1, n + 1)})).decode()
                     for n in (1, 4))
    reductions = tuple(
        reduction_to_json(reduce_formula(formula)).decode()
        for formula in (CnfFormula(3, ((1, -2, 3), (-1, 2, -3))),
                        CnfFormula(4, ((1, 2, -4),))))
    loaders = (("instance", load_instance, instances + reductions),
               ("policy", load_policy, policies),
               ("reduction", reduction_from_json, reductions))
    start = time.perf_counter()
    for name, load, corpus in loaders:
        for text in corpus:
            load(text)
        loaded = 0
        slowest = 0.0
        for _ in range(3000):
            text = rng.choice(corpus)
            for _ in range(rng.randint(1, 3)):
                text = _mutate_json_value(rng, text)
            if rng.random() < 0.5:
                text = _mutate(rng, text, _JSON_CHARS, corpus)
            t0 = time.perf_counter()
            try:
                load(text)
            except InputError as exc:
                assert str(exc), (name, text)
            else:
                loaded += 1
            slowest = max(slowest, time.perf_counter() - t0)
        assert loaded > 0, name   # some mutants stay valid and load
        assert slowest < 2.0, f"{name}: a mutant took {slowest:.2f}s"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"JSON fuzzing took {elapsed:.2f}s (budget 60s)"
