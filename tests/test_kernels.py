import gc
import itertools
import json
import math
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jrp_forge import _kernels
from jrp_forge._kernels import pure

_REPO = Path(__file__).resolve().parent.parent
_SETUP_PY = _REPO / "setup.py"
_FAST_C = _REPO / "src" / "jrp_forge" / "_kernels" / "fast.c"
_FAST_PYX = _FAST_C.with_suffix(".pyx")


def _lcm_all(values):
    return reduce(math.lcm, values, 1)


def _normalize(periods):
    """Dedup and drop any period that another period divides."""
    uniq = sorted(set(periods))
    keep = [p for p in uniq
            if not any(q != p and p % q == 0 for q in uniq)]
    return keep


def _set_oracle(periods, hyper):
    pts = set()
    for p in periods:
        pts.update(range(p, hyper + 1, p))
    return len(pts)


def _subset_oracle(periods, hyper):
    # inclusion-exclusion over every non-empty subset, without the kernels'
    # recursion or saturation prune
    return sum((-1) ** (r + 1) * (hyper // math.lcm(*subset))
               for r in range(1, len(periods) + 1)
               for subset in itertools.combinations(periods, r))


def _reduction_n3_periods():
    # the reduction(n=3) workload of bench/compare_kernels.py, one period set
    # per assignment; some sets hold a period and one of its multiples, which
    # inclusion-exclusion counts exactly all the same. Their hyperperiod is
    # about 2.9e8, too long to enumerate.
    pairs = [(11, 13), (17, 19), (29, 31)]
    cases = []
    for pick in range(8):
        periods = [11 * 17 * 29, 13 * 19 * 31]
        for i, (lo, hi) in enumerate(pairs):
            on_high = pick >> i & 1
            periods += [hi if on_high else lo, (lo if on_high else hi) * 7]
        cases.append(sorted(periods))
    return cases


def _random_normalized_periods(count=200):
    # seeded antichains of up to 8 divisors of 27720 = 2^3*3^2*5*7*11: no
    # duplicates, no period dividing another, and short enough to enumerate
    divisors = [d for d in range(2, 27721) if 27720 % d == 0]
    rng = random.Random(0)
    cases = []
    for _ in range(count):
        size = rng.randint(1, 8)
        periods = []
        for d in rng.sample(divisors, len(divisors)):
            if all(d % p and p % d for p in periods):
                periods.append(d)
                if len(periods) == size:
                    break
        cases.append(sorted(periods))
    return cases


def test_backend_reports_lane():
    assert _kernels.backend() in ("fast", "pure")


def test_union_count_hand_values():
    assert _kernels.union_count([2, 3], 6) == 4        # 2,3,4,6
    assert _kernels.union_count([2], 6) == 3
    assert _kernels.union_count([5, 7], 35) == 11


@settings(max_examples=250, derandomize=True, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=40), min_size=1,
                max_size=6))
def test_fast_pure_and_enumeration_agree(raw):
    periods = _normalize(raw)
    hyper = _lcm_all(periods)
    expected = _set_oracle(periods, hyper)
    assert pure.union_count(periods, hyper) == expected
    assert pure.epoch_count(periods, hyper) == expected
    assert _kernels.union_count(periods, hyper) == expected
    assert _kernels.epoch_count(periods, hyper) == expected


def test_big_integer_inputs_use_pure_fallback():
    # hyperperiod beyond 64-bit range must still produce exact counts
    p1, p2 = 2**40, 3**30
    hyper = p1 * p2  # ~2.26e23 >> 2**63
    assert hyper > 2**63
    count = _kernels.union_count([p1, p2], hyper)
    assert count == p2 + p1 - 1  # hyper/p1 + hyper/p2 - hyper/lcm
    assert pure.union_count([p1, p2], hyper) == count


def test_large_prime_products_from_generated_instances():
    # the reduction's clause targets are three-prime products; scaled far
    # past int64 the counting identity must be unaffected
    primes = [10**7 + 19, 10**7 + 79, 10**7 + 103]
    hyper = primes[0] * primes[1] * primes[2]
    got = _kernels.union_count(primes, hyper)
    expect = (primes[1] * primes[2] + primes[0] * primes[2]
              + primes[0] * primes[1]
              - primes[0] - primes[1] - primes[2] + 1)
    assert got == expect


def _c_compiler_on_path():
    # the compiler setuptools would invoke: $CC, else the interpreter's own
    cc = shlex.split(os.environ.get("CC")
                     or sysconfig.get_config_var("CC") or "")
    return bool(cc) and shutil.which(cc[0]) is not None


@pytest.mark.skipif(not (_SETUP_PY.is_file() and _FAST_C.is_file()),
                    reason="setup.py or the committed fast.c is not present")
@pytest.mark.skipif(not _c_compiler_on_path(),
                    reason="no C compiler on PATH")
@pytest.mark.skipif(
    not (Path(sysconfig.get_paths()["include"]) / "Python.h").is_file(),
    reason="Python.h is not installed")
def test_compiled_lane_is_active_here(tmp_path):
    # where a C toolchain is present, the build compiles the extension, the
    # package selects the fast lane, and the compiled kernels count exactly
    pytest.importorskip("setuptools")
    for name in ("setup.py", "pyproject.toml", "README.md"):
        shutil.copy2(_REPO / name, tmp_path / name)
    shutil.copytree(_REPO / "src" / "jrp_forge", tmp_path / "src" / "jrp_forge",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert build.returncode == 0, build.stdout + build.stderr

    ie_cases = [(ps, _lcm_all(ps)) for ps in _reduction_n3_periods()]
    enum_cases = [(ps, _lcm_all(ps)) for ps in _random_normalized_periods()]
    code = (
        "import json, sys, jrp_forge\n"
        "from jrp_forge._kernels import backend, fast\n"
        "ie_cases, enum_cases = json.load(sys.stdin)\n"
        "print(json.dumps({'origin': jrp_forge.__file__, 'lane': backend(),\n"
        "    'ie': [fast.union_count(p, h) for p, h in ie_cases],\n"
        "    'enum': [[fast.union_count(p, h), fast.epoch_count(p, h)]\n"
        "             for p, h in enum_cases]}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path, capture_output=True, text=True,
        input=json.dumps([ie_cases, enum_cases]),
        env=dict(os.environ, PYTHONPATH=str(tmp_path / "src")),
    )
    assert proc.returncode == 0, proc.stderr + build.stdout + build.stderr
    got = json.loads(proc.stdout)
    assert Path(got["origin"]).resolve().is_relative_to(tmp_path.resolve())
    assert got["lane"] == "fast", build.stdout + build.stderr

    assert len(got["ie"]) == len(ie_cases) == 8
    for (periods, hyper), fast_union in zip(ie_cases, got["ie"]):
        expected = _subset_oracle(periods, hyper)
        assert pure.union_count(periods, hyper) == expected
        assert fast_union == expected, periods
    assert len(got["enum"]) == len(enum_cases)
    for (periods, hyper), fast_counts in zip(enum_cases, got["enum"]):
        expected = _set_oracle(periods, hyper)
        assert pure.union_count(periods, hyper) == expected
        assert pure.epoch_count(periods, hyper) == expected
        assert fast_counts == [expected, expected], periods


@pytest.mark.skipif(not (_FAST_PYX.is_file() and _FAST_C.is_file()),
                    reason="fast.pyx or the committed fast.c is not present")
def test_fast_c_is_generated_from_fast_pyx():
    # fast.c is the only build input: an edit to fast.pyx must be followed by
    # `cython -3 src/jrp_forge/_kernels/fast.pyx`. Cython quotes each source
    # line in a comment as " * <line>", with a trailing arrow on the line a
    # block was generated from.
    quoted = {re.sub(r"\s*# <{14}$", "", line[3:]).rstrip()
              for line in _FAST_C.read_text().splitlines()
              if line.startswith(" * ")}
    code_lines = [line.rstrip() for line in _FAST_PYX.read_text().splitlines()
                  if line.startswith((" ", "\t", "def ", "cdef "))]
    assert code_lines
    missing = [line for line in code_lines if line not in quoted]
    assert not missing, f"fast.c is stale; regenerate it from fast.pyx: {missing}"


def test_pure_union_count_leaves_no_reference_cycles():
    cases = _random_normalized_periods(100)
    hypers = [_lcm_all(periods) for periods in cases]
    gc.collect()
    gc.disable()
    try:
        counts = [pure.union_count(periods, hyper)
                  for periods, hyper in zip(cases, hypers)]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert counts == [_set_oracle(periods, hyper)
                      for periods, hyper in zip(cases, hypers)]
