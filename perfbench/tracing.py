"""Span tracing of jrp-forge layers from outside the package.

`Tracer.install` replaces each traced function at every module attribute
that is bound to it (for example `solve.seed_cost` and `cost.seed_cost`), so
calls through any import path record a span; `uninstall` puts every original
back. Every span is kept in memory and written when the run ends. Self time
is a span's duration minus the durations of its direct child spans.

Each thread has its own span stack, so a span nests only under spans of its
own thread: a span opened on a worker thread (the roundtrip scan's thread
pool when JRP_FORGE_THREADS > 1) is a root, and the caller waiting on the
pool counts that wait as its own self time.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
from array import array
from time import perf_counter

# (module, function) pairs, named as in the jrp_forge package.
TRACED = (
    ("cli", "main"),
    ("model", "load_instance"),
    ("model", "validate_policy"),
    ("model", "rational_to_decimal"),
    ("eoq", "sqrt_fraction"),
    ("eoq", "standalone_cost"),
    ("sync", "ujr"),
    ("_kernels", "union_count"),
    ("cost", "total_cost"),
    ("cost", "seed_cost"),
    ("solve", "exhaustive_search"),
    ("solve", "power_of_two"),
    ("solve", "coordinate_descent"),
    ("reduction", "reduce_formula"),
    ("reduction", "verify_roundtrip"),
    ("reduction", "clause_synchronized"),
    ("sat", "parse_dimacs"),
    ("sat", "brute_force_sat"),
)

OP = "op"               # the benchmark's own span around one CLI invocation
ROOT = -1               # parent index of a span without a parent


def _ujr_series(families, *_args, **_kwargs) -> int:
    return len(families) if isinstance(families, (list, tuple)) else 1


def _hyper_bits(_periods, hyper, *_args, **_kwargs) -> int:
    return hyper.bit_length()


# Per-call argument measures, aggregated as sum and maximum.
ARG_PROBES = {"sync.ujr": _ujr_series, "_kernels.union_count": _hyper_bits}


class Tracer:
    def __init__(self, package: str = "jrp_forge", traced=TRACED):
        self.package = package
        self.names = [OP] + [f"{mod}.{fn}" for mod, fn in traced]
        self.traced = traced
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.incl_s = [0.0] * n
        self.arg_sum = [0] * n
        self.arg_max = [0] * n
        self.child_calls: dict[tuple[int, int], int] = {}
        # one row per span: id, parent id, name index, start, end
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self._ids = itertools.count()
        self._local = threading.local()   # .stack: [span id, name index, child time]
        self._lock = threading.Lock()     # guards the aggregates and the rows
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- installation -------------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(prefix))]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        self.missing = []
        for idx, (mod, fn) in enumerate(self.traced, start=1):
            home = sys.modules.get(f"{self.package}.{mod}")
            original = getattr(home, fn, None)
            if not callable(original):
                self.missing.append(self.names[idx])   # reported, counts stay 0
                continue
            wrapper = self._wrap(idx, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    @property
    def binding_sites(self) -> list[str]:
        return sorted(f"{m.__name__}.{attr}" for m, attr, _ in self._patches)

    # -- spans --------------------------------------------------------------

    @property
    def spans_total(self) -> int:
        return len(self.span_id)

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _enter(self, idx: int) -> list:
        frame = [next(self._ids), idx, 0.0]
        self._stack().append(frame)
        return frame

    def _exit(self, frame: list, start: float, end: float, arg=None) -> None:
        stack = self._stack()
        stack.pop()
        span, idx, child = frame
        dur = end - start
        parent, edge = ROOT, None
        if stack:
            up = stack[-1]
            up[2] += dur
            parent, edge = up[0], (up[1], idx)
        with self._lock:
            self.calls[idx] += 1
            self.self_s[idx] += dur - child
            self.incl_s[idx] += dur
            if arg is not None:
                self.arg_sum[idx] += arg
                if arg > self.arg_max[idx]:
                    self.arg_max[idx] = arg
            if edge is not None:
                self.child_calls[edge] = self.child_calls.get(edge, 0) + 1
            self.span_id.append(span)
            self.span_parent.append(parent)
            self.span_name.append(idx)
            self.span_start.append(start)
            self.span_end.append(end)

    def _wrap(self, idx: int, fn):
        probe = ARG_PROBES.get(self.names[idx])
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            arg = probe(*args, **kwargs) if probe is not None else None
            frame = enter(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame, start, perf_counter(), arg)
        return traced

    @contextlib.contextmanager
    def span(self):
        """The benchmark's own span around one operation."""
        frame = self._enter(0)
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(frame, start, perf_counter())

    # -- results ------------------------------------------------------------

    def index(self, name: str) -> int:
        return self.names.index(name)

    def children_of(self, parent: str, child: str) -> int:
        return self.child_calls.get((self.index(parent), self.index(child)), 0)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {self.spans_total} spans; "
                     "times in seconds from an arbitrary origin\n")
            fh.write("id\tparent\tname\tstart\tend\n")
            for i in range(len(self.span_id)):
                fh.write(f"{self.span_id[i]}\t{self.span_parent[i]}\t"
                         f"{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n")

