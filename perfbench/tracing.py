"""Per-module spans for the traced run, recorded from outside the library.

Every public function of each raysearch module is rebound, in the
namespaces that import it (the package and the other modules), to a
wrapper that records a span: name, parent, query, start and end.  Calls
that cross modules inside `refute` or `cli.main` are therefore timed
without editing the library.  A few functions are rebound in their own
module too, where the split inside a module is what a per-layer metric
needs (see INTRA).  Spans stay in memory, in flat arrays, and are written
out when the run ends; self time is span time minus the time of the
span's direct children.
"""

from __future__ import annotations

import functools
import inspect
import os
from array import array
from collections import Counter
from time import perf_counter_ns

MODULES = ("formulas", "strategy", "simulator", "cover", "potential", "fractional", "cli")

# Rebound inside their defining module as well: cli.main is only reached
# through its own module, build_parser is called by main, refute runs the
# growth audit, the verification that exact_q_assignment runs first is
# split from the assignment sweep, and detection_time counts breakpoints
# and sweep rows.
INTRA = {
    "cli.main", "cli.build_parser", "potential.audit_growth",
    "cover.verify_multicover", "simulator.detection_time",
}
# Called once per breakpoint: counted, not recorded as a span.
COUNT_ONLY = {"simulator.detection_time"}


def _rounds(strategies) -> int:
    return sum(len(s.rounds) if hasattr(s, "rounds") else len(s.turns) for s in strategies)


def _count_detection(tr, args, kwargs, result):
    parent = tr.current()
    if parent == "simulator.worst_ratio":
        tr.counts["simulator.breakpoints"] += 1
    elif parent == "simulator.sweep_rows":
        tr.counts["simulator.rows"] += 1
        tr.counts["simulator.uncovered"] += result.tau is None


def _count_refute(tr, args, kwargs, result):
    tr.counts["potential.refutes"] += 1
    tr.counts["potential.witnesses"] += result.kind == "coverage_failure"


def _add(counter: str, measure):
    def hook(tr, args, kwargs, result):
        tr.counts[counter] += measure(args, result)
    return hook


# Counters taken at the span boundaries, from arguments and results.
HOOKS = {
    "simulator.detection_time": _count_detection,
    "strategy.make_exponential_strategy": _add("strategy.rounds", lambda a, r: _rounds(r)),
    "strategy.make_geometric_line_strategy": _add("strategy.rounds", lambda a, r: _rounds(r)),
    "strategy.cover_intervals": _add("strategy.intervals", lambda a, r: len(r)),
    "strategy.all_cover_intervals": _add("strategy.intervals", lambda a, r: len(r)),
    "strategy.dumps_strategies": _add("strategy.io.bytes", lambda a, r: len(r)),
    "strategy.loads_strategies": _add("strategy.io.bytes", lambda a, r: len(a[0])),
    "strategy.save_strategies": _add("strategy.io.bytes", lambda a, r: os.path.getsize(a[1])),
    "strategy.load_strategies": _add("strategy.io.bytes", lambda a, r: os.path.getsize(a[0])),
    "cover.verify_multicover": _add("cover.verify.intervals", lambda a, r: len(a[0])),
    "cover.exact_q_assignment": _add("cover.assigned", lambda a, r: len(r)),
    "potential.audit_growth": _add("potential.steps", lambda a, r: len(r.steps)),
    "potential.refute": _count_refute,
    "fractional.rationalize_weights": _add("fractional.denominators", lambda a, r: r.q),
    "fractional.fractional_ratio": _add("fractional.ratio.calls", lambda a, r: 1),
    "cli.main": _add("cli.calls", lambda a, r: 1),
}


def public_functions(module) -> list[str]:
    """Names of the functions a module defines and exports."""
    names = getattr(module, "__all__", None) or dir(module)
    return [
        n for n in names
        if not n.startswith("_")
        and inspect.isfunction(getattr(module, n))
        and getattr(module, n).__module__ == module.__name__
    ]


class Tracer:
    """Span recorder bound to one imported copy of raysearch."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("q")
        self.parent = array("q")
        self.query = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.active = False
        self.query_index = -1
        self._last_exc: BaseException | None = None
        self._restore: list[tuple[object, str, object]] = []

    def current(self) -> str | None:
        top = self._stack[-1]
        return self.names[self.name[top]] if top >= 0 else None

    def install(self, rs) -> None:
        modules = {m: getattr(rs, m) for m in MODULES}
        namespaces = [rs, *modules.values()]
        for mod_name, mod in modules.items():
            for fname in public_functions(mod):
                qual = f"{mod_name}.{fname}"
                orig = getattr(mod, fname)
                wrapper = self._wrap(mod_name, qual, orig)
                for ns in namespaces:
                    if ns is mod and qual not in INTRA:
                        continue
                    if vars(ns).get(fname) is orig:
                        setattr(ns, fname, wrapper)
                        self._restore.append((ns, fname, orig))

    def uninstall(self) -> None:
        for ns, fname, orig in reversed(self._restore):
            setattr(ns, fname, orig)
        self._restore.clear()

    def _wrap(self, module: str, qual: str, fn):
        hook = HOOKS.get(qual)
        if qual in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                if self.active:
                    hook(self, args, kwargs, result)
                return result
            return counted

        nid = len(self.names)
        self.names.append(qual)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.query.append(self.query_index)
            self.start.append(0)
            self.end.append(0)
            self._stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # count an error once, in the module it left first
                if exc is not self._last_exc:
                    self.errors[module] += 1
                    self._last_exc = exc
                raise
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self.start[idx] = start
                self.end[idx] = end
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return traced

    def self_times(self) -> tuple[Counter, Counter]:
        """Self time in ns and call count per span name."""
        n = len(self.name)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        for i in range(n):
            nm = self.names[self.name[i]]
            self_ns[nm] += self.end[i] - self.start[i] - child[i]
            calls[nm] += 1
        return self_ns, calls

    def write(self, path: str) -> None:
        """All spans as tab-separated rows, times relative to the first span."""
        t0 = self.start[0] if len(self.start) else 0
        with open(path, "w") as fh:
            fh.write("span\tparent\tquery\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.query[i]}\t{self.names[self.name[i]]}"
                         f"\t{self.start[i] - t0}\t{self.end[i] - t0}\n")


# Span groups behind each `<group>.self_ms` metric.
GROUPS = {
    "simulator.worst_ratio": ("simulator.worst_ratio",),
    "simulator.sweep_rows": ("simulator.sweep_rows",),
    "cover.verify": ("cover.verify_multicover",),
    "cover.assign": ("cover.exact_q_assignment",),
    "potential.audit": ("potential.audit_growth",),
    "potential.refute": ("potential.refute",),
    "potential.gap": ("potential.detect_gap",),
    "strategy.generate": ("strategy.make_exponential_strategy",
                          "strategy.make_geometric_line_strategy"),
    "strategy.cover_intervals": ("strategy.cover_intervals", "strategy.all_cover_intervals"),
    "strategy.io": ("strategy.dumps_strategies", "strategy.loads_strategies",
                    "strategy.save_strategies", "strategy.load_strategies"),
    "cli.main": ("cli.main",),
    "cli.build_parser": ("cli.build_parser",),
    "fractional.rationalize": ("fractional.rationalize_weights",),
}

# Counters reported per query, as recorded by HOOKS (and cli.bytes_written,
# which the desk workload adds from its captured output and report files).
PER_QUERY_COUNTS = (
    "simulator.breakpoints", "simulator.rows", "simulator.uncovered",
    "cover.verify.intervals", "cover.assigned", "potential.steps",
    "strategy.rounds", "strategy.intervals", "strategy.io.bytes",
    "cli.calls", "cli.bytes_written", "fractional.denominators", "fractional.ratio.calls",
)

# Every per-layer metric with its unit; self times and counts are per query.
PER_LAYER = (
    [(f"{g}.self_ms", "ms") for g in GROUPS]
    + [(c, "B" if "bytes" in c else "count") for c in PER_QUERY_COUNTS]
    + [("simulator.ns_per_breakpoint", "ns"), ("potential.us_per_step", "us"),
       ("cover.witness_share", "frac"), ("formulas.calls", "count")]
    + [(f"{m}.self_ms", "ms") for m in MODULES]
    + [(f"{m}.self_share", "frac") for m in MODULES]
    + [(f"{m}.errors", "count") for m in MODULES]
    + [("trace.overhead_frac", "frac"), ("trace.spans", "count")]
)


def layer_metrics(tr: Tracer, queries: int, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of a traced replay of `queries` queries.

    traced_s and untraced_s are the summed query latencies of the same
    queries with and without tracing; their ratio gives the overhead.
    """
    self_ns, calls = tr.self_times()
    per_q = 1.0 / queries
    out = {}
    for group, names in GROUPS.items():
        out[f"{group}.self_ms"] = sum(self_ns[n] for n in names) / 1e6 * per_q
    for c in PER_QUERY_COUNTS:
        out[c] = tr.counts[c] * per_q
    module_ns = Counter()
    module_calls = Counter()
    for nm, ns in self_ns.items():
        module_ns[nm.split(".")[0]] += ns
        module_calls[nm.split(".")[0]] += calls[nm]
    breakpoints = tr.counts["simulator.breakpoints"]
    steps = tr.counts["potential.steps"]
    refutes = tr.counts["potential.refutes"]
    out["simulator.ns_per_breakpoint"] = (
        self_ns["simulator.worst_ratio"] / breakpoints if breakpoints else 0.0)
    out["potential.us_per_step"] = self_ns["potential.audit_growth"] / 1e3 / steps if steps else 0.0
    out["cover.witness_share"] = tr.counts["potential.witnesses"] / refutes if refutes else 0.0
    out["formulas.calls"] = module_calls["formulas"] * per_q
    for m in MODULES:
        out[f"{m}.self_ms"] = module_ns[m] / 1e6 * per_q
        out[f"{m}.self_share"] = module_ns[m] / 1e9 / traced_s
        out[f"{m}.errors"] = tr.errors[m]
    out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    out["trace.spans"] = len(tr.name) * per_q
    return out
