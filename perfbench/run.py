#!/usr/bin/env python3
"""raysearch query benchmark: one closed-loop client, three workloads.

    python3 perfbench/run.py --workload sweep-long --seed 1 --seconds 20 --trace 0

Run from anywhere; the library is imported from `src/` next to this
directory.  Each query is sent only after the previous one returned and
its answer is checked against an oracle.  The seed fixes a set of query
shapes; the run sends them in cycles, a fresh variant each time, and a
shape's latency is the best over its cycles.  With --trace 0 the last
line of output is a JSON object with the end-to-end metrics; with
--trace 1 the run replays its first queries with every library module
traced and reports per-layer metrics instead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Set-up is measured SETUP_FIRST times before the first query and once
# more every SETUP_EVERY of --seconds during the run; setup_s is the
# median.  Spreading the repetitions keeps one slow spell of a shared
# host from setting the figure.
SETUP_FIRST = 3
SETUP_EVERY = 0.1
# On a shared host each CPU slows down, at times by half, while a
# neighbour loads it.  Every PIN_EVERY seconds of a run the client pins
# itself to whichever CPU it may use runs a short probe loop fastest.
PIN_EVERY = 0.1
TRACE_SPLIT = 0.45  # share of --seconds run untraced before the traced replay
ERRORS_SHOWN = 5

END_TO_END = {
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_raysearch():
    """A fresh import of raysearch and raysearch.cli from the checkout."""
    for name in [n for n in sys.modules if n == "raysearch" or n.startswith("raysearch.")]:
        del sys.modules[name]
    rs = importlib.import_module("raysearch")
    importlib.import_module("raysearch.cli")
    if not Path(rs.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"raysearch was imported from {rs.__file__}, not from {SRC}")
    return rs


def set_up(wl, times: list[float]):
    """Import raysearch afresh and warm it up; return the live package and
    append the time of import plus warm-up queries (oracle checks untimed)."""
    t0 = time.perf_counter()
    rs = import_raysearch()
    elapsed = time.perf_counter() - t0
    for q in wl.warm_up_queries(rs):
        wl.prepare(q)
        t0 = time.perf_counter()
        result = wl.execute(rs, q)
        elapsed += time.perf_counter() - t0
        wl.check(rs, q, result)
    times.append(elapsed)
    return rs


class QueryStream:
    """The seed's shapes, sent in cycles; each cycle is a fresh variant of
    every shape, in a new order, generated when the run reaches it.

    Cycles already run are dropped unless `keep` is set (the traced run
    replays them), so the harness's memory does not grow with throughput.
    """

    def __init__(self, wl, rs, seed: int, keep: bool):
        self.wl, self.rs, self.keep = wl, rs, keep
        self.rng = random.Random(f"{wl.name}:{seed}")
        self.shapes = wl.make_shapes(rs, self.rng)
        self.queries: list = []
        self.first = 0  # index of self.queries[0]
        self.cycles = 0

    def get(self, i: int):
        while i >= self.first + len(self.queries):
            if not self.keep:
                for q in self.queries:
                    self.wl.discard(q)
                self.first += len(self.queries)
                self.queries = []
            order = list(range(len(self.shapes)))
            self.rng.shuffle(order)
            for j in order:
                q = self.wl.make_query(self.rs, self.shapes[j], self.rng)
                q.shape = j
                self.queries.append(q)
            self.cycles += 1
        return self.queries[i - self.first]


class Tally:
    """Aggregates of a run's queries, kept as they complete."""

    def __init__(self):
        self.passed = 0  # queries that passed their oracle
        self.best: dict[int, float] = {}  # shape -> its least latency among them
        self.attempted = 0
        self.failed = 0
        self.total_s = 0.0
        self.class_n: Counter = Counter()
        self.class_s: Counter = Counter()
        self.rounds: list[int] = []
        self.refutes = self.certificates = self.line = 0
        self.bytes_written = 0

    def add(self, q, latency: float, ok: bool, props: dict) -> None:
        self.attempted += 1
        self.total_s += latency
        self.class_n[q.cls] += 1
        self.class_s[q.cls] += latency
        if not ok:
            self.failed += 1
            return
        self.passed += 1
        self.best[q.shape] = min(latency, self.best.get(q.shape, latency))
        if "rounds" in props:
            self.rounds.append(props["rounds"])
        self.bytes_written += props.get("bytes_written", 0)
        if "kind" in q.expect:
            self.refutes += 1
            self.certificates += q.expect["kind"] == "certificate"
            self.line += q.params.get("mode") == "line"

    def properties(self, stream: QueryStream) -> dict:
        """What the run's queries were: class shares, rounds, verdict mix."""
        out: dict = {
            "queries": self.attempted,
            "shapes": len(stream.shapes),
            "cycles_started": stream.cycles,
            "class_share": {c: n / self.attempted for c, n in sorted(self.class_n.items())},
            "class_time_share": {c: t / self.total_s for c, t in sorted(self.class_s.items())},
        }
        if self.rounds:
            out["rounds_per_query"] = {"mean": statistics.fmean(self.rounds),
                                       "min": min(self.rounds), "max": max(self.rounds)}
        if self.refutes:
            out["refute_certificate_share"] = self.certificates / self.refutes
            out["refute_line_share"] = self.line / self.refutes
        return out


def _probe() -> float:
    t0 = time.perf_counter()
    d: dict = {}
    for i in range(3000):
        d[i & 255] = i * i % 7
    return time.perf_counter() - t0


def pin_to_fastest_cpu(cpus: list[int]) -> None:
    if len(cpus) < 2:
        return
    speed = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_probe() for _ in range(3))
    os.sched_setaffinity(0, {min(cpus, key=speed.get)})


def drive(wl, stream, seconds=None, count=None, tracer=None, setup_times=None) -> Tally:
    """Send queries in order, each after the previous one returned, until
    `seconds` have passed or `count` queries were sent.

    With `setup_times`, set-up is measured again every SETUP_EVERY of
    `seconds`, and the run goes on with the package it imported.
    """
    tally = Tally()
    cpus = sorted(os.sched_getaffinity(0))
    t_begin = t_setup = time.perf_counter()
    t_pin = -math.inf  # pin before the first query
    i = 0
    while (count is None or i < count) and (
            seconds is None or time.perf_counter() - t_begin < seconds):
        if time.perf_counter() - t_pin >= PIN_EVERY:
            pin_to_fastest_cpu(cpus)
            t_pin = time.perf_counter()
        if setup_times is not None and time.perf_counter() - t_setup >= SETUP_EVERY * seconds:
            stream.rs = set_up(wl, setup_times)
            t_setup = time.perf_counter()
        rs = stream.rs
        q = stream.get(i)
        wl.prepare(q)
        error = None
        props: dict = {}
        if tracer is not None:
            tracer.query_index = i
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = wl.execute(rs, q)
        except Exception as exc:
            error = exc
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        if error is None:
            try:
                props = wl.check(rs, q, result)
            except Exception as exc:
                error = exc
        if error is not None and tally.failed < ERRORS_SHOWN:
            print(f"query {i} ({q.cls}, {q.params}) failed:", file=sys.stderr)
            traceback.print_exception(error, file=sys.stderr)
        tally.add(q, latency, error is None, props)
        i += 1
    os.sched_setaffinity(0, cpus)
    return tally


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "RAYSEARCH_PRECISION": os.environ.get("RAYSEARCH_PRECISION"),
    }


def end_to_end(tally: Tally, setup_s: float) -> dict:
    """Figures over the shapes, each at its best latency of the run."""
    lat = list(tally.best.values())
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    return {
        "queries_per_s": len(lat) / sum(lat),
        "latency_p50_ms": deciles[4] * 1e3,
        "latency_p90_ms": deciles[8] * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    precision = os.environ.get("RAYSEARCH_PRECISION")
    if precision not in (None, "64"):
        print(f"refusing to run: RAYSEARCH_PRECISION={precision!r}; the benchmark measures "
              "the 64-bit float path (unset it or set it to 64)", file=sys.stderr)
        return 2
    if not (SRC / "raysearch" / "__init__.py").is_file():
        print(f"no raysearch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        wl = WORKLOADS[args.workload](workdir)
        setup_times: list[float] = []
        for _ in range(SETUP_FIRST):
            rs = set_up(wl, setup_times)
        stream = QueryStream(wl, rs, args.seed, keep=bool(args.trace))
        if args.trace:
            tally = drive(wl, stream, seconds=args.seconds * TRACE_SPLIT)
            tracer = tracing.Tracer()
            tracer.install(stream.rs)
            try:
                traced = drive(wl, stream, count=tally.attempted, tracer=tracer)
            finally:
                tracer.uninstall()
            tracer.counts["cli.bytes_written"] = traced.bytes_written
            values = tracing.layer_metrics(tracer, traced.attempted, traced.total_s, tally.total_s)
            units = dict(tracing.PER_LAYER)
            tracer.write(str(OUT / f"spans-{wl.name}.tsv"))
            attempted = tally.attempted + traced.attempted
            failed = tally.failed + traced.failed
        else:
            tally = drive(wl, stream, seconds=args.seconds, setup_times=setup_times)
            values = end_to_end(tally, statistics.median(setup_times))
            units = END_TO_END
            attempted, failed = tally.attempted, tally.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    props = tally.properties(stream)
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "properties": props,
        "failed_frac": failed / attempted,
        "latency_samples": len(tally.best),
        "setup_samples": len(setup_times),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    with open(OUT / f"run-{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=2)
    print("environment", json.dumps(report["environment"]))
    print("properties", json.dumps(props))
    print(f"failed_frac {report['failed_frac']!r} frac ({failed} of {attempted})")
    print(f"latency_samples {report['latency_samples']} shapes, at their best of "
          f"{tally.passed} queries; setup_samples {report['setup_samples']}")
    for k, m in report["metrics"].items():
        print(f"{k} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
