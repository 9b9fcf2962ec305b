"""Query generation, execution and oracles for the three workloads.

A seed fixes a workload's shapes: the parameters that set a query's
cost, stratified over that cost so that the figures of one seed agree
with those of another.  The run sends the shapes in cycles, each cycle
in a new order, and every time it sends a shape it sends a fresh
variant: the horizon, the tested ratio or the eta are jittered by a
relative JITTER, which leaves the query's cost as it was but its inputs
distinct, so that no answer can be reused from an earlier query.

Queries carry plain parameters.  The library is reached only through
attributes of the `raysearch` package (and `raysearch.cli`) at call
time, so that the traced run sees every call.  Oracles use closed forms
computed here; where a check needs the library's own answer to the same
query, it is computed after the timed call and cached on the query.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field

# Long workloads: total rounds per query are drawn uniformly from this
# range; the breakpoint scan is quadratic and the growth audit linear in
# it, so the range fixes the latency profile of both workloads.
R_MIN, R_MAX = 1000, 3000
LN_N_MIN = math.log(1e20)
LN_N_MAX = math.log(1e300)
# alpha is the optimal base or the optimal base raised to 1 +- EPS_ALPHA
EPS_ALPHA = 0.02
ALPHA_EXPONENTS = (1.0 - EPS_ALPHA, 1.0, 1.0 + EPS_ALPHA)

# Relative jitter of a shape's variants: in rounds (hence in the horizon),
# in the tested ratio's distance from its threshold, and in eta.
JITTER = 1e-3

# Shapes per seed.  At least 100, so that ten lie beyond the p90.
SWEEP_SHAPES = 100
# refute-long: shapes per (mode, verdict), rounds stratified within each,
# since a certificate costs far more than a witness at the same rounds.
# 70 certificates and 30 witnesses; 25 line-mode shapes, all with m = 2.
REFUTE_GROUPS = {
    ("orc", True): 53,
    ("orc", False): 22,
    ("line", True): 17,
    ("line", False): 8,
}

# desk-mixed: shapes of each class in one block of 40; DESK_BLOCKS blocks
DESK_BLOCKS = 10
DESK_MIX = (
    ("bound_json", 5),
    ("bound_eta", 2),
    ("simulate_csv", 10),
    ("simulate_file", 8),
    ("simulate_dense", 2),
    ("refute_cli", 5),
    ("fractional", 8),
)
DESK_Q_MAX = 12
DESK_ROUNDS = (50, 100)  # small instances: at most ~100 breakpoints
DESK_LN_N = (math.log(1e2), math.log(1e6))
DENSE_ROUNDS = (10, 40)
DENSE_LN_N = (math.log(1e2), math.log(1e4))
MAX_DRAWS = 100_000
CLI_GEN_HORIZON_CAP = 1e7  # the CLI generates strategies up to min(N, 1e7)

REL_TOL = 1e-9


def nontrivial_grid(q_max: int) -> list[tuple[int, int, int]]:
    """Every (m, k, f) with f < k < q = m(f+1) <= q_max."""
    return [
        (m, k, f)
        for f in range(q_max // 2)
        for m in range(2, q_max // (f + 1) + 1)
        for k in range(f + 1, m * (f + 1))
    ]


def alpha_opt(q: int, k: int) -> float:
    return (q / (q - k)) ** (1.0 / k)


def ratio_of_alpha(alpha: float, q: int, k: int) -> float:
    """Worst-case ratio 1 + 2 alpha^q / (alpha^k - 1) of the cyclic strategy."""
    return 1.0 + 2.0 * alpha**q / (alpha**k - 1.0)


def growth_delta(s: int, k: int, mu: float) -> float:
    return math.exp(
        (k + s) * math.log(k + s) - s * math.log(s) - k * math.log(k) - k * math.log(mu)
    )


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


class OracleError(Exception):
    """A query's result disagrees with its oracle."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise OracleError(what)


@dataclass
class Query:
    cls: str
    params: dict
    expect: dict = field(default_factory=dict)
    shape: int = -1  # index of the shape this query is a variant of


def _jitter(rng: random.Random) -> float:
    return 1.0 + JITTER * rng.uniform(-1.0, 1.0)


def _stratified(rng: random.Random, n: int) -> list[float]:
    """n points in [0, 1), one per stratum of width 1/n, in random order."""
    cells = list(range(n))
    rng.shuffle(cells)
    return [(c + rng.random()) / n for c in cells]


def _long_instance(rng, grid, rounds: float, exponents) -> dict:
    """A grid instance and alpha whose horizon alpha^rounds lies in range
    for every jittered variant of the rounds.

    The upper end leaves room for the turns generated beyond the horizon
    (about alpha^(q + 2km) times N) to stay finite in binary64.
    """
    for _ in range(MAX_DRAWS):
        m, k, f = rng.choice(grid)
        q = m * (f + 1)
        alpha = alpha_opt(q, k) ** rng.choice(exponents)
        ln_a = math.log(alpha)
        if (LN_N_MIN <= rounds * (1.0 - JITTER) * ln_a
                and rounds * (1.0 + JITTER) * ln_a <= LN_N_MAX - (q + 2 * k * m) * ln_a):
            return dict(m=m, k=k, f=f, alpha=alpha, rounds=rounds)
    raise RuntimeError(f"no instance reaches {rounds} rounds")


def _horizon(rng, alpha: float, rounds: float) -> float:
    """N = alpha^R for a jittered R."""
    return math.exp(rounds * _jitter(rng) * math.log(alpha))


def _instance(rs, prm):
    return rs.InstanceParams(prm["m"], prm["k"], prm["f"])


class Workload:
    """A named query stream with its executor and oracle."""

    name = ""

    def __init__(self, workdir: str):
        self.workdir = workdir

    def make_shapes(self, rs, rng: random.Random) -> list:
        """The seed's query shapes, stratified over their cost."""
        raise NotImplementedError

    def make_query(self, rs, shape, rng: random.Random) -> Query:
        """A fresh variant of `shape`, with the shape's cost."""
        raise NotImplementedError

    def warm_up_queries(self, rs) -> list[Query]:
        """A few tiny queries that touch every code path of the workload."""
        raise NotImplementedError

    def prepare(self, q: Query) -> None:
        """Untimed work before a query, such as removing stale outputs."""

    def discard(self, q: Query) -> None:
        """Remove what making `q` left behind, once it is not sent again."""

    def execute(self, rs, q: Query):
        raise NotImplementedError

    def check(self, rs, q: Query, result) -> dict:
        """Raise OracleError on a wrong answer; return per-query properties."""
        raise NotImplementedError


class SweepLong(Workload):
    """make_exponential_strategy then worst_ratio, 1000-3000 rounds."""

    name = "sweep-long"

    def __init__(self, workdir):
        super().__init__(workdir)
        self.grid = nontrivial_grid(24)

    def make_shapes(self, rs, rng):
        us = _stratified(rng, SWEEP_SHAPES)
        exps = [ALPHA_EXPONENTS[i % 3] for i in range(SWEEP_SHAPES)]
        rng.shuffle(exps)
        return [
            _long_instance(rng, self.grid, R_MIN + (R_MAX - R_MIN) * u, (e,))
            for u, e in zip(us, exps)
        ]

    def make_query(self, rs, shape, rng):
        m, k, f, alpha = shape["m"], shape["k"], shape["f"], shape["alpha"]
        N = _horizon(rng, alpha, shape["rounds"])
        lam = ratio_of_alpha(alpha, m * (f + 1), k)
        return Query("sweep", dict(m=m, k=k, f=f, alpha=alpha, N=N), dict(ratio=lam))

    def warm_up_queries(self, rs):
        return [
            Query("sweep", dict(m=2, k=1, f=0, alpha=2.0, N=1e20),
                  dict(ratio=ratio_of_alpha(2.0, 2, 1)))
        ]

    def execute(self, rs, q):
        prm = q.params
        p = _instance(rs, prm)
        strategies = rs.make_exponential_strategy(p, prm["alpha"], prm["N"])
        ratio, witness = rs.worst_ratio(strategies, p, prm["N"])
        return strategies, ratio, witness

    def check(self, rs, q, result):
        strategies, ratio, witness = result
        expect(close(ratio, q.expect["ratio"]),
               f"worst_ratio {ratio!r} != closed form {q.expect['ratio']!r}")
        expect(1.0 <= witness.x <= q.params["N"], f"witness {witness.x!r} outside [1, N]")
        return {"rounds": sum(len(s.rounds) for s in strategies)}


class RefuteLong(Workload):
    """refute at lambda(alpha)(1 +- eps): 70 % certificates, 30 % witnesses."""

    name = "refute-long"

    def __init__(self, workdir):
        super().__init__(workdir)
        self.grid = nontrivial_grid(24)
        self.line_grid = [c for c in self.grid if c[0] == 2]

    def _shape(self, rng, rounds, above, mode) -> dict:
        if mode == "line":
            # line strategies use the optimal base, whose threshold is lambda0
            shape = _long_instance(rng, self.line_grid, rounds, (1.0,))
        else:
            shape = _long_instance(rng, self.grid, rounds, ALPHA_EXPONENTS)
        eps = math.exp(rng.uniform(math.log(1e-4), math.log(1e-2)))
        return dict(shape, eps=eps, above=above, mode=mode)

    def make_shapes(self, rs, rng):
        return [
            self._shape(rng, R_MIN + (R_MAX - R_MIN) * u, above, mode)
            for (mode, above), n in REFUTE_GROUPS.items()
            for u in _stratified(rng, n)
        ]

    def make_query(self, rs, shape, rng):
        m, k, f, alpha = shape["m"], shape["k"], shape["f"], shape["alpha"]
        N = _horizon(rng, alpha, shape["rounds"])
        threshold = ratio_of_alpha(alpha, m * (f + 1), k)
        eps = shape["eps"] * _jitter(rng)
        lam = threshold * (1.0 + eps if shape["above"] else 1.0 - eps)
        return Query(
            "refute",
            dict(m=m, k=k, f=f, alpha=alpha, N=N, lam=lam, mode=shape["mode"]),
            dict(kind="certificate" if shape["above"] else "coverage_failure"),
        )

    def warm_up_queries(self, rs):
        out = []
        for mode in ("orc", "line"):
            lam0 = ratio_of_alpha(alpha_opt(4, 3), 4, 3)
            for above in (True, False):
                out.append(Query(
                    "refute",
                    dict(m=2, k=3, f=1, alpha=alpha_opt(4, 3), N=1e6,
                         lam=lam0 * (1.01 if above else 0.99), mode=mode),
                    dict(kind="certificate" if above else "coverage_failure"),
                ))
        return out

    def execute(self, rs, q):
        prm = q.params
        p = _instance(rs, prm)
        if prm["mode"] == "line":
            strategies = rs.make_geometric_line_strategy(p, prm["alpha"], prm["N"])
        else:
            strategies = rs.make_exponential_strategy(p, prm["alpha"], prm["N"])
        verdict = rs.refute(strategies, prm["lam"], p, prm["N"], mode=prm["mode"])
        return strategies, verdict

    def check(self, rs, q, result):
        strategies, verdict = result
        expect(verdict.kind == q.expect["kind"],
               f"verdict {verdict.kind} where {q.expect['kind']} was expected")
        if verdict.kind == "certificate":
            trace = verdict.trace
            expect(trace is not None and len(trace.steps) > 0, "certificate without audit steps")
            if q.params["mode"] == "line":
                expect(trace.max_log_potential <= trace.line_cap_log,
                       f"line potential {trace.max_log_potential} above cap {trace.line_cap_log}")
        else:
            point = verdict.witness.point
            expect(1.0 <= point <= q.params["N"], f"witness {point!r} outside [1, N]")
        if q.params["mode"] == "line":
            rounds = sum(len(s.turns) for s in strategies)
        else:
            rounds = sum(len(s.rounds) for s in strategies)
        return {"rounds": rounds}


def _csv_rows(path: str, header: str) -> list[list[str]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    expect(len(lines) >= 2 and lines[0] == header, f"{path}: missing header {header!r}")
    return [line.split(",") for line in lines[2:]]


class DeskMixed(Workload):
    """Many small desk queries through raysearch.cli.main, plus fractional calls."""

    name = "desk-mixed"

    def __init__(self, workdir):
        super().__init__(workdir)
        self.grid = nontrivial_grid(DESK_Q_MAX)
        self.files = 0

    def _path(self, stem: str) -> str:
        return os.path.join(self.workdir, stem)

    def _small_instance(self, rng, rounds_range=DESK_ROUNDS, ln_range=DESK_LN_N) -> dict:
        """An instance and R, uniform in rounds_range, with every jittered
        horizon N = alpha^R inside ln_range."""
        rounds = rng.uniform(*rounds_range)
        for _ in range(MAX_DRAWS):
            m, k, f = rng.choice(self.grid)
            ln_a = math.log(alpha_opt(m * (f + 1), k))
            if (ln_range[0] <= rounds * (1.0 - JITTER) * ln_a
                    and rounds * (1.0 + JITTER) * ln_a <= ln_range[1]):
                return dict(m=m, k=k, f=f, rounds=rounds)
        raise RuntimeError(f"no desk instance reaches {rounds} rounds")

    def _instance_argv(self, m, k, f):
        return ["-m", str(m), "-k", str(k), "-f", str(f)]

    def _shape(self, rng, cls) -> dict:
        if cls == "bound_json":
            # the tested ratio for half of them
            lam = rng.uniform(0.8, 1.2) if rng.random() < 0.5 else None
            return dict(self._small_instance(rng), cls=cls, lam=lam)
        if cls == "bound_eta":
            return dict(cls=cls, eta=rng.uniform(1.1, 4.0))
        if cls == "simulate_csv":
            return dict(self._small_instance(rng), cls=cls)
        if cls == "simulate_file":
            # line strategies for half of the two-ray instances
            shape = self._small_instance(rng)
            return dict(shape, cls=cls, line=shape["m"] == 2 and rng.random() < 0.5)
        if cls == "simulate_dense":
            return dict(self._small_instance(rng, DENSE_ROUNDS, DENSE_LN_N), cls=cls,
                        rel_step=rng.uniform(0.05, 0.1))
        if cls == "refute_cli":
            # wide enough that the cover fails below the threshold even at N = 1e2
            return dict(self._small_instance(rng), cls=cls, above=rng.random() < 0.7,
                        eps=math.exp(rng.uniform(math.log(1e-2), math.log(5e-2))),
                        gap_c=rng.uniform(4.0, 64.0))
        if cls == "fractional":
            n = rng.randint(2, 5)
            raw = [rng.uniform(0.05, 1.0) for _ in range(n)]
            weights = [w / sum(raw) for w in raw[:-1]]
            weights.append(1.0 - sum(weights))
            # tight brackets: the denominator search runs to q ~ 1/delta
            delta = math.exp(rng.uniform(math.log(1e-5), math.log(1e-4)))
            return dict(cls=cls, weights=tuple(weights), eta=rng.uniform(1.2, 3.0), delta=delta)
        raise ValueError(cls)

    def make_query(self, rs, shape, rng) -> Query:
        cls = shape["cls"]
        if cls == "fractional":
            # sent as it is: the denominator the search reaches, and so the
            # query's cost, changes at random with any change of the inputs
            return Query(cls, dict(weights=shape["weights"], eta=shape["eta"],
                                   delta=shape["delta"]))
        if cls == "bound_eta":
            eta = shape["eta"] * _jitter(rng)
            return Query(cls, dict(eta=eta, argv=["bound", "--eta", repr(eta)]))
        m, k, f = shape["m"], shape["k"], shape["f"]
        q = m * (f + 1)
        alpha = alpha_opt(q, k)
        lam0 = ratio_of_alpha(alpha, q, k)
        instance = self._instance_argv(m, k, f)
        if cls == "bound_json":
            argv = ["bound", *instance, "--json"]
            prm = dict(m=m, k=k, f=f)
            if shape["lam"] is not None:
                prm["lam"] = lam0 * shape["lam"] * _jitter(rng)
                argv += ["--lam", repr(prm["lam"])]
            return Query(cls, dict(prm, argv=argv))
        N = _horizon(rng, alpha, shape["rounds"])
        if cls == "simulate_csv":
            outs = dict(csv=self._path("sweep.csv"), summary=self._path("summary.json"))
            argv = ["simulate", *instance, "-N", repr(N),
                    "--csv", outs["csv"], "--summary", outs["summary"]]
            return Query(cls, dict(m=m, k=k, f=f, N=N, argv=argv, outputs=outs))
        if cls == "simulate_file":
            p = rs.InstanceParams(m, k, f)
            if shape["line"]:
                strategies = rs.make_geometric_line_strategy(p, alpha, N)
            else:
                strategies = rs.make_exponential_strategy(p, alpha, N)
            self.files += 1
            path = self._path(f"strategy-{self.files}.txt")
            rs.save_strategies(strategies, path)
            argv = ["simulate", *instance, "-N", repr(N), "--strategy", path]
            return Query(cls, dict(m=m, k=k, f=f, N=N, argv=argv, strategy=path,
                                   line=shape["line"]))
        if cls == "simulate_dense":
            rel_step = shape["rel_step"] * _jitter(rng)
            outs = dict(csv=self._path("dense.csv"))
            argv = ["simulate", *instance, "-N", repr(N), "--dense",
                    "--rel-step", repr(rel_step), "--csv", outs["csv"]]
            return Query(cls, dict(m=m, k=k, f=f, N=N, rel_step=rel_step, argv=argv,
                                   outputs=outs))
        if cls == "refute_cli":
            eps = shape["eps"] * _jitter(rng)
            lam = lam0 * (1.0 + eps if shape["above"] else 1.0 - eps)
            gap_c = shape["gap_c"] * _jitter(rng)
            outs = dict(trace=self._path("trace.csv"), assignment=self._path("assign.csv"),
                        json=self._path("verdict.json"))
            argv = ["refute", *instance, "-N", repr(N), "--lam", repr(lam),
                    "--trace", outs["trace"], "--assignment", outs["assignment"],
                    "--json", outs["json"], "--gap-constant", repr(gap_c)]
            return Query(cls, dict(m=m, k=k, f=f, N=N, lam=lam, argv=argv, outputs=outs),
                         dict(kind="certificate" if shape["above"] else "coverage_failure"))
        raise ValueError(cls)

    def make_shapes(self, rs, rng):
        shapes = []
        for _ in range(DESK_BLOCKS):
            classes = [cls for cls, n in DESK_MIX for _ in range(n)]
            rng.shuffle(classes)
            shapes += [self._shape(rng, cls) for cls in classes]
        return shapes

    def warm_up_queries(self, rs):
        rng = random.Random("desk-mixed warm-up")
        return [self.make_query(rs, self._shape(rng, cls), rng) for cls, _ in DESK_MIX]

    def prepare(self, q):
        for path in q.params.get("outputs", {}).values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)

    def discard(self, q):
        if "strategy" in q.params:
            os.remove(q.params["strategy"])

    def execute(self, rs, q):
        if q.cls == "fractional":
            prm = q.params
            inst = rs.FractionalInstance(prm["weights"], prm["eta"], prm["delta"])
            return rs.rationalize_weights(inst), rs.fractional_ratio(prm["eta"])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = rs.cli.main(q.params["argv"])
        return rc, out.getvalue(), err.getvalue()

    # -- oracles ---------------------------------------------------------

    def check(self, rs, q, result):
        if q.cls == "fractional":
            return self._check_fractional(q, result)
        rc, stdout, stderr = result
        expect(not stderr, f"{q.cls}: stderr {stderr.strip()!r}")
        getattr(self, "_check_" + q.cls)(rs, q, rc, stdout)
        written = len(stdout.encode())
        for path in q.params.get("outputs", {}).values():
            if os.path.exists(path):
                written += os.path.getsize(path)
        return {"bytes_written": written}

    def _check_fractional(self, q, result):
        rat, ratio = result
        prm = q.params
        expect(len(rat.counts) == len(prm["weights"]), "one count per weight")
        for w, k_i in zip(prm["weights"], rat.counts):
            low = w / prm["eta"]
            expect(low - 1e-12 <= k_i / rat.q <= low + prm["delta"] + 1e-12,
                   f"count {k_i}/{rat.q} outside [{low}, {low + prm['delta']}]")
        eta = prm["eta"]
        closed = 2.0 * math.exp(eta * math.log(eta) - (eta - 1.0) * math.log(eta - 1.0)) + 1.0
        expect(close(ratio, closed), f"fractional ratio {ratio!r} != {closed!r}")
        return {}

    def _check_bound_json(self, rs, q, rc, stdout):
        prm = q.params
        expect(rc == 0, f"exit {rc}")
        doc = json.loads(stdout)
        p = _instance(rs, prm)
        expect((doc["m"], doc["k"], doc["f"], doc["q"], doc["s"]) == (p.m, p.k, p.f, p.q, p.s),
               "instance echo")
        expect(doc["lambda0"] == rs.ratio_lower_bound(p) and doc["alpha"] == rs.optimal_alpha(p),
               "bound differs from the library")
        alpha = alpha_opt(p.q, p.k)
        expect(close(doc["lambda0"], ratio_of_alpha(alpha, p.q, p.k)) and close(doc["alpha"], alpha),
               "bound differs from the closed form")
        if "lam" in prm:
            mu = (prm["lam"] - 1.0) / 2.0
            expect(close(doc["delta"], growth_delta(p.s, p.k, mu)), "delta differs from closed form")

    def _check_bound_eta(self, rs, q, rc, stdout):
        expect(rc == 0, f"exit {rc}")
        head, _, value = stdout.strip().partition(" = ")
        expect(head == f"C(eta={q.params['eta']})", f"unexpected output {stdout!r}")
        expect(close(float(value), rs.fractional_ratio(q.params["eta"])),
               "C(eta) differs from the library")

    def _library_sup(self, rs, q):
        """The library's worst ratio for the strategies the CLI generates."""
        if "sup" not in q.expect:
            prm = q.params
            p = _instance(rs, prm)
            if "strategy" in prm:
                strategies = rs.load_strategies(prm["strategy"])
            else:
                strategies = rs.make_exponential_strategy(
                    p, rs.optimal_alpha(p), min(prm["N"], CLI_GEN_HORIZON_CAP))
            q.expect["sup"], _ = rs.worst_ratio(strategies, p, prm["N"])
            q.expect["rows"] = len(rs.sweep_rows(strategies, p, prm["N"]))
        return q.expect["sup"]

    def _check_summary(self, rs, q, rc, stdout) -> dict:
        expect(rc == 0, f"exit {rc}")
        doc = json.loads(stdout)
        expect(doc["covered"] and doc["sup_ratio"] == self._library_sup(rs, q),
               f"sup_ratio {doc['sup_ratio']!r} differs from the library")
        return doc

    def _check_simulate_csv(self, rs, q, rc, stdout):
        doc = self._check_summary(rs, q, rc, stdout)
        with open(q.params["outputs"]["summary"]) as fh:
            expect(json.load(fh) == doc, "summary file differs from stdout")
        rows = _csv_rows(q.params["outputs"]["csv"], "# raysearch sweep v1")
        expect(len(rows) == q.expect["rows"], "sweep row count")
        expect(max(float(r[4]) for r in rows) == doc["sup_ratio"], "sweep rows miss the sup")

    def _check_simulate_file(self, rs, q, rc, stdout):
        doc = self._check_summary(rs, q, rc, stdout)
        if not q.params["line"]:
            p = _instance(rs, q.params)
            bound = ratio_of_alpha(alpha_opt(p.q, p.k), p.q, p.k)
            expect(doc["sup_ratio"] <= bound * (1.0 + REL_TOL), "sup above the closed form")

    def _check_simulate_dense(self, rs, q, rc, stdout):
        doc = self._check_summary(rs, q, rc, stdout)
        rows = _csv_rows(q.params["outputs"]["csv"], "# raysearch sweep v1")
        n_pts = max(2, int(math.log(q.params["N"]) / q.params["rel_step"]) + 1)
        expect(len(rows) == q.params["m"] * n_pts, "dense row count")
        dense_sup = max(float(r[4]) for r in rows if r[4])
        expect(dense_sup <= doc["sup_ratio"] * (1.0 + 1e-12), "dense grid above the exact sup")

    def _check_refute_cli(self, rs, q, rc, stdout):
        prm, outs = q.params, q.params["outputs"]
        doc = json.loads(stdout)
        with open(outs["json"]) as fh:
            expect(json.load(fh) == doc, "verdict file differs from stdout")
        kind = q.expect["kind"]
        expect(doc["kind"] == kind and rc == (0 if kind == "certificate" else 2),
               f"verdict {doc['kind']} exit {rc}, expected {kind}")
        if "steps" not in q.expect:
            p = _instance(rs, prm)
            strategies = rs.make_exponential_strategy(
                p, rs.optimal_alpha(p), min(prm["N"], CLI_GEN_HORIZON_CAP))
            verdict = rs.refute(strategies, prm["lam"], p, prm["N"])
            q.expect["steps"] = len(verdict.trace.steps) if verdict.trace else None
        trace_rows = _csv_rows(outs["trace"], "# raysearch trace v1")
        if kind == "certificate":
            steps = doc["audit"]["steps"]
            expect(steps > 0 and steps == q.expect["steps"], "audit steps differ from the library")
            expect(len(trace_rows) == steps, "trace row count")
            expect(len(_csv_rows(outs["assignment"], "# raysearch assignment v1")) > 0,
                   "empty assignment")
            expect(doc["gap"]["case"] in (1, 2), "gap report")
        else:
            expect(1.0 <= doc["witness"]["point"] <= prm["N"], "witness outside [1, N]")
            expect(not trace_rows and not os.path.exists(outs["assignment"]),
                   "coverage failure wrote an audit")


WORKLOADS = {w.name: w for w in (SweepLong, RefuteLong, DeskMixed)}
