"""Mechanized potential-function lower-bound engine.

Works on the search domain (1, hi], as `cover` does.  Replays an
exact-multiplicity assignment, the (robot, round_index, left, right)
tuples `exact_q_assignment` returns in stream order, through the
covering-situation state: the sorted multiset A of multiplicity
frontiers, per-robot loads (sums of assigned turning distances), and for
the one-ray-cover setting the left endpoint b of each robot's next
assigned interval.  The orc potential is defined only while every
robot has such a next interval: `initial_state` rejects a robot with
none past the base prefix, and the replay stops before the interval of
a robot with no following one.  Each added interval multiplies the
log-domain potential by mu*^e / (x^e (mu*-x)^k), which is at least the
growth factor delta whenever the candidate ratio sits below the tight
bound; the line-mode potential is simultaneously capped by mu^(k*s).  A
valid cover therefore cannot extend forever: the engine either certifies
the replay or reports the coverage hole the theorem predicts.

The mode is checked once, by `_multiplicity`, which `refute` and
`initial_state` (so `audit_growth`) call first; any mode but "line" and
"orc" is a ValueError, and later branches read the checked state.mode.

Cost: a step changes three values (one robot's load, in orc mode that
robot's next-left b, and one frontier, as A[0] leaves and the interval's
right end enters).  The state keeps each value once, pre-scaled, with
its log term beside it, and each stream interval carries its robot's
next left end, so a step takes three logs for the incremental update and
three for the terms it replaces.  One generator, `_replay`, states a
step: it binds the state's lists and constants once and yields each
step; `audit_growth` iterates it.
The from-scratch oracle, the sum of the stored terms (`potential_value`),
runs at every audited step and never reads the incremental value.  The
audit checks that sum against the incremental value and, in line mode,
against the cap.  The initial potential sums the terms and frontier logs
that `initial_state` has just taken; fresh logs of every value are taken
once more, after the last step, where the audit checks the stored terms
against them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import cycle
from typing import Collection, Iterable, Iterator, Literal, Sequence

from .cover import (
    DeficientCoverError,
    Witness,
    _check_stream,
    _multiplicity_scan,
    exact_q_assignment,
)
from .formulas import _LOG_FLOAT_MAX, CoverParams, InstanceParams, growth_factor_delta, mu_critical
from .strategy import (
    Strategy, _CoverRow, _require_horizon, _require_strategy_set, all_cover_intervals
)

__all__ = [
    "Mode",
    "PrefixState",
    "GrowthTrace",
    "GapReport",
    "Verdict",
    "InvalidAssignmentError",
    "AuditError",
    "ConfigurationError",
    "covering_situation",
    "initial_state",
    "potential_value",
    "audit_growth",
    "detect_gap",
    "refute",
]

Mode = Literal["line", "orc"]

_REL_TOL = 1e-9


class InvalidAssignmentError(Exception):
    """An interval violates the load bound or does not start at the frontier."""


class AuditError(Exception):
    """A replay invariant failed: drift, cap overflow, or a slow step."""


class ConfigurationError(Exception):
    """Nothing to audit: no assigned interval, a load exponent below 1, or
    in orc mode a robot with no interval past the base prefix."""


def _multiplicity(p: InstanceParams, mode: str) -> int:
    """The folds the mode's relaxation needs: s = q - k line covers on the
    line, q = m(f+1) one-ray covers on m rays; else ValueError."""
    if mode == "line":
        return p.s
    if mode == "orc":
        return p.q
    raise ValueError(f"mode must be 'line' or 'orc', got {mode!r}")


def covering_situation(intervals: Sequence[_CoverRow], mult: int) -> list[float]:
    """The sorted frontier multiset [a_mult, ..., a_1] of a prefix.

    a_j is the first point above 1 whose coverage multiplicity drops
    below j; every point of (a_(j+1), a_j] is covered exactly j times.
    The multiplicity is `cover`'s scan: never negative, so no more than
    mult frontiers are set, and 0 at the largest right end, so every a_j is.
    """
    frontier: list[float] = []  # a_mult first
    for u, m in _multiplicity_scan(intervals):
        while m < mult - len(frontier):
            frontier.append(u)
    return frontier


@dataclass
class PrefixState:
    """Covering situation of one prefix, and the stream that extends it.

    Everything is rescaled so that the base prefix's frontier a = A[0] is
    1.  `values` holds per robot its load and, in orc mode, its next left
    end b; `terms` holds coef*log(value) at the same indices (coef e for a
    load, k for b) and `log_A` the log of each frontier.  A step
    replaces a value and its term together; `potential_value` sums the
    terms.  The stream is (robot, left, right, next_left) tuples, where
    next_left is the robot's following left end, None after its last.
    """

    mode: Mode
    mult: int  # required multiplicity: s (line) or q (orc)
    k: int  # robots actually present
    s_exp: int  # load exponent: s (line) or q - k (orc)
    A: list[float]  # ascending; A[0] is the full-coverage frontier a
    log_A: list[float]  # log of each entry of A, in A's order
    values: list[float]  # per robot: load, then b (orc)
    terms: list[float]  # coef*log of each entry of values, in its order
    slot: dict[int, int]  # robot -> index of its load in `values`
    stream: deque[tuple[int, float, float, float | None]]  # not yet replayed
    log_potential: float


def _fresh_terms(state: PrefixState) -> list[float]:
    coefs = (state.s_exp, state.k) if state.mode == "orc" else (state.s_exp,)
    return [coef * math.log(v) for coef, v in zip(cycle(coefs), state.values)]


def _log_potential(terms: Iterable[float], log_A: Iterable[float], k: int) -> float:
    # the summation order is part of the answer: the terms in `values`
    # order, one by one; the frontier terms last, as one sum
    lp = 0.0
    for term in terms:
        lp += term
    return lp - k * sum(log_A)


def _more_robots_than_k(robots: Collection[int], p: InstanceParams) -> ValueError:
    return ValueError(f"assigned intervals of {len(robots)} robots, more than k = {p.k}")


def initial_state(
    assigned: Sequence[_CoverRow], p: InstanceParams, mode: Mode
) -> PrefixState:
    """State of the base prefix, rescaled so that its frontier a is 1.

    `assigned` is checked to be in `exact_q_assignment`'s order, and to
    hold intervals of at most p.k robots (else ValueError).  The base
    prefix is the shortest one with every boundary interval (right end at
    most 1) and an interval of every robot; its scan stops at the first
    left end >= 1 once p.k robots are seen, since no boundary interval
    follows.  The rest is the state's stream, each interval linked by one
    backward pass to its robot's next left end.  The orc potential needs
    every robot's next left end, so a robot with no interval past the base
    prefix is a ConfigurationError, as a load exponent below 1 is: there
    is nothing to audit.
    """
    mult = _multiplicity(p, mode)
    _check_stream(assigned)
    first_seen: dict[int, int] = {}
    last_boundary = -1
    for idx, (r, _, left, right) in enumerate(assigned):
        if left >= 1.0 and len(first_seen) == p.k:
            # sorted by left, with left < right: no right end <= 1 follows
            break
        first_seen.setdefault(r, idx)
        if right <= 1.0:
            last_boundary = idx
    if len(first_seen) > p.k:
        raise _more_robots_than_k(first_seen, p)
    if not first_seen:
        raise ConfigurationError("no assigned intervals")
    p0 = max(max(first_seen.values()), last_boundary) + 1
    robots = sorted(first_seen)
    orc = mode == "orc"
    k_eff = len(robots)
    s_exp = mult - k_eff if orc else mult
    if s_exp < 1:
        raise ConfigurationError(
            f"load exponent {s_exp} < 1 (k={k_eff} robots): potential degenerate"
        )
    A = covering_situation(assigned[:p0], mult)
    scale = A[0]
    width = 2 if orc else 1
    slot = {r: width * i for i, r in enumerate(robots)}
    values = [0.0] * (width * k_eff)
    for r, _, _, right in assigned[:p0]:
        values[slot[r]] += right / scale
    stream: deque[tuple[int, float, float, float | None]] = deque()
    next_left: dict[int, float] = {}
    for r, _, left, right in reversed(assigned[p0:]):
        left /= scale
        stream.appendleft((r, left, right / scale, next_left.get(r)))
        next_left[r] = left
    if not next_left.keys() <= first_seen.keys():
        raise _more_robots_than_k(first_seen.keys() | next_left.keys(), p)
    if orc:
        for r, j in slot.items():
            if r not in next_left:
                raise ConfigurationError(
                    f"robot {r} has no interval past the base prefix: potential undefined"
                )
            values[j + 1] = next_left[r]
    A = [y / scale for y in A]
    state = PrefixState(
        mode=mode,
        mult=mult,
        k=k_eff,
        s_exp=s_exp,
        A=A,
        log_A=[math.log(y) for y in A],
        values=values,
        terms=[],
        slot=slot,
        stream=stream,
        log_potential=0.0,
    )
    state.terms = _fresh_terms(state)
    state.log_potential = _log_potential(state.terms, state.log_A, k_eff)
    return state


# one audited extension, (robot, mu_star, x, step_ratio,
# log_potential_after) in the trace CSV's column order; its index is its
# position in the trace
_Step = tuple[int, float, float, float, float]


def _replay(state: PrefixState, c: CoverParams) -> Iterator[_Step]:
    """Extend the prefix by each interval of its stream in turn, in place,
    yielding one step per interval: the one statement of a step.

    It stops at the end of the stream, and in orc mode before an interval
    whose robot has no following one, so no next left end.  The interval
    must start at the current frontier a and respect the load bound
    (realized slack mu* at most mu); the log-potential is updated
    incrementally from the step ratio, with three logs that read no stored
    term.  The values the step changes get their log terms anew: three
    more logs.  Both checks run before the state is touched, so a rejected
    step leaves it, its stream and log terms included, as it was.  The
    state's lists and the constants are bound once, not once per step.
    """
    stream, A, log_A = state.stream, state.A, state.log_A
    values, terms, slot = state.values, state.terms, state.slot
    e, k = state.s_exp, state.k
    orc = state.mode == "orc"
    mu_top, tol = c.mu * (1.0 + _REL_TOL), _REL_TOL
    log, exp = math.log, math.exp
    popleft, insert_A, insert_log = stream.popleft, A.insert, log_A.insert
    while stream:
        r, left, right, next_left = stream[0]
        if orc and next_left is None:
            return
        a = A[0]
        if abs(left - a) > tol * max(1.0, abs(a)):
            raise InvalidAssignmentError(
                f"interval starts at {left}, frontier is {a}: not a cover prefix"
            )
        j = slot[r]
        load_old = values[j]
        load_new = load_old + right
        denom = next_left if orc else a
        mu_star = load_new / denom
        if mu_star > mu_top:
            raise InvalidAssignmentError(
                f"load bound violated: realized mu*={mu_star} exceeds mu={c.mu}"
            )
        x = load_old / denom
        log_ratio = e * log(mu_star) - e * log(x) - k * log(mu_star - x)
        popleft()
        del A[0], log_A[0]
        i = bisect_right(A, right)
        insert_A(i, right)
        insert_log(i, log(right))
        values[j] = load_new
        terms[j] = e * log(load_new)
        if orc:
            values[j + 1] = next_left
            terms[j + 1] = k * log(next_left)
        lp = state.log_potential + log_ratio
        state.log_potential = lp
        # the step ratio is inf where it overflows, as growth_factor_delta is
        ratio = exp(log_ratio) if log_ratio <= _LOG_FLOAT_MAX else math.inf
        yield r, mu_star, x, ratio, lp


def potential_value(state: PrefixState) -> float:
    """From-scratch log-domain potential of the state.

    The sum of the state's stored log terms, without taking a log: it
    shares no arithmetic with the incremental value.  Through Python 3.11
    it adds them in `_log_potential`'s order; from 3.12 on sum() is
    compensated, so it may differ from that order by a few ulp.  The audit
    checks it against the incremental value and, in line mode, against
    the cap k*s*log(mu).
    """
    return sum(state.terms) - state.k * sum(state.log_A)


@dataclass
class GrowthTrace:
    """Audited replay: per-step slack, step ratios, and potential values."""

    mult: int
    k: int
    delta_bound: float | None  # growth factor delta when mu is subcritical
    line_cap_log: float | None
    initial_log_potential: float
    steps: list[_Step] = field(default_factory=list)

    @property
    def min_step_ratio(self) -> float | None:
        return min((ratio for _, _, _, ratio, _ in self.steps), default=None)

    @property
    def max_log_potential(self) -> float:
        return max([self.initial_log_potential, *(lp for _, _, _, _, lp in self.steps)])


def audit_growth(
    assigned: Sequence[_CoverRow],
    c: CoverParams,
    p: InstanceParams,
    mode: Mode,
) -> GrowthTrace:
    """Replay the assignment, checking every growth and boundedness invariant.

    Each step ratio is checked against the worst-case polynomial bound at
    the realized slack, and against the growth factor delta whenever mu is
    strictly below critical; incremental and from-scratch potentials must
    agree to 1e-9 relative, and so must the stored log terms and fresh
    logs after the last step.  The steps are `_replay`'s, every one of
    them, so a step's index is its position in `steps`.
    """
    state = initial_state(assigned, p, mode)
    e, k = state.s_exp, state.k
    subcritical = c.mu < mu_critical(e, k)
    delta = growth_factor_delta(e, k, c.mu)
    # the polynomial floor of a step ratio at slack mu* is
    # growth_factor_delta(e, k, mu*) = delta_1 * mu*^(-k)
    delta_1 = growth_factor_delta(e, k, 1.0)
    cap = k * e * math.log(c.mu) if state.mode == "line" else None
    trace = GrowthTrace(
        mult=state.mult,
        k=k,
        delta_bound=delta if subcritical else None,
        line_cap_log=cap,
        initial_log_potential=state.log_potential,
    )
    cap_top = None if cap is None else cap + _REL_TOL * max(1.0, abs(cap))
    delta_top = delta * (1.0 - _REL_TOL)
    for idx, step in enumerate(_replay(state, c)):
        _, mu_star, _, step_ratio, _ = step
        scratch = potential_value(state)
        if cap_top is not None and scratch > cap_top:
            raise AuditError(f"line potential {scratch} exceeds cap {cap} at step {idx}")
        if abs(state.log_potential - scratch) > _REL_TOL * max(1.0, abs(scratch)):
            raise AuditError(
                f"incremental potential {state.log_potential} drifted from "
                f"from-scratch value {scratch} at step {idx}"
            )
        floor = delta_1 * mu_star**-k
        if step_ratio < floor * (1.0 - 1e-12):
            raise AuditError(
                f"step ratio {step_ratio} below polynomial floor {floor}"
                f" at step {idx}"
            )
        if subcritical and step_ratio < delta_top:
            raise AuditError(
                f"step ratio {step_ratio} below growth factor {delta}"
                f" at step {idx}"
            )
        trace.steps.append(step)
    # the one pass of fresh logs: a stored term gone stale fails the run too
    stored = potential_value(state)
    fresh = _log_potential(_fresh_terms(state), map(math.log, state.A), k)
    if abs(stored - fresh) > _REL_TOL * max(1.0, abs(fresh)):
        raise AuditError(
            f"stored log terms sum to {stored}, fresh logs to {fresh},"
            f" after {len(trace.steps)} steps"
        )
    return trace


@dataclass(frozen=True)
class GapReport:
    """Per-robot left-endpoint gap scan: bounded (case 1) or a jump (case 2).

    In case 2, the other robots cover [sub_lo, sub_hi] one fold short of
    the full requirement; that subrange is the recursion target.
    """

    case: int
    robot: int | None = None
    round_index: int | None = None
    ratio: float | None = None
    sub_lo: float | None = None
    sub_hi: float | None = None


def detect_gap(
    assigned: Sequence[_CoverRow], C: float, c: CoverParams
) -> GapReport:
    """First per-robot pair of consecutive left endpoints with ratio above C.

    A public entry for any stream, so it runs `_check_stream` on `assigned`
    itself; a left endpoint below 1 never starts a jump.
    """
    if not C > 1.0:
        raise ValueError(f"gap constant C must be > 1, got {C}")
    _check_stream(assigned)
    prev: dict[int, float] = {}
    for robot, rnd, left, _ in assigned:
        last = prev.get(robot)
        if last is not None and last >= 1.0 and left / last > C:
            return GapReport(
                case=2,
                robot=robot,
                round_index=rnd,
                ratio=left / last,
                sub_lo=c.mu * last,
                sub_hi=C * last,
            )
        prev[robot] = left
    return GapReport(case=1)


@dataclass
class Verdict:
    """Outcome of one refutation run."""

    kind: Literal["coverage_failure", "certificate"]
    params: dict
    witness: Witness | None = None
    trace: GrowthTrace | None = None
    headroom_steps: float | None = None  # growth steps left before the cap
    # the exact assignment of a certificate, left out of to_dict(); None on
    # a coverage failure, empty when the multiplicity is 0
    assignment: list[_CoverRow] | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "params": dict(self.params)}
        if self.witness is not None:
            out["witness"] = {
                "point": self.witness.point,
                "multiplicity_found": self.witness.multiplicity_found,
                "multiplicity_required": self.witness.multiplicity_required,
            }
        if self.trace is not None:
            out["audit"] = {
                "steps": len(self.trace.steps),
                "k": self.trace.k,
                "multiplicity": self.trace.mult,
                "min_step_ratio": self.trace.min_step_ratio,
                "max_log_potential": self.trace.max_log_potential,
                "delta_bound": self.trace.delta_bound,
                "line_cap_log": self.trace.line_cap_log,
            }
        if self.headroom_steps is not None:
            out["headroom_steps"] = self.headroom_steps
        return out


def refute(
    strategies: Sequence[Strategy],
    lam: float,
    p: InstanceParams,
    N: float,
    mode: Mode = "orc",
) -> Verdict:
    """Verify or refute a multiplicity-fold lambda-cover of [1, N].

    One assignment sweep decides coverage: a hole yields a
    coverage_failure verdict with the leftmost witness, and a verified
    cover comes back truncated to exact multiplicity, is replayed through
    the growth audit, and yields a certificate that carries the
    assignment.  When a line-mode audit ran below the tight ratio,
    headroom_steps estimates how many more growth steps (hence how much
    more horizon) a contradiction needs.

    The strategies must be p.k of the mode's kind (`_require_strategy_set`):
    TurnSequences in line mode, on m = 2 only, or RoundPlans in orc mode,
    on rays 1..m, which the relaxation then folds together; anything else
    raises ValueError, and so do N below 1 or NaN and a mode but those two.
    """
    _require_horizon(N)
    c = CoverParams(lam)
    mult = _multiplicity(p, mode)
    _require_strategy_set(strategies, p, mode)
    params = {
        "m": p.m,
        "k": p.k,
        "f": p.f,
        "lambda": lam,
        "N": N,
        "mode": mode,
        "multiplicity": max(mult, 0),
    }
    try:
        assigned = exact_q_assignment(all_cover_intervals(strategies, c), mult, N)
    except DeficientCoverError as exc:
        return Verdict(kind="coverage_failure", params=params, witness=exc.witness)
    try:
        trace = audit_growth(assigned, c, p, mode)
    except ConfigurationError:
        # nothing to audit: no assigned interval (a multiplicity of 0 or
        # below assigns none), or in orc mode a load exponent q - k < 1 or
        # a robot with no interval past the base prefix (no next left end)
        return Verdict(kind="certificate", params=params, assignment=assigned)
    # log of the reported delta_bound, not formulas' log(delta): the
    # headroom can be redone from the verdict alone
    headroom = None
    if trace.delta_bound is not None and trace.steps and trace.line_cap_log is not None:
        headroom = max(
            0.0,
            (trace.line_cap_log - trace.max_log_potential)
            / math.log(trace.delta_bound),
        )
    return Verdict(
        kind="certificate",
        params=params,
        trace=trace,
        headroom_steps=headroom,
        assignment=assigned,
    )
