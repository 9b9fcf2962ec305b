"""Trajectory evaluation and exact worst-case competitive ratios.

The adversary is the deterministic worst case of the crash-fault model:
it places the target and silences the first f distinct robots that walk
over it, so detection happens at the (f+1)-st distinct first-visit.

Between consecutive turning distances the detection time has the form
c + x with c constant, hence tau(x)/x is decreasing on every piece and
the supremum over [1, N] is attained at x = 1 or just above a turning
distance.  `worst_ratio` enumerates exactly those breakpoints;
`dense_grid_ratio` samples a dense grid through the same sweep, so it
cross-checks the breakpoint enumeration, not the sweep.

A robot first reaches (ray, x) on the first excursion to that ray whose
turn is at least x, so only the turns that raise the running maximum on
a ray can be first visits.  `worst_ratio`, `sweep_rows` and
`dense_grid_ratio` walk each robot's legs once.  That one pass numbers
the candidate targets by walk position, with a running integer and no
index of them, and lists per ray the sweep's items: one at each record
turn, where the robot's first-visit offset 2*elapsed moves on, and one
at each other turn below the record that is a candidate.  Per robot the
walk keeps one state list per ray, [append to the ray's items, the
record turn there, that turn's target], so a leg costs one dict lookup.
After one sort of a ray's items the sweep answers its targets in
increasing x, items of one key being one target with the least of their
numbers, and keeps the robots' offsets in a sorted list of at most k
floats: each record turn passed costs one removal by value (equal floats
are interchangeable, so any equal one may leave) and one insertion, and
each target one lookup.
The sweep keeps the sup as it goes, from that list, and states the
witness rule once.  Asked for visitors, it also answers each target with
its arrivals, and sorts those answers once by number: the (time, robot)
pairs of the robots that reach it, sorted, which is the sweep's one
statement of the tie rule (two offsets that round to one time are listed
by robot).  `_detected` states tau, the (f+1)-st time, and tau/x once,
for those answers and for `detection_time`.  `_grid` makes the dense
grid's points; `dense_grid_ratio` sweeps them for the sup alone.  `_rows`
is the one producer of the sweep CSV's answers and their sup:
`sweep_rows` wraps each answer in a Target and a DetectionReport, while
the CLI formats its lines from the plain answers and takes the
breakpoint summary's sup and witness from the same sweep.
One gate, `strategy._require_strategy_set`, admits the sets of the sweep
and of its reference path alike and names their rays: a target on another
ray is a ValueError in `detection_time`, as a RoundPlan visiting a ray
past m is in the sweep's walk.  `first_visit_time` and `detection_time`
walk the legs from scratch for each target: the reference path the sweep
is tested against, sharing with it only that gate and `strategy._legs`.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .formulas import InstanceParams
from .strategy import (
    Strategy,
    TurnSequence,
    _legs,
    _ray_past_m,
    _require_horizon,
    _require_strategy_set,
)

__all__ = [
    "Target",
    "DetectionReport",
    "first_visit_time",
    "detection_time",
    "worst_ratio",
    "sweep_rows",
    "dense_grid_ratio",
]

_REL_STEP = 1e-3  # the dense grid's default step in log(x)

# The most points one dense grid may hold; `_grid` counts them before it
# makes the first, and a larger count is a ValueError.  The default step
# stays below it for every finite N (log of the largest float / _REL_STEP
# is 709 783 points).  The sweep CSV answers each point on every ray with
# its arrivals, at about 1 kB per point on m = 2, k = 1 and 2.6 kB on
# m = 4, k = 3, so its grid at the limit can take a few GB.
MAX_GRID_POINTS = 1_000_000


@dataclass(frozen=True)
class Target:
    """A hidden target on ray 1..m (round plans) or +1/-1 (line); else detection_time raises."""

    ray: int
    x: float

    def __post_init__(self) -> None:
        if not self.x >= 1.0:
            raise ValueError(f"target distance must be >= 1, got {self.x}")


@dataclass(frozen=True)
class DetectionReport:
    """Adversarial detection time at one target; tau is None if undetected."""

    tau: float | None
    visitors: tuple[tuple[int, float], ...]
    ratio: float | None


def first_visit_time(
    strategy: Strategy, target: Target, just_above: bool = False
) -> float | None:
    """Earliest time the trajectory reaches the target, None if never.

    With just_above set, a pass only counts if its turning distance
    strictly exceeds x: the right-limit semantics used for computing
    suprema at half-open breakpoint boundaries.
    """
    if isinstance(strategy, TurnSequence) and target.ray not in (1, -1):
        raise ValueError("line targets use ray=+1 or ray=-1")
    x = target.x
    elapsed = 0.0
    for ray, turn in _legs(strategy):
        if ray == target.ray and (turn > x if just_above else turn >= x):
            return 2.0 * elapsed + x
        elapsed += turn
    return None


def detection_time(
    strategies: Sequence[Strategy],
    p: InstanceParams,
    target: Target,
    just_above: bool = False,
) -> DetectionReport:
    """(f+1)-st distinct first-visit time: the first f visitors stay silent."""
    rays = _require_strategy_set(strategies, p)
    if target.ray not in rays:
        raise ValueError(f"target on ray {target.ray}, but the set searches rays {rays}")
    arrivals = []
    for r, strat in enumerate(strategies):
        t = first_visit_time(strat, target, just_above)
        if t is not None:
            arrivals.append((t, r))
    arrivals.sort()
    return _as_report(arrivals, target.x, p.f)


def _detected(
    arrivals: Sequence[tuple[float, int]], x: float, f: int
) -> tuple[float | None, float | None]:
    """(tau, tau/x) at x from its sorted (time, robot) arrivals, or (None,
    None) below f+1 of them: the first f visitors stay silent."""
    if len(arrivals) > f:
        tau = arrivals[f][0]
        return tau, tau / x
    return None, None


def _as_report(arrivals: Sequence[tuple[float, int]], x: float, f: int) -> DetectionReport:
    tau, ratio = _detected(arrivals, x, f)
    return DetectionReport(tau, tuple((r, t) for t, r in arrivals), ratio)


# ends each ray's items: it carries no target, so the last one is answered
_END = (math.inf, -1, -1, None)

# a target's number, (ray, x, just_above) and sorted (time, robot) arrivals
Answer = tuple[int, tuple[int, float, bool], list[tuple[float, int]]]
# the sup of tau(x)/x over the targets and its witness (ray, x)
Sup = tuple[float, tuple[int, float]]


def _sweep(
    strategies: Sequence[Strategy],
    p: InstanceParams,
    xs: Sequence[float],
    N: float = 1.0,
    visitors: bool = False,
) -> tuple[Sup, list[Answer]]:
    """Answer each target from one walk of each robot and one sweep per ray.

    The targets are numbered by walk position.  The probes, each x of xs
    at x itself on each ray of the set, take 0..n-1 in (ray, x) order; then
    each leg takes the next number, and a turn t with 1 <= t < N is the
    target just past t.  On one ray the items of equal turns are one
    target, numbered at its first appearance; a probe stays apart from the
    turns at its own x.  Returns (sup, answers).  The sup is (ratio, (ray,
    x)): the undetected target of least number, ratio inf, else the largest
    ratio with the least number that reaches it.  The answers are empty
    unless `visitors` is set; then they list each target as (number, (ray,
    x, just_above), arrivals), sorted once by number: its arrivals are the
    sorted (time, robot) pairs of the robots that ever reach it.
    """
    rays = _require_strategy_set(strategies, p)
    # per ray, (key, i, r, new) items: once x passes key, robot r's
    # first-visit offset 2*elapsed becomes new (None: no visit), or none
    # moves if r = -1; target i >= 0 is answered after its last item.
    # A probe sorts before the turns at its own x: the sort is stable.
    items: dict[int, list[tuple[float, int, int, float | None]]] = {ray: [] for ray in rays}
    n = 0
    for ray in rays:
        evs = items[ray]
        for x in xs:
            evs.append((x, n, -1, None))
            n += 1
    i = n  # the next leg's number
    for r, strat in enumerate(strategies):
        # per ray, [append to its items, the robot's record turn there,
        # that turn's target]: a ray past m is the KeyError
        state = {ray: [evs.append, 0.0, -1] for ray, evs in items.items()}
        elapsed = 0.0
        for ray, turn in _legs(strat):
            try:
                at = state[ray]
            except KeyError:
                raise _ray_past_m(r, ray, p) from None
            add, top, j = at
            if turn > top:
                # the robot enters at 0 and moves at each record turn; its
                # item comes later, so a repeat of top adds none before it
                add((top, j, r, 2.0 * elapsed))
                at[1] = turn
                at[2] = i if 1.0 <= turn < N else -1
            elif turn < top and 1.0 <= turn < N:
                add((turn, i, -1, None))
            elapsed += turn
            i += 1
        # the robot's last item per ray; on a ray it never visits, that is
        # (0.0, -1, r, None), which moves nothing
        for add, top, j in state.values():
            add((top, j, r, None))
    f = p.f
    answers: list[Answer] = []
    best, best_i, best_at = -math.inf, -1, (0, 0.0)
    miss_i, miss_at = -1, (0, 0.0)  # the undetected target of least number
    for ray, evs in items.items():
        evs.sort(key=itemgetter(0))  # each robot's items are mostly ascending
        evs.append(_END)
        live: list[float] = []  # the offsets in cur, sorted: live[f] + x is tau
        cur: list[float | None] = [None] * p.k
        i, x = -1, 0.0
        for key, idx, r, new in evs:
            # a target ends at a new key, or at a probe's last item: the
            # turns' items at one key are one target, and the first of
            # them has the least number
            if key != x or (idx != i and i < n):
                # every item of target i is passed, and none after it
                if i >= 0:
                    if visitors:
                        # two offsets can round to one time: sort by (time, robot)
                        answers.append((i, (ray, x, i >= n), sorted(
                            [(off + x, r) for r, off in enumerate(cur) if off is not None]
                        )))
                    if len(live) > f:
                        # live[f] + x rounds as the arrivals' (f+1)-st time does
                        ratio = (live[f] + x) / x
                        if ratio > best or (ratio == best and i < best_i):
                            best, best_i, best_at = ratio, i, (ray, x)
                    elif miss_i < 0 or i < miss_i:
                        miss_i, miss_at = i, (ray, x)
                i, x = idx, key
            if r >= 0:
                old = cur[r]
                if old is not None:
                    live.remove(old)  # equal floats are interchangeable
                if new is not None:
                    insort(live, new)
                cur[r] = new
    answers.sort(key=itemgetter(0))
    return ((math.inf, miss_at) if miss_i >= 0 else (best, best_at)), answers


def worst_ratio(
    strategies: Sequence[Strategy], p: InstanceParams, N: float
) -> tuple[float, Target]:
    """Exact sup of tau(x)/x over targets with 1 <= x <= N, with witness.

    Returns (inf, witness) as the uncovered signal if some candidate
    target is never detected.  N below 1, or NaN, is a ValueError.
    """
    _require_horizon(N)
    (ratio, (ray, x)), _ = _sweep(strategies, p, (1.0,), N)
    return ratio, Target(ray, x)


def _grid(N: float, rel_step: float) -> list[float]:
    """The dense grid: points geometric in x from 1 to N, about rel_step
    apart in log(x).  N below 1, or NaN, is a ValueError, and so is a step
    that is not positive or that makes more than MAX_GRID_POINTS points."""
    _require_horizon(N)
    if not rel_step > 0.0:
        raise ValueError(f"rel_step must be positive, got {rel_step}")
    span = math.log(N) / rel_step
    if not math.isfinite(span):
        raise ValueError(
            f"rel_step={rel_step!r} too small for N={N!r}: "
            "the dense grid's point count log(N)/rel_step is not finite"
        )
    n_pts = max(2, int(span) + 1)
    if n_pts > MAX_GRID_POINTS:
        raise ValueError(
            f"rel_step={rel_step!r} too small for N={N!r}: the dense grid's"
            f" {n_pts:.7g} points exceed the limit of {MAX_GRID_POINTS}"
        )
    return [math.exp(math.log(N) * i / (n_pts - 1)) for i in range(n_pts)]


def _rows(
    strategies: Sequence[Strategy],
    p: InstanceParams,
    N: float,
    dense: bool = False,
    rel_step: float = _REL_STEP,
) -> tuple[Sup, list[Answer]]:
    """The sweep's sup over the targets of the sweep CSV, breakpoints or a
    `_grid`, and each target as (number, (ray, x, just_above), arrivals) in
    number order, its arrivals sorted (time, robot) pairs.  N below 1, or
    NaN, is a ValueError."""
    if dense:
        return _sweep(strategies, p, _grid(N, rel_step), visitors=True)
    _require_horizon(N)
    return _sweep(strategies, p, (1.0,), N, visitors=True)


def sweep_rows(
    strategies: Sequence[Strategy],
    p: InstanceParams,
    N: float,
    dense: bool = False,
    rel_step: float = _REL_STEP,
) -> list[tuple[Target, bool, DetectionReport]]:
    """Per-target rows backing the sweep CSV: breakpoints or a dense grid.

    N below 1, or NaN, is a ValueError.
    """
    f = p.f
    return [
        (Target(ray, x), above, _as_report(times, x, f))
        for _, (ray, x, above), times in _rows(strategies, p, N, dense, rel_step)[1]
    ]


def dense_grid_ratio(
    strategies: Sequence[Strategy],
    p: InstanceParams,
    N: float,
    rel_step: float = _REL_STEP,
) -> float:
    """Sup of tau(x)/x on a geometric grid, through worst_ratio's sweep: a
    cross-check of its breakpoint enumeration, not of the sweep itself.
    inf if some grid point is never detected, as worst_ratio reports."""
    (ratio, _), _ = _sweep(strategies, p, _grid(N, rel_step))
    return ratio
