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
a ray can be first visits.  `worst_ratio` and `sweep_rows` (and through
it `dense_grid_ratio`) sweep each ray once, targets in increasing x,
keeping every robot's offset 2*elapsed at its next record turn in one
sorted list: after one sort of a ray's record turns and targets, each
record turn passed costs one removal and one insertion in a list of at
most k entries, and each target one lookup.  The sweep takes one kind
of strategy: a set that mixes RoundPlans and TurnSequences raises
ValueError.  `first_visit_time` and `detection_time` walk the rounds
from scratch; they are the reference path the sweep is tested against.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import cycle
from operator import itemgetter
from typing import Iterable, Iterator, Sequence, TypeVar

from .formulas import InstanceParams
from .strategy import RoundPlan, Strategy, TurnSequence

__all__ = [
    "Target",
    "DetectionReport",
    "first_visit_time",
    "detection_time",
    "worst_ratio",
    "supremum",
    "sweep_rows",
    "dense_grid_ratio",
]

K = TypeVar("K")


@dataclass(frozen=True)
class Target:
    """A hidden target: ray in 1..m for round plans, +1/-1 for line strategies."""

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
    x = target.x
    elapsed = 0.0
    if isinstance(strategy, RoundPlan):
        for ray, turn in strategy.rounds:
            if ray == target.ray and (turn > x if just_above else turn >= x):
                return 2.0 * elapsed + x
            elapsed += turn
        return None
    if isinstance(strategy, TurnSequence):
        if target.ray not in (1, -1):
            raise ValueError("line targets use ray=+1 or ray=-1")
        for i, turn in enumerate(strategy.turns):
            if strategy.side(i) == target.ray and (
                turn > x if just_above else turn >= x
            ):
                return 2.0 * elapsed + x
            elapsed += turn
        return None
    raise TypeError(f"unsupported strategy type {type(strategy)!r}")


def detection_time(
    strategies: Sequence[Strategy],
    p: InstanceParams,
    target: Target,
    just_above: bool = False,
) -> DetectionReport:
    """(f+1)-st distinct first-visit time: the first f visitors stay silent."""
    if len(strategies) != p.k:
        raise ValueError(f"expected {p.k} strategies, got {len(strategies)}")
    arrivals = []
    for r, strat in enumerate(strategies):
        t = first_visit_time(strat, target, just_above)
        if t is not None:
            arrivals.append((t, r))
    arrivals.sort()
    visitors = tuple((r, t) for t, r in arrivals)
    if len(arrivals) < p.f + 1:
        return DetectionReport(None, visitors, None)
    tau = arrivals[p.f][0]
    return DetectionReport(tau, visitors, tau / target.x)


def _legs(strategy: Strategy) -> Iterable[tuple[int, float]]:
    """(ray, turn) of each round or turn, in the order the robot walks them."""
    if isinstance(strategy, RoundPlan):
        return strategy.rounds
    if isinstance(strategy, TurnSequence):
        sides = (1, -1) if strategy.first_positive else (-1, 1)
        return zip(cycle(sides), strategy.turns)
    raise TypeError(f"unsupported strategy type {type(strategy)!r}")


def _rays(strategies: Sequence[Strategy], p: InstanceParams) -> list[int]:
    if any(isinstance(s, TurnSequence) for s in strategies):
        return [1, -1]
    return list(range(1, p.m + 1))


def _candidates(
    strategies: Sequence[Strategy], p: InstanceParams, N: float
) -> list[tuple[int, float, bool]]:
    """(ray, x, just_above) at x = 1 on every ray, then just past each turn below N."""
    cands = [(ray, 1.0, False) for ray in _rays(strategies, p)]
    seen: set[tuple[int, float]] = set()
    for strat in strategies:
        for key in _legs(strat):
            if 1.0 <= key[1] < N and key not in seen:
                seen.add(key)
                cands.append((*key, True))
    return cands


def _sweep(
    strategies: Sequence[Strategy],
    p: InstanceParams,
    cands: Sequence[tuple[int, float, bool]],
) -> Iterator[tuple[int, float, list[tuple[float, int]]]]:
    """(i, x, live) for each candidate (ray, x, just_above), ray by ray in
    increasing (x, just_above).

    live, updated in place, holds the sorted (2*elapsed, robot) of every
    robot's first visit to the target, so live[f][0] + x is the detection
    time.  x passes a turn when it exceeds it, or equals it just above.
    """
    if len(strategies) != p.k:
        raise ValueError(f"expected {p.k} strategies, got {len(strategies)}")
    if any(isinstance(s, RoundPlan) for s in strategies) and any(
        isinstance(s, TurnSequence) for s in strategies
    ):
        raise ValueError("strategies mix RoundPlan and TurnSequence: give one kind")
    # per ray: (turn, robot, old, new): once x passes the turn, the robot's
    # offset moves from old to new, None meaning out of the list.  A robot
    # enters at turn 0 and moves at each of its record turns on the ray.
    events: dict[int, list[tuple[float, int, float | None, float | None]]] = {}
    for r, strat in enumerate(strategies):
        last: dict[int, tuple[float, float | None]] = {}
        elapsed = 0.0
        for ray, turn in _legs(strat):
            top, old = last.get(ray, (0.0, None))
            if turn > top:
                events.setdefault(ray, []).append((top, r, old, 2.0 * elapsed))
                last[ray] = (turn, 2.0 * elapsed)
            elapsed += turn
        for ray, (top, old) in last.items():
            events[ray].append((top, r, old, None))
    ray = None
    for i in sorted(range(len(cands)), key=cands.__getitem__):
        if cands[i][0] != ray:
            ray = cands[i][0]
            evs = sorted(events.get(ray, ()), key=itemgetter(0))
            live: list[tuple[float, int]] = []
            j = 0
        _, x, just_above = cands[i]
        while j < len(evs) and (evs[j][0] < x or just_above and evs[j][0] == x):
            _, r, old, new = evs[j]
            if old is not None:
                del live[bisect_left(live, (old, r))]
            if new is not None:
                insort(live, (new, r))
            j += 1
        yield i, x, live


def _reports(
    strategies: Sequence[Strategy],
    p: InstanceParams,
    cands: Sequence[tuple[int, float, bool]],
) -> list[DetectionReport]:
    """`detection_time` of each candidate, in candidate order, from one sweep."""
    reports: list[DetectionReport] = [None] * len(cands)  # type: ignore[list-item]
    for i, x, live in _sweep(strategies, p, cands):
        # two offsets can round to one time: list visitors by (time, robot)
        visitors = tuple((r, t) for t, r in sorted([(off + x, r) for off, r in live]))
        tau = visitors[p.f][1] if len(visitors) > p.f else None
        reports[i] = DetectionReport(tau, visitors, None if tau is None else tau / x)
    return reports


def supremum(pairs: Iterable[tuple[K, float | None]]) -> tuple[float, K]:
    """Sup of (key, ratio) pairs, a ratio of None meaning undetected.

    Returns (inf, key) at the first undetected key, else the largest ratio
    with the first key that reaches it.
    """
    best_ratio = -math.inf
    best_key = None
    for key, ratio in pairs:
        if ratio is None:
            return math.inf, key
        if ratio > best_ratio:
            best_ratio = ratio
            best_key = key
    assert best_key is not None
    return best_ratio, best_key


def worst_ratio(
    strategies: Sequence[Strategy], p: InstanceParams, N: float
) -> tuple[float, Target]:
    """Exact sup of tau(x)/x over targets with 1 <= x <= N, with witness.

    Returns (inf, witness) as the uncovered signal if some candidate
    target is never detected.
    """
    cands = _candidates(strategies, p, N)
    ratios: list[float | None] = [None] * len(cands)
    f = p.f
    for i, x, live in _sweep(strategies, p, cands):
        if len(live) > f:
            ratios[i] = (live[f][0] + x) / x
    ratio, i = supremum(enumerate(ratios))
    ray, x, _ = cands[i]
    return ratio, Target(ray, x)


def sweep_rows(
    strategies: Sequence[Strategy],
    p: InstanceParams,
    N: float,
    dense: bool = False,
    rel_step: float = 1e-3,
) -> list[tuple[Target, bool, DetectionReport]]:
    """Per-target rows backing the sweep CSV: breakpoints or a dense grid."""
    if dense:
        if not rel_step > 0.0:
            raise ValueError(f"rel_step must be positive, got {rel_step}")
        span = math.log(N) / rel_step
        if not math.isfinite(span):
            raise ValueError(
                f"rel_step={rel_step!r} too small for N={N!r}: "
                "the dense grid's point count log(N)/rel_step is not finite"
            )
        n_pts = max(2, int(span) + 1)
        cands = [
            (ray, math.exp(math.log(N) * i / (n_pts - 1)), False)
            for ray in _rays(strategies, p)
            for i in range(n_pts)
        ]
    else:
        cands = _candidates(strategies, p, N)
    reports = _reports(strategies, p, cands)
    return [(Target(ray, x), ja, rep) for (ray, x, ja), rep in zip(cands, reports)]


def dense_grid_ratio(
    strategies: Sequence[Strategy],
    p: InstanceParams,
    N: float,
    rel_step: float = 1e-3,
) -> float:
    """Sup of tau(x)/x on a geometric grid, through worst_ratio's sweep: a
    cross-check of its breakpoint enumeration, not of the sweep itself."""
    best = -math.inf
    for _, _, report in sweep_rows(strategies, p, N, dense=True, rel_step=rel_step):
        if report.ratio is not None and report.ratio > best:
            best = report.ratio
    return best
