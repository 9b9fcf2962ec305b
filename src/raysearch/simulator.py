"""Trajectory evaluation and exact worst-case competitive ratios.

The adversary is the deterministic worst case of the crash-fault model:
it places the target and silences the first f distinct robots that walk
over it, so detection happens at the (f+1)-st distinct first-visit.

Between consecutive turning distances the detection time has the form
c + x with c constant, hence tau(x)/x is decreasing on every piece and
the supremum over [1, N] is attained at x = 1 or just above a turning
distance.  `worst_ratio` enumerates exactly those breakpoints;
`dense_grid_ratio` is the brute-force oracle used to cross-check it.

A robot first reaches (ray, x) on the first excursion to that ray whose
turn is at least x, so only the turns that raise the running maximum on
a ray can be first visits.  `worst_ratio` and `sweep_rows` (and through
it `dense_grid_ratio`) build, once per query, an index of those turns per
robot and ray, and answer each first visit with one bisection: a query
over R rounds in all costs O(R) to index and O(k log R) per target,
instead of O(k R) per target.  `first_visit_time` and `detection_time`
walk the rounds from scratch; they are the reference path the index is
tested against.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import cycle
from typing import Iterable, Sequence, TypeVar

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


class _VisitIndex:
    """Every robot's first visits, answered by bisection.

    Per robot and ray it keeps the turns that raise the running maximum
    on that ray, with the time elapsed before each, summed in walking
    order exactly as `first_visit_time` sums it.  Only such a turn can be
    a first visit, so the first visit of (ray, x) is the first of them
    that reaches x (passes it, for just_above), at 2*elapsed + x.
    """

    def __init__(self, strategies: Sequence[Strategy], p: InstanceParams) -> None:
        if len(strategies) != p.k:
            raise ValueError(f"expected {p.k} strategies, got {len(strategies)}")
        self.f = p.f
        self.line = any(isinstance(s, TurnSequence) for s in strategies)
        # per ray: (robot, its turns on the ray that raise the running
        # maximum, the time elapsed before each), in robot order
        self.by_ray: dict[int, list[tuple[int, list[float], list[float]]]] = {}
        for r, strat in enumerate(strategies):
            maxima: dict[int, tuple[list[float], list[float]]] = {}
            elapsed = 0.0
            for ray, turn in _legs(strat):
                turns, before = maxima.setdefault(ray, ([], []))
                if turn > (turns[-1] if turns else 0.0):
                    turns.append(turn)
                    before.append(elapsed)
                elapsed += turn
            for ray, (turns, before) in maxima.items():
                self.by_ray.setdefault(ray, []).append((r, turns, before))

    def arrivals(self, ray: int, x: float, just_above: bool) -> list[tuple[float, int]]:
        """Sorted (time, robot) first visits, as `detection_time` sorts them."""
        if self.line and ray not in (1, -1):
            raise ValueError("line targets use ray=+1 or ray=-1")
        find = bisect_right if just_above else bisect_left
        out = [
            (2.0 * before[i] + x, r)
            for r, turns, before in self.by_ray.get(ray, ())
            if (i := find(turns, x)) < len(turns)
        ]
        out.sort()
        return out

    def report(self, target: Target, just_above: bool) -> DetectionReport:
        """`detection_time` of the target, from the index."""
        arrivals = self.arrivals(target.ray, target.x, just_above)
        visitors = tuple((r, t) for t, r in arrivals)
        if len(arrivals) <= self.f:
            return DetectionReport(None, visitors, None)
        tau = arrivals[self.f][0]
        return DetectionReport(tau, visitors, tau / target.x)


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
    index = _VisitIndex(strategies, p)
    f = p.f

    def ratios():
        for ray, x, just_above in cands:
            arrivals = index.arrivals(ray, x, just_above)
            yield (ray, x), (arrivals[f][0] / x if len(arrivals) > f else None)

    ratio, (ray, x) = supremum(ratios())
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
        n_pts = max(2, int(math.log(N) / rel_step) + 1)
        cands = [
            (ray, math.exp(math.log(N) * i / (n_pts - 1)), False)
            for ray in _rays(strategies, p)
            for i in range(n_pts)
        ]
    else:
        cands = _candidates(strategies, p, N)
    targets = [(Target(ray, x), just_above) for ray, x, just_above in cands]
    index = _VisitIndex(strategies, p)
    return [(tgt, ja, index.report(tgt, ja)) for tgt, ja in targets]


def dense_grid_ratio(
    strategies: Sequence[Strategy],
    p: InstanceParams,
    N: float,
    rel_step: float = 1e-3,
) -> float:
    """Brute-force sup of tau(x)/x on a geometric grid; oracle for worst_ratio."""
    best = -math.inf
    for _, _, report in sweep_rows(strategies, p, N, dense=True, rel_step=rel_step):
        if report.ratio is not None and report.ratio > best:
            best = report.ratio
    return best
