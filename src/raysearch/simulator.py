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
`dense_grid_ratio` walk each robot's legs once.  That one pass lists
the candidate targets and, per ray, the sweep's items: one at each
record turn, where the robot's first-visit offset 2*elapsed moves on,
and one at each other turn that is a candidate.  After one sort of a
ray's items the sweep answers its targets in increasing x, keeping the
robots' offsets in a sorted list of at most k floats: each record turn
passed costs one removal and one insertion, and each target one lookup.
Asked for visitors, the sweep answers a target with its arrivals instead:
the (time, robot) pairs of the robots that reach it, sorted, which is the
sweep's one statement of the tie rule (two offsets that round to one time
are listed by robot).  `_detected` states tau, the (f+1)-st time, and
tau/x once, for those answers and for `detection_time`.  `_rows` is the
one producer of the sweep CSV's targets and arrivals, with the horizon and
dense-grid checks: `sweep_rows` wraps each answer in a Target and a
DetectionReport, while the CLI formats its lines from the plain answers.
One gate, `strategy._require_strategy_set`, admits the sets of the sweep
and of its reference path alike and names their rays: a target on another
ray is a ValueError in `detection_time`, as a RoundPlan visiting a ray
past m is in the sweep's walk.  `first_visit_time` and `detection_time`
walk the legs from scratch for each target: the reference path the sweep
is tested against, sharing with it only that gate and `strategy._legs`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence, TypeVar

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
    "supremum",
    "sweep_rows",
    "dense_grid_ratio",
]

K = TypeVar("K")
_REL_STEP = 1e-3  # the dense grid's default step in log(x)


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


def _sweep(
    strategies: Sequence[Strategy],
    p: InstanceParams,
    xs: Sequence[float],
    N: float = 1.0,
    visitors: bool = False,
) -> tuple[list[tuple[int, float, bool]], list]:
    """Answer each target from one walk of each robot and one sweep per ray.

    The targets are the probes, each x of xs at x itself on each ray of the
    set, then just past each turn t with 1 <= t < N, at its first
    appearance.  Returns them as (ray, x, just_above) and, for each, its
    ratio (None if undetected) or, with `visitors` set, its arrivals: the
    sorted (time, robot) pairs of the robots that ever reach it.
    """
    rays = _require_strategy_set(strategies, p)
    targets = [(ray, x, False) for ray in rays for x in xs]
    # per ray, (key, i, r, new) items: once x passes key, robot r's
    # first-visit offset 2*elapsed becomes new (None: no visit), or none
    # moves if r = -1; target i >= 0 is answered after its last item.
    # A probe sorts before the turns at its own x: the sort is stable.
    items: dict[int, list[tuple[float, int, int, float | None]]] = {ray: [] for ray in rays}
    for i, (ray, x, _) in enumerate(targets):
        items[ray].append((x, i, -1, None))
    # (ray, turn) -> its target, in order of first appearance
    index: dict[tuple[int, float], int] = {}
    n = len(targets)
    for r, strat in enumerate(strategies):
        # ray -> (top, i): the robot's record turn there and its target
        last: dict[int, tuple[float, int]] = {}
        elapsed = 0.0
        for leg in _legs(strat):
            ray, turn = leg
            try:
                evs = items[ray]
            except KeyError:
                raise _ray_past_m(r, ray, p) from None
            i = index.setdefault(leg, n + len(index)) if 1.0 <= turn < N else -1
            top, j = last.get(ray, (0.0, -1))
            if turn > top:
                # the robot enters at 0 and moves at each record turn
                evs.append((top, j, r, 2.0 * elapsed))
                last[ray] = (turn, i)
            elif i >= 0:
                evs.append((turn, i, -1, None))
            elapsed += turn
        for ray, (top, j) in last.items():
            items[ray].append((top, j, r, None))
    targets += [(ray, x, True) for ray, x in index]
    f = p.f
    answers: list = [None] * len(targets)
    for evs in items.values():
        evs.sort(key=itemgetter(0))  # each robot's items are mostly ascending
        evs.append(_END)
        live: list[float] = []  # the offsets in cur, sorted: live[f] + x is tau
        cur: list[float | None] = [None] * p.k
        i, x = -1, 0.0
        for key, idx, r, new in evs:
            if idx != i:
                # every item of target i is passed, and none after it
                if i >= 0:
                    if visitors:
                        # two offsets can round to one time: sort by (time, robot)
                        answers[i] = sorted(
                            [(off + x, r) for r, off in enumerate(cur) if off is not None]
                        )
                    elif len(live) > f:
                        answers[i] = (live[f] + x) / x
                i, x = idx, key
            if r >= 0:
                old = cur[r]
                if old is not None:
                    del live[bisect_left(live, old)]
                if new is not None:
                    insort(live, new)
                cur[r] = new
    return targets, answers


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
    target is never detected.  N below 1, or NaN, is a ValueError.
    """
    _require_horizon(N)
    targets, ratios = _sweep(strategies, p, (1.0,), N)
    ratio, i = supremum(enumerate(ratios))
    ray, x, _ = targets[i]
    return ratio, Target(ray, x)


def _rows(
    strategies: Sequence[Strategy],
    p: InstanceParams,
    N: float,
    dense: bool = False,
    rel_step: float = _REL_STEP,
) -> tuple[list[tuple[int, float, bool]], list[list[tuple[float, int]]]]:
    """The targets of the sweep CSV, breakpoints or a dense grid, as
    (ray, x, just_above), and each one's sorted (time, robot) arrivals.

    N below 1, or NaN, is a ValueError.
    """
    _require_horizon(N)
    if not dense:
        return _sweep(strategies, p, (1.0,), N, visitors=True)
    if not rel_step > 0.0:
        raise ValueError(f"rel_step must be positive, got {rel_step}")
    span = math.log(N) / rel_step
    if not math.isfinite(span):
        raise ValueError(
            f"rel_step={rel_step!r} too small for N={N!r}: "
            "the dense grid's point count log(N)/rel_step is not finite"
        )
    n_pts = max(2, int(span) + 1)
    grid = [math.exp(math.log(N) * i / (n_pts - 1)) for i in range(n_pts)]
    return _sweep(strategies, p, grid, visitors=True)


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
    targets, arrivals = _rows(strategies, p, N, dense, rel_step)
    f = p.f
    return [
        (Target(ray, x), above, _as_report(times, x, f))
        for (ray, x, above), times in zip(targets, arrivals)
    ]


def dense_grid_ratio(
    strategies: Sequence[Strategy],
    p: InstanceParams,
    N: float,
    rel_step: float = _REL_STEP,
) -> float:
    """Sup of tau(x)/x on a geometric grid, through worst_ratio's sweep: a
    cross-check of its breakpoint enumeration, not of the sweep itself."""
    targets, arrivals = _rows(strategies, p, N, True, rel_step)
    f = p.f
    ratios = (_detected(times, x, f)[1] for (_, x, _), times in zip(targets, arrivals))
    return max((r for r in ratios if r is not None), default=-math.inf)
