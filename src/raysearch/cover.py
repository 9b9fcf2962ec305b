"""Multicover verification and exact-multiplicity interval assignment.

The search domain is distances of at least 1, so every check here runs
over (1, hi]; the floor 1 is fixed, not a parameter.  Both entry points
reject a horizon hi below 1 or NaN and a reversed cover interval (left >
right) with ValueError.  hi = inf passes, and so does hi = 1, which
checks the multiplicity just above 1 alone: a cover of (1, hi] passes
there for every hi down to 1.
`verify_multicover` reports the leftmost point of (1, hi] whose coverage
multiplicity falls short, from the one multiplicity scan that
`potential.covering_situation` reads as well.
`exact_q_assignment` verifies and truncates in one sweep: it reports the
same leftmost witness, or truncates the cover intervals [t'', t] to
half-open assigned intervals (t', t], t'' <= t' < t, so that every point
of (1, hi] is covered *exactly* q times.  Truncation keeps waiting the
intervals with the largest right endpoints (they keep contributing
farther right); skipped intervals disappear entirely.  The waiting and
the opened intervals live in two heaps keyed by right endpoint; the
sweep stops at 1 and at each closing, the top of the opened heap, since
coverage can fall nowhere else.

Intervals whose right endpoint sits at or below the floor 1 are kept
untruncated: they carry their turning distance into the robot loads
without covering anything above the boundary.

Both entries read a cover interval by position, as the plain
(robot, round_index, left, right) tuple `strategy.cover_intervals` makes;
`verify_multicover` reads the first four fields of an AssignedInterval
the same way.  The assignment keeps plain tuples throughout:
(left, robot, round_index, right) pool rows and (left, robot,
round_index, right, cover_left) output rows, each sorted as it stands,
and one AssignedInterval per output row, built in stream order at the end.

The assignment is the stream the potential audit replays, sorted once by
(left, robot, round_index); every interval has t'' <= t' < t by
construction.  `_check_stream` holds a stream to that contract in one
pass; the entries that read a stream from outside, `initial_state` and
`detect_gap`, run it on their input.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterator, NamedTuple, Sequence

from .strategy import _CoverRow, _require_horizon

__all__ = [
    "AssignedInterval",
    "Witness",
    "DeficientCoverError",
    "verify_multicover",
    "exact_q_assignment",
]


class AssignedInterval(NamedTuple):
    """Half-open (left, right] retained after truncation to exact multiplicity."""

    robot: int
    round_index: int
    left: float
    right: float
    cover_left: float  # the t'' of the cover interval this came from


@dataclass(frozen=True)
class Witness:
    """A point whose coverage multiplicity falls short of the requirement."""

    point: float
    multiplicity_found: int
    multiplicity_required: int


class DeficientCoverError(Exception):
    def __init__(self, witness: Witness):
        self.witness = witness
        super().__init__(
            f"coverage {witness.multiplicity_found} < {witness.multiplicity_required}"
            f" at {witness.point}"
        )


def _require_domain(intervals: Sequence[_CoverRow | AssignedInterval], hi: float) -> None:
    _require_horizon(hi, "hi")
    for iv in intervals:  # (robot, round_index, left, right, ...)
        if iv[2] > iv[3]:
            raise ValueError(f"empty cover interval {iv[2]} > {iv[3]}")


def _check_stream(assigned: Sequence[AssignedInterval]) -> None:
    """ValueError naming the first index where t'' <= t' < t fails or the
    key (left, robot, round_index) decreases; equal keys are allowed."""
    prev = ()
    for i, (robot, rnd, left, right, cover_left) in enumerate(assigned):
        if not cover_left <= left < right:
            raise ValueError(
                f"assigned interval {i}: need t'' <= t' < t,"
                f" got {cover_left}, {left}, {right}"
            )
        key = (left, robot, rnd)
        if key < prev:
            raise ValueError(
                f"assigned interval {i}: key {key} < {prev}: not in stream order"
            )
        prev = key


def _multiplicity_scan(
    intervals: Sequence[_CoverRow | AssignedInterval],
) -> Iterator[tuple[float, int]]:
    """(u, multiplicity just above u) at u = 1 and at each distinct right
    end above 1, ascending, over the intervals that end above 1.

    Segments decide: an interval live on a segment (u, v) between
    consecutive endpoints has left <= u and right >= v, so it contains v,
    closed or half-open.  Multiplicity falls only at a right end, so the
    leftmost deficient segment starts at 1 or at a right end.
    """
    live = [iv for iv in intervals if iv[3] > 1.0]  # (robot, round_index, left, right, ...)
    starts = sorted(iv[2] for iv in live)
    ends = sorted(iv[3] for iv in live)
    for u in [1.0, *sorted(set(ends))]:
        yield u, bisect_right(starts, u) - bisect_right(ends, u)


def verify_multicover(
    intervals: Sequence[_CoverRow | AssignedInterval], q: int, hi: float
) -> Witness | None:
    """None if every point of (1, hi] has multiplicity >= q, else the
    leftmost deficient segment, reported at its left end: 1 or a right
    end below hi.  Half-open intervals are read the same way."""
    _require_domain(intervals, hi)
    if q <= 0:
        return None
    for u, m in _multiplicity_scan(intervals):
        if u > 1.0 and u >= hi:
            break
        if m < q:
            return Witness(u, m, q)
    return None


def exact_q_assignment(
    intervals: Sequence[_CoverRow], q: int, hi: float
) -> list[AssignedInterval]:
    """Truncate a >= q-fold cover of (1, hi] to exact multiplicity q.

    The sweep is also the cover check.  It stops at u = 1 and then only
    where an opened interval closes, below hi: coverage falls nowhere
    else.  At a stop, the opened and the unexpired available intervals
    are those with left <= u < right, so their count is the multiplicity
    `verify_multicover` reports just above u, and a shortfall raises
    DeficientCoverError with the same leftmost witness.  Otherwise the
    available intervals with the smallest right ends open, at t' = u.
    Equal (left, robot, round_index) keys, which need a repeated
    (robot, round_index), come in no specified order.
    """
    _require_domain(intervals, hi)
    if q <= 0:
        return []
    # (left, robot, round_index, right, cover_left) rows: sorted as they
    # stand, they are in stream order
    out: list[tuple[float, int, int, float, float]] = []
    # boundary intervals: no coverage above 1, but their turning distances
    # still belong to the robot loads of the potential argument
    pool: list[tuple[float, int, int, float]] = []  # (left, robot, round_index, right)
    for robot, rnd, left, right in intervals:
        if right <= 1.0:
            if left < right:
                out.append((left, robot, rnd, right, left))  # kept whole: t' = t''
        elif left <= 1.0 or left < hi:  # opens at a u that is 1 or below hi
            pool.append((left, robot, rnd, right))
    pool.sort()

    nxt, end = 0, len(pool)  # the next pool interval to become available
    # available but not yet opened, as a heap of (right, robot, round, t'');
    # expired entries (right <= u) are dropped when they reach the top
    avail: list[tuple[float, int, int, float]] = []
    opened: list[float] = []  # heap of the opened intervals' right ends
    u = 1.0
    while True:
        while nxt < end and pool[nxt][0] <= u:
            left, robot, rnd, right = pool[nxt]
            heappush(avail, (right, robot, rnd, left))
            nxt += 1
        while opened and opened[0] <= u:  # the others that close at u
            heappop(opened)
        while avail and avail[0][0] <= u:
            heappop(avail)
        need = q - len(opened)
        if len(avail) < need:
            raise DeficientCoverError(Witness(u, len(opened) + len(avail), q))
        for _ in range(need):
            right, robot, rnd, cover_left = heappop(avail)
            heappush(opened, right)
            out.append((u, robot, rnd, right, cover_left))
        u = heappop(opened)  # the next closing
        if u >= hi:
            out.sort()
            # what AssignedInterval(...) builds, without its Python-level __new__
            new = tuple.__new__
            return [
                new(AssignedInterval, (robot, rnd, left, right, cover_left))
                for left, robot, rnd, right, cover_left in out
            ]
