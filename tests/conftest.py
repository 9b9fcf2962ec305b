import math
from heapq import heappop, heappush
from operator import itemgetter
from typing import NamedTuple

import pytest

from raysearch import (
    CoverParams,
    DeficientCoverError,
    InstanceParams,
    Witness,
    make_exponential_strategy,
    optimal_alpha,
)
from raysearch import potential


@pytest.fixture
def doubling():
    """The classic single-robot two-ray instance whose optimal base is 2."""
    return InstanceParams(2, 1, 0)


@pytest.fixture
def doubling_strategy(doubling):
    return make_exponential_strategy(doubling, optimal_alpha(doubling), 1e4)


@pytest.fixture
def three_robot():
    """m=2, k=3, f=1: a small faulty instance with ratio about 5.233."""
    return InstanceParams(2, 3, 1)


@pytest.fixture
def cover9():
    return CoverParams(9.0)


def slow_supremum(pairs):
    """Sup of (key, ratio) pairs, a ratio of None meaning undetected: (inf,
    key) at the first undetected key, else the largest ratio with the first
    key that reaches it.

    Once the simulator's public `supremum`: the oracle of the sweep's own
    witness rule, with keys in number order.
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


def advance(state, c):
    """The first step of `potential._replay`, or None where it stops."""
    return next(potential._replay(state, c), None)


def poly_max_point(s, k, mu_star):
    """The maximizer s*mu*/(k+s) of x^s (mu*-x)^k on (0, mu*): the oracle
    of the audit's polynomial floor."""
    return s * mu_star / (k + s)


class CoverRecord(NamedTuple):
    """A cover interval with named fields, in the library's tuple order."""

    robot: int
    round_index: int
    left: float
    right: float


def assert_inside_cover(assigned, covers):
    """Each assigned row is a plain (robot, round_index, left, right) tuple
    inside the cover row of its (robot, round_index): t'' <= t' < t, with
    t kept.  Each (robot, round_index) names one cover row."""
    cover = {(robot, rnd): (left, right) for robot, rnd, left, right in covers}
    assert len(cover) == len(covers)
    for row in assigned:
        assert type(row) is tuple
        robot, rnd, left, right = row
        cover_left, cover_right = cover[robot, rnd]
        assert cover_left <= left < right == cover_right, (row, cover_left, cover_right)


def slow_exact_q_assignment(intervals, q, hi):
    """exact_q_assignment as it was before it kept plain tuples: it reads
    CoverRecord fields by name, builds a (robot, round_index, left, right)
    tuple per interval as it opens, and sorts its pool and its output
    through key tuples.  The oracle of the plain-tuple sweep, with its own
    domain check."""
    if not hi >= 1.0:
        raise ValueError(f"horizon hi must be >= 1, got {hi!r}")
    for iv in intervals:
        if iv.left > iv.right:
            raise ValueError(f"empty cover interval {iv.left} > {iv.right}")
    if q <= 0:
        return []
    out = []
    pool = []
    for iv in intervals:
        if iv.right <= 1.0:
            if iv.left < iv.right:
                out.append(tuple(iv))  # kept whole: t' = t''
        elif iv.left <= 1.0 or iv.left < hi:  # opens at a u that is 1 or below hi
            pool.append(iv)
    pool.sort(key=itemgetter(2, 0, 1))  # (left, robot, round_index)

    nxt = 0  # next pool interval to become available
    # available but not yet opened, as a heap of (right, robot, round, pool
    # index); expired entries (right <= u) are dropped when they reach the top
    avail = []
    opened = []  # heap of the opened intervals' right ends
    u = 1.0
    while True:
        while nxt < len(pool) and pool[nxt].left <= u:
            iv = pool[nxt]
            heappush(avail, (iv.right, iv.robot, iv.round_index, nxt))
            nxt += 1
        while opened and opened[0] <= u:  # the others that close at u
            heappop(opened)
        while avail and avail[0][0] <= u:
            heappop(avail)
        need = q - len(opened)
        if len(avail) < need:
            raise DeficientCoverError(Witness(u, len(opened) + len(avail), q))
        for _ in range(need):
            right, robot, rnd, _ = heappop(avail)
            heappush(opened, right)
            out.append((robot, rnd, u, right))
        u = heappop(opened)  # the next closing
        if u >= hi:
            out.sort(key=itemgetter(2, 0, 1))
            return out
