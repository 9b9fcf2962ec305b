import math
from bisect import bisect_left, bisect_right
from heapq import heappop, heappush
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from raysearch import (
    CoverParams,
    DeficientCoverError,
    InstanceParams,
    RoundPlan,
    Witness,
    all_cover_intervals,
    exact_q_assignment,
    make_exponential_strategy,
    optimal_alpha,
    verify_multicover,
)

from conftest import CoverRecord, assert_inside_cover, slow_exact_q_assignment


def _doubling_strategy(hi=1e3):
    p = InstanceParams(2, 1, 0)
    return make_exponential_strategy(p, optimal_alpha(p), hi)


def civ(left, right, robot=0, idx=0):
    return CoverRecord(robot=robot, round_index=idx, left=left, right=right)


class TestVerifyMulticover:
    def test_single_fold_passes(self):
        ivs = [civ(1.0, 2.0), civ(1.5, 3.0, idx=1)]
        assert verify_multicover(ivs, 1, 3.0) is None

    def test_leftmost_deficiency_wins(self):
        ivs = [civ(1.0, 2.0), civ(1.5, 3.0, idx=1)]
        w = verify_multicover(ivs, 2, 3.0)
        assert w is not None
        assert w.point == pytest.approx(1.0)
        assert (w.multiplicity_found, w.multiplicity_required) == (1, 2)

    def test_gap_between_intervals(self):
        ivs = [civ(1.0, 2.0), civ(2.5, 4.0, idx=1)]
        w = verify_multicover(ivs, 1, 4.0)
        assert w is not None
        # the hole is the open segment just past 2, reported at its start
        assert 2.0 <= w.point <= 2.5
        assert w.multiplicity_found == 0

    def test_empty_input(self):
        w = verify_multicover([], 1, 10.0)
        assert w is not None and w.multiplicity_found == 0

    def test_horizon_truncates_the_check(self):
        ivs = [civ(0.5, 5.0)]
        assert verify_multicover(ivs, 1, 5.0) is None
        assert verify_multicover(ivs, 1, 6.0) is not None


class TestExactAssignment:
    def _doubling_covers(self, hi=1e3):
        return all_cover_intervals(_doubling_strategy(hi), CoverParams(9.0))

    def _doubling_assigned(self, hi=1e3):
        return exact_q_assignment(self._doubling_covers(hi), 2, hi)

    def test_doubling_truncation(self):
        assigned = self._doubling_assigned()
        # Boundary coverings stay whole; past 1 each interval is cut at
        # the previous closure so every point carries exactly two folds.
        assert [left for _, _, left, _ in assigned[:6]] == pytest.approx(
            [0.0, 0.125, 1.0, 1.0, 2.0, 4.0], rel=1e-9, abs=1e-12
        )
        assert [right for _, _, _, right in assigned[:6]] == pytest.approx(
            [0.5, 1.0, 2.0, 4.0, 8.0, 16.0], rel=1e-9
        )

    def test_exact_multiplicity_everywhere(self):
        assigned = self._doubling_assigned()
        xs = [1.0 + (i + 1) * (998.0 / 97) for i in range(97)]
        for x in xs:
            folds = sum(1 for _, _, left, right in assigned if left < x <= right)
            assert folds == 2, x

    def test_truncation_never_widens(self):
        # the t'' of a row is the left end of its cover row, which it lies in
        assert_inside_cover(self._doubling_assigned(), self._doubling_covers())

    @pytest.mark.parametrize("q", [0, -1])
    def test_no_folds_assign_nothing(self, q):
        # a boundary interval is kept only for the loads of an audit, and
        # multiplicity 0 has none: not even it is assigned
        ivs = [civ(0.25, 0.5), civ(0.5, 4.0, idx=1)]
        assert exact_q_assignment(ivs, q, 4.0) == []

    def test_deficient_cover_is_rejected(self):
        ivs = [civ(0.5, 2.0)]
        with pytest.raises(DeficientCoverError):
            exact_q_assignment(ivs, 2, 2.0)


class TestHorizon:
    # the domain is (1, hi]: hi below 1 or NaN is no horizon, while hi = 1
    # (checked just above 1 alone) and hi = inf are
    @pytest.mark.parametrize("hi", [math.nan, 0.5, -math.inf])
    @pytest.mark.parametrize("entry", [verify_multicover, exact_q_assignment])
    def test_below_one_or_nan_is_rejected(self, entry, hi):
        # unchecked, the doubling cover at lambda 9.5 reported a hole at 1;
        # the message names the parameter as these entries call it, hi
        ivs = all_cover_intervals(_doubling_strategy(), CoverParams(9.5))
        with pytest.raises(ValueError, match=rf"^horizon hi must be >= 1, got {hi!r}$"):
            entry(ivs, 2, hi)

    @pytest.mark.parametrize("lam, hole", [(5.0, Witness(1.0, 1, 2)), (9.0, None)])
    def test_a_cover_past_one_passes_at_one(self, lam, hole):
        # (1, 1] is the limit of (1, 1 + eps]: an interval that starts at 1
        # covers just above it, at hi = 1 as at any hi past 1
        plan = RoundPlan(((1, 1.0), (2, 1.0), (1, 2.0), (2, 2.0), (1, 4.0), (2, 4.0)))
        ivs = all_cover_intervals([plan], CoverParams(lam))
        assert any(left == 1.0 for _, _, left, _ in ivs)
        for hi in (1.0, math.nextafter(1.0, 2.0), 1.5):
            assert verify_multicover(ivs, 2, hi) == hole
            if hole is None:
                assert exact_q_assignment(ivs, 2, hi)
            else:
                with pytest.raises(DeficientCoverError):
                    exact_q_assignment(ivs, 2, hi)

    def test_inf_is_accepted(self):
        # no end to the domain: the first hole above 1 is the answer
        ivs = [civ(0.5, 2.0), civ(0.9, 3.0, idx=1)]
        assert verify_multicover(ivs, 2, math.inf) == Witness(2.0, 1, 2)
        with pytest.raises(DeficientCoverError, match=r"^coverage 0 < 1 at 3.0$"):
            exact_q_assignment(ivs, 1, math.inf)


class TestReversedInterval:
    # a cover interval is a plain tuple; cover checks the order on entry
    def _intervals(self):
        return [civ(1.0, 2.0), civ(3.0, 2.5, idx=1), civ(2.0, 4.0, idx=2)]

    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_verify_rejects_it(self, q):
        ivs = self._intervals()
        with pytest.raises(ValueError, match="empty cover interval 3.0 > 2.5"):
            verify_multicover(ivs, q, 4.0)

    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_assignment_rejects_it(self, q):
        ivs = self._intervals()
        with pytest.raises(ValueError, match="empty cover interval 3.0 > 2.5"):
            exact_q_assignment(ivs, q, 4.0)

    def test_zero_length_interval_is_accepted(self):
        ivs = [civ(1.0, 2.0), civ(2.0, 2.0, idx=1)]
        assert verify_multicover(ivs, 1, 2.0) is None
        assert exact_q_assignment(ivs, 1, 2.0)


# endpoints from a small grid touch each other and the boundary 1
_ENDPOINT = st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 5.0]), st.floats(0.1, 50.0))


@given(st.lists(st.tuples(_ENDPOINT, _ENDPOINT), min_size=1, max_size=12))
def test_assignment_preserves_exactness(spans):
    # zero-length intervals (a == b) included
    ivs = [
        civ(min(a, b), max(a, b), robot=i % 3, idx=i)
        for i, (a, b) in enumerate(spans)
    ]
    hi = max(iv.right for iv in ivs)
    if hi < 1.0:
        # every span at or below 1: no horizon of the domain (1, hi]
        for entry in (verify_multicover, exact_q_assignment):
            with pytest.raises(ValueError, match=r"^horizon hi must be >= 1, got "):
                entry(ivs, 1, hi)
        return
    probes = [1.0 + (hi - 1.0) * j / 37 for j in range(1, 37)]
    for q in range(1, 5):
        witness = verify_multicover(ivs, q, hi)
        if witness is not None:
            # the assignment sweep finds the verifier's leftmost witness
            with pytest.raises(DeficientCoverError) as err:
                exact_q_assignment(ivs, q, hi)
            assert err.value.witness == witness
            continue
        assigned = exact_q_assignment(ivs, q, hi)
        for x in probes:
            folds = sum(1 for _, _, left, right in assigned if left < x <= right)
            assert folds == q


def _list_assignment(intervals, q, hi):
    """exact_q_assignment as it was before it stopped only at closings: it
    walks every endpoint in (1, hi), and rebuilds its opened intervals in
    a list at each one.  The slow reference for the closing sweep."""
    if q <= 0:
        return []
    out = []
    pool = []
    for iv in intervals:
        if iv.right <= 1.0:
            if iv.left < iv.right:
                out.append((iv.robot, iv.round_index, iv.left, iv.right))
        else:
            pool.append(iv)
    pool.sort(key=lambda iv: (iv.left, iv.robot, iv.round_index))
    mids = sorted({v for iv in pool for v in (iv.left, iv.right) if 1.0 < v < hi})
    points = [1.0] + mids + [hi]
    nxt = 0
    avail = []
    opened = []  # (interval, t')
    for u, v in zip(points, points[1:]):
        while nxt < len(pool) and pool[nxt].left <= u:
            iv = pool[nxt]
            heappush(avail, (iv.right, iv.robot, iv.round_index, nxt))
            nxt += 1
        still = []
        for iv, t_prime in opened:
            if iv.right >= v:
                still.append((iv, t_prime))
            else:
                out.append((iv.robot, iv.round_index, t_prime, iv.right))
        opened = still
        need = q - len(opened)
        if need > 0:
            while avail and avail[0][0] < v:
                heappop(avail)
            if len(avail) < need:
                raise DeficientCoverError(Witness(u, len(opened) + len(avail), q))
            for _ in range(need):
                opened.append((pool[heappop(avail)[3]], u))
    for iv, t_prime in opened:
        out.append((iv.robot, iv.round_index, t_prime, iv.right))
    out.sort(key=itemgetter(2, 0, 1))  # (left, robot, round_index)
    return out


def _assignment_or_witness(assign, ivs, q, hi):
    try:
        return assign(ivs, q, hi)
    except DeficientCoverError as exc:
        return exc.witness


# a coarse grid gives tied right endpoints, zero-length intervals and
# intervals ending at or below 1; repeating the spans gives exact ties and
# enough folds for q above 1; hi None stands for the largest right end
_GRID_ENDPOINT = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0]), st.floats(0.1, 50.0)
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_GRID_ENDPOINT, _GRID_ENDPOINT), min_size=1, max_size=16),
    st.integers(1, 6),
    st.integers(1, 6),
    st.one_of(st.none(), st.sampled_from([1.5, 2.0, 5.0]), st.floats(1.0, 80.0)),
)
def test_heap_sweep_matches_the_list_sweep(spans, q, copies, hi):
    ivs = [
        civ(min(a, b), max(a, b), robot=i % 4, idx=i)
        for i, (a, b) in enumerate(spans * copies)
    ]
    if hi is None:
        hi = max(iv.right for iv in ivs)
    if hi < 1.0:
        with pytest.raises(ValueError, match=r"^horizon hi must be >= 1, got "):
            exact_q_assignment(ivs, q, hi)
        return
    got = _assignment_or_witness(exact_q_assignment, ivs, q, hi)
    assert got == _assignment_or_witness(_list_assignment, ivs, q, hi)
    if isinstance(got, list):
        # the stream contract the audit reads without sorting again
        keys = [(left, robot, rnd) for robot, rnd, left, _ in got]
        assert keys == sorted(keys)
        assert_inside_cover(got, ivs)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_GRID_ENDPOINT, _GRID_ENDPOINT), min_size=1, max_size=16),
    st.integers(1, 4),
    st.one_of(st.none(), st.sampled_from([1.0, 2.0, 5.0, math.inf])),
)
def test_repeated_keys_give_the_same_multiset(spans, q, hi):
    # two robots, two rounds each: most keys repeat, and intervals with
    # one key may open at one point, where their order is not specified;
    # the witness is the same, or the same multiset in stream order
    ivs = [
        civ(min(a, b), max(a, b), robot=i % 2, idx=i // 2 % 2)
        for i, (a, b) in enumerate(spans * 2)
    ]
    if hi is None:
        hi = max(1.0, max(iv.right for iv in ivs))
    got = _assignment_or_witness(exact_q_assignment, ivs, q, hi)
    want = _assignment_or_witness(_list_assignment, ivs, q, hi)
    if isinstance(want, list):
        keys = [(left, robot, rnd) for robot, rnd, left, _ in got]
        assert sorted(got) == sorted(want) and keys == sorted(keys)
    else:
        assert got == want


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_GRID_ENDPOINT, _GRID_ENDPOINT), min_size=1, max_size=16),
    st.integers(1, 4),
    st.integers(0, 5),
    st.one_of(st.none(), st.sampled_from([1.0, 1.5, 2.0, 5.0, math.inf]), st.floats(1.0, 80.0)),
)
def test_plain_rows_give_the_oracles_answer(spans, copies, q, hi):
    # repeated spans on other robots tie their lefts across robots; the grid
    # gives right ends at or below 1, a small hi leaves lefts past it, and a
    # large q a deficient cover.  Each (robot, round_index) is distinct, so
    # the stream order is fully specified, and the answer is the oracle's
    # whether the intervals come as named records or as plain tuples
    ivs = [
        civ(min(a, b), max(a, b), robot=i % 4, idx=i)
        for i, (a, b) in enumerate(spans * copies)
    ]
    if hi is None:
        hi = max(1.0, max(iv.right for iv in ivs))
    want = _assignment_or_witness(slow_exact_q_assignment, ivs, q, hi)
    rows = [tuple(iv) for iv in ivs]
    assert all(type(row) is tuple for row in rows)
    for given_ivs in (ivs, rows):
        got = _assignment_or_witness(exact_q_assignment, given_ivs, q, hi)
        assert got == want
        if isinstance(want, list):
            assert all(type(iv) is tuple for iv in got)
        witness = verify_multicover(given_ivs, q, hi)
        assert witness == (want if isinstance(want, Witness) else None)


def test_plain_rows_keep_the_entry_checks():
    # a reversed interval and a horizon below 1, given as plain tuples
    for entry in (verify_multicover, exact_q_assignment):
        with pytest.raises(ValueError, match=r"^empty cover interval 3\.0 > 2\.0$"):
            entry([(0, 0, 1.0, 2.0), (1, 0, 3.0, 2.0)], 1, 2.0)
        with pytest.raises(ValueError, match=r"^horizon hi must be >= 1, got 0\.5$"):
            entry([(0, 0, 1.0, 2.0)], 1, 0.5)


class TestClosingStops:
    # the sweep stops at 1 and at each closing below hi; these inputs put a
    # stop where a left end, several closings, a dead interval or hi meet it
    @staticmethod
    def _both(ivs, q, hi):
        got = _assignment_or_witness(exact_q_assignment, ivs, q, hi)
        assert got == _assignment_or_witness(_list_assignment, ivs, q, hi)
        if isinstance(got, Witness):
            assert verify_multicover(ivs, q, hi) == got
        else:
            assert verify_multicover(ivs, q, hi) is None
        return got

    def test_deficiency_at_a_closing_that_is_also_a_left_end(self):
        # three folds close at 2, where the only fresh interval starts:
        # the multiplicity just above 2 is 1, and it counts that interval
        ivs = [civ(1.0, 2.0, robot=r) for r in range(3)] + [civ(2.0, 5.0, robot=3)]
        assert self._both(ivs, 3, 5.0) == Witness(2.0, 1, 3)
        # three fresh intervals starting at 2 take over the three folds
        ivs += [civ(2.0, 6.0, robot=4), civ(2.0, 7.0, robot=5)]
        assigned = self._both(ivs, 3, 5.0)
        assert [(robot, left, right) for robot, _, left, right in assigned] == [
            (0, 1.0, 2.0), (1, 1.0, 2.0), (2, 1.0, 2.0),
            (3, 2.0, 5.0), (4, 2.0, 6.0), (5, 2.0, 7.0),
        ]

    @pytest.mark.parametrize(
        "extra, want",
        [
            ([], Witness(3.0, 1, 3)),
            ([civ(2.0, 6.0, robot=5), civ(2.5, 7.0, robot=6)], None),
        ],
    )
    def test_several_close_at_one_point(self, extra, want):
        # three opened folds close together at 3; one interval that also
        # ends at 3 is available there but dead, and only [2, 5] is fresh
        ivs = [civ(1.0, 3.0, robot=r) for r in range(3)]
        ivs += [civ(1.5, 3.0, robot=3), civ(2.0, 5.0, robot=4), *extra]
        got = self._both(ivs, 3, 5.0)
        if want is not None:
            assert got == want
            return
        # the three fresh intervals open at 3, none of them at its own left
        assert got[3:] == [(4, 0, 3.0, 5.0), (5, 0, 3.0, 6.0), (6, 0, 3.0, 7.0)]
        cover_left = {iv.robot: iv.left for iv in ivs}
        assert [cover_left[robot] for robot, _, _, _ in got[3:]] == [2.0, 2.0, 2.5]

    def test_hi_at_a_closing_right_end(self):
        # both folds close at 2: at hi = 2 that is the end of the domain,
        # past it the whole multiplicity is gone at once
        ivs = [civ(0.5, 2.0, robot=0), civ(0.9, 2.0, robot=1)]
        assert self._both(ivs, 2, 2.0) == [(0, 0, 1.0, 2.0), (1, 0, 1.0, 2.0)]
        assert self._both(ivs, 2, 3.0) == Witness(2.0, 0, 2)

    @pytest.mark.parametrize(
        "hi, want",
        [
            (
                1.0,
                [(2, 0, 0.25, 0.5), (0, 0, 1.0, 2.0), (1, 0, 1.0, 2.0)],
            ),
            (math.inf, Witness(2.0, 0, 2)),
        ],
    )
    def test_the_ends_of_the_horizon(self, hi, want):
        # hi = 1 stops at 1 alone; hi = inf runs until the folds run out
        ivs = [civ(0.5, 2.0, robot=0), civ(0.9, 2.0, robot=1), civ(0.25, 0.5, robot=2)]
        assert self._both(ivs, 2, hi) == want


def _point_check_verify(intervals, half_open, q, hi):
    """verify_multicover with its former point check and closed/half-open
    split, half_open[i] telling whether intervals[i] is (left, right]
    rather than [left, right]: the slow reference."""
    if q <= 0:
        return None
    live = [(iv, o) for iv, o in zip(intervals, half_open, strict=True) if iv[3] > 1.0]
    if not live:
        return Witness(1.0, 0, q)
    closed_starts = sorted(iv[2] for iv, o in live if not o)
    open_starts = sorted(iv[2] for iv, o in live if o)
    ends = sorted(iv[3] for iv, _ in live)

    def seg_mult(u):
        return (
            bisect_right(closed_starts, u)
            + bisect_right(open_starts, u)
            - bisect_right(ends, u)
        )

    def point_mult(v):
        return (
            bisect_right(closed_starts, v)
            + bisect_left(open_starts, v)
            - bisect_left(ends, v)
        )

    mids = sorted({v for iv, _ in live for v in (iv[2], iv[3]) if 1.0 < v < hi})
    points = [1.0] + mids + [hi]
    for u, v in zip(points, points[1:]):
        m_seg = seg_mult(u)
        if m_seg < q:
            return Witness(u, m_seg, q)
        m_pt = point_mult(v)
        if v > 1.0 and m_pt < q:  # the floor 1 is no point of (1, hi]
            return Witness(v, m_pt, q)
    return None


# per span: closed, half-open, or either at random (mixed sets)
_KIND = st.sampled_from(["closed", "half_open"])


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.tuples(_GRID_ENDPOINT, _GRID_ENDPOINT, _KIND), max_size=16),
    st.integers(0, 2),
    st.integers(-1, 5),
    st.one_of(
        st.none(),
        st.sampled_from([0.25, 1.0, 1.5, 2.0, 5.0, 1e3]),
        st.floats(0.1, 80.0),
    ),
)
def test_scan_matches_the_point_check(spans, copies, q, hi):
    # zero-length spans, ends at or below 1, hi below 1, at 1 and past
    # every end (None: the largest right end) all occur; a hi below 1 is
    # no horizon of (1, hi]
    ivs = [
        (i % 3, i, min(a, b), max(a, b)) for i, (a, b, _) in enumerate(spans * copies)
    ]
    half_open = [kind == "half_open" for _, _, kind in spans * copies]
    if hi is None:
        hi = max((right for _, _, _, right in ivs), default=2.0)
    if hi < 1.0:
        with pytest.raises(ValueError, match=r"^horizon hi must be >= 1, got "):
            verify_multicover(ivs, q, hi)
        return
    assert verify_multicover(ivs, q, hi) == _point_check_verify(ivs, half_open, q, hi)
