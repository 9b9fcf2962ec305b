import math
import random
import re
from bisect import bisect_left, insort
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from raysearch import (
    CoverParams,
    InstanceParams,
    RoundPlan,
    Target,
    TurnSequence,
    all_cover_intervals,
    dense_grid_ratio,
    detection_time,
    first_visit_time,
    make_exponential_strategy,
    make_geometric_line_strategy,
    optimal_alpha,
    refute,
    sweep_rows,
    worst_ratio,
)
from raysearch import simulator
from raysearch.simulator import _detected, _rows, _sweep
from raysearch.strategy import _legs, _ray_past_m as _past_m_error, _require_strategy_set

from conftest import assert_inside_cover, slow_supremum


class TestFirstVisit:
    def test_doubling_unit_target(self, doubling_strategy):
        # Rounds 0.5, 1 precede the first ray-1 excursion past x = 1,
        # so the visit lands at 2*(0.5+1) + 1 = 4.
        t = first_visit_time(doubling_strategy[0], Target(1, 1.0))
        assert t == pytest.approx(4.0)

    def test_just_above_skips_the_exact_turn(self, doubling_strategy):
        plan = doubling_strategy[0]
        at = first_visit_time(plan, Target(1, 2.0))
        above = first_visit_time(plan, Target(1, 2.0), just_above=True)
        # Strictly past the turn at 2 the robot only returns much later.
        assert above > at

    def test_line_target_side(self):
        t = TurnSequence((1.0, 2.0, 4.0))
        # Negative side is explored on the second leg.
        assert first_visit_time(t, Target(-1, 1.0)) == pytest.approx(2 * 1.0 + 1.0)
        assert first_visit_time(t, Target(1, 1.0)) == pytest.approx(1.0)
        # mirrored, the robot goes negative first and positive second
        mirrored = TurnSequence((1.0, 2.0, 4.0), first_positive=False)
        assert first_visit_time(mirrored, Target(-1, 1.0)) == 1.0
        assert first_visit_time(mirrored, Target(1, 1.0)) == 3.0
        assert first_visit_time(mirrored, Target(1, 2.0), just_above=True) is None
        assert first_visit_time(mirrored, Target(-1, 2.0)) == 8.0

    def test_a_non_strategy_is_a_type_error(self):
        # a bare list of (ray, turn) pairs passes the set rule, as no
        # TurnSequence is among them, and fails in the walk
        with pytest.raises(TypeError, match=r"^unsupported strategy type <class 'list'>$"):
            worst_ratio([[(1, 2.0)]], InstanceParams(2, 1, 0), 10.0)
        with pytest.raises(TypeError, match=r"^unsupported strategy type <class 'list'>$"):
            first_visit_time([(1, 2.0)], Target(1, 1.0))

    @pytest.mark.parametrize("ray", [2, 0])
    def test_line_target_needs_a_sign(self, ray):
        with pytest.raises(ValueError, match=r"^line targets use ray=\+1 or ray=-1$"):
            first_visit_time(TurnSequence((1.0, 2.0)), Target(ray, 1.0))

    def test_unreached_target_has_no_time(self):
        t = TurnSequence((1.0, 2.0))
        assert first_visit_time(t, Target(1, 50.0)) is None


class TestDetection:
    def test_faults_silence_early_visitors(self):
        straight = TurnSequence((100.0,))
        slow = TurnSequence((0.5, 0.6, 100.0))
        p = InstanceParams(2, 2, 1)
        arrivals = detection_time([straight, slow], p, Target(1, 2.0))
        # The straight robot arrives at 2 but may be faulty; detection
        # waits for the second robot at 2*(0.5+0.6) + 2 = 4.2.
        assert arrivals == [(2.0, 0), (pytest.approx(4.2), 1)]
        assert _detected(arrivals, 2.0, p.f) == (pytest.approx(4.2), pytest.approx(2.1))

    def test_no_quorum_means_no_detection(self):
        straight = TurnSequence((100.0,))
        p = InstanceParams(2, 2, 1)
        arrivals = detection_time([straight, straight], p, Target(-1, 2.0))
        assert arrivals == []
        assert _detected(arrivals, 2.0, p.f) == (None, None)

    @pytest.mark.parametrize("ray", [0, -1, 3])
    def test_a_target_off_the_round_plans_rays_is_rejected(
        self, doubling, doubling_strategy, ray
    ):
        # it used to be reported undetected, as if the robots had missed it
        message = rf"^target on ray {ray}, but the set searches rays \(1, 2\)$"
        with pytest.raises(ValueError, match=message):
            detection_time(doubling_strategy, doubling, Target(ray, 2.0))

    @pytest.mark.parametrize("ray", [0, 2])
    def test_a_target_off_the_line_is_rejected(self, ray):
        line = [TurnSequence((1.0, 2.0, 4.0))]
        message = rf"^target on ray {ray}, but the set searches rays \(1, -1\)$"
        with pytest.raises(ValueError, match=message):
            detection_time(line, InstanceParams(2, 1, 0), Target(ray, 2.0))


class TestWorstRatio:
    def test_doubling_supremum(self, doubling, doubling_strategy):
        r, witness = worst_ratio(doubling_strategy, doubling, 1e4)
        # sup tau(x)/x over [1, 1e4] peaks just past the largest
        # breakpoint 2^13 below the horizon, at 9 - 2^(-13).
        assert r == pytest.approx(9.0 - 2.0**-13, rel=1e-12)
        assert witness.x == pytest.approx(2.0**13, rel=1e-9)

    def test_short_strategy_is_uncovered(self, doubling):
        plan = RoundPlan(((1, 1.0), (2, 1.0)))
        r, witness = worst_ratio([plan], doubling, 1e4)
        assert r == math.inf
        assert witness.x >= 1.0

    def test_monotone_in_horizon(self, doubling, doubling_strategy):
        r1, _ = worst_ratio(doubling_strategy, doubling, 1e2)
        r2, _ = worst_ratio(doubling_strategy, doubling, 1e4)
        assert r1 <= r2 <= 9.0


class TestSweepRows:
    def test_rows_cover_all_breakpoints(self, doubling, doubling_strategy):
        rows = sweep_rows(doubling_strategy, doubling, 1e3)
        targets = {target for _, target, _ in rows}
        assert (1, 1.0, False) in targets and (2, 1.0, False) in targets
        assert all(1.0 <= x <= 1e3 for _, (_, x, _), _ in rows)

    def test_dense_rows_track_ratio(self, doubling, doubling_strategy):
        rows = sweep_rows(doubling_strategy, doubling, 1e3, rel_step=1e-2)
        best = max(ratio for _, ratio in _row_ratios(rows, doubling.f) if ratio is not None)
        exact, _ = worst_ratio(doubling_strategy, doubling, 1e3)
        assert best == pytest.approx(exact, abs=0.05)

    def test_a_step_alone_gives_the_grid_rows(self, doubling, doubling_strategy):
        # a step alone chooses the grid, 47 points on each ray; without a
        # step the rows are the 9 breakpoints
        rows = sweep_rows(doubling_strategy, doubling, 100.0, rel_step=0.1)
        assert [target for _, target, _ in rows] == [
            (ray, x, False) for ray in (1, 2) for x in simulator._grid(100.0, 0.1)
        ]
        assert len(rows) == 2 * 47
        assert len(sweep_rows(doubling_strategy, doubling, 100.0)) == 9


class TestDenseStep:
    @pytest.mark.parametrize("rel_step", [0.0, -1.0, -0.0, math.nan])
    def test_step_must_be_positive(self, doubling, doubling_strategy, rel_step):
        with pytest.raises(ValueError, match="rel_step must be positive"):
            sweep_rows(doubling_strategy, doubling, 100.0, rel_step=rel_step)
        with pytest.raises(ValueError, match="rel_step must be positive"):
            dense_grid_ratio(doubling_strategy, doubling, 100.0, rel_step=rel_step)

    def test_a_grid_past_the_limit_is_refused(self, monkeypatch, doubling, doubling_strategy):
        # log(100)/0.1 = 46.05: 47 points; at the exact count the grid is
        # made, one below it nothing is, and the message names N and the step
        monkeypatch.setattr(simulator, "MAX_GRID_POINTS", 47)
        assert len(_rows(doubling_strategy, doubling, 100.0, 0.1)[1]) == 2 * 47
        monkeypatch.setattr(simulator, "MAX_GRID_POINTS", 46)
        message = (
            r"^rel_step=0\.1 too small for N=100\.0: "
            r"the dense grid's 47 points exceed the limit of 46$"
        )
        for entry in (
            lambda: sweep_rows(doubling_strategy, doubling, 100.0, rel_step=0.1),
            lambda: dense_grid_ratio(doubling_strategy, doubling, 100.0, rel_step=0.1),
        ):
            with pytest.raises(ValueError, match=message):
                entry()

    def test_an_undetected_grid_point_makes_the_sup_inf(self, doubling):
        # ray 2 is never searched: worst_ratio says inf, and so must the
        # grid, not the largest ratio of the points that are detected
        plan = RoundPlan(((1, 2.0), (1, 4.0)))
        assert worst_ratio([plan], doubling, 10.0)[0] == math.inf
        assert dense_grid_ratio([plan], doubling, 10.0) == math.inf
        rows = sweep_rows([plan], doubling, 10.0, rel_step=simulator._REL_STEP)
        assert any(ratio is not None for _, ratio in _row_ratios(rows, doubling.f))

    def test_the_grid_ratio_asks_for_no_arrivals(self, monkeypatch, three_robot):
        # only the sup is read: one sweep of the grid, with no visitors, and
        # the sup the sweep CSV's dense rows keep
        strategies = make_exponential_strategy(three_robot, optimal_alpha(three_robot), 1e3)
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs.get("visitors", False))
            return _sweep(*args, **kwargs)

        monkeypatch.setattr(simulator, "_sweep", spy)
        ratio = dense_grid_ratio(strategies, three_robot, 1e3, rel_step=1e-2)
        assert calls == [False]
        assert ratio == _rows(strategies, three_robot, 1e3, 1e-2)[0][0]

    def test_the_default_step_fits_every_finite_horizon(self):
        # so no query at the default step is refused for its grid's size
        assert math.log(1.7976931348623157e308) / simulator._REL_STEP < simulator.MAX_GRID_POINTS


class TestHorizon:
    # a sup over [1, N] needs N >= 1: below it, the sweep answered at x = 1
    ENTRIES = {
        "worst_ratio": lambda s, p, N: worst_ratio(s, p, N),
        "sweep_rows": lambda s, p, N: sweep_rows(s, p, N),
        "sweep_rows_dense": lambda s, p, N: sweep_rows(s, p, N, rel_step=0.1),
        "dense_grid_ratio": lambda s, p, N: dense_grid_ratio(s, p, N, rel_step=0.1),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("N", [0.5, 0.0, -1.0, math.nan])
    def test_below_one_or_nan_is_rejected(self, doubling, doubling_strategy, entry, N):
        with pytest.raises(ValueError, match=rf"^horizon N must be >= 1, got {N!r}$"):
            self.ENTRIES[entry](doubling_strategy, doubling, N)

    def test_infinite_horizon_is_allowed(self, doubling, doubling_strategy):
        # every turn is a breakpoint, and past the last one x goes undetected
        ratio, witness = worst_ratio(doubling_strategy, doubling, math.inf)
        assert ratio == math.inf and witness.x > 1e4
        assert len(sweep_rows(doubling_strategy, doubling, math.inf)) > 2


class TestStrategyCount:
    # every entry point takes exactly p.k strategies
    @pytest.mark.parametrize(
        "call",
        [
            lambda s, p: worst_ratio(s, p, 1e3),
            lambda s, p: sweep_rows(s, p, 1e3),
            lambda s, p: sweep_rows(s, p, 1e3, rel_step=0.1),
            lambda s, p: dense_grid_ratio(s, p, 1e3, rel_step=0.1),
            lambda s, p: detection_time(s, p, Target(1, 2.0)),
        ],
        ids=["worst_ratio", "sweep_rows", "sweep_rows_dense", "dense_grid_ratio",
             "detection_time"],
    )
    def test_one_strategy_short_is_rejected(self, three_robot, call):
        strat = make_exponential_strategy(three_robot, optimal_alpha(three_robot), 1e3)
        with pytest.raises(ValueError, match="expected 3 strategies, got 2"):
            call(strat[:2], three_robot)


class TestTargetValidation:
    def test_rejects_sub_unit_distance(self):
        with pytest.raises(ValueError):
            Target(1, 0.5)


# --- the per-ray sweep against the reference path ------------------------
#
# worst_ratio, sweep_rows and dense_grid_ratio answer from one sweep per
# ray; the oracles below answer every target from scratch with
# detection_time, enumerating the candidates as the simulator documents
# them.  Answers must agree exactly, floats and arrival order included:
# the rows' == is the tie rule itself.

# small integers give repeated turns and ties across robots; values below
# 1 never become breakpoints, larger ones may reach past the horizon
_TURN = st.one_of(
    st.integers(1, 6).map(float),
    st.sampled_from([0.5, 0.75, 1.5, 2.5]),
    st.floats(0.1, 40.0),
)


def _round_plan(m, past=True):
    # a ray past m is rejected by the sweep, not by the reference path
    rounds = st.tuples(st.integers(1, m + 1 if past else m), _TURN)
    return st.lists(rounds, max_size=10).map(lambda rs: RoundPlan(tuple(rs)))


_TURN_SEQUENCE = st.builds(
    TurnSequence, st.lists(_TURN, max_size=10).map(tuple), st.booleans()
)


@st.composite
def _instances(draw, kind, past=True):
    m = 2 if kind == "line" else draw(st.integers(2, 4))
    k = draw(st.integers(2 if kind == "mixed" else 1, 4))
    f = draw(st.integers(0, k - 1))
    if kind == "mixed":
        # at least one robot of each kind, the rest either
        either = st.one_of(_round_plan(m), _TURN_SEQUENCE)
        rest = draw(st.lists(either, min_size=k - 2, max_size=k - 2))
        robots = [draw(_round_plan(m)), draw(_TURN_SEQUENCE), *rest]
        strategies = draw(st.permutations(robots))
    else:
        robot = _round_plan(m, past) if kind == "orc" else _TURN_SEQUENCE
        strategies = draw(st.lists(robot, min_size=k, max_size=k))
    N = draw(st.sampled_from([1.0, 2.0, 3.0, 4.5, 8.0, 50.0]))
    return strategies, InstanceParams(m, k, f), N


def _oracle_candidates(strategies, p, N):
    if any(isinstance(s, TurnSequence) for s in strategies):
        rays = [1, -1]
    else:
        rays = list(range(1, p.m + 1))
    cands = [(Target(ray, 1.0), False) for ray in rays]
    seen = set()
    for s in strategies:
        if isinstance(s, RoundPlan):
            legs = list(s.rounds)
        else:
            # the side rule, restated: turn i is on +1 iff (i even) == first_positive
            sides = [1 if (i % 2 == 0) == s.first_positive else -1 for i in range(len(s.turns))]
            legs = list(zip(sides, s.turns))
        for key in legs:
            if 1.0 <= key[1] < N and key not in seen:
                seen.add(key)
                cands.append((Target(*key), True))
    return cands, rays


def _tau_ratio(arrivals, x, f):
    """(tau, tau/x) from sorted (time, robot) arrivals, tau the (f+1)-st
    time, or (None, None) below f+1 of them: the crash-fault rule, restated."""
    if len(arrivals) <= f:
        return None, None
    tau = arrivals[f][0]
    return tau, tau / x


def _row_ratios(rows, f):
    """(Target, tau/x or None) of each row of sweep_rows, in row order."""
    return [(Target(ray, x), _tau_ratio(arrivals, x, f)[1]) for _, (ray, x, _), arrivals in rows]


def _oracle_worst(strategies, p, N):
    best, witness = -math.inf, None
    for target, just_above in _oracle_candidates(strategies, p, N)[0]:
        arrivals = detection_time(strategies, p, target, just_above)
        _, ratio = _tau_ratio(arrivals, target.x, p.f)
        if ratio is None:
            return math.inf, target
        if ratio > best:
            best, witness = ratio, target
    return best, witness


def _oracle_rows(strategies, p, N, rel_step=None):
    """sweep_rows' rows without their numbers, from detection_time."""
    cands, rays = _oracle_candidates(strategies, p, N)
    if rel_step is not None:
        n = max(2, int(math.log(N) / rel_step) + 1)
        cands = [
            (Target(ray, math.exp(math.log(N) * i / (n - 1))), False)
            for ray in rays
            for i in range(n)
        ]
    return [((t.ray, t.x, ja), detection_time(strategies, p, t, ja)) for t, ja in cands]


def _unnumbered(rows):
    return [(target, arrivals) for _, target, arrivals in rows]


def _unnumbered_rows(strategies, p, N, rel_step=None):
    return _unnumbered(sweep_rows(strategies, p, N, rel_step))


def _oracle_dense(strategies, p, N, rel_step):
    # an undetected grid point makes the sup inf, as in _oracle_worst
    ratios = [
        _tau_ratio(arrivals, x, p.f)[1]
        for (_, x, _), arrivals in _oracle_rows(strategies, p, N, rel_step)
    ]
    return math.inf if None in ratios else max(ratios)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def _ray_past_m(strategies, p):
    """The error every sweep entry point gives for the first round on a
    ray past p.m, or None: the reference path takes any ray."""
    for r, s in enumerate(strategies):
        for ray, _ in getattr(s, "rounds", ()):
            if ray > p.m:
                return f"robot {r} visits ray {ray}, past m = {p.m}"
    return None


def _assert_same_answers(strategies, p, N):
    past = _ray_past_m(strategies, p)
    if past is not None:
        _assert_rejected(strategies, p, N, past)
        return
    assert _outcome(worst_ratio, strategies, p, N) == _outcome(
        _oracle_worst, strategies, p, N
    )
    assert _outcome(_unnumbered_rows, strategies, p, N) == _outcome(
        _oracle_rows, strategies, p, N
    )
    for rel_step in (0.05, 0.3):
        assert _outcome(_unnumbered_rows, strategies, p, N, rel_step) == _outcome(
            _oracle_rows, strategies, p, N, rel_step
        )
        assert _outcome(dense_grid_ratio, strategies, p, N, rel_step) == _outcome(
            _oracle_dense, strategies, p, N, rel_step
        )


def _assert_rejected(strategies, p, N, message):
    message = re.escape(message)
    with pytest.raises(ValueError, match=message):
        worst_ratio(strategies, p, N)
    with pytest.raises(ValueError, match=message):
        sweep_rows(strategies, p, N)
    with pytest.raises(ValueError, match=message):
        sweep_rows(strategies, p, N, rel_step=0.3)
    with pytest.raises(ValueError, match=message):
        dense_grid_ratio(strategies, p, N, 0.3)


def _assert_mixed_set_rejected(strategies, p, N):
    message = "strategies mix RoundPlan and TurnSequence: give one kind"
    _assert_rejected(strategies, p, N, message)
    # the reference path goes through the same gate
    with pytest.raises(ValueError, match=f"^{message}$"):
        detection_time(strategies, p, Target(1, 2.0))


class TestIndexMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(_instances("orc"))
    def test_round_plans(self, inst):
        _assert_same_answers(*inst)

    @settings(max_examples=200, deadline=None)
    @given(_instances("orc", past=False))
    def test_round_plans_on_rays_up_to_m(self, inst):
        _assert_same_answers(*inst)

    @settings(max_examples=200, deadline=None)
    @given(_instances("line"))
    def test_turn_sequences(self, inst):
        _assert_same_answers(*inst)

    @settings(max_examples=200, deadline=None)
    @given(_instances("mixed"))
    def test_mixed_sets_answer_or_fail_alike(self, inst):
        # a mixed set has no meaningful ratio: every sweep entry point
        # refuses it alike, whatever the candidate order
        _assert_mixed_set_rejected(*inst)

    def test_mixed_set_with_a_ray_past_two_is_rejected(self):
        # a round plan on a ray past 2 beside a line robot
        p = InstanceParams(3, 2, 0)
        strategies = [RoundPlan(((3, 2.0),)), TurnSequence((4.0, 4.0))]
        _assert_mixed_set_rejected(strategies, p, 10.0)

    @pytest.mark.parametrize("m", [3, 5])
    def test_line_set_needs_two_rays(self, m):
        # a line set on m = 3 used to be swept on two rays, and the CLI
        # printed the 3-ray bound beside that sup
        p = InstanceParams(m, 1, 0)
        strategies = [TurnSequence(tuple(2.0**i for i in range(12)))]
        message = f"line strategies need m=2, got m={m}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_geometric_line_strategy(p, 2.0, 100.0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            detection_time(strategies, p, Target(1, 2.0))
        _assert_rejected(strategies, p, 100.0, message)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_instances("orc"), _instances("line")))
    def test_sweep_at_every_turn(self, inst):
        # worst_ratio and sweep_rows probe turns only just above them; the
        # sweep answers any target, exactly at a turn included, on every ray
        strategies, p, _ = inst
        cands, rays = _oracle_candidates(strategies, p, math.inf)
        past = _ray_past_m(strategies, p)
        if past is not None:
            with pytest.raises(ValueError, match=re.escape(past)):
                _sweep(strategies, p, (1.0,), math.inf, visitors=True)
            return
        xs = list(dict.fromkeys(t.x for t, _ in cands))
        _, answers = _sweep(strategies, p, xs, math.inf, visitors=True)
        targets = [target for _, target, _ in answers]
        arrivals = [times for _, _, times in answers]
        # every distance exactly at x on each ray, then just past each turn from 1 on
        assert targets == [(ray, x, False) for ray in rays for x in xs] + [
            (t.ray, t.x, True) for t, _ in cands[len(rays):]
        ]
        # each answer lists detection_time's arrivals, and gives its tau and ratio
        assert arrivals == [
            detection_time(strategies, p, Target(ray, x), just_above)
            for ray, x, just_above in targets
        ]
        assert [_detected(times, x, p.f) for (_, x, _), times in zip(targets, arrivals)] == [
            _tau_ratio(times, x, p.f) for (_, x, _), times in zip(targets, arrivals)
        ]


# --- the numbered sweep against its indexed predecessor ---------------------
#
# The sweep as it stood before it numbered its targets by walk position:
# each leg looked its (ray, turn) up in a dict, and the sweep answered a
# list of targets in that dict's order.  The numbered sweep must give the
# same targets in the same order, the same arrivals, ratios and witness,
# and the same errors.


def _indexed_sweep(strategies, p, xs, N=1.0, visitors=False):
    rays = _require_strategy_set(strategies, p)
    targets = [(ray, x, False) for ray in rays for x in xs]
    items = {ray: [] for ray in rays}
    for i, (ray, x, _) in enumerate(targets):
        items[ray].append((x, i, -1, None))
    index = {}
    n = len(targets)
    for r, strat in enumerate(strategies):
        last = {}
        elapsed = 0.0
        for leg in _legs(strat):
            ray, turn = leg
            try:
                evs = items[ray]
            except KeyError:
                raise _past_m_error(r, ray, p) from None
            i = index.setdefault(leg, n + len(index)) if 1.0 <= turn < N else -1
            top, j = last.get(ray, (0.0, -1))
            if turn > top:
                evs.append((top, j, r, 2.0 * elapsed))
                last[ray] = (turn, i)
            elif i >= 0:
                evs.append((turn, i, -1, None))
            elapsed += turn
        for ray, (top, j) in last.items():
            items[ray].append((top, j, r, None))
    targets += [(ray, x, True) for ray, x in index]
    f = p.f
    answers = [None] * len(targets)
    for evs in items.values():
        evs.sort(key=itemgetter(0))
        evs.append((math.inf, -1, -1, None))
        live = []
        cur = [None] * p.k
        i, x = -1, 0.0
        for key, idx, r, new in evs:
            if idx != i:
                if i >= 0:
                    if visitors:
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


def _indexed_answers(strategies, p, xs, N):
    """The indexed sweep's targets, arrivals, ratios and sup with witness."""
    targets, arrivals = _indexed_sweep(strategies, p, xs, N, visitors=True)
    _, ratios = _indexed_sweep(strategies, p, xs, N)
    ratio, i = slow_supremum(enumerate(ratios))
    return targets, arrivals, ratios, (ratio, targets[i][:2])


def _numbered_answers(strategies, p, xs, N):
    sup, answers = _sweep(strategies, p, xs, N, visitors=True)
    # the sup is the same with and without visitors, which list no answer
    assert _sweep(strategies, p, xs, N) == (sup, [])
    numbers = [i for i, _, _ in answers]
    # numbered by walk position: the probes first, each target once
    probes = 2 * len(xs) if isinstance(strategies[0], TurnSequence) else p.m * len(xs)
    assert numbers[:probes] == list(range(probes))
    assert numbers == sorted(set(numbers))
    targets = [target for _, target, _ in answers]
    arrivals = [times for _, _, times in answers]
    ratios = [_detected(times, x, p.f)[1] for (_, x, _), times in zip(targets, arrivals)]
    return targets, arrivals, ratios, sup


def _assert_numbered_is_indexed(strategies, p, N):
    # breakpoint probes, every turn as a probe, and probes out of order and twice
    cands, _ = _oracle_candidates(strategies, p, N)
    for xs in ((1.0,), list(dict.fromkeys(t.x for t, _ in cands)), (2.0, 1.0, 2.0)):
        assert _outcome(_numbered_answers, strategies, p, xs, N) == _outcome(
            _indexed_answers, strategies, p, xs, N
        )


_SWEEP_LONG_SETS = [
    # (m, k, f), the exponent of the optimal base, rounds R with N = alpha^R
    ((2, 3, 2), 0.98, 3000),
    ((4, 3, 1), 1.02, 3000),
    ((6, 5, 2), 0.98, 1000),
    ((3, 4, 1), 1.02, 1000),
]


class TestNumberedMatchesIndexed:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_instances("orc"), _instances("orc", past=False), _instances("line")))
    def test_small_sets(self, inst):
        _assert_numbered_is_indexed(*inst)

    @pytest.mark.parametrize("shape, e, R", _SWEEP_LONG_SETS)
    def test_sweep_long_scale(self, shape, e, R):
        p = InstanceParams(*shape)
        alpha = optimal_alpha(p) ** e
        N = alpha**R
        assert 1e20 <= N <= 1e300
        strategies = make_exponential_strategy(p, alpha, N)
        assert 1000 <= sum(len(s.rounds) for s in strategies) <= 3200
        _, _, _, sup = expected = _indexed_answers(strategies, p, (1.0,), N)
        assert _numbered_answers(strategies, p, (1.0,), N) == expected
        assert worst_ratio(strategies, p, N) == (sup[0], Target(*sup[1]))

    # The numbered sweep removes a robot's old offset from `live` by value,
    # the indexed one by its bisected position: the same list, since equal
    # floats are interchangeable.  The cases below hold many offsets in
    # `live`, or equal ones when one of them leaves.

    @pytest.mark.parametrize("shape, R", [((2, 50, 30), 40), ((3, 12, 5), 150)])
    def test_many_robots(self, shape, R):
        p = InstanceParams(*shape)
        alpha = optimal_alpha(p)
        N = alpha**R
        strategies = make_exponential_strategy(p, alpha, N)
        _, _, _, sup = expected = _indexed_answers(strategies, p, (1.0,), N)
        assert _numbered_answers(strategies, p, (1.0,), N) == expected
        assert worst_ratio(strategies, p, N) == (sup[0], Target(*sup[1]))

    @pytest.mark.parametrize("f", [0, 1])
    def test_two_identical_robots(self, f):
        (robot,) = make_exponential_strategy(InstanceParams(3, 1, 0), 2.0, 1e4)
        p, N = InstanceParams(3, 2, f), 1e4
        _assert_numbered_is_indexed([robot, robot], p, N)
        # every target is reached by both robots at one time: their offsets are equal
        _, answers = _sweep([robot, robot], p, (1.0,), N, visitors=True)
        assert all(t0 == t1 for _, _, [(t0, _), (t1, _)] in answers)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(_instances("orc", past=False), _instances("line")))
    def test_each_robot_twice(self, inst):
        strategies, p, N = inst
        _assert_numbered_is_indexed(strategies * 2, InstanceParams(p.m, 2 * p.k, p.f), N)


class TestNumberingRule:
    # On one ray the items of equal turns are one target, numbered at its
    # first appearance.  Each example below reorders rows or moves the
    # witness if a target took the number of its last appearance instead.

    def test_a_turn_reached_by_two_robots_is_one_target(self):
        # robot 1 repeats (1, 2.0) after robot 0 has gone on to (2, 3.0)
        strategies = [
            RoundPlan(((1, 2.0), (2, 3.0), (1, 5.0), (2, 5.0))),
            RoundPlan(((1, 2.0), (2, 5.0), (1, 5.0))),
        ]
        p, N = InstanceParams(2, 2, 1), 4.0
        rows = sweep_rows(strategies, p, N)
        assert [target for _, target, _ in rows] == [
            (1, 1.0, False), (2, 1.0, False), (1, 2.0, True), (2, 3.0, True),
        ]
        assert _unnumbered(rows) == _oracle_rows(strategies, p, N)

    def test_a_robot_repeating_its_record_turn_adds_no_target(self):
        # the robot's second (1, 2.0) is no record and no target of its own:
        # (1, 2.0) keeps the number of its first appearance, before (2, 3.0)
        strategies = [RoundPlan(((1, 2.0), (2, 3.0), (1, 2.0), (2, 4.0), (1, 5.0), (2, 6.0)))]
        p, N = InstanceParams(2, 1, 0), 5.5
        rows = sweep_rows(strategies, p, N)
        assert [target for _, target, _ in rows] == [
            (1, 1.0, False), (2, 1.0, False), (1, 2.0, True),
            (2, 3.0, True), (2, 4.0, True), (1, 5.0, True),
        ]
        assert _unnumbered(rows) == _oracle_rows(strategies, p, N)

    def test_a_turn_at_one_stays_apart_from_the_probe(self):
        # the probe at x = 1 is answered before the robots move on at 1.0
        strategies = [
            RoundPlan(((1, 1.0), (2, 2.0), (1, 4.0), (2, 4.0))),
            RoundPlan(((1, 1.0), (1, 4.0), (2, 4.0))),
        ]
        p, N = InstanceParams(2, 2, 0), 3.0
        rows = sweep_rows(strategies, p, N)
        assert [target for _, target, _ in rows] == [
            (1, 1.0, False), (2, 1.0, False), (1, 1.0, True), (2, 2.0, True),
        ]
        assert rows[0][2] == [(1.0, 0), (1.0, 1)]
        assert rows[2][2] == [(3.0, 1), (7.0, 0)]  # 2*1 + 1: robot 1 passes 1.0 first
        assert _unnumbered(rows) == _oracle_rows(strategies, p, N)

    def test_a_ratio_tie_across_rays_goes_to_the_first_in_walk_order(self):
        # just past 3.0 both rays read 15/3 = 5: ray 2's target appears
        # first (robot 0's first leg), though ray 1 is swept first and ray
        # 2's target appears again last (robot 1's second leg)
        strategies = [
            RoundPlan(((2, 3.0), (1, 3.0), (2, 6.0), (1, 6.0))),
            RoundPlan(((1, 3.0), (2, 3.0), (1, 6.0), (2, 6.0))),
        ]
        p, N = InstanceParams(2, 2, 0), 6.0
        assert worst_ratio(strategies, p, N) == (5.0, Target(2, 3.0))
        assert worst_ratio(strategies, p, N) == _oracle_worst(strategies, p, N)

    def test_an_undetected_target_after_a_larger_detected_ratio(self):
        # just past 2.0 on ray 1 reads 12/2 = 6; after it, just past 3.0 is
        # undetected on both rays, ray 2's first, then ray 1's, then ray
        # 2's again: the witness is the first undetected one
        strategies = [
            RoundPlan(((1, 2.0), (2, 3.0), (1, 3.0))),
            RoundPlan(((2, 3.0), (1, 1.5))),
        ]
        p, N = InstanceParams(2, 2, 0), 10.0
        rows = sweep_rows(strategies, p, N)
        assert max(ratio for _, ratio in _row_ratios(rows, p.f) if ratio is not None) == 6.0
        assert worst_ratio(strategies, p, N) == (math.inf, Target(2, 3.0))
        assert worst_ratio(strategies, p, N) == _oracle_worst(strategies, p, N)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_instances("orc", past=False), _instances("line")))
    def test_worst_ratio_is_the_supremum_of_the_rows(self, inst):
        # the sup of the rows' sweep, worst_ratio's and the slow rule over
        # the rows, in number order, are one answer; on the dense grid too
        strategies, p, N = inst
        (sup, at), _ = _rows(strategies, p, N)
        rows = sweep_rows(strategies, p, N)
        assert worst_ratio(strategies, p, N) == (sup, Target(*at)) == slow_supremum(
            _row_ratios(rows, p.f)
        )
        (sup, at), _ = _rows(strategies, p, N, 0.3)
        rows = sweep_rows(strategies, p, N, 0.3)
        assert (sup, Target(*at)) == slow_supremum(_row_ratios(rows, p.f))


class TestRoundingAndLargeOffsets:
    def test_visitors_tied_by_rounding_keep_robot_order(self):
        # at x = 1e20 the offsets 4 (robot 0) and 2 (robot 1) both vanish
        # in rounding: the sweep holds robot 1 first, the arrivals list
        # the tied times by robot
        strategies = [
            RoundPlan(((2, 2.0), (1, 1e21))),
            RoundPlan(((2, 1.0), (1, 1e21))),
            RoundPlan(((1, 1e20),)),
        ]
        p = InstanceParams(2, 3, 1)
        N = 1e21
        rows = sweep_rows(strategies, p, N)
        assert _unnumbered(rows) == _oracle_rows(strategies, p, N)
        [arrivals] = [times for _, target, times in rows if target == (1, 1e20, True)]
        assert arrivals == [(1e20, 0), (1e20, 1)]
        assert worst_ratio(strategies, p, N) == _oracle_worst(strategies, p, N)

    @pytest.mark.parametrize(
        "m, k, f, N",
        [(2, 1, 0, 1e200), (2, 3, 1, 1e120), (3, 2, 0, 1e200), (4, 3, 1, 1e60)],
    )
    def test_exponential_strategies_up_to_huge_horizons(self, m, k, f, N):
        # about 150 rounds: the offsets at a target reach far past its x
        p = InstanceParams(m, k, f)
        strategies = make_exponential_strategy(p, math.exp(math.log(N) / 150), N)
        assert 100 <= sum(len(s.rounds) for s in strategies) <= 200
        assert worst_ratio(strategies, p, N) == _oracle_worst(strategies, p, N)
        assert _unnumbered_rows(strategies, p, N) == _oracle_rows(strategies, p, N)
        assert _unnumbered_rows(strategies, p, N, 0.5) == _oracle_rows(strategies, p, N, 0.5)


# --- the float sup against exact arithmetic -------------------------------
#
# The sweep adds and divides in binary64, so its sup can sit a few ulp off
# the true one.  The reference below evaluates the same candidates with
# Fraction: turns are read exactly, and nothing rounds.


def _exact_worst(strategies, p, N):
    best = None
    for target, just_above in _oracle_candidates(strategies, p, N)[0]:
        x = Fraction(target.x)
        times = []
        for plan in strategies:
            elapsed = Fraction(0)
            for ray, turn in plan.rounds:
                if ray == target.ray and (turn > x if just_above else turn >= x):
                    times.append(2 * elapsed + x)
                    break
                elapsed += Fraction(turn)
        if len(times) <= p.f:
            return None
        ratio = sorted(times)[p.f] / x
        best = ratio if best is None else max(best, ratio)
    return best


def _perturbed_sets(count):
    # optimal strategies with turns jittered by up to 5 % and 3 % of the
    # rounds dropped, each up to a horizon between 1e1 and 1e8
    rng = random.Random(20171)
    shapes = [(2, 1, 0), (2, 2, 1), (2, 3, 1), (3, 2, 0), (3, 4, 1), (4, 3, 0)]
    for n in range(count):
        p = InstanceParams(*shapes[n % len(shapes)])
        N = 10.0 ** rng.uniform(1.0, 8.0)
        plans = [
            RoundPlan(tuple(
                (ray, turn * rng.uniform(0.95, 1.05))
                for ray, turn in plan.rounds
                if rng.random() >= 0.03
            ))
            for plan in make_exponential_strategy(p, optimal_alpha(p), N)
        ]
        yield plans, p, N


class TestExactReference:
    def test_float_sup_within_four_ulp_of_the_exact_sup(self):
        off = []
        for strategies, p, N in _perturbed_sets(300):
            ratio, _ = worst_ratio(strategies, p, N)
            exact = _exact_worst(strategies, p, N)
            if exact is None:
                assert ratio == math.inf
                continue
            off.append(abs(Fraction(ratio) - exact) / Fraction(math.ulp(float(exact))))
        assert len(off) >= 290  # most sets stay covered
        # 300 sets read 180 within half an ulp, 101 within one, 18 within two
        assert max(off) <= 4


def _perturbed_line_sets(count):
    # geometric line strategies at a base within 3 % of the optimal
    # exponent, turns jittered by up to 5 %, up to a horizon in [1e1, 1e8]
    rng = random.Random(20172)
    shapes = [(2, 1, 0), (2, 2, 1), (2, 3, 1), (2, 3, 2), (2, 4, 2), (2, 5, 3)]
    for n in range(count):
        p = InstanceParams(*shapes[n % len(shapes)])
        N = 10.0 ** rng.uniform(1.0, 8.0)
        alpha = optimal_alpha(p) ** rng.uniform(0.97, 1.03)
        strategies = [
            TurnSequence(tuple(turn * rng.uniform(0.95, 1.05) for turn in s.turns))
            for s in make_geometric_line_strategy(p, alpha, N)
        ]
        yield strategies, p, N


class TestCertificateAboveTheSup:
    # the converse of the refuter's soundness: a set whose sup is below
    # lambda is a lambda-cover of (1, N], so the refuter cannot refute it
    @pytest.mark.parametrize(
        "mode, sets", [("orc", _perturbed_sets), ("line", _perturbed_line_sets)]
    )
    @pytest.mark.parametrize("rel", [1e-9, 1e-12])
    def test_lambda_above_the_sup_is_certified(self, mode, sets, rel):
        covered = 0
        for strategies, p, N in sets(300):
            sup, _ = worst_ratio(strategies, p, N)
            if math.isfinite(sup):
                covered += 1
                lam = sup * (1.0 + rel)
                verdict = refute(strategies, lam, p, N, mode=mode)
                assert verdict.kind == "certificate", (p, N, sup)
                # each assigned row lies in the cover row it was cut from
                covers = all_cover_intervals(strategies, CoverParams(lam))
                assert_inside_cover(verdict.assignment, covers)
        assert covered >= 290


class TestOneWalk:
    @pytest.mark.parametrize(
        "call",
        [
            lambda s, p: worst_ratio(s, p, 1e4),
            lambda s, p: sweep_rows(s, p, 1e4),
        ],
        ids=["worst_ratio", "sweep_rows"],
    )
    def test_each_robot_is_walked_once(self, monkeypatch, three_robot, call):
        strategies = make_exponential_strategy(three_robot, optimal_alpha(three_robot), 1e4)
        walked = []
        legs = simulator._legs

        def counted(strategy):
            walked.append(strategy)
            return legs(strategy)

        monkeypatch.setattr(simulator, "_legs", counted)
        call(strategies, three_robot)
        assert walked == strategies
