import gc
import math
from bisect import bisect_right
from collections import deque

import pytest
from hypothesis import assume, given, settings, strategies as st

from raysearch import (
    AuditError,
    ConfigurationError,
    CoverParams,
    GrowthTrace,
    InstanceParams,
    InvalidAssignmentError,
    RoundPlan,
    TurnSequence,
    all_cover_intervals,
    audit_growth,
    covering_situation,
    detect_gap,
    exact_q_assignment,
    growth_factor_delta,
    initial_state,
    make_exponential_strategy,
    make_geometric_line_strategy,
    mu_critical,
    optimal_alpha,
    potential_value,
    ratio_lower_bound,
    refute,
    worst_ratio,
)
from raysearch import cover, potential

from conftest import CoverRecord, advance, poly_max_point


def robot_without_a_next_interval():
    """m=3, k=2, lambda 40: robot 1's one assigned interval comes last in
    the stream, so the base prefix is the whole assignment and robot 0,
    the first in robot order, has no interval past it."""
    p = InstanceParams(3, 2, 0)
    first = make_exponential_strategy(p, optimal_alpha(p), 1e3)[0]
    return p, [first, RoundPlan(((1, 5000.0), (2, 5000.0), (3, 5000.0)))]


def doubling_assigned(hi=1e3, lam=9.0):
    p = InstanceParams(2, 1, 0)
    strat = make_exponential_strategy(p, optimal_alpha(p), hi)
    covers = all_cover_intervals(strat, CoverParams(lam))
    return p, exact_q_assignment(covers, 2, hi)


def _base_prefix(assigned, state):
    return assigned[: len(assigned) - len(state.stream)]


def _snapshot(state):
    return (
        list(state.A),
        list(state.log_A),
        list(state.values),
        list(state.terms),
        list(state.stream),
        state.log_potential,
    )


class TestCoveringSituation:
    def test_doubling_prefix(self):
        p, assigned = doubling_assigned()
        state = initial_state(assigned, p, "orc")
        A = covering_situation(_base_prefix(assigned, state), 2)
        assert len(A) == 2
        assert A == sorted(A)

    def test_values_delimit_multiplicity_drops(self):
        _, assigned = doubling_assigned()
        A = covering_situation(assigned[:4], 2)
        # With (0,.5], (.125,1], (1,2], (1,4] open, one fold is lost at
        # 2 and the second at 4.
        assert A == pytest.approx([2.0, 4.0])


def _bisect_covering_situation(intervals, mult):
    """covering_situation with its own bisection scan and the fallback to
    the largest right end for an unset a_j: the slow reference."""
    live = [iv for iv in intervals if iv[3] > 1.0]  # (robot, round_index, left, right)
    starts = sorted(iv[2] for iv in live)
    ends = sorted(iv[3] for iv in live)
    points = [1.0] + sorted({v for v in ends if v > 1.0})
    a = [None] * (mult + 1)  # a[j] for j = 1..mult
    for u in points:
        m = bisect_right(starts, u) - bisect_right(ends, u)
        for j in range(m + 1, mult + 1):
            if a[j] is None:
                a[j] = u
    top = points[-1]
    return [top if a[j] is None else a[j] for j in range(mult, 0, -1)]


# a coarse grid gives ties, zero-length intervals and ends at or below 1
_ENDPOINT = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0]), st.floats(0.1, 50.0)
)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.tuples(_ENDPOINT, _ENDPOINT), max_size=16),
    st.integers(1, 3),
    st.integers(0, 6),
)
def test_covering_situation_matches_the_bisect_scan(spans, copies, mult):
    ivs = [(i % 3, i, min(a, b), max(a, b)) for i, (a, b) in enumerate(spans * copies)]
    assert covering_situation(ivs, mult) == _bisect_covering_situation(ivs, mult)


class TestInitialState:
    def test_prefix_skips_boundary_and_first_rounds(self):
        p, assigned = doubling_assigned()
        state = initial_state(assigned, p, "orc")
        prefix = _base_prefix(assigned, state)
        assert [right for _, _, _, right in prefix] == [0.5, 1.0]
        # the frontier is already 1: the stream keeps the raw ends, each
        # linked to the next left end of its robot, the only one here
        rest = assigned[2:]
        lefts = [left for _, _, left, _ in rest]
        assert list(state.stream) == [
            (0, left, right, nxt)
            for (_, _, left, right), nxt in zip(rest, lefts[1:] + [None])
        ]
        assert state.stream[0][2] == 2.0
        assert state.values == [1.5, lefts[0]]

    def test_values_follow_the_robot_index(self):
        # robot 1 is seen first, but each robot's slot follows its index:
        # the fresh potential sums the terms in `values` order
        assigned = [(1, 0, 0.5, 1.0), (0, 0, 0.6, 2.0), (1, 1, 1.0, 3.0), (0, 1, 2.0, 4.0)]
        state = initial_state(assigned, InstanceParams(2, 3, 1), "line")
        assert state.slot == {0: 0, 1: 1}
        assert state.values == [1.0, 0.5]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(_ENDPOINT, st.integers(0, 2), st.floats(0.01, 20.0)),
        min_size=1,
        max_size=16,
    ),
    st.sampled_from(["line", "orc"]),
)
def test_next_left_links_match_a_per_robot_scan(rows, mode):
    # each stream tuple carries its robot's following left end, found by
    # one backward pass; here by a scan of the rest of the stream
    rows.sort(key=lambda row: row[:2])
    assigned = [(r, i, left, left + length) for i, (left, r, length) in enumerate(rows)]
    p = InstanceParams(2, 3, 1)  # q = 4 folds: s >= 1 in both modes
    try:
        state = initial_state(assigned, p, mode)
    except ConfigurationError as exc:
        # only the orc potential needs every robot's next left end
        assert mode == "orc"
        state = initial_state(assigned, p, "line")
        r = int(str(exc).split()[1])
        assert r in state.slot and all(t[0] != r for t in state.stream)
        return
    p0 = len(assigned) - len(state.stream)
    scale = covering_situation(assigned[:p0], state.mult)[0]
    rest = assigned[p0:]
    expected = []
    for i, (robot, _, left, right) in enumerate(rest):
        later = [jv[2] / scale for jv in rest[i + 1 :] if jv[0] == robot]
        expected.append((robot, left / scale, right / scale, (later or [None])[0]))
    assert list(state.stream) == expected
    if mode == "orc":
        for r, j in state.slot.items():
            assert state.values[j + 1] == next(iv[2] / scale for iv in rest if iv[0] == r)


class TestAdvance:
    def test_doubling_loads_and_ratios(self):
        p, assigned = doubling_assigned()
        c = CoverParams(9.0)
        state = initial_state(assigned, p, "orc")
        mus, xs, ratios = [], [], []
        for _ in range(3):
            _, mu_star, x, ratio, _ = advance(state, c)
            mus.append(mu_star)
            xs.append(x)
            ratios.append(ratio)
        assert mus == pytest.approx([3.5, 3.75, 3.875])
        assert xs == pytest.approx([1.5, 1.75, 1.875])
        assert ratios == pytest.approx([3.5 / 3.0, 3.75 / 3.5, 3.875 / 3.75])

    def test_realized_mu_never_exceeds_mu(self):
        p, assigned = doubling_assigned()
        c = CoverParams(9.0)
        state = initial_state(assigned, p, "orc")
        while (step := advance(state, c)) is not None:
            _, mu_star, _, _, _ = step
            assert mu_star <= c.mu * (1 + 1e-9)

    def test_tight_load_is_rejected_at_smaller_mu(self):
        p, assigned = doubling_assigned()
        c_tight = CoverParams(7.0)  # mu = 3 < the realized 3.5
        state = initial_state(assigned, p, "orc")
        before = _snapshot(state)
        with pytest.raises(InvalidAssignmentError):
            advance(state, c_tight)
        # the rejected step left the state untouched, its stream included
        assert _snapshot(state) == before

    def test_load_on_the_tolerance_is_accepted(self):
        # mu * (1 + 1e-9) rounds to exactly the first step's mu* = 3.5: the
        # load bound holds with equality; the next step's 3.75 breaks it
        p, assigned = doubling_assigned()
        c = CoverParams(7.999999992999999)
        assert c.mu < 3.5 == c.mu * (1.0 + 1e-9)
        state = initial_state(assigned, p, "orc")
        assert advance(state, c)[1] == 3.5  # mu*
        with pytest.raises(InvalidAssignmentError, match="load bound violated"):
            advance(state, c)

    @pytest.mark.parametrize("past", [False, True])
    def test_start_off_the_frontier_by_the_tolerance(self, past):
        # at this frontier a, the tolerance 1e-9 * a lies on the float grid
        # near a: a start exactly that far off is accepted, one float more
        # is not a cover prefix
        p, assigned = doubling_assigned()
        a = 4503600 * 2.0**-52 / 1e-9
        tol = 1e-9 * a
        left = a + tol
        assert left - a == tol
        state = initial_state(assigned, p, "orc")
        state.A[:] = [a, a]
        start = math.nextafter(left, 2.0) if past else left
        r, _, right, next_left = state.stream[0]
        state.stream[0] = (r, start, right, next_left)
        if past:
            with pytest.raises(InvalidAssignmentError, match="not a cover prefix"):
                advance(state, CoverParams(9.0))
        else:
            assert advance(state, CoverParams(9.0))[1] == 3.5  # mu*

    def test_incremental_matches_scratch(self):
        p, assigned = doubling_assigned()
        c = CoverParams(9.0)
        state = initial_state(assigned, p, "orc")
        while advance(state, c) is not None:
            assert state.log_potential == pytest.approx(
                potential_value(state), abs=1e-9
            )


class TestStreamContract:
    # the audit reads exactly exact_q_assignment's order and checks it in
    # one pass: a stream out of order or with t' < t broken is a
    # ValueError naming the first index where it fails
    ENTRIES = {
        "initial_state": lambda s, p, c: initial_state(s, p, "orc"),
        "audit_growth": lambda s, p, c: audit_growth(s, c, p, "orc"),
        "detect_gap": lambda s, p, c: detect_gap(s, 5.0, c),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("i", [2, 4])  # 2 and 3 tie on left and robot
    def test_swapped_pair_names_its_index(self, entry, i):
        p, assigned = doubling_assigned()
        stream = list(assigned)
        stream[i], stream[i + 1] = stream[i + 1], stream[i]
        message = rf"^assigned interval {i + 1}: .* not in stream order$"
        with pytest.raises(ValueError, match=message):
            self.ENTRIES[entry](stream, p, CoverParams(9.0))

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_reversed_interval_names_its_index(self, entry):
        p, assigned = doubling_assigned()
        stream = list(assigned)
        robot, rnd, left, right = stream[3]
        stream[3] = (robot, rnd, right, left)
        with pytest.raises(ValueError, match=r"^assigned interval 3: need t' < t, got "):
            self.ENTRIES[entry](stream, p, CoverParams(9.0))

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_zero_length_interval_names_its_index(self, entry):
        p, assigned = doubling_assigned()
        stream = list(assigned)
        robot, rnd, left, _ = stream[3]
        stream[3] = (robot, rnd, left, left)  # t' == t, keys in order
        with pytest.raises(ValueError, match=r"^assigned interval 3: need t' < t, got "):
            self.ENTRIES[entry](stream, p, CoverParams(9.0))

    def test_equal_keys_are_allowed(self):
        p, assigned = doubling_assigned()
        stream = list(assigned)
        stream.insert(6, stream[5])
        assert detect_gap(stream, 5.0, CoverParams(9.0)).case == 1

    def test_advance_stops_at_a_robot_without_a_following_interval(self):
        p, assigned = doubling_assigned()
        c = CoverParams(9.0)
        state = initial_state(assigned, p, "orc")
        steps = 0
        while advance(state, c) is not None:
            steps += 1
        # the stream goes on, but its next robot has no next-left endpoint
        assert steps > 0 and state.stream
        assert state.stream[0][3] is None
        before = _snapshot(state)
        assert advance(state, c) is None
        assert _snapshot(state) == before

    def test_advance_stops_at_the_end_of_the_stream(self):
        # line mode needs no next-left endpoint: only the stream's end stops it
        p = InstanceParams(2, 3, 1)
        c = CoverParams(ratio_lower_bound(p) + 0.1)
        strat = make_geometric_line_strategy(p, optimal_alpha(p), 1e4)
        assigned = exact_q_assignment(all_cover_intervals(strat, c), p.s, 1e4)
        state = initial_state(assigned, p, "line")
        remaining = len(state.stream)
        steps = 0
        while advance(state, c) is not None:
            steps += 1
        assert steps == remaining > 0
        assert not state.stream
        before = _snapshot(state)
        assert advance(state, c) is None
        assert _snapshot(state) == before


class TestAuditGrowth:
    def test_steps_are_plain_tuples_the_collector_untracks(self):
        # a collection untracks a tuple of numbers, but never an instance
        # of a tuple subclass such as a NamedTuple
        p = InstanceParams(2, 3, 1)
        v = refute(make_exponential_strategy(p, optimal_alpha(p), 1e4), 5.5, p, 1e4)
        gc.collect()
        assert v.trace.steps
        for step in v.trace.steps:
            assert type(step) is tuple
            assert gc.is_tracked(step) is False

    def test_doubling_trace_ratios_approach_one(self):
        p, assigned = doubling_assigned()
        trace = audit_growth(assigned, CoverParams(9.0), p, "orc")
        # mu = 4 is exactly critical: delta would be 1, so there is no floor
        assert mu_critical(1, 1) == CoverParams(9.0).mu
        assert trace.delta_bound is None
        assert trace.min_step_ratio >= 1.0 - 1e-9
        assert trace.steps[-1][3] == pytest.approx(1.0, abs=1e-2)  # step ratio

    def test_subcritical_orc_has_delta_floor(self):
        p = InstanceParams(2, 1, 0)
        strat = make_exponential_strategy(p, 2.0, 20.0)
        covers = all_cover_intervals(strat, CoverParams(8.99))
        assigned = exact_q_assignment(covers, 2, 20.0)
        trace = audit_growth(assigned, CoverParams(8.99), p, "orc")
        delta = growth_factor_delta(p.s, p.k, CoverParams(8.99).mu)
        assert delta > 1.0
        assert trace.min_step_ratio >= delta * (1 - 1e-12)

    def test_line_mode_respects_the_cap(self):
        p = InstanceParams(2, 3, 1)
        lam = ratio_lower_bound(p) + 0.1
        strat = make_geometric_line_strategy(p, optimal_alpha(p), 1e4)
        covers = all_cover_intervals(strat, CoverParams(lam))
        assigned = exact_q_assignment(covers, p.s, 1e4)
        trace = audit_growth(assigned, CoverParams(lam), p, "line")
        cap = p.k * p.s * math.log(CoverParams(lam).mu)
        assert trace.max_log_potential <= cap + 1e-9
        assert trace.line_cap_log == pytest.approx(cap)

    @pytest.mark.parametrize("past", [False, True])
    def test_line_cap_is_checked_on_the_stored_terms(self, monkeypatch, past):
        # the audit checks the cap on the stored-term sum: terms that sum
        # to the cap plus its tolerance pass; one float more fails
        p = InstanceParams(2, 3, 1)
        c = CoverParams(ratio_lower_bound(p) + 0.1)
        strat = make_geometric_line_strategy(p, optimal_alpha(p), 1e4)
        assigned = exact_q_assignment(all_cover_intervals(strat, c), p.s, 1e4)
        cap = p.k * p.s * math.log(c.mu)
        top = cap + 1e-9 * max(1.0, abs(cap))
        value = math.nextafter(top, math.inf) if past else top
        replay_exact, fresh = potential._replay, potential._log_potential

        def replay_at_the_cap(state, c):
            # the stored terms, and so the incremental value, sum to `value`
            for step in replay_exact(state, c):
                state.terms[:] = [value] + [0.0] * (len(state.terms) - 1)
                state.log_A[:] = [0.0] * len(state.log_A)
                state.log_potential = value
                assert potential_value(state) == value
                yield step

        calls = []

        def fresh_at_the_cap(*args):
            # the closing check's fresh logs agree with the stored terms
            calls.append(args)
            return fresh(*args) if len(calls) == 1 else value

        monkeypatch.setattr(potential, "_replay", replay_at_the_cap)
        monkeypatch.setattr(potential, "_log_potential", fresh_at_the_cap)
        if past:
            with pytest.raises(AuditError, match=r"^line potential .* exceeds cap .* at step 0$"):
                audit_growth(assigned, c, p, "line")
        else:
            trace = audit_growth(assigned, c, p, "line")
            assert trace.line_cap_log == cap and len(trace.steps) > 3


def _next_left(state, r):
    # robot r's next left end, read off the stream rather than `values`
    return next(left for robot, left, _, _ in state.stream if robot == r)


def _generator_log_potential(state):
    # the from-scratch potential as first written, generator and all: the
    # summation order any faster form must keep
    lp = 0.0
    for r, j in state.slot.items():
        lp += state.s_exp * math.log(state.values[j])
        if state.mode == "orc":
            lp += state.k * math.log(_next_left(state, r))
    lp -= state.k * sum(math.log(y) for y in state.A)
    return lp


def _fresh_terms(state):
    # the state's stored terms, each from a fresh log of its value
    terms = []
    for r, j in state.slot.items():
        terms.append(state.s_exp * math.log(state.values[j]))
        if state.mode == "orc":
            terms.append(state.k * math.log(_next_left(state, r)))
    return terms, [math.log(y) for y in state.A]


def _assert_oracles_agree(state):
    fresh = _generator_log_potential(state)
    terms, log_A = _fresh_terms(state)
    assert potential._log_potential(terms, log_A, state.k) == fresh
    assert (state.terms, state.log_A) == (terms, log_A)
    # sum() of floats is compensated from Python 3.12 on: the stored-term
    # sum may leave the sequential order by a few ulp of its magnitude
    magnitude = math.fsum(map(abs, terms)) + state.k * math.fsum(log_A)
    assert abs(potential_value(state) - fresh) <= 4 * math.ulp(magnitude)


class TestOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 24),
        st.integers(1, 24),
        st.floats(math.log(0.5), math.log(1e3)).map(math.exp),
    )
    def test_closed_form_floor_matches_the_polynomial_max(self, e, k, mu_star):
        # the audit's floor delta_1 * mu*^(-k) against the step ratio at
        # the maximizer x* of x^e (mu* - x)^k
        x = poly_max_point(e, k, mu_star)
        at_max = math.exp(
            e * math.log(mu_star) - e * math.log(x) - k * math.log(mu_star - x)
        )
        floor = growth_factor_delta(e, k, 1.0) * mu_star**-k
        assert floor == pytest.approx(at_max, rel=1e-12)

    @pytest.mark.parametrize(
        "mode, p",
        [("orc", InstanceParams(3, 2, 1)), ("line", InstanceParams(2, 3, 1))],
    )
    def test_scratch_potential_keeps_its_summation_order(self, mode, p):
        make = make_geometric_line_strategy if mode == "line" else make_exponential_strategy
        lam = ratio_lower_bound(p) * 1.01
        c = CoverParams(lam)
        covers = all_cover_intervals(make(p, optimal_alpha(p), 1e8), c)
        assigned = exact_q_assignment(covers, p.s if mode == "line" else p.q, 1e8)
        state = initial_state(assigned, p, mode)
        steps = 0
        _assert_oracles_agree(state)
        while advance(state, c) is not None:
            _assert_oracles_agree(state)
            steps += 1
        assert steps > 20

    def test_drift_is_caught_at_its_step(self, monkeypatch):
        # an incremental update off by 1e-6 must fail the from-scratch check
        # at the first step: the oracle runs at every step
        p, assigned = doubling_assigned()
        replay_exact = potential._replay

        def replay_drifting(state, c):
            for step in replay_exact(state, c):
                state.log_potential += 1e-6
                yield step

        monkeypatch.setattr(potential, "_replay", replay_drifting)
        with pytest.raises(AuditError, match="drifted .* at step 0$"):
            audit_growth(assigned, CoverParams(9.0), p, "orc")

    def test_stale_stored_terms_are_caught_after_the_last_step(self, monkeypatch):
        # the stored terms and the incremental value agree at every step,
        # but the fresh logs after the last one do not: the audit fails
        p, assigned = doubling_assigned()
        steps = len(audit_growth(assigned, CoverParams(9.0), p, "orc").steps)
        fresh = potential._log_potential
        calls = []

        def fresh_after_the_first_call(*args):
            calls.append(args)
            return fresh(*args) + (1e-6 if len(calls) > 1 else 0.0)

        monkeypatch.setattr(potential, "_log_potential", fresh_after_the_first_call)
        message = rf"^stored log terms sum to .*, fresh logs to .*, after {steps} steps$"
        with pytest.raises(AuditError, match=message):
            audit_growth(assigned, CoverParams(9.0), p, "orc")
        assert len(calls) == 2  # the initial potential, and the closing check

    @pytest.mark.parametrize("check", ["drift", "floor", "delta"])
    def test_a_tie_with_the_tolerance_passes(self, monkeypatch, check):
        # each check fails strictly past its tolerance: steps made to meet
        # it exactly pass, the closing fresh-log check's included
        trace = _audit_on_the_tolerance(monkeypatch, check, past=False)
        assert len(trace.steps) > 3

    @pytest.mark.parametrize(
        "check, message",
        [
            ("drift", "incremental potential .* drifted from from-scratch value 0.0"),
            ("floor", "step ratio .* below polynomial floor"),
            ("delta", "step ratio .* below growth factor"),
        ],
    )
    def test_one_float_past_the_tolerance_fails(self, monkeypatch, check, message):
        with pytest.raises(AuditError, match=rf"^{message} .*at step 0$"):
            _audit_on_the_tolerance(monkeypatch, check, past=True)


def _audit_on_the_tolerance(monkeypatch, check, past):
    """audit_growth with each step made to meet one check's tolerance
    exactly or, with `past`, to miss it by one float."""

    def nudge(value, toward):
        return math.nextafter(value, toward) if past else value

    lam = 8.99 if check == "delta" else 9.0
    c = CoverParams(lam)
    if check == "delta":  # subcritical: mu < mu_critical(1, 1) = 4
        p = InstanceParams(2, 1, 0)
        strat = make_exponential_strategy(p, 2.0, 20.0)
        assigned = exact_q_assignment(all_cover_intervals(strat, c), 2, 20.0)
    else:
        p, assigned = doubling_assigned()
    replay_exact, fresh = potential._replay, potential._log_potential
    delta_1, delta = growth_factor_delta(1, 1, 1.0), growth_factor_delta(1, 1, c.mu)

    def replay_on_the_tolerance(state, c):
        for step in replay_exact(state, c):
            r, mu_star, x, _, lp = step
            if check == "drift":
                # stored terms sum to 0, the incremental value is 1e-9 off
                state.terms[:] = [0.0] * len(state.terms)
                state.log_A[:] = [0.0] * len(state.log_A)
                state.log_potential = nudge(1e-9, 1.0)
            elif check == "floor":
                floor = delta_1 * mu_star**-1 * (1.0 - 1e-12)
                step = (r, mu_star, x, nudge(floor, 0.0), lp)
            else:  # a slack far above mu puts the floor far below delta
                step = (r, 2.0 * c.mu, x, nudge(delta * (1.0 - 1e-9), 0.0), lp)
            yield step

    calls = []

    def fresh_on_the_tolerance(*args):
        # the closing check's fresh logs read 1e-9 off the zeroed terms
        calls.append(args)
        return fresh(*args) if len(calls) == 1 else 1e-9

    monkeypatch.setattr(potential, "_replay", replay_on_the_tolerance)
    if check == "drift":
        monkeypatch.setattr(potential, "_log_potential", fresh_on_the_tolerance)
    return audit_growth(assigned, c, p, "orc")


# --- the slow predecessor of the step generator, kept as the oracle: the
# base-prefix scan over the whole stream, one `advance` call per step and
# the audit loop around it, as they stood before the replay was one loop


def _reference_initial_state(assigned, p, mode):
    mult = potential._multiplicity(p, mode)
    potential._check_stream(assigned)
    first_seen = {}
    last_boundary = -1
    for idx, (robot, _, _, right) in enumerate(assigned):
        first_seen.setdefault(robot, idx)
        if right <= 1.0:
            last_boundary = idx
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
    for robot, _, _, right in assigned[:p0]:
        values[slot[robot]] += right / scale
    stream = deque()
    next_left = {}
    for r, _, left, right in reversed(assigned[p0:]):
        left /= scale
        stream.appendleft((r, left, right / scale, next_left.get(r)))
        next_left[r] = left
    if orc:
        for r, j in slot.items():
            if r not in next_left:
                raise ConfigurationError(
                    f"robot {r} has no interval past the base prefix: potential undefined"
                )
            values[j + 1] = next_left[r]
    A = [y / scale for y in A]
    state = potential.PrefixState(
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
    state.terms = potential._fresh_terms(state)
    state.log_potential = potential._log_potential(state.terms, state.log_A, k_eff)
    return state


def _reference_advance(state, c):
    tol = potential._REL_TOL
    if not state.stream:
        return None
    r, left, right, next_left = state.stream[0]
    orc = state.mode == "orc"
    if orc and next_left is None:
        return None
    a = state.A[0]
    if abs(left - a) > tol * max(1.0, abs(a)):
        raise InvalidAssignmentError(
            f"interval starts at {left}, frontier is {a}: not a cover prefix"
        )
    j = state.slot[r]
    load_old = state.values[j]
    load_new = load_old + right
    denom = next_left if orc else a
    mu_star = load_new / denom
    if mu_star > c.mu * (1.0 + tol):
        raise InvalidAssignmentError(
            f"load bound violated: realized mu*={mu_star} exceeds mu={c.mu}"
        )
    x = load_old / denom
    e, k = state.s_exp, state.k
    log_ratio = e * math.log(mu_star) - e * math.log(x) - k * math.log(mu_star - x)
    state.stream.popleft()
    A, log_A = state.A, state.log_A
    del A[0], log_A[0]
    i = bisect_right(A, right)
    A.insert(i, right)
    log_A.insert(i, math.log(right))
    state.values[j] = load_new
    state.terms[j] = e * math.log(load_new)
    if orc:
        state.values[j + 1] = next_left
        state.terms[j + 1] = k * math.log(next_left)
    state.log_potential += log_ratio
    return r, mu_star, x, math.exp(log_ratio), state.log_potential


def _reference_audit(assigned, c, p, mode):
    tol = potential._REL_TOL
    state = _reference_initial_state(assigned, p, mode)
    e, k = state.s_exp, state.k
    subcritical = c.mu < mu_critical(e, k)
    delta = growth_factor_delta(e, k, c.mu)
    delta_1 = growth_factor_delta(e, k, 1.0)
    cap = k * e * math.log(c.mu) if state.mode == "line" else None
    trace = GrowthTrace(
        mult=state.mult,
        k=k,
        delta_bound=delta if subcritical else None,
        line_cap_log=cap,
        initial_log_potential=state.log_potential,
    )
    while (step := _reference_advance(state, c)) is not None:
        idx = len(trace.steps)
        scratch = potential_value(state)
        if cap is not None and scratch > cap + tol * max(1.0, abs(cap)):
            raise AuditError(f"line potential {scratch} exceeds cap {cap} at step {idx}")
        if abs(state.log_potential - scratch) > tol * max(1.0, abs(scratch)):
            raise AuditError(
                f"incremental potential {state.log_potential} drifted from "
                f"from-scratch value {scratch} at step {idx}"
            )
        _, mu_star, _, step_ratio, _ = step
        floor = delta_1 * mu_star**-k
        if step_ratio < floor * (1.0 - 1e-12):
            raise AuditError(
                f"step ratio {step_ratio} below polynomial floor {floor}"
                f" at step {idx}"
            )
        if subcritical and step_ratio < delta * (1.0 - tol):
            raise AuditError(
                f"step ratio {step_ratio} below growth factor {delta}"
                f" at step {idx}"
            )
        trace.steps.append(step)
    stored = potential_value(state)
    fresh = potential._log_potential(
        potential._fresh_terms(state), map(math.log, state.A), k
    )
    if abs(stored - fresh) > tol * max(1.0, abs(fresh)):
        raise AuditError(
            f"stored log terms sum to {stored}, fresh logs to {fresh},"
            f" after {len(trace.steps)} steps"
        )
    return trace


def _outcome(audit, *args):
    # a trace, or the type and message of what the audit raised
    try:
        return audit(*args)
    except (ValueError, ConfigurationError, InvalidAssignmentError, AuditError) as exc:
        return type(exc), str(exc)


def _advance_steps(assigned, c, p, mode):
    state = initial_state(assigned, p, mode)
    steps = []
    while (step := advance(state, c)) is not None:
        steps.append(step)
    return steps


def _assert_replays_agree(assigned, c, p, mode):
    """audit_growth against the reference, field by field or by its error;
    returns whether the audit passed."""
    got = _outcome(audit_growth, assigned, c, p, mode)
    want = _outcome(_reference_audit, assigned, c, p, mode)
    if isinstance(want, tuple):
        assert got == want
        return False
    assert isinstance(got, GrowthTrace)
    for name in ("steps", "initial_log_potential", "delta_bound", "line_cap_log", "mult", "k"):
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name
    assert all(type(step) is tuple for step in got.steps)
    assert _advance_steps(assigned, c, p, mode) == got.steps
    return True


@st.composite
def _perturbed_replays(draw):
    """An exact assignment of a perturbed set, covered at `lam`, and the
    cover parameters to audit it at: the same lambda, or one low enough
    that the load bound may break."""
    mode = draw(st.sampled_from(["orc", "line"]))
    m = 2 if mode == "line" else draw(st.integers(2, 4))
    f = draw(st.integers(0, 2))
    k = draw(st.integers(f + 1, m * (f + 1) - 1))
    p = InstanceParams(m, k, f)
    alpha = optimal_alpha(p) ** draw(st.floats(0.97, 1.03))
    N = math.exp(draw(st.floats(math.log(1e1), math.log(1e6))))
    rng = draw(st.randoms(use_true_random=False))
    # turns jittered by up to 5 %, and in orc mode 3 % of the rounds dropped
    if mode == "line":
        strategies = [
            TurnSequence(tuple(t * rng.uniform(0.95, 1.05) for t in s.turns))
            for s in make_geometric_line_strategy(p, alpha, N)
        ]
    else:
        strategies = [
            RoundPlan(tuple(
                (ray, t * rng.uniform(0.95, 1.05))
                for ray, t in plan.rounds
                if rng.random() >= 0.03
            ))
            for plan in make_exponential_strategy(p, alpha, N)
        ]
    # above the set's sup, the set is a lambda-cover of (1, N]
    sup, _ = worst_ratio(strategies, p, N)
    assume(math.isfinite(sup))
    lam = sup * (1.0 + draw(st.floats(1e-9, 0.1)))
    audit_lam = lam * draw(st.one_of(st.just(1.0), st.floats(0.5, 1.0)))
    mult = p.s if mode == "line" else p.q
    assigned = exact_q_assignment(all_cover_intervals(strategies, CoverParams(lam)), mult, N)
    return assigned, CoverParams(audit_lam), p, mode


class TestReferenceReplay:
    @settings(max_examples=300, deadline=None)
    @given(_perturbed_replays())
    def test_audit_matches_the_slow_replay(self, case):
        _assert_replays_agree(*case)

    def test_both_outcomes_are_reached(self):
        # the sampled cases above include passing audits and each kind of
        # rejection: the load bound and an orc robot without a next interval
        p = InstanceParams(3, 2, 1)
        lam = ratio_lower_bound(p) * 1.01
        strat = make_exponential_strategy(p, optimal_alpha(p), 1e6)
        assigned = exact_q_assignment(all_cover_intervals(strat, CoverParams(lam)), p.q, 1e6)
        assert _assert_replays_agree(assigned, CoverParams(lam), p, "orc")
        assert not _assert_replays_agree(assigned, CoverParams(lam * 0.9), p, "orc")
        p, strat = robot_without_a_next_interval()
        assigned = refute(strat, 40.0, p, 1e3).assignment
        assert not _assert_replays_agree(assigned, CoverParams(40.0), p, "orc")

    @pytest.mark.parametrize(
        "mode, p", [("orc", InstanceParams(3, 2, 0)), ("line", InstanceParams(2, 2, 1))]
    )
    def test_a_robot_first_seen_past_one(self, mode, p):
        # robot 1 first opens at u = 2 (orc) or 3 (line), after robot 0's
        # intervals from 1: the base-prefix scan goes on past the first left
        # end >= 1 until it has seen all k robots
        covers = [CoverRecord(0, 0, 0.1, 1.0), CoverRecord(1, 0, 0.9, 6.0)]
        for i, (left, right) in enumerate(
            [(0.2, 2.0), (0.3, 3.0), (0.5, 4.0), (2.5, 8.0), (3.5, 12.0), (7.0, 24.0),
             (11.0, 32.0), (20.0, 64.0), (30.0, 128.0), (50.0, 256.0), (60.0, 512.0)],
            start=1,
        ):
            covers.append(CoverRecord(0, i, left, right))
        for i, (left, right) in enumerate([(5.0, 16.0), (15.0, 48.0), (45.0, 256.0)], start=1):
            covers.append(CoverRecord(1, i, left, right))
        assigned = exact_q_assignment(covers, p.s if mode == "line" else p.q, 100.0)
        late = next(i for i, (robot, _, _, _) in enumerate(assigned) if robot == 1)
        assert assigned[late][2] >= 1.0 and assigned[late - 1][2] >= 1.0
        state = initial_state(assigned, p, mode)
        assert len(assigned) - len(state.stream) == late + 1
        assert _snapshot(state) == _snapshot(_reference_initial_state(assigned, p, mode))
        assert _assert_replays_agree(assigned, CoverParams(20.0), p, mode)

    @pytest.mark.parametrize("at", [1, 7])
    def test_more_robots_than_k_are_rejected(self, at):
        # a stream of robots 0 and 1 on k = 1, robot 1 met before the scan
        # stops or first past it
        p, assigned = doubling_assigned()
        _, rnd, left, right = assigned[at]
        stream = assigned[: at + 1] + [(1, rnd, left, right)] + assigned[at + 1 :]
        message = r"^assigned intervals of 2 robots, more than k = 1$"
        with pytest.raises(ValueError, match=message):
            initial_state(stream, p, "orc")
        with pytest.raises(ValueError, match=message):
            audit_growth(stream, CoverParams(9.0), p, "orc")


class TestDetectGap:
    def test_bounded_stream_is_case_one(self):
        p, assigned = doubling_assigned()
        rep = detect_gap(assigned, 5.0, CoverParams(9.0))
        assert rep.case == 1

    def test_jump_is_case_two_with_subrange(self):
        # (robot, round_index, left, right) rows
        stream = [(0, 0, 1.0, 2.0), (0, 1, 2.0, 50.0), (0, 2, 50.0, 100.0)]
        rep = detect_gap(stream, 5.0, CoverParams(9.0))
        assert rep.case == 2
        assert rep.robot == 0 and rep.round_index == 2
        assert rep.ratio == pytest.approx(25.0)
        # the other robots must cover [mu * t', C * t'] one fold short
        assert (rep.sub_lo, rep.sub_hi) == (pytest.approx(8.0), pytest.approx(10.0))

    @pytest.mark.parametrize("C", [2.0, 3.5])  # below mu = 3.5, and at it
    def test_a_jump_at_or_below_mu_has_an_empty_subrange(self, C):
        # [mu * t', C * t'] holds no point past mu * t': the jump is still
        # case 2, and its subrange is None, not a reversed pair
        stream = [(0, 0, 1.0, 2.0), (0, 1, 2.0, 50.0), (0, 2, 50.0, 100.0)]
        rep = detect_gap(stream, C, CoverParams(8.0))
        assert rep == potential.GapReport(2, 0, 2, 25.0, None, None)

    @pytest.mark.parametrize("C", [1.0, 0.5])
    def test_gap_constant_must_exceed_one(self, C):
        p, assigned = doubling_assigned()
        with pytest.raises(ValueError, match=rf"^gap constant C must be > 1, got {C}$"):
            detect_gap(assigned, C, CoverParams(9.0))

    @pytest.mark.parametrize(
        "first_left, second_left, case",
        [
            (2.0, 10.0, 1),  # a ratio of exactly C is no jump
            (0.5, 50.0, 1),  # a previous left end below 1 starts no jump
            (1.0, 50.0, 2),  # one at exactly 1 does
        ],
    )
    def test_jump_boundaries(self, first_left, second_left, case):
        stream = [
            (0, 0, first_left, first_left * 1.5),
            (0, 1, second_left, second_left * 1.5),
        ]
        assert detect_gap(stream, 5.0, CoverParams(9.0)).case == case


class TestRefute:
    def test_certificate_above_bound(self, doubling, doubling_strategy):
        v = refute(doubling_strategy, 9.5, doubling, 1e4)
        assert v.kind == "certificate"
        assert v.trace is not None and v.trace.min_step_ratio >= 1.0 - 1e-9

    def test_a_certificate_checks_its_stream_once(self, monkeypatch, doubling, doubling_strategy):
        # exact_q_assignment's output is in order by construction: only the
        # audit's entry checks it, and detect_gap checks what it is handed
        calls = []
        check = cover._check_stream

        def counted(assigned):
            calls.append(len(assigned))
            check(assigned)

        monkeypatch.setattr(cover, "_check_stream", counted)
        monkeypatch.setattr(potential, "_check_stream", counted)
        verdict = refute(doubling_strategy, 9.5, doubling, 1e3)
        assert verdict.kind == "certificate"
        assert calls == [len(verdict.assignment)]
        detect_gap(verdict.assignment, 100.0, CoverParams(9.5))
        assert len(calls) == 2

    @pytest.mark.parametrize("mode", ["orc", "line"])
    @pytest.mark.parametrize("N", [0.5, math.nan])
    def test_horizon_below_one_or_nan_is_rejected(self, doubling, mode, N):
        # unchecked, N = nan gave a coverage failure at 1, and N = 0.5 a
        # certificate of 0 steps
        make = make_geometric_line_strategy if mode == "line" else make_exponential_strategy
        strat = make(doubling, 2.0, 1e3)
        with pytest.raises(ValueError, match=rf"^horizon N must be >= 1, got {N!r}$"):
            refute(strat, 9.5, doubling, N, mode=mode)

    def test_an_infinite_lambda_is_rejected(self, doubling, doubling_strategy):
        # accepted, it ended in a bare "math domain error" from the audit
        with pytest.raises(ValueError, match=r"^lambda must be finite, got inf$"):
            refute(doubling_strategy, math.inf, doubling, 1e4)

    @pytest.mark.parametrize("mode", ["ORC", "lines", None, ""])
    def test_an_unknown_mode_is_rejected(self, mode):
        # unchecked, "ORC" audited with the orc multiplicity but the line
        # potential, and failed with a false load-bound violation
        p = InstanceParams(2, 3, 1)
        lam = 1.01 * ratio_lower_bound(p)
        c = CoverParams(lam)
        strat = make_exponential_strategy(p, optimal_alpha(p), 1e6)
        assigned = exact_q_assignment(all_cover_intervals(strat, c), p.q, 1e6)
        message = rf"^mode must be 'line' or 'orc', got {mode!r}$"
        with pytest.raises(ValueError, match=message):
            refute(strat, lam, p, 1e6, mode=mode)
        with pytest.raises(ValueError, match=message):
            initial_state(assigned, p, mode)
        with pytest.raises(ValueError, match=message):
            audit_growth(assigned, c, p, mode)

    def test_failure_below_bound(self, doubling, doubling_strategy):
        v = refute(doubling_strategy, 8.0, doubling, 1e4)
        assert v.kind == "coverage_failure"
        assert 1.0 <= v.witness.point <= 1e4

    def test_trivial_multiplicity_certifies(self):
        # k = q robots cover everything straight out: s = 0 in line mode.
        p = InstanceParams(2, 2, 0)
        strat = [
            TurnSequence((100.0,)),
            TurnSequence((100.0,), first_positive=False),
        ]
        v = refute(strat, 3.0, p, 1e2, mode="line")
        assert v.kind == "certificate"
        assert v.trace is None and v.assignment == []

    def test_line_mode_needs_two_rays(self):
        # line strategies on three rays: the simulator's rule and message
        p = InstanceParams(3, 2, 0)
        strat = [TurnSequence((1.0, 2.0, 4.0)), TurnSequence((2.0, 4.0, 8.0))]
        with pytest.raises(ValueError, match=r"^line strategies need m=2, got m=3$"):
            refute(strat, 20.0, p, 1e2, mode="line")

    def test_orc_mode_checks_rays(self):
        # the relaxation folds the rays, but a plan on rays past m is no
        # strategy on m rays: the simulator's rule and message, robot by
        # robot and round by round
        p = InstanceParams(2, 2, 0)
        good = RoundPlan(tuple((1 + i % 2, 2.0**i) for i in range(12)))
        bad = RoundPlan(good.rounds[:5] + ((4, 32.0), (3, 64.0)) + good.rounds[7:])
        with pytest.raises(ValueError, match=r"^robot 1 visits ray 4, past m = 2$"):
            refute([good, bad], 9.5, p, 1e3)
        with pytest.raises(ValueError, match=r"^robot 1 visits ray 4, past m = 2$"):
            worst_ratio([good, bad], p, 1e3)
        # ray m itself is on the line
        assert refute([good, good], 9.5, InstanceParams(2, 2, 0), 1e3).kind == "certificate"

    def test_headroom_reported_below_bound(self):
        # A subcritical line-mode certificate is provisional: the verdict
        # says how many more growth steps would burst the potential cap.
        p = InstanceParams(2, 1, 0)
        strat = make_geometric_line_strategy(p, 2.0, 20.0)
        v = refute(strat, 8.99, p, 20.0, mode="line")
        assert v.kind == "certificate"
        assert v.headroom_steps is not None and v.headroom_steps > 0
        assert v.to_dict()["headroom_steps"] == v.headroom_steps

    @pytest.mark.parametrize("alpha, N, lam", [
        (1.9, 20.0, 8.99), (1.9, 20.0, 8.999), (2.0, 20.0, 8.99),
        (2.0, 100.0, 8.999), (2.1, 20.0, 8.999),
    ])
    def test_headroom_is_the_formula_on_the_trace(self, alpha, N, lam):
        # the formula refute used to compute and store, redone by hand
        p = InstanceParams(2, 1, 0)
        v = refute(make_geometric_line_strategy(p, alpha, N), lam, p, N, mode="line")
        t = v.trace
        assert v.kind == "certificate" and t.delta_bound is not None and t.steps
        expected = max(0.0, (t.line_cap_log - t.max_log_potential) / math.log(t.delta_bound))
        assert v.headroom_steps == expected > 0

    def test_headroom_is_none_off_a_subcritical_line_audit(self, doubling, doubling_strategy):
        # a coverage failure has no trace, an orc audit no line cap, and a
        # line audit at or above the tight ratio no growth factor
        failure = refute(doubling_strategy, 8.0, doubling, 1e4)
        orc = refute(doubling_strategy, 9.5, doubling, 1e4)
        line_strategy = make_geometric_line_strategy(doubling, 2.0, 20.0)
        line = refute(line_strategy, 9.5, doubling, 20.0, mode="line")
        assert failure.kind == "coverage_failure" and failure.trace is None
        assert orc.kind == "certificate" and orc.trace.line_cap_log is None
        assert line.kind == "certificate" and line.trace.delta_bound is None
        for v in (failure, orc, line):
            assert v.headroom_steps is None
            assert "headroom_steps" not in v.to_dict()

    def test_degenerate_load_exponent_certifies_without_audit(self):
        # k = q = 2 robots: the load exponent q - k is 0, and the audit's
        # ConfigurationError becomes a certificate without a trace
        p = InstanceParams(2, 2, 0)
        strat = [RoundPlan(((1, 100.0),)), RoundPlan(((2, 100.0),))]
        v = refute(strat, 3.0, p, 50.0, mode="orc")
        assert v.kind == "certificate"
        assert v.trace is None
        assert len(v.assignment) == 2

    def test_a_step_ratio_past_the_largest_float_is_inf(self):
        # the first turn is far below 1: the step ratio overflows, and the
        # certificate reports it as inf, as growth_factor_delta would
        plan = RoundPlan(((1, 1e-320), (2, 1.5), (1, 3.0)))
        v = refute([plan], 6.0, InstanceParams(2, 1, 0), 1.0)
        assert v.kind == "certificate" and len(v.trace.steps) == 1
        assert v.trace.min_step_ratio == math.inf
        assert v.to_dict()["audit"]["min_step_ratio"] == math.inf
        assert math.isfinite(v.trace.max_log_potential)

    @pytest.mark.parametrize("k, f, tiny", [(1, 0, 1e-320), (2, 1, 1e-300)])
    def test_a_longer_audit_goes_on_past_an_inf_step_ratio(self, k, f, tiny):
        turns = (tiny, 1.5, 3.0, 6.0, 12.0, 24.0, 48.0, 96.0, 192.0, 384.0)
        plan = RoundPlan(tuple((1 + i % 2, t) for i, t in enumerate(turns)))
        v = refute([plan] * k, 9.5, InstanceParams(2, k, f), 100.0)
        assert v.kind == "certificate" and len(v.trace.steps) == 8 * k
        ratios = [ratio for _, _, _, ratio, _ in v.trace.steps]
        assert ratios.count(math.inf) == k
        assert 1.0 < v.trace.min_step_ratio < math.inf

    def test_a_robot_without_a_next_interval_certifies_without_audit(self):
        # the orc potential is undefined without robot 0's next left end:
        # nothing to audit, as for a load exponent below 1
        p, strat = robot_without_a_next_interval()
        v = refute(strat, 40.0, p, 1e3)
        assert v.kind == "certificate"
        assert v.trace is None and "audit" not in v.to_dict()
        assert {robot for robot, _, _, _ in v.assignment} == {0, 1}
        message = r"^robot 0 has no interval past the base prefix: potential undefined$"
        with pytest.raises(ConfigurationError, match=message):
            initial_state(v.assignment, p, "orc")
        with pytest.raises(ConfigurationError, match=message):
            audit_growth(v.assignment, CoverParams(40.0), p, "orc")

    def test_strategy_count_must_be_k(self, three_robot):
        strat = make_exponential_strategy(three_robot, optimal_alpha(three_robot), 1e4)
        with pytest.raises(ValueError, match="expected 3 strategies, got 2"):
            refute(strat[:2], 5.4, three_robot, 1e4)

    @pytest.mark.parametrize(
        "make, mode, message",
        [
            (make_exponential_strategy, "line", "line mode needs TurnSequence"),
            # a line strategy read as rounds gave a false coverage failure
            (make_geometric_line_strategy, "orc", "orc mode needs RoundPlan"),
        ],
    )
    def test_strategy_kind_must_match_the_mode(self, three_robot, make, mode, message):
        strat = make(three_robot, optimal_alpha(three_robot), 1e4)
        with pytest.raises(ValueError, match=message):
            refute(strat, 5.4, three_robot, 1e4, mode=mode)


@st.composite
def _near_sup_refutes(draw):
    mode = draw(st.sampled_from(["orc", "line"]))
    m = 2 if mode == "line" else draw(st.integers(2, 3))
    f = draw(st.integers(0, 1))
    k = draw(st.integers(f + 1, m * (f + 1) - 1))
    p = InstanceParams(m, k, f)
    alpha = optimal_alpha(p) ** draw(st.floats(0.97, 1.03))
    N = math.exp(draw(st.floats(math.log(1e2), math.log(1e6))))
    eps = math.exp(draw(st.floats(math.log(1e-6), math.log(1e-2))))
    return p, mode, alpha, N, eps, draw(st.booleans())


class TestSoundness:
    @settings(max_examples=200, deadline=None)
    @given(_near_sup_refutes())
    def test_coverage_failure_implies_ratio_above_lambda(self, case):
        # the refuter's witness is independent evidence: the simulator's
        # exact supremum must exceed the refuted lambda
        p, mode, alpha, N, eps, above = case
        make = make_geometric_line_strategy if mode == "line" else make_exponential_strategy
        strat = make(p, alpha, N)
        sup, _ = worst_ratio(strat, p, N)
        base = sup if math.isfinite(sup) else ratio_lower_bound(p)
        lam = base * (1.0 + eps if above else 1.0 - eps)
        v = refute(strat, lam, p, N, mode=mode)
        if v.kind == "coverage_failure":
            assert sup > lam, (p, mode, alpha, N, lam, v.witness)
