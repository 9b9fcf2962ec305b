import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from raysearch import (
    CoverParams,
    InstanceParams,
    RoundPlan,
    TurnSequence,
    all_cover_intervals,
    cover_intervals,
    dumps_strategies,
    load_strategies,
    loads_strategies,
    make_exponential_strategy,
    make_geometric_line_strategy,
    optimal_alpha,
    ratio_lower_bound,
    save_strategies,
    worst_ratio,
)
from raysearch import strategy


class TestExponentialGenerator:
    def test_doubling_rounds(self, doubling):
        (plan,) = make_exponential_strategy(doubling, 2.0, 100.0)
        head = plan.rounds[:6]
        assert [ray for ray, _ in head] == [1, 2, 1, 2, 1, 2]
        assert [turn for _, turn in head] == pytest.approx(
            [0.5, 1.0, 2.0, 4.0, 8.0, 16.0], rel=1e-12
        )

    def test_cyclic_ray_order_and_ratio(self, three_robot):
        plans = make_exponential_strategy(three_robot, optimal_alpha(three_robot), 1e4)
        assert len(plans) == 3
        alpha = optimal_alpha(three_robot)
        for plan in plans:
            rays = [ray for ray, _ in plan.rounds]
            assert rays == [1 + i % 2 for i in range(len(rays))]
            per_ray = {}
            for ray, turn in plan.rounds:
                per_ray.setdefault(ray, []).append(turn)
            for turns in per_ray.values():
                for lo, hi in zip(turns, turns[1:]):
                    assert hi / lo == pytest.approx(alpha**6, rel=1e-12)

    @pytest.mark.parametrize("N, exponents", [(7.9, range(-1, 7)), (8.0, range(-1, 9))])
    def test_stops_after_a_cycle_whose_windows_start_past_the_horizon(self, doubling, N, exponents):
        # a window starts at alpha^(exponent - q); at N = 8 = 2^3 the cycle
        # with exponents 5, 6 has a window starting at N itself, so it is
        # not yet past N and one more cycle follows
        (plan,) = make_exponential_strategy(doubling, 2.0, N)
        assert [round(math.log2(turn)) for _, turn in plan.rounds] == list(exponents)

    def test_reaches_horizon_on_every_ray(self, three_robot):
        N = 1e3
        plans = make_exponential_strategy(three_robot, optimal_alpha(three_robot), N)
        best = {}
        for plan in plans:
            for ray, turn in plan.rounds:
                best[ray] = max(best.get(ray, 0.0), turn)
        assert set(best) == {1, 2}
        assert all(v >= N for v in best.values())

    def test_a_first_turn_that_underflows_is_named(self):
        # alpha^(k(1-2m)+m) rounds to 0.0 here: that used to be reported as
        # a turn that is not positive, one the caller never gave
        p = InstanceParams(80, 159, 1)
        alpha = optimal_alpha(p)
        message = (
            rf"^InstanceParams\(m=80, k=159, f=1\), alpha={alpha!r}: "
            r"the first turn alpha\^-25201 underflows to 0$"
        )
        with pytest.raises(ValueError, match=message):
            make_exponential_strategy(p, alpha, 1.0)


@pytest.mark.parametrize(
    "make", [make_exponential_strategy, make_geometric_line_strategy]
)
def test_generators_take_a_horizon_of_one_and_no_less(make):
    # [1, 1] is a horizon: every robot gets turns, and the set sweeps at 1
    p = InstanceParams(2, 3, 1)
    strategies = make(p, optimal_alpha(p), 1.0)
    assert len(strategies) == 3
    assert worst_ratio(strategies, p, 1.0)[0] < ratio_lower_bound(p)
    for horizon in (math.nextafter(1.0, 0.0), math.inf, math.nan):
        with pytest.raises(ValueError, match="^horizon must be finite and >= 1, got "):
            make(p, optimal_alpha(p), horizon)


@pytest.mark.parametrize(
    "make", [make_exponential_strategy, make_geometric_line_strategy]
)
@pytest.mark.parametrize("alpha", [math.inf, math.nan, 1.0])
def test_generators_require_a_finite_base_above_one(make, alpha):
    message = "alpha must be finite" if alpha == math.inf else "alpha must be > 1"
    with pytest.raises(ValueError, match=message):
        make(InstanceParams(2, 3, 1), alpha, 100.0)


class TestLineGenerator:
    def test_staggered_bases(self):
        p = InstanceParams(2, 3, 1)
        robots = make_geometric_line_strategy(p, optimal_alpha(p), 100.0)
        assert len(robots) == 3
        alpha = optimal_alpha(p)
        for t in robots:
            assert isinstance(t, TurnSequence)
            for lo, hi in zip(t.turns, t.turns[1:]):
                assert hi / lo == pytest.approx(alpha**3, rel=1e-12)

    @pytest.mark.parametrize("mkf", [(2, 1, 0), (2, 3, 1), (2, 4, 2)])
    @pytest.mark.parametrize("N", [1.0, 10.0, 1e4])
    def test_every_robot_reaches_the_horizon_on_both_sides(self, mkf, N):
        p = InstanceParams(*mkf)
        for t in make_geometric_line_strategy(p, optimal_alpha(p) ** 0.9, N):
            assert t.first_positive  # so turn i is on +1 iff i is even
            for side in (1, -1):
                assert max(t.turns[side < 0 :: 2]) >= N

    def test_requires_two_rays(self):
        p = InstanceParams(3, 2, 0)
        with pytest.raises(ValueError, match=r"^line strategies need m=2, got m=3$"):
            make_geometric_line_strategy(p, optimal_alpha(p), 100.0)


def _walked_exponential_strategy(p, alpha, horizon):
    # the generator as it stood before it counted its rounds first: it tests
    # every turn of a cycle against the horizon as it makes it
    p.require_searchable()
    strategy._require_base_and_horizon(alpha, horizon)
    m, k, q = p.m, p.k, p.q
    log_alpha = math.log(alpha)
    low = k * (1 - 2 * m) + m
    if math.exp(low * log_alpha) == 0.0:
        raise ValueError(f"{p}, alpha={alpha!r}: the first turn alpha^{low} underflows to 0")
    log_h = math.log(horizon)
    plans = []
    for r in range(1, k + 1):
        rounds = []
        j = -2
        while True:
            cycle_beyond = True
            for i in range(1, m + 1):
                exponent = k * (i + m * j) + m * r
                rounds.append((i, math.exp(exponent * log_alpha)))
                if (exponent - q) * log_alpha <= log_h:
                    cycle_beyond = False
            if cycle_beyond:
                break
            j += 1
        plans.append(RoundPlan(tuple(rounds)))
    return plans


def _nested_exponential_strategy(p, alpha, horizon):
    # the generator as it stood before its flat progression of exponents:
    # the same checks, then one nested pass over cycles j and rays i
    p.require_searchable()
    strategy._require_base_and_horizon(alpha, horizon)
    m, k, q = p.m, p.k, p.q
    log_alpha = math.log(alpha)
    low = k * (1 - 2 * m) + m
    if math.exp(low * log_alpha) == 0.0:
        raise ValueError(f"{p}, alpha={alpha!r}: the first turn alpha^{low} underflows to 0")
    log_h = math.log(horizon)

    def beyond(r, j):
        return (k * (1 + m * j) + m * r - q) * log_alpha > log_h

    last = []
    for r in range(1, k + 1):
        j = max(-2, math.floor((log_h / log_alpha - k - m * r + q) / (k * m)) + 1)
        while j > -2 and beyond(r, j - 1):
            j -= 1
        while not beyond(r, j):
            j += 1
        last.append(j)
    strategy._require_round_count(m * sum(j + 3 for j in last), p, alpha, horizon)
    top = max(k * m * (j + 1) + m * r for r, j in enumerate(last, start=1))
    strategy._require_finite_turns(top, log_alpha, p, alpha, horizon)
    return [
        RoundPlan(tuple(
            (i, math.exp((k * (i + m * j) + m * r) * log_alpha))
            for j in range(-2, j_last + 1)
            for i in range(1, m + 1)
        ))
        for r, j_last in enumerate(last, start=1)
    ]


def _walked_line_strategy(p, alpha, horizon):
    # the line generator as it stood before it counted its turns first
    strategy._require_two_rays(p)
    p.require_searchable()
    strategy._require_base_and_horizon(alpha, horizon)
    k, s = p.k, p.s
    log_alpha = math.log(alpha)
    e_hi = math.log(horizon) / log_alpha + s + k
    out = []
    for r in range(k):
        j_lo = math.floor((-s - k - r) / k)
        j_hi = math.ceil((e_hi - r) / k)
        turns = tuple(math.exp((j * k + r) * log_alpha) for j in range(j_lo, j_hi + 1))
        out.append(TurnSequence(turns))
    return out


def _made(make, *args):
    # the plans' reprs, or the type and message of what making them raised;
    # a turn past binary64 is an OverflowError in the walked copies only
    try:
        return [repr(plan) for plan in make(*args)]
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)



def _rounds(strategies):
    return sum(len(getattr(s, "rounds", getattr(s, "turns", ()))) for s in strategies)


@st.composite
def _generator_shapes(draw):
    m = draw(st.integers(2, 6))
    f = draw(st.integers(0, 3))
    k = draw(st.integers(f + 1, m * (f + 1) - 1))
    p = InstanceParams(m, k, f)
    # bases from the optimal one down to within a few ulps of 1
    alpha = draw(st.one_of(
        st.floats(0.5, 1.5).map(lambda e: optimal_alpha(p) ** e),
        st.floats(1.001, 50.0),
        st.integers(1, 2**40).map(lambda n: 1.0 + n * 2.0**-52),
    ))
    N = math.exp(draw(st.floats(0.0, math.log(1e300))))
    return p, alpha, N


class TestRoundCount:
    @settings(max_examples=300, deadline=None)
    @given(_generator_shapes())
    # at N = 3^51 robot 1's closed-form guess is one cycle late: the float
    # test moves it back
    @example((InstanceParams(2, 5, 2), 3.0, 3.0**51))
    # the walked copies overflow binary64 in exp on these two
    @example((InstanceParams(4, 14, 3), 21.5, 4.4555e157))
    @example((InstanceParams(2, 3, 1), 1e150, 1e300))
    def test_turns_match_the_walked_generator(self, shape):
        # the count comes from the closed form, settled by the same float
        # test: below the limit, the turns (or the error) are the walked
        # generator's; the limit is lowered so that no large set is walked
        pairs = [(make_exponential_strategy, _walked_exponential_strategy)]
        if shape[0].m == 2:
            pairs.append((make_geometric_line_strategy, _walked_line_strategy))
        for make, walked in pairs:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(strategy, "MAX_ROUNDS", 20_000)
                made = _made(make, *shape)
            if made[0] is ValueError and made[1].endswith("rounds exceed the limit of 20000"):
                continue
            expected = _made(walked, *shape)
            if expected[0] is OverflowError:
                # the generator checks its largest turn first, and says where
                p, alpha, N = shape
                assert made[0] is ValueError
                assert made[1].startswith(f"{p}, alpha={alpha!r}, N={N!r}: the largest turn")
                assert made[1].endswith(" overflows binary64")
            else:
                assert made == expected

    @settings(max_examples=300, deadline=None)
    @given(_generator_shapes())
    @example((InstanceParams(2, 5, 2), 3.0, 3.0**51))
    @example((InstanceParams(4, 14, 3), 21.5, 4.4555e157))  # overflows
    @example((InstanceParams(2, 1, 0), 1.0000000000000002, 100.0))  # too many rounds
    @example((InstanceParams(3, 2, 1), 1e200, 10.0))  # the first turn underflows
    def test_turns_match_the_nested_generator(self, shape):
        # one flat progression of exponents per robot gives every turn the
        # nested form's bits, and each refusal its message
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(strategy, "MAX_ROUNDS", 20_000)
            try:
                made = make_exponential_strategy(*shape)
            except ValueError as exc:
                made = str(exc)
            try:
                expected = _nested_exponential_strategy(*shape)
            except ValueError as exc:
                expected = str(exc)
        assert made == expected

    @pytest.mark.parametrize(
        "make, p",
        [
            (make_exponential_strategy, InstanceParams(3, 2, 1)),
            (make_geometric_line_strategy, InstanceParams(2, 3, 1)),
        ],
    )
    def test_the_limit_is_checked_before_the_first_round(self, monkeypatch, make, p):
        # at the exact count the set is made; one below it, nothing is
        alpha, N = optimal_alpha(p), 1e4
        count = _rounds(make(p, alpha, N))
        monkeypatch.setattr(strategy, "MAX_ROUNDS", count)
        assert _rounds(make(p, alpha, N)) == count
        monkeypatch.setattr(strategy, "MAX_ROUNDS", count - 1)
        message = (
            rf"^{re.escape(repr(p))}, alpha={re.escape(repr(alpha))}, N=10000.0: "
            rf"{count} rounds exceed the limit of {count - 1}$"
        )
        with pytest.raises(ValueError, match=message):
            make(p, alpha, N)

    @pytest.mark.parametrize(
        "make, count",
        [
            (make_exponential_strategy, 20739842733593700),
            (make_geometric_line_strategy, 20739842733593695),
        ],
    )
    def test_a_base_next_to_one_is_refused_at_once(self, make, count):
        # about 2e16 rounds: the count alone says so, none is made
        limit = strategy.MAX_ROUNDS  # read first: a generator without one walks them
        message = rf"{count} rounds exceed the limit of {limit}$"
        with pytest.raises(ValueError, match=message):
            make(InstanceParams(2, 1, 0), 1.0000000000000002, 100.0)

    @pytest.mark.parametrize(
        "make, p, alpha, N, top",
        [
            (make_exponential_strategy, InstanceParams(4, 14, 3), 21.5, 4.4555e157, 232),
            (make_geometric_line_strategy, InstanceParams(2, 3, 1), 1e150, 1e300, 8),
        ],
    )
    def test_a_turn_past_binary64_is_refused_at_once(self, make, p, alpha, N, top):
        # the largest turn is known before the first round: it was a bare
        # OverflowError from exp, which named neither the instance nor N
        message = f"{p}, alpha={alpha!r}, N={N!r}: the largest turn alpha^{top} overflows binary64"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make(p, alpha, N)

    def test_the_benchmark_shapes_stay_far_below_the_limit(self):
        # sweep-long's largest set has 4 464 rounds
        assert strategy.MAX_ROUNDS >= 100 * 4464


# one plan or sequence is checked as a whole: a bad entry anywhere rejects it
_GOOD_TURN = st.floats(1e-3, 1e6)
_BAD_TURN = st.sampled_from([0.0, -0.0, -1.5, -math.inf, math.nan])


class TestStrategySetGate:
    # the one gate of a strategy set, with and without a mode
    def test_a_mode_takes_its_own_kind_only(self):
        plans = [RoundPlan(((1, 2.0),)), RoundPlan(((2, 3.0),))]
        lines = [TurnSequence((2.0, 4.0)), TurnSequence((3.0,))]
        p = InstanceParams(2, 2, 0)
        assert strategy._require_strategy_set(plans, p, "orc") == (1, 2)
        assert strategy._require_strategy_set(lines, p, "line") == (1, -1)
        message = "line mode needs TurnSequence strategies, robot 0 is a RoundPlan"
        with pytest.raises(ValueError, match=f"^{message}$"):
            strategy._require_strategy_set(plans, p, "line")
        message = "orc mode needs RoundPlan strategies, robot 1 is a TurnSequence"
        with pytest.raises(ValueError, match=f"^{message}$"):
            strategy._require_strategy_set([plans[0], lines[1]], p, "orc")

    def test_orc_mode_names_the_first_ray_past_m(self):
        # rays up to m pass whatever their turns; the first ray past m is named
        p = InstanceParams(2, 2, 0)
        good = RoundPlan(((1, 50.0), (2, 40.0)))
        assert strategy._require_strategy_set([good, good], p, "orc") == (1, 2)
        past = RoundPlan(((2, 1.0), (3, 2.0), (4, 3.0)))
        with pytest.raises(ValueError, match=r"^robot 1 visits ray 3, past m = 2$"):
            strategy._require_strategy_set([good, past], p, "orc")


class TestValidation:
    @given(st.lists(_GOOD_TURN, max_size=8), _BAD_TURN, st.data())
    def test_turn_sequence_rejects_a_bad_turn_anywhere(self, turns, bad, data):
        turns.insert(data.draw(st.integers(0, len(turns))), bad)
        with pytest.raises(ValueError, match="turning distances must be positive"):
            TurnSequence(tuple(turns))

    @given(
        st.lists(st.tuples(st.integers(1, 4), _GOOD_TURN), max_size=8),
        _BAD_TURN,
        st.data(),
    )
    def test_round_plan_rejects_a_bad_turn_anywhere(self, rounds, bad, data):
        rounds.insert(data.draw(st.integers(0, len(rounds))), (1, bad))
        with pytest.raises(ValueError, match="turn distance must be positive, got"):
            RoundPlan(tuple(rounds))

    @given(
        st.lists(st.tuples(st.integers(1, 4), _GOOD_TURN), max_size=8),
        st.integers(-3, 0),
        st.data(),
    )
    def test_round_plan_rejects_a_ray_below_one_anywhere(self, rounds, ray, data):
        rounds.insert(data.draw(st.integers(0, len(rounds))), (ray, 1.0))
        with pytest.raises(ValueError, match=f"ray index must be >= 1, got {ray}$"):
            RoundPlan(tuple(rounds))

    @given(st.lists(st.tuples(st.integers(1, 4), _GOOD_TURN), max_size=8))
    def test_good_plans_and_sequences_are_accepted(self, rounds):
        assert RoundPlan(tuple(rounds)).rounds == tuple(rounds)
        turns = tuple(t for _, t in rounds)
        assert TurnSequence(turns).turns == turns


class TestCoverIntervals:
    def test_orc_example(self):
        # Two returns on the same ray at mu = 2: the second covering
        # starts at (sum of earlier turns) / mu = 0.5.
        plan = RoundPlan(((1, 1.0), (1, 3.0)))
        ivs = cover_intervals(plan, CoverParams(5.0))
        assert [(iv.left, iv.right) for iv in ivs] == [(0.0, 1.0), (0.5, 3.0)]

    def test_line_example(self, cover9):
        # mu = 4; the prefix-sum start is clipped at the previous turn.
        t = TurnSequence((1.0, 2.0, 4.0, 8.0))
        ivs = cover_intervals(t, cover9)
        assert [(iv.left, iv.right) for iv in ivs] == [
            (0.25, 1.0),
            (1.0, 2.0),
            (2.0, 4.0),
            (4.0, 8.0),
        ]

    def test_a_turn_that_covers_only_itself_gives_a_point(self):
        # at mu = 1, a turn whose prefix sum equals it covers [t, t] alone
        plan = RoundPlan(((1, 2.0), (2, 2.0)))
        assert cover_intervals(plan, CoverParams(3.0)) == [(0, 0, 0.0, 2.0), (0, 1, 2.0, 2.0)]
        assert cover_intervals(TurnSequence((2.0,)), CoverParams(3.0)) == [(0, 0, 2.0, 2.0)]

    def test_a_non_strategy_is_a_type_error(self):
        # a bare list of (ray, turn) pairs is neither kind
        with pytest.raises(TypeError, match=r"^unsupported strategy type <class 'list'>$"):
            cover_intervals([(1, 2.0)], CoverParams(5.0))

    def test_interval_is_a_plain_tuple(self):
        (iv,) = cover_intervals(RoundPlan(((2, 4.0),)), CoverParams(5.0), robot=3)
        assert iv == (3, 0, 0.0, 4.0)
        assert (iv.robot, iv.round_index, iv.left, iv.right) == (3, 0, 0.0, 4.0)

    def test_robot_tag_propagates(self, cover9):
        plan = RoundPlan(((1, 1.0),))
        ivs = all_cover_intervals([plan, plan], cover9)
        assert sorted({iv.robot for iv in ivs}) == [0, 1]

    @pytest.mark.parametrize(
        "make, p", [(make_exponential_strategy, InstanceParams(3, 2, 1)),
                    (make_geometric_line_strategy, InstanceParams(2, 3, 1))]
    )
    def test_the_public_intervals_wrap_the_rows(self, make, p):
        # the producer refute reads gives plain tuples; the public entries
        # give the same rows as CoverIntervals, robot by robot
        strategies = make(p, optimal_alpha(p), 1e4)
        c = CoverParams(ratio_lower_bound(p) * 1.01)
        rows = [strategy._cover_rows(s, c.mu, r) for r, s in enumerate(strategies)]
        assert all(type(row) is tuple for robot in rows for row in robot)
        for r, s in enumerate(strategies):
            ivs = cover_intervals(s, c, robot=r)
            assert ivs == rows[r] and all(type(iv) is strategy.CoverInterval for iv in ivs)
        every = all_cover_intervals(strategies, c)
        assert every == [row for robot in rows for row in robot]
        assert all(type(iv) is strategy.CoverInterval for iv in every)


class TestSerialization:
    def test_round_trip_orc(self, three_robot, tmp_path):
        plans = make_exponential_strategy(three_robot, optimal_alpha(three_robot), 1e3)
        path = tmp_path / "plans.txt"
        save_strategies(plans, str(path))
        assert load_strategies(str(path)) == list(plans)

    def test_round_trip_line(self, tmp_path):
        robots = [
            TurnSequence((1.0, 2.0, 4.0)),
            TurnSequence((1.5, 3.0), first_positive=False),
        ]
        path = tmp_path / "robots.txt"
        save_strategies(robots, str(path))
        assert load_strategies(str(path)) == robots

    def test_comments_and_blanks_skipped(self):
        text = "# a comment\n\n1:1.0 2:2.0\n"
        (plan,) = loads_strategies(text)
        assert plan == RoundPlan(((1, 1.0), (2, 2.0)))

    def test_dumps_format_detection(self):
        mixed = [RoundPlan(((1, 1.0),)), TurnSequence((1.0, 2.0))]
        again = loads_strategies(dumps_strategies(mixed))
        assert again == mixed

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("1:abc", "could not convert string to float: 'abc'"),
            ("0:1.0", "ray index must be >= 1, got 0"),
            ("1:1.0 2.0", "expected ray:turn, got '2.0'"),
            ("1:nan", "turn distance must be positive, got nan"),
            ("-nan 2.0", "turning distances must be positive"),
            ("1.0 2.0 -4.0 4.0", "turning points must alternate sides"),
            ("1.0 0.0", "zero turning point"),
        ],
    )
    def test_errors_name_the_line(self, bad, message):
        # comments and blank lines count toward the line number
        with pytest.raises(ValueError) as err:
            loads_strategies(f"# robots\n\n1:1.0 2:2.0\n{bad}\n")
        assert str(err.value) == f"line 4: {message}"
