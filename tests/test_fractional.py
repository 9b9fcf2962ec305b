import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from raysearch import (
    FractionalInstance,
    InstanceParams,
    Rationalization,
    fractional_ratio,
    rationalize_weights,
    ratio_lower_bound,
)
from raysearch.cli import main


def _linear_scan(inst: FractionalInstance, cap: int = 10**6) -> Rationalization:
    """The reference search: every q from 1 to cap, in order."""
    lows = [w / inst.eta for w in inst.weights]
    for q in range(1, cap + 1):
        counts: list[int] = []
        for low in lows:
            k_i = math.ceil(low * q - 1e-12)
            if k_i < 1 or k_i / q > low + inst.delta_rat + 1e-12:
                break
            counts.append(k_i)
        else:
            return Rationalization(q, tuple(counts))
    tightest = min(range(len(lows)), key=lambda i: lows[i])
    raise ValueError(
        f"no denominator up to {cap} fits bracket "
        f"[{lows[tightest]}, {lows[tightest] + inst.delta_rat}] "
        f"(weight {inst.weights[tightest]}, eta {inst.eta}, delta {inst.delta_rat})"
    )


def _outcome(search, inst, cap):
    try:
        return search(inst, cap)
    except ValueError as exc:
        return str(exc)


def _reference_ratio(eta: float):
    """2 eta^eta/(eta-1)^(eta-1) + 1 in mpmath, with log10(eta) + 40 digits:
    the difference eta log eta - (eta-1) log(eta-1) cancels about
    log10(eta) of them."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(int(math.log10(eta)) + 40):
        e = mpmath.mpf(eta)
        return 2 * mpmath.exp(e * mpmath.log(e) - (e - 1) * mpmath.log(e - 1)) + 1


class TestFractionalRatio:
    def test_eta_two_matches_doubling(self):
        assert fractional_ratio(2.0) == pytest.approx(9.0, abs=1e-12)

    def test_rational_eta_matches_integer_bound(self):
        p = InstanceParams(4, 3, 0)
        assert fractional_ratio(4 / 3) == pytest.approx(
            ratio_lower_bound(p), abs=1e-12
        )

    def test_rational_eta_is_within_ulps_of_the_integer_bound(self):
        # both read one form, but x = q/k - 1 carries the rounding of q/k,
        # coarser relative to x than the one rounding of s/k: 58 of these
        # 66 agree bit for bit, the rest within a few ulps
        for q in range(2, 13):
            for k in range(1, q):
                lam0 = ratio_lower_bound(InstanceParams(q, k, 0))
                assert abs(fractional_ratio(q / k) - lam0) <= 4 * math.ulp(lam0), (q, k)

    def test_rejects_eta_at_most_one(self):
        for eta in (1.0, 0.5, 0.0):
            with pytest.raises(ValueError, match=rf"^eta must exceed 1, got {eta}$"):
                fractional_ratio(eta)

    @given(st.floats(1.01, 40.0))
    def test_exceeds_three(self, eta):
        # 2 eta^eta / (eta-1)^(eta-1) + 1 > 3 for every eta > 1.
        assert fractional_ratio(eta) > 3.0

    @pytest.mark.parametrize(
        "eta", [1.0 + 2.0**-52, 1.1, 2.5, 4.0, 1e5, 1e10, 1e15, 1e16, 1e100, 1e300, 3e307]
    )
    def test_matches_mpmath(self, eta):
        # the two logs of the old form cancelled: off in the 5th digit at
        # 1e10, by 59 % at 1e15, and 3.0 from 1e16 on
        ref = _reference_ratio(eta)
        assert abs(fractional_ratio(eta) - ref) <= 4e-16 * ref

    @given(st.floats(0.0, 307.0))
    def test_matches_mpmath_over_the_range(self, log10_eta_minus_one):
        eta = 1.0 + 10.0**log10_eta_minus_one
        ref = _reference_ratio(eta)
        assert abs(fractional_ratio(eta) - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("eta", [1e16, 1e50, 1e200, 1e307])
    def test_approaches_two_e_eta(self, eta):
        # (1 + 1/(eta-1))^(eta-1) -> e, short of it by a relative 1/(2 eta)
        assert fractional_ratio(eta) == pytest.approx(2.0 * math.e * eta, rel=1e-15)

    @pytest.mark.parametrize("eta", [3.4e307, 1e308, sys.float_info.max])
    def test_overflow_is_inf(self, eta):
        # the old form returned NaN at 1e308
        assert fractional_ratio(eta) == math.inf

    def test_rejects_infinite_eta(self):
        with pytest.raises(ValueError, match=r"^eta must be finite, got inf$"):
            fractional_ratio(math.inf)

    def test_cli_prints_inf_past_the_float_range(self, capsys):
        assert main(["bound", "--eta", "1e308"]) == 0
        assert capsys.readouterr() == ("C(eta=1e+308) = inf\n", "")


class TestFractionalInstance:
    def test_no_weights_rejected(self):
        with pytest.raises(ValueError, match="^need at least one weight$"):
            FractionalInstance((), 2.0, 0.1)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            FractionalInstance((0.5, 0.4), 2.0, 0.1)

    @pytest.mark.parametrize("weights", [(0.0, 1.0), (-0.5, 1.5)])
    def test_weights_must_be_positive(self, weights):
        # a zero weight sums to 1 with the rest, and is still no robot
        with pytest.raises(ValueError, match="^weights must be positive$"):
            FractionalInstance(weights, 2.0, 0.1)

    def test_eta_strictly_above_one(self):
        with pytest.raises(ValueError):
            FractionalInstance((0.5, 0.5), 1.0, 0.1)

    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError):
            FractionalInstance((0.5, 0.5), 2.0, -0.1)

    def test_nan_weight_rejected(self):
        # NaN fails both the sign and the sum test; the search used to
        # raise "cannot convert float NaN to integer"
        with pytest.raises(ValueError, match="^weights must be positive$"):
            FractionalInstance((math.nan, 1.0), 2.0, 0.1)

    def test_infinite_eta_rejected(self):
        # every low end would be 0, and no denominator could fit
        with pytest.raises(ValueError, match=r"^eta must be finite, got inf$"):
            FractionalInstance((0.5, 0.5), math.inf, 0.1)

    def test_infinite_slack_fits_at_once(self):
        inst = FractionalInstance((0.3, 0.7), 2.0, math.inf)
        assert rationalize_weights(inst) == Rationalization(1, (1, 1))


class TestRationalization:
    def test_exact_halves(self):
        inst = FractionalInstance((0.5, 0.5), 2.0, 0.0)
        rat = rationalize_weights(inst)
        assert rat.q == 4 and rat.counts == (1, 1)
        assert rat.k == 2

    def test_slack_allows_smaller_q(self):
        tight = FractionalInstance((0.3, 0.7), 2.0, 0.0)
        loose = FractionalInstance((0.3, 0.7), 2.0, 0.05)
        assert rationalize_weights(loose).q <= rationalize_weights(tight).q

    def test_counts_land_in_brackets(self):
        inst = FractionalInstance((0.2, 0.3, 0.5), 1.7, 0.02)
        rat = rationalize_weights(inst)
        for w, k_i in zip(inst.weights, rat.counts):
            low = w / inst.eta
            assert low - 1e-12 <= k_i / rat.q <= low + inst.delta_rat + 1e-12

    def test_impossible_bracket_reports_error(self):
        inst = FractionalInstance((1e-9, 1.0 - 1e-9), 1.5, 0.0)
        # the message names the tightest bracket, the smallest weight's
        with pytest.raises(ValueError, match=r"\(weight 1e-09, eta 1.5, delta 0.0\)$"):
            rationalize_weights(inst, cap=100)

    def test_the_cap_is_the_last_denominator_tried(self):
        inst = FractionalInstance((0.5, 0.5), 2.0, 0.0)
        assert rationalize_weights(inst, cap=4).q == 4
        with pytest.raises(ValueError, match="^no denominator up to 3 fits"):
            rationalize_weights(inst, cap=3)

    def test_the_cap_is_inside_a_window(self):
        # the sparsest bracket [1/8, 0.175] has window [6, 8] at k = 1, and
        # 6 and 7 fail the other bracket: the window is cut at the cap
        inst = FractionalInstance((0.25, 0.75), 2.0, 0.05)
        assert rationalize_weights(inst, cap=8) == Rationalization(8, (1, 3))
        with pytest.raises(ValueError, match="^no denominator up to 7 fits"):
            rationalize_weights(inst, cap=7)

    def test_answer_first_in_its_window(self):
        # 11/15 rounds to the bracket's top exactly, while 11/top rounds
        # above 15: the window must reach below 11/top
        inst = FractionalInstance((1.0,), 1.3636365000000137, 7.333233331685556e-08)
        top = 1.0 / inst.eta + inst.delta_rat + 1e-12
        assert 11 / 15 == top and 11 / top > 15
        assert rationalize_weights(inst) == Rationalization(15, (11,))

    def test_answer_last_in_its_window(self):
        # low*5 is 1 + 5e-13: ceil(low*5 - 1e-12) is 1, while 1/low is
        # below 5, so the window must reach past 1/low
        inst = FractionalInstance((1.0,), 4.9999999999975, 0.0)
        assert 1.0 / (1.0 / inst.eta) < 5
        assert rationalize_weights(inst) == Rationalization(5, (1,))

    def test_answer_right_after_the_previous_window(self):
        # the sparsest bracket [0.2, 0.278] has windows [8, 10] at k = 2 and
        # [11, 15] at k = 3: no q between them may be skipped
        inst = FractionalInstance((0.3, 0.38, 0.32), 1.5, 0.078)
        assert rationalize_weights(inst) == Rationalization(11, (3, 3, 3))

    def test_a_low_end_that_underflows_fails_at_once(self):
        # 5e-324/2 is 0: no q fits, and the search says so without trying
        # a trillion denominators or dividing by the low end
        inst = FractionalInstance((5e-324, 1.0), 2.0, 0.0)
        assert inst.weights[0] / inst.eta == 0.0
        with pytest.raises(
            ValueError,
            match=r"^no denominator up to 1000000000000 fits bracket \[0\.0, 0\.0\] "
            r"\(weight 5e-324, eta 2\.0, delta 0\.0\)$",
        ):
            rationalize_weights(inst, cap=10**12)

    @settings(max_examples=300, deadline=None)
    @given(
        raw=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5),
        eta=st.floats(1.01, 5.0),
        delta=st.one_of(st.just(0.0), st.floats(-6.0, -1.0).map(lambda e: 10.0**e)),
        cap=st.integers(1, 10**5),
    )
    def test_matches_the_linear_scan(self, raw, eta, delta, cap):
        weights = [w / sum(raw) for w in raw[:-1]]
        weights.append(1.0 - sum(weights))
        inst = FractionalInstance(tuple(weights), eta, delta)
        assert _outcome(rationalize_weights, inst, cap) == _outcome(_linear_scan, inst, cap)

    def test_a_count_at_the_top_of_its_bracket_fits(self):
        # 1/3 is exactly low + delta + 1e-12 for low = 1/4 in binary64: the
        # bracket holds its top, so q = 3 fits before q = 4
        inst = FractionalInstance((0.5, 0.5), 2.0, 0.08333333333233332)
        assert rationalize_weights(inst) == Rationalization(3, (1, 1))
