import math

import pytest
from hypothesis import given, strategies as st

from raysearch import (
    FractionalInstance,
    InstanceParams,
    Rationalization,
    fractional_ratio,
    rationalize_weights,
    ratio_lower_bound,
)


class TestFractionalRatio:
    def test_eta_two_matches_doubling(self):
        assert fractional_ratio(2.0) == pytest.approx(9.0, abs=1e-12)

    def test_rational_eta_matches_integer_bound(self):
        p = InstanceParams(4, 3, 0)
        assert fractional_ratio(4 / 3) == pytest.approx(
            ratio_lower_bound(p), abs=1e-12
        )

    def test_rejects_eta_at_most_one(self):
        for eta in (1.0, 0.5, 0.0):
            with pytest.raises(ValueError, match=rf"^eta must exceed 1, got {eta}$"):
                fractional_ratio(eta)

    @given(st.floats(1.01, 40.0))
    def test_exceeds_three(self, eta):
        # 2 eta^eta / (eta-1)^(eta-1) + 1 > 3 for every eta > 1.
        assert fractional_ratio(eta) > 3.0


class TestFractionalInstance:
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

    def test_a_count_at_the_top_of_its_bracket_fits(self):
        # 1/3 is exactly low + delta + 1e-12 for low = 1/4 in binary64: the
        # bracket holds its top, so q = 3 fits before q = 4
        inst = FractionalInstance((0.5, 0.5), 2.0, 0.08333333333233332)
        assert rationalize_weights(inst) == Rationalization(3, (1, 1))
