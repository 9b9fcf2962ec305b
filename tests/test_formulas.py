import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from raysearch import (
    CoverParams,
    InfeasibleRegime,
    InstanceParams,
    NoFiniteHorizon,
    TrivialRegime,
    growth_factor_delta,
    horizon_estimate,
    mu_critical,
    optimal_alpha,
    ratio_lower_bound,
)
from raysearch import formulas
from raysearch.formulas import _LOG_FLOAT_MAX

from conftest import poly_max_point


class TestInstanceParams:
    def test_derived_quantities(self):
        p = InstanceParams(2, 3, 1)
        assert (p.q, p.s) == (4, 1)
        assert p.rho == pytest.approx(4 / 3)

    def test_infeasible_when_all_robots_may_fail(self):
        with pytest.raises(InfeasibleRegime):
            InstanceParams(2, 2, 2).require_searchable()
        with pytest.raises(InfeasibleRegime):
            InstanceParams(3, 1, 4).require_searchable()

    def test_trivial_when_robots_saturate_rays(self):
        with pytest.raises(TrivialRegime):
            InstanceParams(2, 4, 1).require_searchable()
        assert TrivialRegime.ratio == 1.0

    @pytest.mark.parametrize("m,k,f", [(1, 1, 0), (2, 0, 0), (2, 1, -1)])
    def test_rejects_bad_parameters(self, m, k, f):
        with pytest.raises(ValueError):
            InstanceParams(m, k, f)


class TestClosedForms:
    def test_doubling_bound_is_nine(self, doubling):
        assert ratio_lower_bound(doubling) == pytest.approx(9.0, abs=1e-12)

    def test_three_robot_bound(self, three_robot):
        expected = (8 / 3) * 4 ** (1 / 3) + 1
        assert ratio_lower_bound(three_robot) == pytest.approx(expected, abs=1e-12)

    def test_optimal_base(self, doubling, three_robot):
        assert optimal_alpha(doubling) == pytest.approx(2.0, abs=1e-12)
        assert optimal_alpha(three_robot) == pytest.approx(4 ** (1 / 3), abs=1e-12)

    def test_bound_monotone_in_faults(self):
        prev = 0.0
        for f in range(3):
            lam = ratio_lower_bound(InstanceParams(4, 3, f))
            assert lam > prev
            prev = lam

    def test_base_at_optimum_recovers_bound(self):
        # lambda(alpha) = 2 alpha^q / (alpha^k - 1) + 1 is minimized at
        # optimal_alpha and the minimum equals the closed form.
        for m, k, f in [(2, 1, 0), (2, 3, 1), (3, 2, 0), (4, 5, 2)]:
            p = InstanceParams(m, k, f)
            a = optimal_alpha(p)
            lam = 2 * a**p.q / (a**p.k - 1) + 1
            assert lam == pytest.approx(ratio_lower_bound(p), rel=1e-12)
            for off in (-1e-4, 1e-4):
                b = a + off
                assert 2 * b**p.q / (b**p.k - 1) + 1 >= lam


class TestGrowthQuantities:
    # poly_max_point is the tests' oracle of the audit's polynomial floor
    def test_poly_max_point_closed_form(self):
        assert poly_max_point(1, 1, 4.0) == pytest.approx(2.0)
        assert poly_max_point(3, 2, 10.0) == pytest.approx(6.0)

    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.floats(0.5, 100.0),
    )
    def test_poly_max_point_is_a_local_max(self, s, k, mu):
        x = poly_max_point(s, k, mu)
        assert 0.0 < x < mu
        g = lambda y: s * math.log(y) + k * math.log(mu - y)
        eps = mu * 1e-7
        assert g(x) >= g(x - eps) - 1e-12
        assert g(x) >= g(x + eps) - 1e-12

    @pytest.mark.parametrize("mu", [0.0, -1.0, math.nan])
    def test_slack_must_be_positive(self, mu):
        # mu = 0 is the boundary: delta divides by mu^k
        with pytest.raises(ValueError, match=rf"^mu must be positive, got {mu}$"):
            growth_factor_delta(1, 1, mu)

    def test_slack_must_be_finite(self):
        # log(mu_critical / inf) was a bare "math domain error"
        with pytest.raises(ValueError, match=r"^mu must be finite, got inf$"):
            growth_factor_delta(1, 1, math.inf)

    @pytest.mark.parametrize("s, k", [(0, 1), (1, 0), (-1, 2)])
    def test_exponents_below_one_are_rejected(self, s, k):
        message = rf"^s and k must be >= 1, got s={s}, k={k}$"
        with pytest.raises(ValueError, match=message):
            growth_factor_delta(s, k, 4.0)
        with pytest.raises(ValueError, match=message):
            mu_critical(s, k)

    def test_delta_crosses_one_at_mu_critical(self):
        for s, k in [(1, 1), (1, 3), (3, 2)]:
            mc = mu_critical(s, k)
            assert growth_factor_delta(s, k, mc) == pytest.approx(1.0, abs=1e-12)
            assert growth_factor_delta(s, k, mc * 0.99) > 1.0
            assert growth_factor_delta(s, k, mc * 1.01) < 1.0

    def test_doubling_delta_is_one_at_tight_mu(self):
        # mu = (9 - 1) / 2 = 4 and delta(1, 1, 4) = 2^2 / 4 = 1 exactly.
        assert growth_factor_delta(1, 1, 4.0) == pytest.approx(1.0, abs=1e-15)
        assert mu_critical(1, 1) == pytest.approx(4.0, abs=1e-12)


class TestHorizonEstimate:
    def test_finite_below_tight_bound(self, doubling):
        N = horizon_estimate(doubling, 8.0, C=16.0)
        assert N > 1.0
        assert math.isfinite(N) or N == math.inf

    def test_monotone_in_lambda(self, doubling):
        # Closer to the tight bound means a longer horizon is needed.
        n1 = horizon_estimate(doubling, 7.0, C=16.0)
        n2 = horizon_estimate(doubling, 8.5, C=16.0)
        assert n2 >= n1

    def test_rejects_lambda_at_or_above_bound(self, doubling):
        with pytest.raises(NoFiniteHorizon):
            horizon_estimate(doubling, 9.0, C=16.0)
        with pytest.raises(NoFiniteHorizon):
            horizon_estimate(doubling, 9.5, C=16.0)

    def test_rejects_gap_constant_below_mu(self, doubling):
        with pytest.raises(ValueError):
            horizon_estimate(doubling, 8.0, C=3.0)

    @pytest.mark.parametrize("mkf", [(2, 1, 0), (3, 1, 0), (2, 3, 1)])
    def test_the_tight_bound_itself_has_no_horizon(self, mkf):
        p = InstanceParams(*mkf)
        with pytest.raises(NoFiniteHorizon, match="tight bound"):
            horizon_estimate(p, ratio_lower_bound(p), C=100.0)

    def test_a_growth_factor_that_rounds_to_one_has_no_horizon(self, monkeypatch):
        # no lambda reaches this guard: lambda < lambda0 makes mu < mu_critical
        # in binary64, so mu_critical/mu >= 1 + 2^-52 and log(delta) > 0.  It
        # stays, since the step count would divide by log(delta) = 0; a
        # log(delta) of 0 is put in by hand to reach it
        monkeypatch.setattr(formulas, "_log_growth_factor", lambda s, k, mu: 0.0)
        with pytest.raises(NoFiniteHorizon, match=r"^growth factor 1.0 <= 1 at mu=6.5"):
            horizon_estimate(InstanceParams(3, 1, 0), 14.0, C=100.0)

    def test_gap_constant_equal_to_mu_is_rejected(self, doubling):
        with pytest.raises(ValueError, match=r"^need C > mu, got C=3.5, mu=3.5$"):
            horizon_estimate(doubling, 8.0, C=3.5)

    def test_an_infinite_gap_constant_is_rejected(self, three_robot):
        # math.ceil of an infinite step count used to raise OverflowError
        with pytest.raises(ValueError, match=r"^need a finite C, got inf$"):
            horizon_estimate(three_robot, 4.7, math.inf)

    def test_the_largest_finite_horizon_is_finite(self):
        # 32 steps (mu = 1, delta = 4) of this C, just below 2^32, sum to
        # log(N) = log of the largest float exactly: N is finite, not inf
        N = horizon_estimate(InstanceParams(2, 1, 0), 3.0, 4294967295.9999895)
        assert N == pytest.approx(sys.float_info.max, rel=1e-12)
        assert math.isfinite(N)

    def test_overflow_reports_infinity(self, three_robot):
        lam0 = ratio_lower_bound(three_robot)
        C = optimal_alpha(three_robot) ** (2 * 2 * 3)
        N = horizon_estimate(three_robot, 0.999 * lam0, C)
        assert N == math.inf

    def test_an_overflowing_growth_factor_still_counts_its_steps(self):
        # delta = exp(734.3) overflows binary64 at lambda = 1 + 1e-8, but its
        # log does not: the cap takes 2.79 steps, so N = C^3.  Through
        # log(inf) the step count used to collapse to 1, and N to C
        p, C = InstanceParams(5, 38, 7), 10.0
        assert growth_factor_delta(p.s, p.k, CoverParams(1.0 + 1e-8).mu) == math.inf
        assert horizon_estimate(p, 1.0 + 1e-8, C) == pytest.approx(1e3, rel=1e-12)
        # at twice that lambda delta is finite, and the count is 2.97 steps
        assert math.isfinite(growth_factor_delta(p.s, p.k, CoverParams(1.0 + 2e-8).mu))
        assert horizon_estimate(p, 1.0 + 2e-8, C) == pytest.approx(1e3, rel=1e-12)


def _horizon_through_delta(p, lam, C):
    """horizon_estimate as it stood when it took log of the exponentiated
    delta: the oracle of the log form wherever delta is finite."""
    lam0 = ratio_lower_bound(p)
    if lam >= lam0:
        raise NoFiniteHorizon(f"lambda={lam} >= tight bound {lam0}: covers of every [1,N] exist")
    mu = CoverParams(lam).mu
    delta = growth_factor_delta(p.s, p.k, mu)
    if delta <= 1.0:
        raise NoFiniteHorizon(f"growth factor {delta} <= 1 at mu={mu}: potential need not grow")
    log_cap = p.q * p.k * math.log(C) + p.s * p.k * math.log(mu)
    n = max(1, math.ceil(log_cap / math.log(delta)))
    log_n_horizon = n * math.log(C)
    if log_n_horizon > _LOG_FLOAT_MAX:
        return math.inf
    return math.exp(log_n_horizon)


@st.composite
def _subcritical(draw):
    # m <= 12, f <= 5, lambda in [lambda0/2, lambda0), C >= alpha^(2mk): there
    # log(exp(log delta)) differs from log delta about one time in nine
    m, f = draw(st.integers(2, 12)), draw(st.integers(0, 5))
    k = draw(st.integers(f + 1, m * (f + 1) - 1))
    p = InstanceParams(m, k, f)
    lam0 = ratio_lower_bound(p)
    lam = draw(st.one_of(
        st.floats(lam0 / 2.0, lam0, exclude_max=True),
        st.just(math.nextafter(lam0, 0.0)),
    ))
    C = optimal_alpha(p) ** (2 * m * k) * 10.0 ** draw(st.floats(0.0, 5.0))
    return p, lam, C


@settings(max_examples=300, deadline=None)
@given(_subcritical())
def test_the_log_form_gives_the_horizon_through_delta(inst):
    p, lam, C = inst
    if CoverParams(lam).mu >= C:
        return
    try:
        expected = _horizon_through_delta(p, lam, C)
    except NoFiniteHorizon as exc:
        with pytest.raises(NoFiniteHorizon) as raised:
            horizon_estimate(p, lam, C)
        assert str(raised.value) == str(exc)
        return
    assert horizon_estimate(p, lam, C) == expected


def test_the_log_of_the_largest_float_is_finite():
    # delta(2, 2, mu) = exp(2 log(4/mu)), and this mu puts the exponent on
    # log(max float) exactly: the overflow cut sits above it, not at it.
    # A hair smaller mu is past the cut: inf, not an OverflowError of exp
    mu = 4.0 * math.exp(-_LOG_FLOAT_MAX / 2.0)
    assert mu_critical(2, 2) == 4.0 and 2.0 * math.log(4.0 / mu) == _LOG_FLOAT_MAX
    assert growth_factor_delta(2, 2, mu) == math.exp(_LOG_FLOAT_MAX)
    assert growth_factor_delta(2, 2, mu * (1.0 - 1e-12)) == math.inf


class TestCoverParams:
    def test_mu(self):
        assert CoverParams(9.0).mu == pytest.approx(4.0)

    def test_rejects_degenerate_lambda(self):
        with pytest.raises(ValueError):
            CoverParams(1.0)

    def test_rejects_infinite_lambda(self):
        # accepted once, it gave mu = inf and every cover left end 0
        with pytest.raises(ValueError, match=r"^lambda must be finite, got inf$"):
            CoverParams(math.inf)


def _shapes(count: int) -> list[InstanceParams]:
    """(40, 30, 29), where logs that cancel lose the most at m, f <= 40,
    and `count` - 1 more searchable shapes with m, f <= 40, seeded."""
    rng = random.Random(21)
    shapes = [InstanceParams(40, 30, 29)]
    while len(shapes) < count:
        m, f = rng.randint(2, 40), rng.randint(0, 40)
        shapes.append(InstanceParams(m, rng.randint(f + 1, m * (f + 1) - 1), f))
    return shapes


def _log_mu_critical(mpmath, s: int, k: int):
    """log of ((k+s)^(k+s) / (s^s k^k))^(1/k), from the integers, in mpmath."""
    return ((k + s) * mpmath.log(k + s) - s * mpmath.log(s) - k * mpmath.log(k)) / k


def _ulps(mpmath, value: float, ref) -> float:
    return float(abs(mpmath.mpf(value) - ref)) / math.ulp(float(ref))


class TestAccuracy:
    """The closed forms against 50-digit mpmath on integer inputs."""

    @pytest.fixture
    def mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            yield mpmath

    def test_ratio_lower_bound_within_four_ulps(self, mpmath):
        errors = {}
        for p in _shapes(400):
            ref = 2 * mpmath.exp(_log_mu_critical(mpmath, p.s, p.k)) + 1
            errors[(p.m, p.k, p.f)] = _ulps(mpmath, ratio_lower_bound(p), ref)
        worst = max(errors, key=errors.get)
        assert errors[worst] <= 4.0, (worst, errors[worst])

    def test_mu_critical_within_four_ulps(self, mpmath):
        errors = {}
        for p in _shapes(400):
            ref = mpmath.exp(_log_mu_critical(mpmath, p.s, p.k))
            errors[(p.s, p.k)] = _ulps(mpmath, mu_critical(p.s, p.k), ref)
        worst = max(errors, key=errors.get)
        assert errors[worst] <= 4.0, (worst, errors[worst])

    def test_growth_factor_delta_within_twelve_k_ulps(self, mpmath):
        # delta = (mu_critical/mu)^k carries k times the error of the
        # quotient: below 9.2 k ulps in 23 000 probes with mu/mu_critical
        # in [1e-3, 3]
        rng = random.Random(21)
        errors = {}
        for p in _shapes(400):
            s, k = p.s, p.k
            # a log(mu/mu_critical) that keeps delta inside binary64
            reach = min(700.0 / k, math.log(1e3))
            mu = mu_critical(s, k) * math.exp(rng.uniform(-reach, min(reach, math.log(3.0))))
            ref = mpmath.exp(k * (_log_mu_critical(mpmath, s, k) - mpmath.log(mu)))
            errors[(s, k, mu)] = _ulps(mpmath, growth_factor_delta(s, k, mu), ref) / k
        worst = max(errors, key=errors.get)
        assert errors[worst] <= 12.0, (worst, errors[worst])

    def test_delta_is_one_at_mu_critical(self):
        # so mu < mu_critical, the audit's subcritical test, and delta > 1 agree
        for p in _shapes(2000):
            assert growth_factor_delta(p.s, p.k, mu_critical(p.s, p.k)) == 1.0, p

    @pytest.mark.parametrize(
        "mkf, lam0", [((2, 1, 0), 9.0), ((3, 1, 0), 14.5), ((3, 2, 0), 6.196152422706632)]
    )
    def test_small_bounds_are_exact(self, mkf, lam0):
        # 9 and 14.5 = 2 * 27/4 + 1 exactly, and the rounding of 3 sqrt(3) + 1
        assert ratio_lower_bound(InstanceParams(*mkf)) == lam0
