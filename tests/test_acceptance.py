"""End-to-end acceptance checks, one test per criterion, pinned tolerances."""

import math
import random
import time

import pytest

from raysearch import (
    CoverParams,
    InfeasibleRegime,
    InstanceParams,
    TurnSequence,
    all_cover_intervals,
    dense_grid_ratio,
    exact_q_assignment,
    fractional_ratio,
    growth_factor_delta,
    horizon_estimate,
    initial_state,
    make_exponential_strategy,
    make_geometric_line_strategy,
    optimal_alpha,
    potential_value,
    ratio_lower_bound,
    refute,
    worst_ratio,
)

from conftest import advance, poly_max_point


def grid():
    for m in (2, 3, 4):
        for k in range(1, 7):
            for f in range(0, 3):
                p = InstanceParams(m, k, f)
                if f < k < p.q:
                    yield p


def test_criterion_1_closed_forms():
    assert abs(ratio_lower_bound(InstanceParams(2, 1, 0)) - 9.0) < 1e-12
    expected = (8 / 3) * 4 ** (1 / 3) + 1
    assert abs(ratio_lower_bound(InstanceParams(2, 3, 1)) - expected) < 1e-12


def test_criterion_2_tightness_at_desk_scale():
    start = time.monotonic()
    for p in grid():
        lam0 = ratio_lower_bound(p)
        strat = make_exponential_strategy(p, optimal_alpha(p), 1e4)
        r, _ = worst_ratio(strat, p, 1e4)
        assert lam0 - 0.05 <= r <= lam0 + 1e-6, (p, lam0, r)
    assert time.monotonic() - start < 120.0


def test_criterion_3_lower_bound_mechanization():
    for p in grid():
        lam0 = ratio_lower_bound(p)
        alpha = optimal_alpha(p)

        lam = 0.97 * lam0
        # horizon_estimate can exceed float range; a refutation horizon
        # of 1e6 is already far past every witness on this grid.
        N = min(horizon_estimate(p, lam, C=alpha ** (2 * p.m * p.k)), 1e6)
        strat = make_exponential_strategy(p, alpha, N)
        v = refute(strat, lam, p, N)
        assert v.kind == "coverage_failure", p
        assert 1.0 <= v.witness.point <= N, (p, v.witness)

        lam = lam0 + 0.1
        strat = make_exponential_strategy(p, alpha, 1e4)
        v = refute(strat, lam, p, 1e4)
        assert v.kind == "certificate", p

        if p.m == 2:
            line = make_geometric_line_strategy(p, alpha, 1e4)
            v = refute(line, lam, p, 1e4, mode="line")
            assert v.kind == "certificate", p
            if v.trace is not None:
                cap = p.k * p.s * math.log(CoverParams(lam).mu)
                assert v.trace.max_log_potential <= cap + 1e-9, p


def test_criterion_4_growth_factor_property():
    # Perturbed runs: lambda strictly below the tight bound with a short
    # horizon, where the strategy's initial slack still covers.
    perturbed = [
        (InstanceParams(2, 1, 0), 8.99, 20.0),
        (InstanceParams(2, 3, 1), 5.2325, 5.0),
        (InstanceParams(2, 3, 1), 5.232, 10.0),
        (InstanceParams(3, 2, 0), 6.19, 5.0),
    ]
    for p, lam, N in perturbed:
        lam0 = ratio_lower_bound(p)
        assert lam < lam0
        strat = make_exponential_strategy(p, optimal_alpha(p), N)
        v = refute(strat, lam, p, N)
        assert v.kind == "certificate", (p, lam, N)
        delta = growth_factor_delta(p.s, p.k, CoverParams(lam).mu)
        assert delta > 1.0
        for step in v.trace.steps:
            assert step[3] >= delta * (1 - 1e-12), (p, lam, step)  # step ratio

    # At the tight bound itself the floor degrades to 1 (doubling: exactly).
    for p in (InstanceParams(2, 1, 0), InstanceParams(2, 3, 1)):
        lam0 = ratio_lower_bound(p)
        strat = make_exponential_strategy(p, optimal_alpha(p), 1e4)
        v = refute(strat, lam0, p, 1e4)
        assert v.kind == "certificate"
        assert v.trace.min_step_ratio >= 1.0 - 1e-9


def test_criterion_5_oracle_equivalences():
    rng = random.Random(20260826)

    # poly_max_point against a one-million-point grid search.
    n = 10**6
    for _ in range(100):
        s = rng.randint(1, 10)
        k = rng.randint(1, 10)
        mu = rng.uniform(1.5, 50.0)
        x = poly_max_point(s, k, mu)
        g = lambda y: s * math.log(y) + k * math.log(mu - y)
        i = round(x / mu * (n + 1))
        best = max(
            (j for j in (i - 2, i - 1, i, i + 1, i + 2) if 1 <= j <= n),
            key=lambda j: g(mu * j / (n + 1)),
        )
        grid_x = mu * best / (n + 1)
        assert abs(grid_x - x) <= mu / (n + 1)
        step = mu / (n + 1)
        for j in range(1, n, 997):  # sparse audit that no far point beats it
            y = mu * j / (n + 1)
            assert g(y) <= g(x) + 1e-12

    # worst_ratio against a dense tau(x)/x grid.
    p = InstanceParams(2, 3, 1)
    strat = make_exponential_strategy(p, optimal_alpha(p), 1e4)
    exact, _ = worst_ratio(strat, p, 1e4)
    dense = dense_grid_ratio(strat, p, 1e4, rel_step=1e-3)
    assert abs(exact - dense) < 1e-3 * exact

    # incremental vs from-scratch potential over >= 1e3 growth steps.
    c = CoverParams(ratio_lower_bound(p) + 0.05)
    N = optimal_alpha(p) ** 1000
    strat = make_exponential_strategy(p, optimal_alpha(p), N)
    assigned = exact_q_assignment(all_cover_intervals(strat, c), p.q, N)
    state = initial_state(assigned, p, "orc")
    steps = 0
    while advance(state, c) is not None:
        steps += 1
        scratch = potential_value(state)
        assert abs(state.log_potential - scratch) <= 1e-9 * max(1.0, abs(scratch))
    assert steps >= 1000


def test_criterion_6_cross_formula_identities():
    for q in range(2, 21):
        for k in range(1, q):
            lhs = fractional_ratio(q / k)
            rhs = ratio_lower_bound(InstanceParams(q, k, 0))
            assert abs(lhs - rhs) < 1e-10, (q, k)
    # Only (q, k) matters: m=2, f=1 agrees with m=4, f=0 (both q=4).
    for k in (2, 3):
        assert ratio_lower_bound(InstanceParams(2, k, 1)) == ratio_lower_bound(
            InstanceParams(4, k, 0)
        )


def test_criterion_7_fault_model_structure():
    for f in (0, 1, 2):
        k = 2 * (f + 1)
        p = InstanceParams(2, k, f)
        N = 1e4
        half = [TurnSequence((N,)) for _ in range(f + 1)]
        other = [TurnSequence((N,), first_positive=False) for _ in range(f + 1)]
        r, _ = worst_ratio(half + other, p, N)
        assert r == 1.0

    with pytest.raises(InfeasibleRegime):
        ratio_lower_bound(InstanceParams(2, 3, 3))
