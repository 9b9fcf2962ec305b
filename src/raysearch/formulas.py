"""Closed-form quantities for fault-tolerant search on m rays.

Everything here is a pure function of small integer/real parameters:
the tight competitive-ratio bound, the optimal base of the cyclic
exponential strategy, the per-step growth factor of the potential audit,
and the refutation horizon.

The tight bound has one form, `_critical_slack(x)` with x = rho - 1 =
s/k: (1+x) exp(x log1p(1/x)), whose exponent lies in (0, 1).  The
critical slack `mu_critical`, the bound `ratio_lower_bound`, the growth
factor `growth_factor_delta` and `fractional.fractional_ratio` all read
it, so none takes the difference of large logs (q^q overflows 64-bit
floats near q ~ 170) and each is within a few ulps of exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "InstanceParams",
    "CoverParams",
    "TrivialRegime",
    "InfeasibleRegime",
    "NoFiniteHorizon",
    "ratio_lower_bound",
    "optimal_alpha",
    "growth_factor_delta",
    "mu_critical",
    "horizon_estimate",
]

_LOG_FLOAT_MAX = math.log(1.7976931348623157e308)


class TrivialRegime(Exception):
    """k >= m(f+1): send f+1 robots down each ray, ratio 1 is achievable."""

    ratio = 1.0


class InfeasibleRegime(Exception):
    """k <= f: every robot may be faulty, the target can never be confirmed."""


class NoFiniteHorizon(Exception):
    """No finite horizon yields a contradiction (lambda at or above the bound)."""


def _critical_slack(x: float) -> float:
    """(1+x)^(1+x) / x^x for x > 0, as (1+x) exp(x log1p(1/x)).

    The exponent lies in (0, 1), so exp adds no error of its own and
    nothing cancels: a few ulps from exact at the x it is given.
    """
    return (1.0 + x) * math.exp(x * math.log1p(1.0 / x))


@dataclass(frozen=True)
class InstanceParams:
    """Problem sizes: m rays, k robots, f of them crash-faulty."""

    m: int
    k: int
    f: int

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"need at least 2 rays, got m={self.m}")
        if self.k < 1:
            raise ValueError(f"need at least 1 robot, got k={self.k}")
        if self.f < 0:
            raise ValueError(f"faulty count must be >= 0, got f={self.f}")

    @property
    def q(self) -> int:
        """Total fold requirement m*(f+1)."""
        return self.m * (self.f + 1)

    @property
    def s(self) -> int:
        """Fold deficit q - k; positive in the nontrivial regime."""
        return self.q - self.k

    @property
    def rho(self) -> float:
        return self.q / self.k

    def require_searchable(self) -> None:
        """Reject the degenerate regimes: raises outside f < k < q."""
        if self.k <= self.f:
            raise InfeasibleRegime(
                f"k={self.k} <= f={self.f}: all robots may be faulty"
            )
        if self.k >= self.q:
            raise TrivialRegime(
                f"k={self.k} >= m(f+1)={self.q}: ratio 1 achievable"
            )


@dataclass(frozen=True)
class CoverParams:
    """A candidate competitive ratio lambda > 1, finite, and its half-slack mu."""

    lam: float

    def __post_init__(self) -> None:
        if not self.lam > 1.0:
            raise ValueError(f"lambda must be > 1, got {self.lam}")
        if self.lam == math.inf:
            raise ValueError(f"lambda must be finite, got {self.lam}")

    @property
    def mu(self) -> float:
        return (self.lam - 1.0) / 2.0


def ratio_lower_bound(p: InstanceParams) -> float:
    """Tight ratio 2*(q^q / ((q-k)^(q-k) k^k))^(1/k) + 1: mu = mu_critical(q-k, k)."""
    p.require_searchable()
    return 2.0 * mu_critical(p.s, p.k) + 1.0


def optimal_alpha(p: InstanceParams) -> float:
    """Base of the optimal cyclic exponential strategy: (q/(q-k))^(1/k)."""
    p.require_searchable()
    q, k = p.q, p.k
    return math.exp((1.0 / k) * math.log(q) - (1.0 / k) * math.log(q - k))


def growth_factor_delta(s: int, k: int, mu: float) -> float:
    """(k+s)^(k+s) / (s^s k^k mu^k) = (mu_critical/mu)^k; inf where it overflows.

    Exceeds 1 iff mu is below mu_critical, and is exactly 1.0 there; mu
    must be positive and finite.
    """
    if s < 1 or k < 1:
        raise ValueError(f"s and k must be >= 1, got s={s}, k={k}")
    if not mu > 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    if mu == math.inf:
        raise ValueError(f"mu must be finite, got {mu}")
    log_delta = _log_growth_factor(s, k, mu)
    if log_delta > _LOG_FLOAT_MAX:
        return math.inf
    return math.exp(log_delta)


def _log_growth_factor(s: int, k: int, mu: float) -> float:
    """log delta = k log(mu_critical/mu), finite wherever delta overflows."""
    return k * math.log(_critical_slack(s / k) / mu)


def mu_critical(s: int, k: int) -> float:
    """The critical slack ((k+s)^(k+s) / (s^s k^k))^(1/k); delta(mu) = 1 here."""
    if s < 1 or k < 1:
        raise ValueError(f"s and k must be >= 1, got s={s}, k={k}")
    return _critical_slack(s / k)


def horizon_estimate(p: InstanceParams, lam: float, C: float) -> float:
    """Horizon N = C^n beyond which a q-fold lambda-cover is impossible.

    Valid for lambda strictly below the tight bound, assuming per-robot
    consecutive left-endpoint gaps of at most C.  The step count n comes
    from the potential cap C^(qk) mu^((q-k)k) divided by the per-step
    growth factor, with the initial potential normalized to 1.

    Returns inf when C^n overflows a 64-bit float; the bound still holds,
    only its decimal expansion is out of range.  C itself must be finite.
    """
    lam0 = ratio_lower_bound(p)
    if lam >= lam0:
        raise NoFiniteHorizon(
            f"lambda={lam} >= tight bound {lam0}: covers of every [1,N] exist"
        )
    mu = CoverParams(lam).mu
    if not C > mu:
        raise ValueError(f"need C > mu, got C={C}, mu={mu}")
    if C == math.inf:
        raise ValueError("need a finite C, got inf")
    log_delta = _log_growth_factor(p.s, p.k, mu)
    if log_delta <= 0.0:
        raise NoFiniteHorizon(
            f"growth factor {math.exp(log_delta)} <= 1 at mu={mu}: potential need not grow"
        )
    log_cap = p.q * p.k * math.log(C) + p.s * p.k * math.log(mu)
    n = max(1, math.ceil(log_cap / log_delta))
    log_n_horizon = n * math.log(C)
    if log_n_horizon > _LOG_FLOAT_MAX:
        return math.inf
    return math.exp(log_n_horizon)
