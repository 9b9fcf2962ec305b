"""Fractional one-ray retrieval: closed-form ratio and weight rationalization.

A fractional instance asks weighted robots (weights summing to 1) to
cover every point with robots of total weight eta > 1, counting repeat
coverings only after returns to the origin.  Its tight ratio has the same
shape as the integer bound; the bridge between the two is a
rationalization of the weights to k_i/q brackets.

`rationalize_weights` finds the smallest such q by trying only the q in
the windows [k/top, k/low], k = 1, 2, ..., of the bracket with the
smallest low end: about low*Q windows for an answer Q, in place of
every q up to Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .formulas import _critical_slack

__all__ = [
    "FractionalInstance",
    "Rationalization",
    "fractional_ratio",
    "rationalize_weights",
]

_DEFAULT_DENOMINATOR_CAP = 10**6


@dataclass(frozen=True)
class FractionalInstance:
    weights: tuple[float, ...]
    eta: float
    delta_rat: float

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("need at least one weight")
        if any(not w > 0.0 for w in self.weights):  # NaN fails it too
            raise ValueError("weights must be positive")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {sum(self.weights)}")
        _require_eta(
            self.eta, " (a single full-weight robot already achieves ratio 1 at eta = 1)"
        )
        if not self.delta_rat >= 0.0:
            raise ValueError(f"rationalization slack must be >= 0, got {self.delta_rat}")


@dataclass(frozen=True)
class Rationalization:
    q: int
    counts: tuple[int, ...]

    @property
    def k(self) -> int:
        return sum(self.counts)


def _require_eta(eta: float, why: str = "") -> None:
    if not eta > 1.0:
        raise ValueError(f"eta must exceed 1{why}, got {eta}")
    if eta == math.inf:
        raise ValueError(f"eta must be finite, got {eta}")


def fractional_ratio(eta: float) -> float:
    """Tight fractional ratio 2*eta^eta/(eta-1)^(eta-1) + 1 for finite
    eta > 1; inf where it overflows binary64 (eta above about 3.3e307).

    Taken as 2*mu + 1 with mu = `formulas._critical_slack(eta - 1)`, the
    integer bound's one form: the difference eta*log(eta) -
    (eta-1)*log(eta-1) would cancel as eta grows.
    """
    _require_eta(eta)
    return 2.0 * _critical_slack(eta - 1.0) + 1.0


# Relative widening of each window of q, past the rounding of the
# bracket test's float products and quotients (a few 1e-16).
_WIDEN = 1e-9


def rationalize_weights(
    inst: FractionalInstance, cap: int = _DEFAULT_DENOMINATOR_CAP
) -> Rationalization:
    """Smallest denominator q with integers k_i/q inside every weight bracket.

    Bracket i is [w_i/eta, w_i/eta + delta], and q fits it when
    k_i = ceil(low_i*q - 1e-12) is at least 1 and k_i/q <= low_i + delta
    + 1e-12.  For k = 1, 2, ... the bracket with the smallest low end
    holds k/q only for q in [k/top, k/low], each end widened by `_WIDEN`;
    the q of those windows are tried in increasing order, each once, on
    every bracket.  The search is exhaustive up to `cap`; on failure the
    error reports the tightest bracket.
    """
    delta = inst.delta_rat
    lows = [w / inst.eta for w in inst.weights]
    brackets = [(low_i, low_i + delta + 1e-12) for low_i in lows]
    low = min(lows)
    # a low end that underflows to 0 has no k_i >= 1: no q fits
    if low > 0.0:
        # window k is [ceil(k*first_of), floor(k*last_of)], clamped to cap
        first_of = (1.0 - _WIDEN) / (low + delta + 1e-12)
        last_of = (1.0 + _WIDEN) / low
        untried, k = 1, 0  # every q below `untried` failed or lies in no window
        while True:
            k += 1
            first = math.ceil(k * first_of)
            if first < untried:
                first = untried
            if first > cap:
                break
            end = k * last_of
            last = cap if end >= cap else math.floor(end)
            for q in range(first, last + 1):
                counts: list[int] = []
                for low_i, top_i in brackets:
                    k_i = math.ceil(low_i * q - 1e-12)
                    if k_i < 1 or k_i / q > top_i:
                        break
                    counts.append(k_i)
                else:
                    return Rationalization(q, tuple(counts))
            if last >= untried:
                untried = last + 1
    tightest = lows.index(low)
    raise ValueError(
        f"no denominator up to {cap} fits bracket "
        f"[{low}, {low + delta}] "
        f"(weight {inst.weights[tightest]}, eta {inst.eta}, delta {delta})"
    )
