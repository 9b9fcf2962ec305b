"""Fractional one-ray retrieval: closed-form ratio and weight rationalization.

A fractional instance asks weighted robots (weights summing to 1) to
cover every point with robots of total weight eta > 1, counting repeat
coverings only after returns to the origin.  Its tight ratio has the same
shape as the integer bound; the bridge between the two is a
rationalization of the weights to k_i/q brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .formulas import _exp_of

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
        if any(w <= 0.0 for w in self.weights):
            raise ValueError("weights must be positive")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {sum(self.weights)}")
        if not self.eta > 1.0:
            raise ValueError(
                f"eta must exceed 1 (a single full-weight robot already "
                f"achieves ratio 1 at eta = 1), got {self.eta}"
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


def fractional_ratio(eta: float) -> float:
    """Tight fractional ratio 2*eta^eta/(eta-1)^(eta-1) + 1, eta > 1."""
    if not eta > 1.0:
        raise ValueError(f"eta must exceed 1, got {eta}")
    return 2.0 * _exp_of([(eta, eta), (-(eta - 1.0), eta - 1.0)]) + 1.0


def rationalize_weights(
    inst: FractionalInstance, cap: int = _DEFAULT_DENOMINATOR_CAP
) -> Rationalization:
    """Smallest denominator q with integers k_i/q inside every weight bracket.

    Bracket i is [w_i/eta, w_i/eta + delta].  The search is exhaustive up
    to `cap`; on failure the error reports the tightest bracket.
    """
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
