import math

import pytest

from raysearch import CoverParams, InstanceParams, make_exponential_strategy, optimal_alpha


@pytest.fixture
def doubling():
    """The classic single-robot two-ray instance whose optimal base is 2."""
    return InstanceParams(2, 1, 0)


@pytest.fixture
def doubling_strategy(doubling):
    return make_exponential_strategy(doubling, optimal_alpha(doubling), 1e4)


@pytest.fixture
def three_robot():
    """m=2, k=3, f=1: a small faulty instance with ratio about 5.233."""
    return InstanceParams(2, 3, 1)


@pytest.fixture
def cover9():
    return CoverParams(9.0)


def slow_supremum(pairs):
    """Sup of (key, ratio) pairs, a ratio of None meaning undetected: (inf,
    key) at the first undetected key, else the largest ratio with the first
    key that reaches it.

    Once the simulator's public `supremum`: the oracle of the sweep's own
    witness rule, with keys in number order.
    """
    best_ratio = -math.inf
    best_key = None
    for key, ratio in pairs:
        if ratio is None:
            return math.inf, key
        if ratio > best_ratio:
            best_ratio = ratio
            best_key = key
    assert best_key is not None
    return best_ratio, best_key
