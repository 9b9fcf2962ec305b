"""Strategy representations and generators.

Two settings are supported, mirroring the two covering relaxations:

* line: a robot alternates sides of the origin, turning at distances
  t_1 <= t_2 <= ...; it covers x once it has visited both x and -x.
* rays / one-ray-cover (ORC): a robot works in rounds, each an excursion
  origin -> turning point -> origin; repeat visits to a point only count
  after a return to the origin.

The cyclic exponential strategy of the tight upper bound is generated
here, together with extraction of the lambda-cover intervals that feed
the covering machinery; a strategy is read as given, unfruitful turns
included.  `cover_intervals` states the cover rule once, as plain
(robot, round_index, left, right) tuples, and `refute` hands
`all_cover_intervals`' tuples to the assignment as they are.  `_legs`
walks either kind as (ray, turn) legs, and it holds the one statement of
the line side rule.  `_require_strategy_set` gates both simulator paths
alike: a target off a set's rays is a ValueError.  The turn rule, every
turn > 0 (NaN fails it), is tested in each validator's own loop, that of
`TurnSequence` and that of `RoundPlan`, with no call per turn: every
generated or loaded set passes through one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import cycle
from typing import Iterable, Sequence, Union

from .formulas import CoverParams, InstanceParams

__all__ = [
    "TurnSequence",
    "RoundPlan",
    "Strategy",
    "make_exponential_strategy",
    "make_geometric_line_strategy",
    "cover_intervals",
    "all_cover_intervals",
    "dumps_strategies",
    "loads_strategies",
    "save_strategies",
    "load_strategies",
]


@dataclass(frozen=True)
class TurnSequence:
    """Line strategy: turning distances, alternating sides.

    `turns` are magnitudes; the robot moves first toward the positive
    side unless `first_positive` is False (a mirrored strategy, as a
    strategy file may give it).
    """

    turns: tuple[float, ...]
    first_positive: bool = True

    def __post_init__(self) -> None:
        for turn in self.turns:
            if not turn > 0.0:  # the turn rule, as in RoundPlan; NaN fails it
                raise ValueError("turning distances must be positive")


@dataclass(frozen=True)
class RoundPlan:
    """Rays/ORC strategy: origin->turn->origin excursions as (ray, turn) pairs."""

    rounds: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        for ray, turn in self.rounds:
            if ray < 1:
                raise ValueError(f"ray index must be >= 1, got {ray}")
            if not turn > 0.0:  # the turn rule, as in TurnSequence; NaN fails it
                raise ValueError(f"turn distance must be positive, got {turn}")


Strategy = Union[TurnSequence, RoundPlan]


def _legs(strategy: Strategy) -> Iterable[tuple[int, float]]:
    """(ray, turn) of each round or turn, in walking order.  The side rule:
    line turn i (0-based) lies on ray +1 iff (i even) == first_positive."""
    if isinstance(strategy, RoundPlan):
        return strategy.rounds
    if isinstance(strategy, TurnSequence):
        sides = (1, -1) if strategy.first_positive else (-1, 1)
        return zip(cycle(sides), strategy.turns)
    raise TypeError(f"unsupported strategy type {type(strategy)!r}")


# the interval [left, right] a turn or round lambda-covers, as
# (robot, round_index, left, right); `cover` checks left <= right
_CoverRow = tuple[int, int, float, float]


def _require_horizon(N: float, name: str = "N") -> None:
    """The check of a horizon N, as its caller names it: N = inf passes, NaN fails."""
    if not N >= 1.0:
        raise ValueError(f"horizon {name} must be >= 1, got {N!r}")


def _require_two_rays(p: InstanceParams) -> None:
    if p.m != 2:
        raise ValueError(f"line strategies need m=2, got m={p.m}")


def _ray_past_m(r: int, ray: int, p: InstanceParams) -> ValueError:
    return ValueError(f"robot {r} visits ray {ray}, past m = {p.m}")


def _require_strategy_set(
    strategies: Sequence[Strategy], p: InstanceParams, mode: str | None = None
) -> tuple[int, ...]:
    """ValueError unless there are p.k strategies of one kind, the mode's kind
    if given ("line": TurnSequence, "orc": RoundPlan), line ones only on m = 2,
    and in orc mode no round on a ray past m (the sweep finds those in its
    walk).  Returns the rays searched: (1, -1) for TurnSequences, else 1..m."""
    if len(strategies) != p.k:
        raise ValueError(f"expected {p.k} strategies, got {len(strategies)}")
    line = any(isinstance(s, TurnSequence) for s in strategies)
    if mode is not None:
        kind = TurnSequence if mode == "line" else RoundPlan
        for r, strat in enumerate(strategies):
            if not isinstance(strat, kind):
                raise ValueError(
                    f"{mode} mode needs {kind.__name__} strategies, "
                    f"robot {r} is a {type(strat).__name__}"
                )
        if mode == "orc":
            for r, strat in enumerate(strategies):
                # one max in C per robot; the walk only finds the ray to name
                if strat.rounds and max(strat.rounds)[0] > p.m:
                    ray = next(ray for ray, _ in strat.rounds if ray > p.m)
                    raise _ray_past_m(r, ray, p)
    elif line and any(isinstance(s, RoundPlan) for s in strategies):
        raise ValueError("strategies mix RoundPlan and TurnSequence: give one kind")
    if line:
        _require_two_rays(p)
    return (1, -1) if line else tuple(range(1, p.m + 1))


# The most rounds (turns, for line strategies) one generator call may
# return.  Each generator counts its rounds before it makes the first, and
# a larger count is a ValueError: a round takes about 90 bytes in its plan
# and 140 more as a cover interval, so a set at the limit stays near
# 230 MB.  The benchmark's largest sets have 4 464 rounds.
MAX_ROUNDS = 1_000_000


def _require_round_count(count: int, p: InstanceParams, alpha: float, horizon: float) -> None:
    if count > MAX_ROUNDS:
        raise ValueError(
            f"{p}, alpha={alpha!r}, N={horizon!r}: {count} rounds exceed"
            f" the limit of {MAX_ROUNDS}"
        )


def _require_finite_turns(
    top: int, log_alpha: float, p: InstanceParams, alpha: float, horizon: float
) -> None:
    """ValueError unless the largest turn, alpha^top, is finite in binary64;
    exp is monotone, so then every smaller turn is finite too."""
    try:
        math.exp(top * log_alpha)
    except OverflowError:
        raise ValueError(
            f"{p}, alpha={alpha!r}, N={horizon!r}: "
            f"the largest turn alpha^{top} overflows binary64"
        ) from None


def _require_base_and_horizon(alpha: float, horizon: float) -> None:
    if not alpha > 1.0:
        raise ValueError(f"alpha must be > 1, got {alpha}")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if not (horizon >= 1.0 and math.isfinite(horizon)):
        raise ValueError(f"horizon must be finite and >= 1, got {horizon}")


def make_exponential_strategy(
    p: InstanceParams, alpha: float, horizon: float
) -> list[RoundPlan]:
    """Cyclic exponential strategy: robot r turns at alpha^(k(i+mj)+mr).

    Robot r starts at ray 1 and visits the rays cyclically; on its
    (j+3)-rd visit of ray i (cycles counted from j = -2, so that each ray
    gets passes well below distance 1) it turns at alpha^(k(i+mj)+mr).
    Each point of [1, horizon] on each ray ends up inside the assignment
    windows of exactly f+1 distinct robots.

    Generation stops after the first full cycle whose assignment windows
    lie entirely beyond the horizon.  That cycle is known before the first
    round, so a set of more than MAX_ROUNDS rounds is a ValueError, and so
    is one whose largest turn overflows binary64.
    """
    p.require_searchable()
    _require_base_and_horizon(alpha, horizon)
    m, k, q = p.m, p.k, p.q
    log_alpha = math.log(alpha)
    low = k * (1 - 2 * m) + m  # the exponent of robot 1's first turn, the smallest
    if math.exp(low * log_alpha) == 0.0:
        raise ValueError(f"{p}, alpha={alpha!r}: the first turn alpha^{low} underflows to 0")
    log_h = math.log(horizon)

    def beyond(r: int, j: int) -> bool:
        # the window of a turn alpha^e starts at alpha^(e - q); the cycle's
        # smallest e is ray 1's, and the float test is monotone in e
        return (k * (1 + m * j) + m * r - q) * log_alpha > log_h

    last = []  # per robot, its first cycle j >= -2 beyond the horizon
    for r in range(1, k + 1):
        # the closed form's guess, settled by the float test itself
        # (to j >= -2: cycle -3's exponent k(1-3m)+mr-q is negative)
        j = math.floor((log_h / log_alpha - k - m * r + q) / (k * m)) + 1
        while beyond(r, j - 1):
            j -= 1
        while not beyond(r, j):
            j += 1
        last.append(j)
    _require_round_count(m * sum(j + 3 for j in last), p, alpha, horizon)
    # robot r's largest turn is its last one, on ray m
    top = max(k * m * (j + 1) + m * r for r, j in enumerate(last, start=1))
    _require_finite_turns(top, log_alpha, p, alpha, horizon)
    # in walking order robot r's exponents k(i+mj)+mr are k*n + mr for
    # n = 1-2m .. m(j_last+1): one progression of step k, the same integers
    exp = math.exp
    return [
        RoundPlan(tuple(zip(cycle(range(1, m + 1)), [
            exp(e * log_alpha)
            for e in range(k * (1 - 2 * m) + m * r, k * m * (j_last + 1) + m * r + 1, k)
        ])))
        for r, j_last in enumerate(last, start=1)
    ]


def make_geometric_line_strategy(
    p: InstanceParams, alpha: float, horizon: float
) -> list[TurnSequence]:
    """Staggered geometric line strategies for the two-ray setting.

    Robot r (0-based) turns at alpha^(j*k + r), alternating sides.  At the
    optimal alpha the cover intervals of all k robots tile every point of
    [1, horizon] exactly s = 2(f+1)-k times.  Each robot's range of j is
    known first, so a set of more than MAX_ROUNDS turns is a ValueError,
    and so is one whose largest turn overflows binary64.
    """
    _require_two_rays(p)
    p.require_searchable()
    _require_base_and_horizon(alpha, horizon)
    k, s = p.k, p.s
    log_alpha = math.log(alpha)
    e_hi = math.log(horizon) / log_alpha + s + k
    ranges = [
        range(math.floor((-s - k - r) / k), math.ceil((e_hi - r) / k) + 1) for r in range(k)
    ]
    _require_round_count(sum(map(len, ranges)), p, alpha, horizon)
    top = max(js[-1] * k + r for r, js in enumerate(ranges))  # of each robot's last turn
    _require_finite_turns(top, log_alpha, p, alpha, horizon)
    return [
        TurnSequence(tuple(math.exp((j * k + r) * log_alpha) for j in js))
        for r, js in enumerate(ranges)
    ]


def cover_intervals(strategy: Strategy, c: CoverParams, robot: int = 0) -> list[_CoverRow]:
    """(robot, round_index, left, right) of each interval the strategy
    lambda-covers, one per fruitful turn: the one statement of the cover rule.

    Line: turn i covers [max((t_1+...+t_i)/mu, t_(i-1)), t_i] (visiting x
    and -x costs 2*(t_1+...+t_i) + x).  ORC: round i covers
    [(t_1+...+t_(i-1))/mu, t_i] (the outbound leg reaches x directly).
    Prefix sums run over the strategy as given, including unfruitful
    turns, so the union is exactly the covered set of *this* strategy.
    """
    mu = c.mu
    out: list[_CoverRow] = []
    if isinstance(strategy, TurnSequence):
        total = 0.0
        prev = 0.0
        for i, turn in enumerate(strategy.turns):
            total += turn
            left = max(total / mu, prev)
            if left <= turn:
                out.append((robot, i, left, turn))
            prev = turn
    elif isinstance(strategy, RoundPlan):
        total = 0.0
        for i, (_, turn) in enumerate(strategy.rounds):
            left = total / mu
            if left <= turn:
                out.append((robot, i, left, turn))
            total += turn
    else:
        raise TypeError(f"unsupported strategy type {type(strategy)!r}")
    return out


def all_cover_intervals(strategies: Sequence[Strategy], c: CoverParams) -> list[_CoverRow]:
    """Each robot's `cover_intervals` in robot order, tagged 0..k-1."""
    return [row for r, strat in enumerate(strategies) for row in cover_intervals(strat, c, r)]


# --- serialization: one robot per line ---------------------------------
#
# rays/ORC strategies are written as `ray:turn` pairs, line strategies as
# signed turning points with alternating signs.  Values use repr(), the
# shortest decimal that round-trips in binary64.


def _dump_one(strategy: Strategy) -> str:
    if isinstance(strategy, RoundPlan):
        return " ".join(f"{ray}:{turn!r}" for ray, turn in strategy.rounds)
    return " ".join(repr(turn) if side > 0 else f"-{turn!r}" for side, turn in _legs(strategy))


def dumps_strategies(strategies: Iterable[Strategy]) -> str:
    return "".join(_dump_one(s) + "\n" for s in strategies)


def _parse_plan_tokens(tokens: list[str]) -> RoundPlan:
    rounds = []
    for tok in tokens:
        ray_s, colon, turn_s = tok.partition(":")
        if not colon:
            raise ValueError(f"expected ray:turn, got {tok!r}")
        rounds.append((int(ray_s), float(turn_s)))
    return RoundPlan(tuple(rounds))


def _parse_line_tokens(tokens: list[str]) -> TurnSequence:
    signs = []
    turns = []
    for tok in tokens:
        value = float(tok)
        if value == 0.0:
            raise ValueError("zero turning point")
        signs.append(1 if value > 0 else -1)
        turns.append(abs(value))
    for a, b in zip(signs, signs[1:]):
        if a == b:
            raise ValueError("turning points must alternate sides")
    return TurnSequence(tuple(turns), first_positive=signs[0] > 0)


def loads_strategies(text: str) -> list[Strategy]:
    """One strategy per non-blank, non-comment line; errors name the line."""
    out: list[Strategy] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        parse = _parse_plan_tokens if ":" in tokens[0] else _parse_line_tokens
        try:
            out.append(parse(tokens))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return out


def save_strategies(strategies: Iterable[Strategy], path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_strategies(strategies))


def load_strategies(path: str) -> list[Strategy]:
    with open(path) as fh:
        return loads_strategies(fh.read())
