"""Reference paths, written out plainly, that the package's tests compare against.

The package samples a whole day at once (engine.sample_choices_vectorized);
the per-agent functions here state the same rule one agent at a time.
``reference_fnum`` is the number format as two format-and-parse passes, the
oracle for the one-pass ``cli.fnum``.  ``reference_world_lines`` and
``reference_dispersion`` read the success percentages from a (days, n)
matrix of service flags by cumulative sums, the oracle for ``stats``, which
reads them from each day's losers (``losers_of`` turns flags into those).
``reference_greedy_verdict`` scans a greedy f series for its first full
day, the oracle for ``engine.run``, which judges a greedy run by its stop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from kpr_lab.model import Strategy


@dataclass
class AgentState:
    """One agent's view of yesterday: where it went, how crowded it was."""

    last_restaurant: int
    last_crowd: int
    was_served: bool


def stay_probability(
    strategy: Strategy, alpha: float, last_crowd: int, was_served: bool
) -> float:
    """Probability of returning to yesterday's restaurant.

    Crowd-avoiding agents return with probability ``1 / crowd**alpha``; the
    greedy variant sends served agents back with certainty and applies the
    ``alpha = 1`` rule to everyone else.  The random strategy never consults
    this function.
    """
    if last_crowd < 1:
        raise ValueError(f"last_crowd must be >= 1, got {last_crowd}")
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if strategy is Strategy.CROWD_AVOIDING:
        return float(last_crowd) ** -alpha
    if strategy is Strategy.GREEDY_CROWD_AVOIDING:
        return 1.0 if was_served else 1.0 / last_crowd
    raise ValueError("random strategy does not define a stay probability")


def sample_choice(
    agent: AgentState,
    strategy: Strategy,
    alpha: float,
    n: int,
    rng: np.random.Generator,
) -> int:
    """Sample one agent's restaurant for the next day.

    The "other" branch draws a uniform index over n-1 slots and skips past
    yesterday's restaurant, so the stayed-at restaurant can never be picked
    through it.
    """
    if strategy is Strategy.RANDOM:
        return int(rng.integers(n))
    p = stay_probability(strategy, alpha, agent.last_crowd, agent.was_served)
    if rng.random() < p:
        return agent.last_restaurant
    other = int(rng.integers(n - 1))
    if other >= agent.last_restaurant:
        other += 1
    return other


def reference_fnum(x: float) -> str:
    """Decimal notation, six significant digits, no exponent form.

    A second pass re-anchors the digits on the parsed first text when that
    text does not read back as x, which changes it only when rounding carried
    into the next decade or x is subnormal.
    """
    x = float(x)
    if not math.isfinite(x):
        return str(x)  # nan, inf or -inf, which float() reads back
    for _ in range(2):  # second pass re-anchors when rounding crosses a decade
        if x == 0.0:
            return "0.000000"
        decimals = max(0, 5 - math.floor(math.log10(abs(x))))
        text = f"{x:.{decimals}f}"
        if float(text) == x:
            return text
        x = float(text)
    return text


def reference_greedy_verdict(f_series: np.ndarray) -> tuple[int, float, bool]:
    """(tau, f_s, converged) of a greedy run: converged on its first day with
    f = 1 exactly, tau the days before it; else tau is the series' length and
    f_s its last day."""
    full = np.flatnonzero(np.asarray(f_series) == 1.0)
    if full.size:
        return int(full[0]), 1.0, True
    return len(f_series), float(f_series[-1]), False


def losers_of(flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each day's unserved agents, ascending, day after day, and the day
    offsets into them, as a run records them."""
    days, agents = np.nonzero(~flags)
    offsets = np.searchsorted(days, np.arange(len(flags) + 1))
    return agents.astype(np.int32), offsets


def reference_world_lines(flags: np.ndarray, tau: int) -> np.ndarray:
    """(days, n) cumulative success percentages, days 1 to max(tau, 1)."""
    flags = flags[: max(tau, 1)]
    days = np.arange(1, len(flags) + 1)[:, None]
    return flags.cumsum(axis=0) * 100.0 / days


def reference_dispersion(flags: np.ndarray, tau: int) -> tuple[float, float, float]:
    """(min, max, spread) of the percentages on day max(tau, 1)."""
    flags = flags[: max(tau, 1)]
    finals = flags.sum(axis=0) * 100.0 / len(flags)
    lo, hi = float(finals.min()), float(finals.max())
    return lo, hi, hi - lo
