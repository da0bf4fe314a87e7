"""Scalar reference path: one agent's choice rule, written out plainly.

The package samples a whole day at once (strategy.sample_choices_vectorized);
these per-agent functions state the same rule one agent at a time and are
the oracle its tests compare against.
"""

from __future__ import annotations

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
