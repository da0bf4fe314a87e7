"""Domain types for the Kolkata Paise Restaurant simulation.

N agents pick among N single-serving restaurants each day; every non-empty
restaurant serves exactly one randomly chosen arrival.  These types carry the
configuration of one experiment and the per-run and per-ensemble results;
the day step itself returns only the day's utilization (see engine).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

MAX_SEED = 2**64 - 1

DEFAULT_MAX_DAYS = 1000
GREEDY_MAX_DAYS_FACTOR = 10


def check_seed(seed: int) -> None:
    """Reject a seed outside 0 .. 2**64 - 1: seeds are mixed modulo 2**64
    (see orchestrator.derive_seed), so a wider one would alias another."""
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")


class Strategy(Enum):
    """How an agent picks tomorrow's restaurant from yesterday's crowd info."""

    RANDOM = "random"
    CROWD_AVOIDING = "ca"
    GREEDY_CROWD_AVOIDING = "gca"


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one simulation run.

    ``alpha`` is the crowd-avoidance exponent: an agent returns to
    yesterday's restaurant with probability ``1 / crowd**alpha``.  It only
    affects CROWD_AVOIDING; the greedy variant always uses the ``alpha = 1``
    rule for its non-served agents, and the random strategy ignores it.

    ``max_days = None`` resolves to 1000 days for random/crowd-avoiding runs
    and ``10 * n`` for greedy runs (whose convergence time scales with n).
    """

    n: int
    strategy: Strategy
    alpha: float = 1.0
    max_days: int | None = None
    seed: int = 0
    record_history: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if self.max_days is not None and self.max_days < 1:
            raise ValueError(f"max_days must be >= 1, got {self.max_days}")
        check_seed(self.seed)

    @property
    def effective_max_days(self) -> int:
        if self.max_days is not None:
            return self.max_days
        if self.strategy is Strategy.GREEDY_CROWD_AVOIDING:
            return GREEDY_MAX_DAYS_FACTOR * self.n
        return DEFAULT_MAX_DAYS


@dataclass
class RunResult:
    """Everything measured from one run.

    ``f_series`` holds day t's utilization at entry t-1: a float64 view of
    the buffer the run appended each day's f to, not a copy.  ``tau``
    counts the days strictly before the first converged day, so a run that
    is converged from day 1 has ``tau = 0``.  ``final_rates`` holds
    each agent's cumulative success percentage at day max(tau, 1) for a
    greedy run, and is None for random and crowd-avoiding runs; the world
    lines of a history-recording run (stats.world_lines, one array per
    agent) end in any run's rates.  ``losers`` holds every day's unserved
    agents as one int32 array, day after day, each day's ascending; day t's
    are ``losers[loser_offsets[t - 1]:loser_offsets[t]]``.  Both are kept
    only when the config records history; no other per-day array outlives
    the run.
    """

    config: SimulationConfig
    f_series: np.ndarray
    tau: int
    f_s: float
    final_rates: np.ndarray | None
    converged: bool
    losers: np.ndarray | None = None
    loser_offsets: np.ndarray | None = None

    @property
    def days(self) -> int:
        return len(self.f_series)


@dataclass(frozen=True)
class RunSummary:
    """Slim per-run record kept inside an ensemble summary; like
    final_rates, ``min_final_rate`` is None unless the run is greedy."""

    seed: int
    tau: int
    f_s: float
    converged: bool
    min_final_rate: float | None


@dataclass
class EnsembleSummary:
    """Statistics over independent runs of one configuration.

    Standard deviations are population stddevs (ddof=0), so a single-run
    ensemble reports 0.  ``dispersion_min_rate_mean`` averages, over runs,
    the minimum final cumulative success rate across agents; it is None
    unless the runs are greedy, the only ones that keep final rates.
    """

    config: SimulationConfig
    runs: int
    tau_mean: float
    tau_std: float
    fs_mean: float
    fs_std: float
    dispersion_min_rate_mean: float | None
    converged_fraction: float
    per_run: list[RunSummary] = field(default_factory=list)
