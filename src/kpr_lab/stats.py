"""Estimators and analytic baselines: the occupancy formula, the world
lines (each agent's cumulative success percentages, one array per agent),
their dispersion and finite-size extrapolation."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .model import EnsembleSummary, RunResult


def exact_random_utilization(n: int) -> float:
    """Expected fraction of restaurants occupied when n agents pick uniformly.

    Standard occupancy identity: 1 - (1 - 1/n)^n, tending to 1 - 1/e for
    large n.  Serves as the closed-form check for day-1 utilization.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 1.0 - (1.0 - 1.0 / n) ** n


def world_lines(result: RunResult) -> Iterator[np.ndarray]:
    """Each agent's cumulative success percentages, day 1 to max(tau, 1):
    one array per agent, in agent order, whose entry t-1 is day t.  Requires
    the run to have recorded per-day service flags (config.record_history)."""
    flags = _rate_flags(result)
    days = np.arange(1, len(flags) + 1)
    # a count of served days is exact in float64: each entry is 100 * served / day to the bit
    return (flags[:, i].cumsum() * 100.0 / days for i in range(flags.shape[1]))


def dispersion_summary(result: RunResult) -> tuple[float, float, float]:
    """(min, max, spread) of the agents' cumulative success percentages on
    day max(tau, 1), the last entry of each world line."""
    flags = _rate_flags(result)
    finals = flags.sum(axis=0) * 100.0 / len(flags)
    lo, hi = float(finals.min()), float(finals.max())
    return lo, hi, hi - lo


def _rate_flags(result: RunResult) -> np.ndarray:
    if result.success_history is None:
        raise ValueError("run did not record history; enable record_history")
    return result.success_history[: max(result.tau, 1)]


def estimate_fs_extrapolation(rows: tuple[EnsembleSummary, ...]) -> tuple[float, float]:
    """Least-squares fit of fs_mean against 1/N over the rows of an n-sweep;
    the intercept estimates the infinite-size saturation value.
    """
    if len(rows) < 3:
        raise ValueError(f"need at least 3 rows to extrapolate, got {len(rows)}")
    x = np.array([1.0 / row.config.n for row in rows])
    y = np.array([row.fs_mean for row in rows])
    if np.ptp(x) == 0:
        raise ValueError("all sweep values are equal; cannot extrapolate")
    slope, intercept = np.polyfit(x, y, 1)
    return float(intercept), float(slope)
