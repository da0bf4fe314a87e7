"""Estimators and analytic baselines: the occupancy formula, the world-line
matrix of cumulative success percentages (days x agents), its dispersion
and finite-size extrapolation."""

from __future__ import annotations

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


def world_lines(result: RunResult) -> np.ndarray:
    """Cumulative success percentages of every agent, day 1 to max(tau, 1).

    Returns a (max(tau, 1), n) matrix: row t-1 is day t, column i is agent
    i.  Requires the run to have recorded per-day service flags
    (config.record_history).
    """
    if result.success_history is None:
        raise ValueError("run did not record history; enable record_history")
    upto = min(max(result.tau, 1), len(result.success_history))
    # one float matrix, filled in place: sums of 0/1 flags are exact in
    # float64, so each entry is 100.0 * (days served) / day to the bit
    pct = result.success_history[:upto].astype(np.float64)
    np.cumsum(pct, axis=0, out=pct)
    pct *= 100.0
    pct /= np.arange(1, upto + 1)[:, None]
    return pct


def dispersion_summary(pct: np.ndarray) -> tuple[float, float, float]:
    """(min, max, spread) of the agents' final cumulative success
    percentages, the last row of a world-line matrix."""
    finals = pct[-1]
    lo, hi = float(finals.min()), float(finals.max())
    return lo, hi, hi - lo


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
