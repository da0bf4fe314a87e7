"""Estimators and analytic baselines: the occupancy formula, the success
percentage, the world lines (each agent's cumulative success percentages,
one array per agent, read from the losers a run records each day), their
dispersion and finite-size extrapolation."""

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


def success_percentages(losses: np.ndarray, days: int | np.ndarray) -> np.ndarray:
    """Cumulative success percentage after ``days`` days with ``losses`` of
    them unserved: 100 * (days - losses) / days, elementwise.  A count of
    served days is exact in float64, so each entry is correct to the bit."""
    return (days - losses) * 100.0 / days


def world_lines(result: RunResult) -> Iterator[np.ndarray]:
    """Each agent's cumulative success percentages, day 1 to max(tau, 1):
    one array per agent, in agent order, whose entry t-1 is day t.  Requires
    the run to have recorded its losers (config.record_history)."""
    losers, offsets = _rate_losers(result)
    return _lines(losers, offsets, result.config.n)


def _lines(losers: np.ndarray, offsets: np.ndarray, n: int) -> Iterator[np.ndarray]:
    # each day's losers are ascending and agents are read in that order:
    # cursor[t] is day t's first loser not read yet, and agent i lost on day
    # t if it is that one; L_i(t), its losses up to day t, is their cumsum.
    # Float days hold whole numbers exactly and spare each line a cast buffer
    days = np.arange(1.0, len(offsets))
    cursor, ends = offsets[:-1].copy(), offsets[1:]
    for i in range(n):
        lost = cursor < ends
        if len(losers):  # a take needs something to read; the clipped reads are masked out
            lost &= losers.take(cursor, mode="clip") == i
        cursor += lost
        yield success_percentages(lost.cumsum(), days)


def dispersion_summary(result: RunResult) -> tuple[float, float, float]:
    """(min, max, spread) of the agents' cumulative success percentages on
    day max(tau, 1), the last entry of each world line."""
    losers, offsets = _rate_losers(result)
    finals = success_percentages(np.bincount(losers, minlength=result.config.n), len(offsets) - 1)
    lo, hi = float(finals.min()), float(finals.max())
    return lo, hi, hi - lo


def _rate_losers(result: RunResult) -> tuple[np.ndarray, np.ndarray]:
    """The losers and day offsets of days 1 to max(tau, 1)."""
    if result.losers is None:
        raise ValueError("run did not record history; enable record_history")
    offsets = result.loser_offsets[: max(result.tau, 1) + 1]
    return result.losers[: offsets[-1]], offsets


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
