"""Reference paths, written out plainly, that the package's tests compare against.

``reference_day`` plays a day of any strategy over all n agents in plain
numpy, the oracle for ``engine.step_day``, which works in a run's buffers and
plays a greedy day over its unserved agents only.
``reference_fnum`` is the number format as two format-and-parse passes, the
oracle for the one-pass ``cli.fnum``.  ``reference_world_lines`` and
``reference_dispersion`` read the success percentages from a (days, n)
matrix of service flags by cumulative sums, the oracle for ``stats``, which
reads them from each day's losers (``losers_of`` turns flags into those).
``reference_greedy_verdict`` scans a greedy f series for its first full
day, the oracle for ``engine.run``, which judges a greedy run by its stop.
``traced_peak`` reads the peak memory that the memory gates bound.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np

from kpr_lab.engine import WorldState
from kpr_lab.model import Strategy


def reference_day(
    state: WorldState, strategy: Strategy, alpha: float, n: int,
    rng: np.random.Generator,
) -> float:
    """Play one day of ``strategy`` over all n agents, drawing in the order
    the engine module documents, and return its utilization.

    Every agent draws: an integer in [0, n) for random, else a uniform, and
    stays when it falls below ``1 / crowd**alpha`` (ca), ``1 / crowd``
    (unserved gca) or 1 (served gca).  Each mover then draws an
    integer over the other n-1 restaurants, in agent order.  Each contested
    restaurant, ascending, draws a uniform that picks its winner by rank
    among its members in agent order.  Moves the state's day, choices,
    crowds, served flags and (gca) losses to today, as fresh arrays.
    """
    if strategy is Strategy.RANDOM:
        choices = rng.integers(0, n, size=n)
    else:
        if strategy is Strategy.CROWD_AVOIDING:
            p_stay = state.last_crowd.astype(float) ** -alpha
        else:
            p_stay = np.where(state.was_served, 1.0, 1.0 / state.last_crowd)
        movers = np.flatnonzero(rng.random(n) >= p_stay)
        choices = state.last_restaurant.copy()
        other = rng.integers(0, n - 1, size=movers.size)
        choices[movers] = other + (other >= choices[movers])
    crowds = np.bincount(choices, minlength=n)
    served = crowds[choices] == 1
    contested = np.flatnonzero(crowds >= 2)
    sizes = crowds[contested]
    ranks = (rng.random(contested.size) * sizes).astype(np.int64)
    members = np.flatnonzero(~served)
    grouped = members[np.argsort(choices[members], kind="stable")]
    served[grouped[np.cumsum(sizes) - sizes + ranks]] = True
    state.day += 1
    state.last_restaurant, state.last_crowd = choices, crowds[choices]
    state.was_served, state.crowds = served, crowds
    if state.losses is not None:
        state.losses = state.losses + ~served
    return np.count_nonzero(crowds) / n


def traced_peak(call):
    """(call(), the peak bytes tracemalloc sees while it runs)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
