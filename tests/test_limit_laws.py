"""Exact laws of the greedy endgame, checked against stepped runs.

Stage 1 is the end of a greedy run: one agent is left unserved.  It lost
yesterday, so it shares a restaurant with that restaurant's one served
agent, the other N - 2 served agents sit alone, and one restaurant is
empty.  Each day it leaves with probability 1/2 and, leaving, finds the
empty restaurant with probability 1/(N - 1); on any other day a crowd of two
loses one agent again.  So the days from a run's first day with one
unserved agent to its full day are Geometric(p = 1/(2(N - 1))), whatever
came before.

The chi-square tail is written out in numpy, since scipy is not a test
dependency.
"""

import math

import numpy as np

from kpr_lab.engine import init_day_one, step_day
from kpr_lab.model import SimulationConfig, Strategy
from kpr_lab.orchestrator import derive_seed

N = 20
RUNS = 1000
BASE_SEED = 0
P_LEAVE_TO_EMPTY = 1.0 / (2 * (N - 1))
# upper ends (days) of 13 wait bins of about equal probability under the
# law, P(wait <= k) = 1 - (1 - p)**k; the last bin is open
BINS = 13
BIN_ENDS = np.ceil(
    np.log1p(-np.arange(1, BINS) / BINS) / np.log1p(-P_LEAVE_TO_EMPTY)
).astype(int)


def chi2_sf_even(x: float, df: int) -> float:
    """P(chi-square with an even df exceeds x): a Poisson(x/2) sum."""
    term = total = 1.0
    for j in range(1, df // 2):
        term *= x / 2 / j
        total += term
    return math.exp(-x / 2) * total


def stage_one_wait(seed: int) -> int | None:
    """Days from the run's first day with one unserved agent to its full
    day, or None when the run skips that state."""
    cfg = SimulationConfig(n=N, strategy=Strategy.GREEDY_CROWD_AVOIDING, seed=seed)
    rng = np.random.default_rng(seed)
    state, f = init_day_one(cfg, rng)
    first = None
    while f != 1.0:
        if first is None and len(state.unserved) == 1:
            first = state.day
        assert state.day < 100 * N, "greedy run did not fill"
        f = step_day(state, cfg, rng)
    return None if first is None else state.day - first


def test_stage_one_wait_is_geometric():
    waits = [stage_one_wait(derive_seed(BASE_SEED, i)) for i in range(RUNS)]
    waits = np.array([w for w in waits if w is not None])
    p = P_LEAVE_TO_EMPTY
    assert len(waits) > RUNS // 2
    assert waits.min() >= 1

    se = np.sqrt((1 - p) / (p * p * len(waits)))
    z = (waits.mean() - 1 / p) / se
    print(f"stage-1 wait: {len(waits)} runs, mean {waits.mean():.2f} "
          f"against {1 / p:.2f}, z = {z:+.2f}")
    assert abs(z) <= 4

    cdf = 1 - (1 - p) ** np.concatenate(([0], BIN_ENDS))
    expected = len(waits) * np.diff(np.append(cdf, 1.0))
    observed = np.bincount(np.searchsorted(BIN_ENDS, waits), minlength=BINS)
    assert expected.min() >= 5
    chi2 = ((observed - expected) ** 2 / expected).sum()
    p_value = chi2_sf_even(chi2, BINS - 1)
    print(f"stage-1 wait: chi2 = {chi2:.1f} on {BINS - 1} df, p = {p_value:.3g}")
    assert p_value > 1e-3


def test_chi2_tail_matches_known_values():
    # scipy.stats.chi2.sf(x, df) at these points
    assert chi2_sf_even(2.0, 2) == math.exp(-1)
    assert abs(chi2_sf_even(21.026, 12) - 0.05) < 1e-4
    assert abs(chi2_sf_even(32.909, 12) - 0.001) < 1e-5
