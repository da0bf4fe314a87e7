"""Exact laws of the greedy endgame, checked against stepped runs.

Stage 1 is the end of a greedy run: one agent is left unserved.  It lost
yesterday, so it shares a restaurant with that restaurant's one served
agent, the other N - 2 served agents sit alone, and one restaurant is
empty.  Each day it leaves with probability 1/2 and, leaving, finds the
empty restaurant with probability 1/(N - 1); on any other day a crowd of two
loses one agent again.  So the days from a run's first day with one
unserved agent to its full day are Geometric(p = 1/(2(N - 1))), whatever
came before.

Stage m has m unserved agents and m empty restaurants.  Each unserved
agent leaves with probability 1/2 and then finds one of the m empty
restaurants with probability m/(N - 1), so the stage ends at a rate of
about m**2/(2(N - 1)) a day and lasts about 2(N - 1)/m**2 days on average.
That law is approximate for m > 1, since a mover may also join a crowd of
two or share an empty restaurant with another mover, but both are rare
while m is much smaller than N.

Summed over the stages, tau/N tends to sum(2/m**2) = pi**2/3 on average.
As a sum of independent exponentials of rates m**2/2, its limit law is
P(tau/N <= x) = 1 - 2 sum((-1)**(m+1) exp(-m**2 x/2)) (Biane, Pitman & Yor
2001), so P(tau > 10N) is about 1.35%.

The chi-square tail is written out in numpy, since scipy is not a test
dependency.
"""

import math

import numpy as np
import pytest

from kpr_lab.engine import init_day_one, step_day
from kpr_lab.model import SimulationConfig, Strategy
from kpr_lab.orchestrator import derive_seed, run_ensemble

N = 20
RUNS = 1000
BASE_SEED = 0
STAGES_N = 400
STAGES_RUNS = 150
STAGES = range(2, 7)
TAU_RUNS = 100
TAU_CAP_FACTOR = 40
TAU_TAIL_FACTOR = 10
TAU_BINS = 7
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


def tau_over_n_cdf(x: np.ndarray) -> np.ndarray:
    """The limit law of a greedy run's tau/N, for x > 0: the terms past
    m = 60 are below exp(-60**2 x/2), nothing for the x it is used at."""
    m = np.arange(1, 61)[:, None]
    return 1 - 2 * ((-1.0) ** (m + 1) * np.exp(-(m**2) * np.asarray(x) / 2)).sum(axis=0)


def tau_over_n_quantiles(probabilities: np.ndarray) -> np.ndarray:
    """Invert tau_over_n_cdf by bisection on [0.1, 40]; it is increasing."""
    lo, hi = np.full(len(probabilities), 0.1), np.full(len(probabilities), 40.0)
    for _ in range(60):
        mid = (lo + hi) / 2
        below = tau_over_n_cdf(mid) < probabilities
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return (lo + hi) / 2


def stage_waits(n: int, seed: int, last: int = 1) -> dict[int, int]:
    """Stage m's wait for each m >= last that a greedy run reaches: the days
    from its first day with m unserved agents to its first day with fewer.
    A run that skips m gives no wait for m.  The run stops on its first day
    with fewer than ``last`` unserved agents."""
    cfg = SimulationConfig(n=n, strategy=Strategy.GREEDY_CROWD_AVOIDING, seed=seed)
    rng = np.random.default_rng(seed)
    state, _ = init_day_one(cfg, rng)
    first = {}  # unserved count -> its first day; a greedy count never grows
    while True:
        first.setdefault(len(state.unserved), state.day)
        if len(state.unserved) < last:
            break
        assert state.day < 100 * n, "greedy run did not fill"
        step_day(state, cfg, rng)
    counts = sorted(first, reverse=True)
    return {m: first[fewer] - first[m] for m, fewer in zip(counts, counts[1:])}


def test_stage_one_wait_is_geometric():
    waits = [stage_waits(N, derive_seed(BASE_SEED, i)).get(1) for i in range(RUNS)]
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


def test_stage_waits_two_to_six_are_two_n_over_m_squared():
    runs = [stage_waits(STAGES_N, derive_seed(BASE_SEED, i), last=2)
            for i in range(STAGES_RUNS)]
    for m in STAGES:
        waits = np.array([run[m] for run in runs if m in run])
        law = 2 * (STAGES_N - 1) / m**2
        se = waits.std(ddof=1) / np.sqrt(len(waits))
        z = (waits.mean() - law) / se
        print(f"stage-{m} wait: {len(waits)} runs, mean {waits.mean():.1f} "
              f"against {law:.1f}, SD/mean {waits.std(ddof=1) / waits.mean():.2f}, "
              f"z = {z:+.2f}")
        assert len(waits) > STAGES_RUNS // 2
        assert abs(z) <= 4


@pytest.fixture(scope="module")
def greedy_runs():
    """TAU_RUNS greedy runs at N = STAGES_N, capped at TAU_CAP_FACTOR * N
    days, made once for the tests of tau's limit law."""
    config = SimulationConfig(n=STAGES_N, strategy=Strategy.GREEDY_CROWD_AVOIDING,
                              max_days=TAU_CAP_FACTOR * STAGES_N)
    return run_ensemble(config, TAU_RUNS, BASE_SEED)


def test_greedy_tau_over_n_averages_pi_squared_over_three(greedy_runs):
    summary = greedy_runs
    ratios = np.array([r.tau for r in summary.per_run]) / STAGES_N
    law = math.pi**2 / 3
    se = ratios.std(ddof=1) / np.sqrt(len(ratios))
    z = (ratios.mean() - law) / se
    print(f"greedy tau/N at N = {STAGES_N}: {TAU_RUNS} runs, mean {ratios.mean():.3f} "
          f"against {law:.3f}, SD {ratios.std(ddof=1):.3f}, z = {z:+.2f}, "
          f"converged {summary.converged_fraction:.2f}")
    assert summary.converged_fraction == 1.0
    assert abs(z) <= 4


def test_greedy_tau_over_ten_n_is_as_rare_as_the_limit_law_says(greedy_runs):
    # the paper's "non-zero probability for an even larger convergence time"
    p = 1 - tau_over_n_cdf(TAU_TAIL_FACTOR)[0]
    late = sum(r.tau > TAU_TAIL_FACTOR * STAGES_N for r in greedy_runs.per_run)
    expected = TAU_RUNS * p
    se = math.sqrt(TAU_RUNS * p * (1 - p))
    print(f"greedy tau > {TAU_TAIL_FACTOR}N at N = {STAGES_N}: {late} of {TAU_RUNS} runs "
          f"against {expected:.2f} (SE {se:.2f})")
    assert abs(p - 0.0135) < 5e-4
    assert abs(late - expected) <= 4 * se


def test_greedy_tau_over_n_follows_the_limit_law(greedy_runs):
    # TAU_BINS bins of equal probability under the law; the last is open
    ends = tau_over_n_quantiles(np.arange(1, TAU_BINS) / TAU_BINS)
    ratios = np.array([r.tau for r in greedy_runs.per_run]) / STAGES_N
    observed = np.bincount(np.searchsorted(ends, ratios), minlength=TAU_BINS)
    expected = TAU_RUNS / TAU_BINS
    chi2 = ((observed - expected) ** 2 / expected).sum()
    p_value = chi2_sf_even(chi2, TAU_BINS - 1)
    print(f"greedy tau/N at N = {STAGES_N}: bins {observed.tolist()}, "
          f"chi2 = {chi2:.2f} on {TAU_BINS - 1} df, p = {p_value:.3g}")
    assert p_value >= 1e-3


def test_tau_over_n_law_matches_its_mean_and_quantiles():
    # its mean, the integral of 1 - CDF, is sum(2/m**2) = pi**2/3
    x = np.linspace(0.05, 60, 200_000)
    mean = 0.05 + np.trapezoid(1 - tau_over_n_cdf(x), x)
    assert abs(mean - math.pi**2 / 3) < 1e-3
    probabilities = np.arange(1, TAU_BINS) / TAU_BINS
    assert np.allclose(tau_over_n_cdf(tau_over_n_quantiles(probabilities)), probabilities)


def test_chi2_tail_matches_known_values():
    # scipy.stats.chi2.sf(x, df) at these points
    assert chi2_sf_even(2.0, 2) == math.exp(-1)
    assert abs(chi2_sf_even(21.026, 12) - 0.05) < 1e-4
    assert abs(chi2_sf_even(32.909, 12) - 0.001) < 1e-5
