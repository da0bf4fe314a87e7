import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kpr_lab.engine import run
from kpr_lab.model import EnsembleSummary, SimulationConfig, Strategy
from kpr_lab.stats import (
    dispersion_summary,
    estimate_fs_extrapolation,
    exact_random_utilization,
    world_lines,
)
from reference import (
    losers_of,
    reference_dispersion,
    reference_world_lines,
    traced_peak,
)


def enumerate_day_one_utilization(n: int) -> float:
    """Brute force over all n^n joint choices: mean distinct-restaurant count / n."""
    total = 0.0
    for joint in itertools.product(range(n), repeat=n):
        total += len(set(joint)) / n
    return total / n**n


class TestExactRandomUtilization:
    def test_single(self):
        assert exact_random_utilization(1) == 1.0

    def test_two(self):
        assert exact_random_utilization(2) == pytest.approx(0.75, abs=1e-12)

    def test_three(self):
        assert exact_random_utilization(3) == pytest.approx(19 / 27, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_exhaustive_enumeration(self, n):
        assert exact_random_utilization(n) == pytest.approx(
            enumerate_day_one_utilization(n), abs=1e-12
        )

    def test_large_n_limit(self):
        assert abs(exact_random_utilization(10**6) - (1 - math.exp(-1))) <= 1e-6

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            exact_random_utilization(0)


def make_result_with_history(flags: np.ndarray, tau: int) -> object:
    """A run whose recorded losers are those of a (days, n) flag matrix."""
    from kpr_lab.model import RunResult

    n = flags.shape[1]
    f_series = flags.mean(axis=1)
    losers, offsets = losers_of(flags)
    return RunResult(
        config=SimulationConfig(n=n, strategy=Strategy.GREEDY_CROWD_AVOIDING),
        f_series=f_series,
        tau=tau,
        f_s=1.0,
        final_rates=100.0 * flags[: max(tau, 1)].sum(axis=0) / max(tau, 1),
        converged=True,
        losers=losers,
        loser_offsets=offsets,
    )


def line_matrix(result) -> np.ndarray:
    """The world lines of a run as (days, n) columns, for comparisons."""
    return np.column_stack(list(world_lines(result)))


@st.composite
def flag_histories(draw):
    """A random (days, n) flag matrix and a tau in [0, days]; from three
    agents on, the first never loses and the last always does."""
    days, n = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    flags = rng.random((days, n)) < draw(st.floats(0.0, 1.0))
    if n >= 3:
        flags[:, 0], flags[:, -1] = True, False
    return flags, draw(st.integers(0, days))


class TestWorldLines:
    def test_worked_example(self):
        # three losses then two wins: 0, 0, 0, 25, 40 percent
        flags = np.array([[0], [0], [0], [1], [1]], dtype=bool)
        (line,) = world_lines(make_result_with_history(flags, tau=5))
        assert np.allclose(line, [0.0, 0.0, 0.0, 25.0, 40.0])

    def test_all_wins_and_all_losses(self):
        flags = np.ones((6, 2), dtype=bool)
        flags[:, 1] = False
        winner, loser = world_lines(make_result_with_history(flags, tau=6))
        assert np.allclose(winner, 100.0)
        assert np.allclose(loser, 0.0)

    def test_stops_at_tau(self):
        flags = np.ones((10, 3), dtype=bool)
        lines = list(world_lines(make_result_with_history(flags, tau=4)))
        assert [len(line) for line in lines] == [4, 4, 4]

    def test_requires_history(self):
        result = run(SimulationConfig(n=5, strategy=Strategy.RANDOM, max_days=20))
        with pytest.raises(ValueError):
            world_lines(result)
        with pytest.raises(ValueError):
            dispersion_summary(result)

    @given(st.lists(st.booleans(), min_size=1, max_size=60))
    def test_counts_round_trip(self, outcomes):
        flags = np.array(outcomes, dtype=bool).reshape(-1, 1)
        (line,) = world_lines(make_result_with_history(flags, tau=len(outcomes)))
        for day, value in enumerate(line, start=1):
            assert round(value * day / 100) == flags[:day, 0].sum()
            assert 0.0 <= value <= 100.0

    def test_bytes_of_the_integer_cumsum_formula(self):
        flags = np.random.default_rng(2).random((300, 40)) < 0.7
        pct = line_matrix(make_result_with_history(flags, tau=250))
        days = np.arange(1, 251)[:, None]
        assert pct.tobytes() == (100.0 * np.cumsum(flags[:250], axis=0) / days).tobytes()

    @settings(deadline=None)
    @given(flag_histories())
    @example((np.array([[True, False], [False, True]]), 0))  # tau = 0: day 1 only
    @example((np.ones((7, 3), dtype=bool), 7))  # nobody ever loses
    @example((np.zeros((7, 3), dtype=bool), 5))  # everybody always loses
    def test_losers_give_the_flag_oracles_bytes(self, history):
        flags, tau = history
        result = make_result_with_history(flags, tau)
        assert line_matrix(result).tobytes() == reference_world_lines(flags, tau).tobytes()
        assert dispersion_summary(result) == reference_dispersion(flags, tau)

    def test_reads_one_line_at_a_time(self):
        # the losers exist already; reading every line may hold a few lines,
        # never a (days, n) float matrix
        flags = np.random.default_rng(3).random((2000, 200)) < 0.7
        result = make_result_with_history(flags, tau=2000)
        line_bytes = 2000 * np.dtype(np.float64).itemsize
        count, peak = traced_peak(lambda: sum(1 for _ in world_lines(result)))
        print(f"world lines peak: {peak / line_bytes:.2f} lines")
        assert count == 200
        assert peak < 8 * line_bytes


class TestDispersionSummary:
    def test_single_always_winning_agent(self):
        flags = np.ones((3, 1), dtype=bool)
        result = make_result_with_history(flags, tau=3)
        assert dispersion_summary(result) == (100.0, 100.0, 0.0)

    def test_min_max_spread(self):
        # day 20: 16 and 19 days served
        flags = np.ones((20, 2), dtype=bool)
        flags[:4, 0] = False
        flags[0, 1] = False
        result = make_result_with_history(flags, tau=20)
        assert dispersion_summary(result) == (80.0, 95.0, 15.0)

    def test_is_the_last_entry_of_the_world_lines(self):
        flags = np.random.default_rng(4).random((300, 40)) < 0.7
        result = make_result_with_history(flags, tau=250)
        finals = line_matrix(result)[-1]
        lo, hi, spread = dispersion_summary(result)
        assert (lo, hi, spread) == (finals.min(), finals.max(), finals.max() - finals.min())


def table_from(values, fs):
    return tuple(
        EnsembleSummary(
            config=SimulationConfig(n=v, strategy=Strategy.CROWD_AVOIDING),
            runs=30,
            tau_mean=5.0,
            tau_std=0.0,
            fs_mean=f,
            fs_std=0.0,
            dispersion_min_rate_mean=90.0,
            converged_fraction=1.0,
        )
        for v, f in zip(values, fs)
    )


class TestExtrapolation:
    def test_constant_rows(self):
        table = table_from([100, 200, 400, 800], [0.8, 0.8, 0.8, 0.8])
        intercept, slope = estimate_fs_extrapolation(table)
        assert intercept == pytest.approx(0.8, abs=1e-12)
        assert slope == pytest.approx(0.0, abs=1e-9)

    def test_recovers_affine_fixture(self):
        values = [100, 200, 400, 800, 1600]
        fs = [0.8 - 2.0 / v for v in values]
        intercept, slope = estimate_fs_extrapolation(table_from(values, fs))
        assert intercept == pytest.approx(0.8, abs=1e-9)
        assert slope == pytest.approx(-2.0, abs=1e-9)

    def test_needs_three_rows(self):
        with pytest.raises(ValueError):
            estimate_fs_extrapolation(table_from([100, 200], [0.8, 0.8]))

    def test_rejects_degenerate_values(self):
        with pytest.raises(ValueError):
            estimate_fs_extrapolation(table_from([100, 100, 100], [0.8, 0.8, 0.8]))
