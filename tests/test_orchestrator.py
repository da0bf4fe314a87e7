import dataclasses

import numpy as np
import pytest

from kpr_lab import engine
from kpr_lab.engine import run
from kpr_lab.model import SimulationConfig, Strategy
from kpr_lab.orchestrator import _row_seed, derive_seed, run_ensemble, run_sweep

CA = Strategy.CROWD_AVOIDING
GCA = Strategy.GREEDY_CROWD_AVOIDING


class TestDeriveSeed:
    def test_injective_over_run_indices(self):
        for base in (0, 1, 2**64 - 1, 0xDEADBEEF):
            seeds = {derive_seed(base, i) for i in range(10_000)}
            assert len(seeds) == 10_000

    def test_stays_in_64_bits(self):
        for base in (0, 2**64 - 1):
            for i in (0, 1, 999):
                assert 0 <= derive_seed(base, i) < 2**64

    def test_depends_on_base(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)


class TestRunEnsemble:
    def test_single_run_matches_engine(self):
        cfg = SimulationConfig(n=30, strategy=GCA)
        summary = run_ensemble(cfg, runs=1, base_seed=5)
        direct = run(dataclasses.replace(cfg, seed=derive_seed(5, 0)))
        assert summary.runs == 1
        assert summary.tau_mean == direct.tau
        assert summary.fs_mean == direct.f_s
        assert summary.tau_std == 0.0
        assert summary.fs_std == 0.0
        assert summary.dispersion_min_rate_mean == direct.final_rates.min()

    def test_crowd_avoiding_runs_keep_no_final_rates(self):
        cfg = SimulationConfig(n=25, strategy=CA, max_days=60)
        summary = run_ensemble(cfg, runs=3, base_seed=3)
        assert summary.dispersion_min_rate_mean is None
        assert [r.min_final_rate for r in summary.per_run] == [None] * 3

    def test_aggregates_match_recomputation(self):
        cfg = SimulationConfig(n=25, strategy=CA, max_days=120)
        summary = run_ensemble(cfg, runs=8, base_seed=3)
        taus = np.array([r.tau for r in summary.per_run], dtype=float)
        fss = np.array([r.f_s for r in summary.per_run])
        assert summary.tau_mean == pytest.approx(taus.mean())
        assert summary.tau_std == pytest.approx(taus.std())
        assert summary.fs_mean == pytest.approx(fss.mean())
        assert summary.fs_std == pytest.approx(fss.std())
        assert summary.converged_fraction == np.mean(
            [r.converged for r in summary.per_run]
        )

    def test_parallel_equals_serial(self):
        cfg = SimulationConfig(n=40, strategy=GCA)
        serial = run_ensemble(cfg, runs=8, base_seed=11, max_workers=1)
        parallel = run_ensemble(cfg, runs=8, base_seed=11, max_workers=4)
        assert serial == parallel

    def test_pool_is_no_larger_than_the_ensemble(self, monkeypatch):
        # a fake executor: no real pool is started, only its size is seen
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # run_ensemble imports the pool class from its module when it starts one
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        cfg = SimulationConfig(n=10, strategy=CA, max_days=20)
        run_ensemble(cfg, runs=2, base_seed=0, max_workers=16)
        run_ensemble(cfg, runs=5, base_seed=0, max_workers=3)
        assert sizes == [2, 3]

    def test_nonconvergence_is_reported_not_raised(self):
        cfg = SimulationConfig(n=50, strategy=GCA, max_days=3)
        summary = run_ensemble(cfg, runs=5, base_seed=0)
        assert summary.converged_fraction < 1.0
        assert summary.runs == 5

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            run_ensemble(SimulationConfig(n=5, strategy=CA), runs=0, base_seed=0)

    @pytest.mark.parametrize("base_seed", [-1, 2**64])
    def test_rejects_a_seed_outside_64_bits(self, base_seed):
        with pytest.raises(ValueError, match="seed must fit in 64 bits"):
            run_ensemble(SimulationConfig(n=5, strategy=CA), runs=1, base_seed=base_seed)


class TestRunSweep:
    @pytest.mark.parametrize("base_seed,configs,match", [
        (-1, [SimulationConfig(n=10, strategy=CA)], "seed must fit in 64 bits"),
        (2**64, [SimulationConfig(n=10, strategy=CA)], "seed must fit in 64 bits"),
        # the same (n, alpha) is the same row seed, so the rows would not be
        # independent
        (0, [SimulationConfig(n=10, strategy=CA, max_days=20),
             SimulationConfig(n=10, strategy=CA, max_days=40)], "differ in"),
    ], ids=["-1", "18446744073709551616", "same-n-and-alpha"])
    def test_rejects_before_any_run(self, base_seed, configs, match, monkeypatch):
        calls = []
        monkeypatch.setattr(engine, "run", calls.append)
        with pytest.raises(ValueError, match=match):
            run_sweep(configs, 1, base_seed)
        assert calls == []

    def test_rows_are_value_independent(self):
        both = run_sweep(
            [SimulationConfig(n=n, strategy=CA, max_days=100) for n in (20, 40)], 4, 9
        )
        only = run_sweep([SimulationConfig(n=40, strategy=CA, max_days=100)], 4, 9)
        assert both[1] == only[0]

    def test_alpha_row_matches_n_row_for_same_config(self):
        # an alpha sweep at n=60 and an n-sweep at alpha=1 share the row
        # (60, 1.0), and agree on it
        via_alpha = run_sweep(
            [SimulationConfig(n=60, strategy=CA, alpha=a, max_days=150) for a in (0.5, 1.0)],
            5, 2,
        )
        via_n = run_sweep(
            [SimulationConfig(n=n, strategy=CA, max_days=150) for n in (30, 60)], 5, 2
        )
        assert via_alpha[1] == via_n[1]

    def test_table_sorted_and_labeled(self):
        rows = run_sweep([SimulationConfig(n=n, strategy=GCA) for n in (10, 20)], 2, 1)
        assert [r.config.n for r in rows] == [10, 20]
        assert all(r.runs == 2 for r in rows)

    @pytest.mark.parametrize("field,values", [
        ("n", (20, 40)),
        ("alpha", (0.5, 1.0)),
    ], ids=["n", "alpha"])
    def test_rows_are_the_ensembles(self, field, values):
        base = SimulationConfig(n=30, strategy=CA, max_days=80)
        configs = [dataclasses.replace(base, **{field: v}) for v in values]
        rows = run_sweep(configs, 3, 6)
        assert rows == tuple(run_ensemble(c, 3, _row_seed(6, c)) for c in configs)
