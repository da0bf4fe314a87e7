"""Ensemble execution and parameter sweeps.

Each run of an ensemble gets its seed from a stateless 64-bit mix of
(base_seed, run_index), so results never depend on scheduling: the same
(config, runs, base_seed) triple produces identical summaries whether runs
execute serially or across worker processes.  A sweep is the list of
configs its caller built, one ensemble per config, each row seeded from
its own (n, alpha).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import engine
from .model import EnsembleSummary, RunSummary, SimulationConfig, check_seed

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_seed(base_seed: int, index: int) -> int:
    """SplitMix64 mix of (base_seed, index); injective in index for any base."""
    z = (base_seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _run_one(config: SimulationConfig) -> RunSummary:
    result = engine.run(config)
    rates = result.final_rates
    return RunSummary(
        seed=config.seed,
        tau=result.tau,
        f_s=result.f_s,
        converged=result.converged,
        min_final_rate=None if rates is None else float(rates.min()),
    )


def run_ensemble(
    config: SimulationConfig,
    runs: int,
    base_seed: int,
    max_workers: int = 1,
) -> EnsembleSummary:
    """Execute ``runs`` independent runs and aggregate their statistics.

    ``config.seed`` is ignored; run i uses derive_seed(base_seed, i).
    Non-convergence of individual runs shows up as converged_fraction < 1,
    never as a failure of the whole ensemble.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    check_seed(base_seed)
    configs = [
        dataclasses.replace(config, seed=derive_seed(base_seed, i))
        for i in range(runs)
    ]
    if max_workers > 1 and runs > 1:
        # imported here, so that a process that starts no pool never loads
        # multiprocessing (about 1.8 MB of resident modules)
        from concurrent.futures import ProcessPoolExecutor

        # a fork-started pool launches all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(max_workers, runs)) as pool:
            per_run = list(pool.map(_run_one, configs))
    else:
        per_run = [_run_one(c) for c in configs]

    taus = np.array([r.tau for r in per_run], dtype=np.float64)
    fss = np.array([r.f_s for r in per_run])
    mins = [r.min_final_rate for r in per_run]
    return EnsembleSummary(
        config=config,
        runs=runs,
        tau_mean=float(taus.mean()),
        tau_std=float(taus.std()),
        fs_mean=float(fss.mean()),
        fs_std=float(fss.std()),
        dispersion_min_rate_mean=None if None in mins else float(np.mean(mins)),
        converged_fraction=sum(r.converged for r in per_run) / runs,
        per_run=per_run,
    )


def _row_seed(base_seed: int, config: SimulationConfig) -> int:
    """Per-row seed keyed by the row's resolved (n, alpha).

    Keying by the parameters instead of the row position makes rows fully
    independent (adding or removing values leaves the others untouched) and
    makes sweeps over n and over alpha agree wherever they describe the same
    configuration.
    """
    alpha_bits = int(np.float64(config.alpha).view(np.uint64))
    return derive_seed(derive_seed(base_seed, config.n), alpha_bits)


def run_sweep(configs: list[SimulationConfig], runs: int, base_seed: int,
              max_workers: int = 1) -> tuple[EnsembleSummary, ...]:
    """One ensemble of ``runs`` runs per config, in order, each seeded from
    its config's (n, alpha); row i is what run_ensemble returns for
    configs[i].  Two configs with the same (n, alpha) would share a seed,
    so they are rejected before any run."""
    check_seed(base_seed)  # _row_seed would alias a wider seed
    keys = [(config.n, float(config.alpha)) for config in configs]
    if len(set(keys)) < len(keys):
        raise ValueError("sweep configs must differ in (n, alpha)")
    return tuple(
        run_ensemble(config, runs, _row_seed(base_seed, config), max_workers=max_workers)
        for config in configs
    )
