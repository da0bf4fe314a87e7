"""Acceptance suite: the quantitative claims this laboratory must reproduce.

Each test prints one `[criterion NN] PASS/FAIL` line.  All runs are seeded,
so every number here is reproducible bit for bit.

Three checks are known to fail for structural reasons and are left failing
on purpose; see README ("Known acceptance failures") for the analysis:

* criterion 06 - the greedy strategy's true convergence constant is
  tau/N ~= 3.0-3.5 (growing slightly with N), above the expected [2.2, 3.3]
  band at N=1600, confirmed by an independent straight-loop implementation;
* criterion 08 - final-rate dispersion at N=50 averages ~17 (band: <= 15)
  and at N=6400 averages ~0.35 (band: [7, 14]); with a uniform service
  lottery the losing role swaps owners too fast for any agent to stay ~10%
  behind at day tau once tau grows linearly in N;
* criterion 09 - the saturation deficit follows 1 - f_s ~= 0.3 * alpha,
  so f_s sits well above 1 - alpha at alpha in {0.1, 0.2}.
"""

import itertools
import math
import time

import numpy as np
import pytest

from kpr_lab.cli import main
from kpr_lab.engine import init_day_one, run, step_day
from kpr_lab.model import SimulationConfig, Strategy
from kpr_lab.orchestrator import derive_seed, run_ensemble, run_sweep
from kpr_lab.stats import estimate_fs_extrapolation

CA = Strategy.CROWD_AVOIDING
GCA = Strategy.GREEDY_CROWD_AVOIDING
RANDOM = Strategy.RANDOM

RUNS = 30
WORKERS = 2
BASE_SEED = 0


def check(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def ca_sweep():
    configs = [SimulationConfig(n=n, strategy=CA) for n in (100, 400, 1600, 6400)]
    return run_sweep(configs, RUNS, BASE_SEED, max_workers=WORKERS)


@pytest.fixture(scope="module")
def gca_sweep():
    # max_days -> 10n
    configs = [SimulationConfig(n=n, strategy=GCA) for n in (100, 400, 1600)]
    return run_sweep(configs, RUNS, BASE_SEED, max_workers=WORKERS)


def test_01_random_baseline_utilization():
    t0 = time.time()
    cfg = SimulationConfig(n=10_000, strategy=RANDOM, max_days=100)
    summary = run_ensemble(cfg, runs=RUNS, base_seed=BASE_SEED, max_workers=WORKERS)
    taus = [r.tau for r in summary.per_run]
    ok = abs(summary.fs_mean - 0.632) <= 0.005 and all(t == 0 for t in taus)
    check(
        1,
        ok,
        f"random N=1e4: mean f={summary.fs_mean:.4f} (0.632+-0.005), "
        f"tau all zero={all(t == 0 for t in taus)} [{time.time()-t0:.1f}s]",
    )


def test_02_poisson_crowd_distribution():
    t0 = time.time()
    cfg = SimulationConfig(n=10_000, strategy=RANDOM, seed=11, max_days=100)
    rng = np.random.default_rng(cfg.seed)
    state, _ = init_day_one(cfg, rng)
    counts = np.zeros(4)
    days = 1
    counts += np.bincount(state.crowds, minlength=4)[:4]
    for _ in range(99):
        step_day(state, cfg, rng)
        counts += np.bincount(state.crowds, minlength=4)[:4]
        days += 1
    fractions = counts / (cfg.n * days)
    targets = np.array([math.exp(-1) / math.factorial(k) for k in range(4)])
    worst = np.abs(fractions - targets).max()
    check(
        2,
        bool(worst <= 0.005),
        f"crowd sizes 0..3 vs e^-1/n!: worst |diff|={worst:.5f} (<=0.005) "
        f"[{time.time()-t0:.1f}s]",
    )


def test_03_ca_saturation_value(ca_sweep):
    rows_ok = all(0.78 <= r.fs_mean <= 0.82 for r in ca_sweep)
    intercept, _ = estimate_fs_extrapolation(ca_sweep)
    ok = rows_ok and 0.78 <= intercept <= 0.82
    fs = ", ".join(f"{r.config.n}:{r.fs_mean:.4f}" for r in ca_sweep)
    check(3, ok, f"ca f_s rows {{{fs}}}, 1/N intercept={intercept:.4f} (all in [0.78,0.82])")


def test_04_ca_convergence_time(ca_sweep):
    rows = ca_sweep
    rows_ok = all(4.0 <= r.tau_mean <= 10.0 for r in rows)
    flat = abs(rows[-1].tau_mean - rows[0].tau_mean) <= 2.0 * rows[0].tau_std
    taus = ", ".join(f"{r.config.n}:{r.tau_mean:.2f}" for r in rows)
    check(
        4,
        rows_ok and flat,
        f"ca tau rows {{{taus}}} (all in [4,10]), "
        f"|tau({rows[-1].config.n})-tau({rows[0].config.n})|="
        f"{abs(rows[-1].tau_mean - rows[0].tau_mean):.2f} "
        f"<= 2*std={2 * rows[0].tau_std:.2f}: {flat}",
    )


def test_05_gca_full_utilization(gca_sweep):
    ok = all(r.converged_fraction == 1.0 for r in gca_sweep)
    conv = ", ".join(
        f"{r.config.n}:{r.converged_fraction:.3f}" for r in gca_sweep
    )
    check(5, ok, f"gca converged fractions within 10N days {{{conv}}} (all 1.0)")


def test_06_gca_convergence_scaling(gca_sweep):
    rows = gca_sweep
    ratios = [r.tau_mean / r.config.n for r in rows]
    slope = float(
        np.polyfit([r.config.n for r in rows], [r.tau_mean for r in rows], 1)[0]
    )
    rows_ok = all(2.2 <= x <= 3.3 for x in ratios)
    ok = rows_ok and 2.2 <= slope <= 3.3
    detail = ", ".join(f"{r.config.n}:{x:.2f}" for r, x in zip(rows, ratios))
    check(6, ok, f"gca tau/N rows {{{detail}}}, slope={slope:.2f} (all in [2.2,3.3])")


def test_07_gca_monotonic_occupancy():
    t0 = time.time()
    ok = True
    for i in range(RUNS):
        cfg = SimulationConfig(n=400, strategy=GCA, seed=derive_seed(BASE_SEED, i))
        result = run(cfg)
        if np.any(np.diff(result.f_series) < 0):
            ok = False
            break
    check(
        7,
        ok,
        f"served count never decreases over {RUNS} gca runs at N=400 "
        f"[{time.time()-t0:.1f}s]",
    )


def test_08_worldline_dispersion():
    t0 = time.time()
    small = run_ensemble(
        SimulationConfig(n=50, strategy=GCA),
        runs=RUNS,
        base_seed=BASE_SEED,
        max_workers=WORKERS,
    )
    drop_small = 100.0 - small.dispersion_min_rate_mean
    large = run_ensemble(
        SimulationConfig(n=6400, strategy=GCA),
        runs=10,
        base_seed=BASE_SEED,
        max_workers=WORKERS,
    )
    drop_large = 100.0 - large.dispersion_min_rate_mean
    ok = drop_small <= 15.0 and 7.0 <= drop_large <= 14.0
    check(
        8,
        ok,
        f"gca mean(100 - min final rate): N=50 {drop_small:.2f} (<=15), "
        f"N=6400 {drop_large:.2f} (in [7,14]) [{time.time()-t0:.0f}s]",
    )


def test_09_small_alpha_scaling():
    t0 = time.time()
    alphas = (0.05, 0.1, 0.2)
    configs = [SimulationConfig(n=1600, strategy=CA, alpha=a) for a in alphas]
    table = run_sweep(configs, RUNS, BASE_SEED, max_workers=WORKERS)
    fs = [r.fs_mean for r in table]
    taus = [r.tau_mean for r in table]
    increasing = fs[0] > fs[1] > fs[2]  # rows sorted by alpha ascending
    law_ok = all(abs(f - (1.0 - a)) <= 0.05 for f, a in zip(fs, alphas))
    products = [t * a for t, a in zip(taus, alphas)]
    ratio = max(products) / min(products)
    ok = increasing and law_ok and ratio <= 2.0
    detail = ", ".join(
        f"a={a}: fs={f:.4f} |fs-(1-a)|={abs(f-(1-a)):.4f} tau*a={p:.2f}"
        for a, f, p in zip(alphas, fs, products)
    )
    check(
        9,
        ok,
        f"{detail}; fs increasing as alpha drops={increasing}, "
        f"tau*alpha max/min={ratio:.2f} (<=2) [{time.time()-t0:.0f}s]",
    )


def test_10_day_one_matches_enumeration():
    t0 = time.time()
    ok = True
    details = []
    for n in (2, 3, 4):
        exact = np.mean(
            [len(set(c)) / n for c in itertools.product(range(n), repeat=n)]
        )
        cfg = SimulationConfig(n=n, strategy=RANDOM)
        rng = np.random.default_rng(7)
        draws = 100_000
        vals = np.empty(draws)
        for i in range(draws):
            _, vals[i] = init_day_one(cfg, rng)
        se = vals.std(ddof=1) / np.sqrt(draws)
        z = abs(vals.mean() - exact) / se
        details.append(f"N={n}: |z|={z:.2f}")
        ok = ok and z <= 3.0
    check(
        10,
        ok,
        f"day-1 Monte Carlo vs exhaustive enumeration, {'; '.join(details)} "
        f"(all <=3 SE) [{time.time()-t0:.0f}s]",
    )


def test_11_determinism(tmp_path):
    t0 = time.time()
    args = ["run", "--strategy", "ca", "--n", "200", "--seed", "5",
            "--max-days", "300"]
    a, b = tmp_path / "a", tmp_path / "b"
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    files_equal = (a / "timeseries.csv").read_bytes() == (
        b / "timeseries.csv"
    ).read_bytes() and (a / "summary.txt").read_bytes() == (
        b / "summary.txt"
    ).read_bytes()

    sweep_args = ["sweep", "--strategy", "gca", "--variable", "n",
                  "--values", "50,100", "--runs", "4", "--seed", "1"]
    c, d = tmp_path / "c", tmp_path / "d"
    main(sweep_args + ["--threads", "1", "--out", str(c)])
    main(sweep_args + ["--threads", "2", "--out", str(d)])
    sweep_equal = (c / "sweep.csv").read_bytes() == (d / "sweep.csv").read_bytes()

    cfg = SimulationConfig(n=100, strategy=GCA)
    ens_equal = run_ensemble(cfg, runs=8, base_seed=2, max_workers=1) == run_ensemble(
        cfg, runs=8, base_seed=2, max_workers=8
    )
    ok = files_equal and sweep_equal and ens_equal
    check(
        11,
        ok,
        f"identical bytes on rerun={files_equal}, 1 vs 2 threads sweep={sweep_equal}, "
        f"1 vs 8 workers ensemble={ens_equal} [{time.time()-t0:.0f}s]",
    )
