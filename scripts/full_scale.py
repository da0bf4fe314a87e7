#!/usr/bin/env python3
"""Full-scale target: the largest system sizes, kept out of the test suite.

Runs the greedy strategy at N = 51200 (where convergence takes on the order
of 1.5e5 to 3e5 days) and, optionally, the crowd-avoiding row at the same
size.  A greedy run took 6-14 s on a 2-vCPU VM (seeds 0-2).  Each run's
wall time is read from a monotonic clock; after the runs the script prints
the process's peak resident set size.

Usage:
    python scripts/full_scale.py [--runs K] [--seed S] [--ca]
"""

import argparse
import resource
import time

import numpy as np

from kpr_lab.engine import run
from kpr_lab.model import SimulationConfig, Strategy, check_seed
from kpr_lab.orchestrator import derive_seed

N_FULL = 51200


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ca", action="store_true",
                        help="also run the crowd-avoiding row at N=51200")
    args = parser.parse_args(argv)
    # exit 2 with one line, before any run: derive_seed would alias a negative
    # seed to one modulo 2**64
    if args.runs < 1:
        parser.exit(2, f"full_scale.py: --runs must be >= 1, got {args.runs}\n")
    try:
        check_seed(args.seed)
    except ValueError as exc:
        parser.exit(2, f"full_scale.py: --seed: {exc}\n")

    taus = []
    for i in range(args.runs):
        cfg = SimulationConfig(
            n=N_FULL,
            strategy=Strategy.GREEDY_CROWD_AVOIDING,
            seed=derive_seed(args.seed, i),
        )
        t0 = time.perf_counter()
        result = run(cfg)
        taus.append(result.tau)
        print(
            f"greedy N={N_FULL} run {i}: tau={result.tau} "
            f"tau/N={result.tau / N_FULL:.3f} converged={result.converged} "
            f"[{time.perf_counter() - t0:.0f}s]"
        )
    if len(taus) > 1:
        ratios = np.array(taus) / N_FULL
        print(f"tau/N over {len(taus)} runs: mean={ratios.mean():.3f} "
              f"std={ratios.std():.3f}")

    if args.ca:
        cfg = SimulationConfig(
            n=N_FULL, strategy=Strategy.CROWD_AVOIDING, seed=args.seed
        )
        t0 = time.perf_counter()
        result = run(cfg)
        print(
            f"crowd-avoiding N={N_FULL}: f_s={result.f_s:.4f} tau={result.tau} "
            f"[{time.perf_counter() - t0:.0f}s]"
        )

    # ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS: {peak_mb:.1f} MB")


if __name__ == "__main__":
    main()
