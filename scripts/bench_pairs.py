#!/usr/bin/env python3
"""Paired benchmark of two checkouts: the numbers behind a ``BENCH_*.json``.

Runs ``perfbench/run.py`` in a parent checkout and in a changed one, pair
by pair at fixed seeds, the side that goes first alternating from pair to
pair, so that both halves of a pair see the same host speed.  For each
workload it writes, per end-to-end metric and side, the quartiles over the
pairs, how many pairs the change won, the failed operations, and whether
the two sides wrote the same output digests at each seed.  ``--faults``
instead measures minor page faults per simulated day of one crowd-avoiding
``engine.run`` at each given N, in a fresh process per side and N.

Usage, from the root of the changed checkout:

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workloads ca-large,ca-sweep-small --seeds 11-20 --out BENCH_11.json
    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --faults 1600,6400,25600,51200 --out BENCH_11.json

Each call adds its sections to ``--out`` and keeps those already there.
Every perfbench run lasts RUN_SECONDS, the benchmark's own run length, and
the faults table takes FAULT_REPEATS processes per side and N.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

SIDES = ("parent", "change")
RUN_SECONDS = 25.0
FAULT_REPEATS = 3
RUN_TIMEOUT_S = 400

# One crowd-avoiding run after a warm-up run at N = 1600 (as ca-large warms
# up); prints minor faults per simulated day and the run's wall seconds.
FAULTS_SNIPPET = """
import resource, sys, time
from kpr_lab import engine
from kpr_lab.model import SimulationConfig, Strategy
engine.run(SimulationConfig(n=1600, strategy=Strategy.CROWD_AVOIDING, seed=1))
config = SimulationConfig(n=int(sys.argv[1]), strategy=Strategy.CROWD_AVOIDING, seed=3)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
start = time.perf_counter()
result = engine.run(config)
wall = time.perf_counter() - start
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults / result.days, wall)
"""


def seed_list(text: str) -> list[int]:
    """``11-20`` or ``1,3,5`` (or a mix) as a list of ints.

    A descending range such as ``20-11`` would run no pair, so it is an error.
    """
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        low, high = int(low), int(high or low)
        if high < low:
            raise argparse.ArgumentTypeError(f"descending seed range {part!r}")
        seeds.extend(range(low, high + 1))
    return seeds


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def run_perfbench(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced perfbench run: its record and result lines.

    A run that outlasts RUN_TIMEOUT_S is killed and kept as a failed run.
    """
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(RUN_SECONDS), "--trace", "0"],
            cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"returncode": None, "stderr": [f"timed out after {RUN_TIMEOUT_S} s"]}
    entry: dict = {"returncode": proc.returncode}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and len(lines) >= 2:
        record = json.loads(lines[-2])
        # the per-operation lists are long; the quartiles summarize them
        for key in ("op_wall_s", "scaled_wall_s", "agent_days", "setup_s"):
            record.pop(key, None)
        entry["record"] = record
        entry["result"] = json.loads(lines[-1])
    else:
        entry["stderr"] = proc.stderr.strip().splitlines()[-5:]
    return entry


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Quartiles, won pairs and the gain rule per metric; failures and digests.

    A run that did not finish counts as a failed run of its side and as a
    pair the change did not win.  The gain rule needs the change to win
    nine tenths of all pairs run and to fail no more than the parent: no
    more failed runs and no larger share of failed operations.
    """
    complete = [p for p in pairs if all("result" in p[side] for side in SIDES)]
    summary: dict = {
        "seeds": [p["seed"] for p in pairs],
        "pairs": len(pairs),
        "complete_pairs": len(complete),
    }
    for side in SIDES:
        results = [p[side]["result"] for p in pairs if "result" in p[side]]
        summary[f"{side}_failed_runs"] = len(pairs) - len(results)
        summary[f"{side}_failed_ops"] = sum(r["failed"] for r in results)
        summary[f"{side}_attempted_ops"] = sum(r["attempted"] for r in results)
    failed = {side: summary[f"{side}_failed_ops"] for side in SIDES}
    attempted = {side: max(summary[f"{side}_attempted_ops"], 1) for side in SIDES}
    fails_no_more = (
        summary["change_failed_runs"] <= summary["parent_failed_runs"]
        and failed["change"] * attempted["parent"] <= failed["parent"] * attempted["change"]
    )
    summary["digests_equal_per_seed"] = {
        str(p["seed"]): p["parent"]["record"]["digests"] == p["change"]["record"]["digests"]
        for p in complete
    }
    if len(complete) < 2:  # no quartiles to compare
        return summary
    for metric, direction in better.items():
        values = {
            side: [p[side]["result"]["metrics"][metric]["value"] for p in complete]
            for side in SIDES
        }
        sign = 1 if direction == "higher" else -1
        won = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        summary[metric] = {
            "parent": parent,
            "change": change,
            "change_better_pairs": f"{won}/{len(pairs)}",
            # a gain: won in 9/10 of the pairs, by more than the parent's IQR
            "gain_rule_met": fails_no_more
            and 10 * won >= 9 * len(pairs)
            and sign * (change["median"] - parent["median"]) > parent["q3"] - parent["q1"],
        }
    return summary


def bench_workload(checkouts: dict[str, Path], workload: str, seeds: list[int],
                   better: dict[str, str]) -> tuple[dict, list[dict]]:
    pairs = []
    for index, seed in enumerate(seeds):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_perfbench(checkouts[side], workload, seed)
            metrics = pair[side].get("result", {}).get("metrics", {})
            wall = metrics.get("wall_s", {}).get("value")
            print(f"{workload} seed {seed} {side}: wall_s {wall}", file=sys.stderr)
        pairs.append(pair)
    return summarize(pairs, better), pairs


def measure_faults(checkouts: dict[str, Path], sizes: list[int]) -> dict:
    """Median minor faults per day and run seconds per side and N."""
    table: dict = {}
    for n in sizes:
        samples: dict[str, list[tuple[float, float]]] = {side: [] for side in SIDES}
        for index in range(FAULT_REPEATS):
            for side in SIDES if index % 2 == 0 else SIDES[::-1]:
                env = dict(os.environ, PYTHONPATH=str(checkouts[side] / "src"))
                out = subprocess.run(
                    [sys.executable, "-c", FAULTS_SNIPPET, str(n)], env=env,
                    capture_output=True, text=True, check=True, timeout=RUN_TIMEOUT_S,
                ).stdout.split()
                samples[side].append((float(out[0]), float(out[1])))
        table[str(n)] = {
            side: {
                "faults_per_day": [round(f, 1) for f, _ in runs],
                "median_faults_per_day": round(statistics.median(f for f, _ in runs), 1),
                "run_s": [round(s, 3) for _, s in runs],
            }
            for side, runs in samples.items()
        }
        print(f"faults n={n}: " + ", ".join(
            f"{side} {table[str(n)][side]['median_faults_per_day']}" for side in SIDES
        ), file=sys.stderr)
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workloads", help="comma-separated perfbench workloads")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("11-20"))
    parser.add_argument("--faults", help="comma-separated N for the faults table")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if not (args.workloads or args.faults):
        parser.error("nothing to measure: give --workloads, --faults or both")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report.setdefault("about", (
        "perfbench result lines of a parent checkout and a changed one, run pair "
        "by pair at the same seed, the side that goes first alternating; written "
        "by scripts/bench_pairs.py"
    ))
    report["host"] = (
        f"{os.cpu_count()} CPUs, {platform.machine()}, Python "
        f"{platform.python_version()}, numpy {version('numpy')}"
    )
    report["command"] = (
        f"python3 perfbench/run.py --workload W --seed S --seconds {RUN_SECONDS} --trace 0"
    )
    if args.workloads:
        spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        for workload in args.workloads.split(","):
            summary, pairs = bench_workload(checkouts, workload, args.seeds, better)
            report.setdefault("summary", {})[workload] = summary
            report.setdefault("runs", {})[workload] = pairs
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    if args.faults:
        sizes = [int(n) for n in args.faults.split(",")]
        report["faults"] = {
            "about": (
                "minor page faults (ru_minflt) per simulated day of one "
                "crowd-avoiding engine.run (seed 3, 1000 days) after a warm-up "
                f"run at N = 1600, in a fresh process per side and N, {FAULT_REPEATS} "
                "processes per side, alternating which side goes first"
            ),
            "by_n": measure_faults(checkouts, sizes),
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
