#!/usr/bin/env python3
"""Paired benchmark of two checkouts: the numbers behind a ``BENCH_*.json``.

Runs ``perfbench/run.py`` in a parent checkout and in a changed one, pair
by pair at fixed seeds, the side that goes first alternating from pair to
pair, so that both halves of a pair see the same host speed.  For each
workload it writes, per end-to-end metric and side, the quartiles over the
pairs, how many pairs the change won, the failed operations, and whether
the two sides wrote the same output digests at each seed.  ``--faults``
instead measures minor page faults per simulated day of one crowd-avoiding
``engine.run`` at each given N, in a fresh process per side and N, one
pair of processes per seed that ``--seeds`` lists (the seeds only count
the pairs).  ``--days STRATEGY:N:DAYS[:SEED]`` imports both checkouts'
packages into this one process and steps ``engine.step_day`` for each,
DAY_BLOCK days at a time, the side that goes first alternating from block
to block: a per-day timing fine enough to separate moves smaller than the
perfbench pairs' spread.  The seed is DAYS_SEED unless given; a greedy
line whose DAYS is the run's tau at that seed steps the whole run.
``--cli "ARGS"`` runs ``kpr ARGS`` in pairs the same way, each run in a
fresh process and an empty working directory, alternating which side goes
first; it writes each side's wall seconds and peak RSS with their
quartiles, the pairs the change won, and whether both sides wrote the same
bytes (sha256) to every output file.  ARGS may name an ``--out`` relative
to the working directory, not an absolute one.

Usage, from the root of the changed checkout:

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workloads ca-large,ca-sweep-small --seeds 11-20 --out BENCH_11.json
    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --faults 1600,6400,25600,51200 --out BENCH_11.json
    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --days gca:400:4000,gca:12800:60522:0,ca:25600:1000 --out days.json
    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --cli "worldlines --strategy gca --n 1600 --seed 1" --out BENCH_16.json

Each call adds its sections to ``--out`` and keeps those already there.
Every perfbench run lasts RUN_SECONDS, the benchmark's own run length.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
RUN_SECONDS = 25.0
RUN_TIMEOUT_S = 400
DAY_BLOCK = 20
DAYS_SEED = 3
STATE_ARRAYS = ("last_restaurant", "last_crowd", "was_served", "crowds", "losses",
                "unserved", "resident")

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

# kpr's main on the arguments after argv[0]; prints the process's peak
# resident set size (ru_maxrss, KB on Linux), since kpr writes nothing to
# stdout.
CLI_SNIPPET = """
import resource, sys
from kpr_lab.cli import main
code = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(code)
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


def day_specs(text: str) -> list[tuple[str, str, int, int, int]]:
    """``gca:400:4000,gca:12800:60522:0`` as (spec, strategy, N, days, seed)
    tuples; the seed is DAYS_SEED where the spec gives none."""
    specs = []
    for part in text.split(","):
        fields = part.split(":")
        if len(fields) not in (3, 4) or fields[0] not in ("random", "ca", "gca"):
            raise argparse.ArgumentTypeError(f"not STRATEGY:N:DAYS[:SEED]: {part!r}")
        n, days = int(fields[1]), int(fields[2])
        seed = int(fields[3]) if len(fields) == 4 else DAYS_SEED
        if n < 1 or days < 1 or seed < 0:
            raise argparse.ArgumentTypeError(
                f"N and DAYS must be positive, SEED not negative: {part!r}")
        specs.append((part, fields[0], n, days, seed))
    return specs


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


def measure_faults(checkouts: dict[str, Path], sizes: list[int], pairs: int) -> dict:
    """Median minor faults per day and run seconds per side and N."""
    table: dict = {}
    for n in sizes:
        samples: dict[str, list[tuple[float, float]]] = {side: [] for side in SIDES}
        for index in range(pairs):
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


def output_digests(folder: Path) -> dict[str, str]:
    """sha256 of every file under ``folder``, keyed by its relative path."""
    digests = {}
    for path in sorted(folder.rglob("*")):
        if path.is_file():
            sha = hashlib.sha256()
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    sha.update(chunk)
            digests[str(path.relative_to(folder))] = sha.hexdigest()
    return digests


def measure_cli(checkouts: dict[str, Path], args: list[str], pairs: int) -> dict:
    """Wall seconds and peak RSS of ``kpr ARGS`` per side, their quartiles
    and the pairs the change won, and whether every run of both sides wrote
    the same files with the same bytes."""
    samples: dict[str, list[tuple[float, float]]] = {side: [] for side in SIDES}
    digests = []
    for index in range(pairs):
        for side in SIDES if index % 2 == 0 else SIDES[::-1]:
            env = dict(os.environ, PYTHONPATH=str(checkouts[side] / "src"))
            with tempfile.TemporaryDirectory(prefix=f"bench-cli-{side}-") as folder:
                start = time.perf_counter()
                out = subprocess.run(
                    [sys.executable, "-c", CLI_SNIPPET, *args], cwd=folder, env=env,
                    capture_output=True, text=True, check=True, timeout=RUN_TIMEOUT_S,
                ).stdout.split()
                wall = time.perf_counter() - start
                digests.append(output_digests(Path(folder)))
            samples[side].append((wall, int(out[-1]) / 1024))
    line: dict = {
        side: {
            "wall_s": [round(w, 3) for w, _ in runs],
            "peak_rss_mb": [round(r, 1) for _, r in runs],
        }
        for side, runs in samples.items()
    }
    for metric in ("wall_s", "peak_rss_mb"):  # lower is better for both
        parent, change = (line[side][metric] for side in SIDES)
        won = sum(c < p for p, c in zip(parent, change))
        line[metric] = {
            "parent": quartiles(parent),
            "change": quartiles(change),
            "change_better_pairs": f"{won}/{pairs}",
        }
    line["output_files"] = len(digests[0])
    line["outputs_equal"] = all(d == digests[0] for d in digests)
    return line


def load_package(checkout: Path, name: str):
    """Import ``checkout/src/kpr_lab`` as the package ``name``, so that two
    checkouts can live in one process; return its engine and model."""
    root = checkout / "src" / "kpr_lab"
    for key in [key for key in sys.modules if key.split(".")[0] == name]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    sys.modules[name] = package = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.engine"), importlib.import_module(f"{name}.model")


def final_state(state, rng: np.random.Generator, f_series: list[float]) -> dict:
    """What a run's days leave behind: its day, f series, where its
    generator stands, and each of the STATE_ARRAYS that the state keeps
    (not None)."""
    final = {"day": state.day, "f_series": f_series, "rng": rng.bit_generator.state}
    for name in STATE_ARRAYS:
        array = getattr(state, name, None)
        if array is not None:
            final[name] = array.tobytes()
    return final


def states_equal(parent: dict, change: dict) -> bool:
    """Equal in everything both final states hold.  One side may keep an
    array the other does not: a parent's dense run may count losses that
    the change no longer keeps."""
    return all(parent[key] == change[key] for key in parent.keys() & change.keys())


def time_days(packages: dict, strategy: str, n: int, days: int, seed: int) -> dict:
    """Step one run per side through ``days`` days after day 1, DAY_BLOCK
    days at a time, alternating which side steps its block first."""
    runs = {}
    for side, (engine, model) in packages.items():
        config = model.SimulationConfig(n=n, strategy=model.Strategy(strategy), seed=seed)
        rng = np.random.default_rng(seed)
        state, f = engine.init_day_one(config, rng)
        runs[side] = engine.step_day, config, state, rng, [f]
    seconds = dict.fromkeys(SIDES, 0.0)
    won = blocks = 0
    while blocks * DAY_BLOCK < days:
        block = min(DAY_BLOCK, days - blocks * DAY_BLOCK)
        took = {}
        for side in SIDES if blocks % 2 == 0 else SIDES[::-1]:
            step_day, config, state, rng, f_series = runs[side]
            start = time.perf_counter()
            for _ in range(block):
                f_series.append(step_day(state, config, rng))
            took[side] = time.perf_counter() - start
            seconds[side] += took[side]
        won += took["change"] < took["parent"]
        blocks += 1
    finals = [final_state(*runs[side][2:]) for side in SIDES]
    return {
        "parent_us_per_day": round(1e6 * seconds["parent"] / days, 2),
        "change_us_per_day": round(1e6 * seconds["change"] / days, 2),
        "ratio": round(seconds["change"] / seconds["parent"], 4),
        "change_won_blocks": f"{won}/{blocks}",
        "final_states_equal": states_equal(*finals),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workloads", help="comma-separated perfbench workloads")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("11-20"))
    parser.add_argument("--faults", help="comma-separated N for the faults table")
    parser.add_argument("--days", type=day_specs,
                        help="comma-separated STRATEGY:N:DAYS[:SEED] runs to step side by side")
    parser.add_argument("--cli", metavar="ARGS",
                        help="kpr arguments to run in a fresh process per side")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if not (args.workloads or args.faults or args.days or args.cli):
        parser.error("nothing to measure: give --workloads, --faults, --days or --cli")
    if args.cli and len(args.seeds) < 2:
        parser.error("--cli needs two --seeds or more: its quartiles need two pairs")
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
                f"run at N = 1600, in a fresh process per side and N, {len(args.seeds)} "
                "processes per side, alternating which side goes first"
            ),
            "by_n": measure_faults(checkouts, sizes, len(args.seeds)),
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    if args.days:
        packages = {side: load_package(checkouts[side], f"kpr_{side}") for side in SIDES}
        section = report.setdefault("days", {"lines": {}})
        section["about"] = (
            "microseconds per simulated day of engine.step_day for one run per side "
            f"(after day 1, at seed {DAYS_SEED} unless the line names a fourth field), "
            "both checkouts imported into one process and stepped in "
            f"{DAY_BLOCK}-day blocks, alternating which side goes first; ratio is change "
            "time over parent time, and final_states_equal compares the day, the f "
            "series, the generators and every state array both sides keep (crowds, "
            "each agent's restaurant, crowd and served flag, and, where kept, losses, "
            "unserved agents and residents) after the last day"
        )
        for spec, strategy, n, days, seed in args.days:
            line = time_days(packages, strategy, n, days, seed)
            section["lines"][spec] = line
            print(f"days {spec}: {line}", file=sys.stderr)
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    if args.cli:
        section = report.setdefault("cli", {"lines": {}})
        section["about"] = (
            f"kpr ARGS (the line's key) run {len(args.seeds)} times per side, each in a "
            "fresh process and an empty working directory, alternating which side "
            "goes first: wall seconds of the process and its peak RSS (ru_maxrss) in "
            "MB, run by run, with their quartiles per side and the pairs the change "
            "won, and whether every run of both sides wrote the same files with the "
            "same sha256"
        )
        line = measure_cli(checkouts, shlex.split(args.cli), len(args.seeds))
        section["lines"][args.cli] = line
        print(f"cli {args.cli}: {line}", file=sys.stderr)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
