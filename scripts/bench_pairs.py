#!/usr/bin/env python3
"""Paired benchmark of two checkouts: the numbers behind a ``BENCH_*.json``.

Three modes run one fresh process per side and seed that ``--seeds``
lists, pair by pair, the side that goes first alternating from pair to
pair, so that both halves of a pair see the same host speed:
``--workloads`` runs ``perfbench/run.py``; ``--faults`` measures minor page
faults per simulated day of one crowd-avoiding ``engine.run`` at each given
N; ``--cli "ARGS"`` runs ``kpr ARGS`` in an empty working directory (ARGS
may name a relative ``--out``, not an absolute one).  All three write one
summary per workload, N or command: per metric and side the quartiles over
the pairs, how many pairs the change won and whether the gain rule holds,
each side's failed runs and operations, whether the two sides' digests
agree at each seed, and the runs themselves.  A run that exits non-zero or
outlasts RUN_TIMEOUT_S is a failed run of its side, not the end of the call.
``--days STRATEGY:N:DAYS[:SEED]`` imports both checkouts' packages into
this one process and steps ``engine.step_day`` for each, DAY_BLOCK days at
a time, the side that goes first alternating from block to block: a
per-day timing fine enough to separate moves smaller than the perfbench
pairs' spread.  The seed is DAYS_SEED unless given; a greedy line whose
DAYS is the run's tau at that seed steps the whole run.

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
# up); prints minor faults per simulated day, the run's wall seconds and the
# sha256 of its f series.
FAULTS_SNIPPET = """
import hashlib, resource, sys, time
from array import array
from kpr_lab import engine
from kpr_lab.model import SimulationConfig, Strategy
engine.run(SimulationConfig(n=1600, strategy=Strategy.CROWD_AVOIDING, seed=1))
config = SimulationConfig(n=int(sys.argv[1]), strategy=Strategy.CROWD_AVOIDING, seed=3)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
start = time.perf_counter()
result = engine.run(config)
wall = time.perf_counter() - start
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults / result.days, wall, hashlib.sha256(array("d", result.f_series)).hexdigest())
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


def run_side(checkout: Path, argv: list[str], cwd: Path) -> dict:
    """Run ``python3 ARGV`` once in ``cwd``, with the checkout's ``src`` on
    PYTHONPATH: its exit code, wall seconds and stdout lines.

    A run that exits non-zero or outlasts RUN_TIMEOUT_S is a failed run of
    its side; it keeps the last lines of its stderr instead.
    """
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"returncode": None, "stderr": [f"timed out after {RUN_TIMEOUT_S} s"]}
    if proc.returncode != 0:
        return {"returncode": proc.returncode, "stderr": proc.stderr.strip().splitlines()[-5:]}
    return {"returncode": 0, "wall_s": time.perf_counter() - start,
            "stdout": proc.stdout.strip().splitlines()}


def perfbench_side(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced perfbench run: its metrics, digests and operations from
    the result line, and the rest of its record line."""
    run = run_side(checkout, ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                              "--seconds", str(RUN_SECONDS), "--trace", "0"], checkout)
    if "stdout" not in run:
        return run
    record, result = map(json.loads, run["stdout"][-2:])
    # the per-operation lists are long; the quartiles summarize them
    for key in ("op_wall_s", "scaled_wall_s", "agent_days", "setup_s"):
        record.pop(key, None)
    return {"returncode": 0, "digests": record.pop("digests"), "record": record,
            "failed": result["failed"], "attempted": result["attempted"],
            "metrics": {name: metric["value"] for name, metric in result["metrics"].items()}}


def cli_side(checkout: Path, args: list[str]) -> dict:
    """``kpr ARGS`` in an empty working directory: the process's wall seconds
    and peak RSS, and the sha256 of every file it wrote."""
    with tempfile.TemporaryDirectory(prefix="bench-cli-") as folder:
        run = run_side(checkout, ["-c", CLI_SNIPPET, *args], Path(folder))
        if "stdout" not in run:
            return run
        return {"returncode": 0, "digests": output_digests(Path(folder)), "failed": 0,
                "attempted": 1, "metrics": {"wall_s": run["wall_s"],
                                            "peak_rss_mb": int(run["stdout"][-1]) / 1024}}


def faults_side(checkout: Path, n: int) -> dict:
    """FAULTS_SNIPPET at ``n``: minor faults per day, run seconds, and the
    sha256 of the run's f series."""
    run = run_side(checkout, ["-c", FAULTS_SNIPPET, str(n)], checkout)
    if "stdout" not in run:
        return run
    faults, seconds, f_series = run["stdout"][-1].split()
    return {"returncode": 0, "digests": {"f_series": f_series}, "failed": 0, "attempted": 1,
            "metrics": {"faults_per_day": float(faults), "run_s": float(seconds)}}


def run_pairs(seeds: list[int], measure) -> list[dict]:
    """``measure(checkout side, seed)`` for both sides at each seed, the
    side that goes first alternating from pair to pair."""
    pairs = []
    for index, seed in enumerate(seeds):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = measure(side, seed)
            print(f"seed {seed} {side}: {pair[side].get('metrics', 'failed')}", file=sys.stderr)
        pairs.append(pair)
    return pairs


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Quartiles, won pairs and the gain rule per metric; failures and digests.

    A run that did not finish counts as a failed run of its side and as a
    pair the change did not win.  The gain rule needs the change to win
    nine tenths of all pairs run and to fail no more than the parent: no
    more failed runs and no larger share of failed operations.
    """
    complete = [p for p in pairs if all("metrics" in p[side] for side in SIDES)]
    summary: dict = {
        "seeds": [p["seed"] for p in pairs],
        "pairs": len(pairs),
        "complete_pairs": len(complete),
    }
    for side in SIDES:
        results = [p[side] for p in pairs if "metrics" in p[side]]
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
        str(p["seed"]): p["parent"]["digests"] == p["change"]["digests"] for p in complete
    }
    if len(complete) < 2:  # no quartiles to compare
        return summary
    for metric, direction in better.items():
        values = {side: [p[side]["metrics"][metric] for p in complete] for side in SIDES}
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
        "runs of a parent checkout and a changed one, pair by pair at the same "
        "seed, the side that goes first alternating; written by "
        "scripts/bench_pairs.py with the arguments under calls"
    ))
    report["host"] = (
        f"{os.cpu_count()} CPUs, {platform.machine()}, Python "
        f"{platform.python_version()}, numpy {version('numpy')}"
    )
    report.setdefault("calls", []).append(sys.argv[1:] if argv is None else argv)
    if args.workloads:
        report["command"] = (
            f"python3 perfbench/run.py --workload W --seed S --seconds {RUN_SECONDS} --trace 0"
        )
        spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        for workload in args.workloads.split(","):
            pairs = run_pairs(args.seeds, lambda side, seed: perfbench_side(
                checkouts[side], workload, seed))
            report.setdefault("summary", {})[workload] = summarize(pairs, better)
            report.setdefault("runs", {})[workload] = pairs
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    if args.faults:
        report["faults"] = {
            "about": (
                "minor page faults (ru_minflt) per simulated day and run seconds of one "
                "crowd-avoiding engine.run (seed 3, 1000 days) after a warm-up run at "
                f"N = 1600, in a fresh process per side and N, {len(args.seeds)} pairs of "
                "processes, alternating which side goes first; summarized per N as the "
                "perfbench workloads are, the digest being the sha256 of the f series"
            ),
            "by_n": {},
        }
        for n in map(int, args.faults.split(",")):
            pairs = run_pairs(args.seeds, lambda side, seed: faults_side(checkouts[side], n))
            summary = summarize(pairs, {"faults_per_day": "lower", "run_s": "lower"})
            report["faults"]["by_n"][str(n)] = dict(summary, runs=pairs)
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
            "goes first; summarized as the perfbench workloads are, with wall seconds "
            "of the process and its peak RSS (ru_maxrss) in MB as the metrics and the "
            "sha256 of every file it wrote as the digests; outputs_equal says whether "
            "every completed run of both sides wrote the same files with the same bytes"
        )
        pairs = run_pairs(args.seeds, lambda side, seed: cli_side(
            checkouts[side], shlex.split(args.cli)))
        digests = [p[side]["digests"] for p in pairs for side in SIDES if "digests" in p[side]]
        section["lines"][args.cli] = dict(
            summarize(pairs, {"wall_s": "lower", "peak_rss_mb": "lower"}),
            output_files=len(digests[0]) if digests else 0,
            outputs_equal=bool(digests) and all(d == digests[0] for d in digests),
            runs=pairs,
        )
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
