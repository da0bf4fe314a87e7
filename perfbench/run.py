#!/usr/bin/env python3
"""kpr-lab benchmark: end-to-end metrics per workload, or per-layer metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload ca-large --seed 1 --seconds 25 --trace 0

The program is used from ``src/`` of the same checkout; nothing is installed.
With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones (wall_s, agent_days_per_s, setup_s,
peak_rss_mb); with ``--trace 1`` they are the per-layer ones.  The line
before it records the sample counts, the output digests and any failed
check.  Everything the run writes goes under ``.perfbench_out/`` in the
checkout.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("gca-run", "ca-large", "ca-sweep-small", "gca-worldlines")
TIME_LIMIT_S = 170.0
SETUP_SAMPLES = 7
SETUP_SNIPPET = "import kpr_lab.cli as cli; cli.build_parser()"

END_TO_END_UNITS = {"wall_s": "s", "agent_days_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "strategy.choice_us_per_day": "us",
    "strategy.mover_fraction": "ratio",
    "engine.contested_fraction": "ratio",
    "engine.step_us_per_day": "us",
    "engine.step_self_us_per_day": "us",
    "engine.run_self_us_per_day": "us",
    "engine.detect_ms_per_run": "ms",
    "engine.days": "count",
    "engine.history_mb": "MB_computed",
    "orchestrator.ensemble_s": "s",
    "orchestrator.runs": "count",
    "orchestrator.pool_efficiency": "ratio",
    "stats.world_lines_s": "s",
    "cli.write_s": "s",
    "cli.rows_written": "count",
    "cli.fnum_calls": "count",
    "cli.us_per_row": "us",
    "trace_overhead_fraction": "ratio",
}


class BenchmarkError(Exception):
    pass


def child_env(out: Path) -> dict[str, str]:
    env = dict(os.environ)
    # set-up is timed as a returning user sees it, with the bytecode cache
    # (under src/, inside the checkout) written by the first start
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def run_child(cmd: list[str], env: dict[str, str], cwd: Path, timeout: float) -> str:
    """Run ``cmd`` in a session of its own; kill the whole session on timeout."""
    proc = subprocess.Popen(
        cmd, env=env, cwd=cwd, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"{cmd[1]} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchmarkError(f"{' '.join(cmd[:2])} exited {proc.returncode}")
    return stdout


def time_setup(env: dict[str, str], cwd: Path, deadline: float) -> list[float]:
    """Wall times of fresh interpreters importing kpr_lab.cli and building
    the parser; one untimed start first writes the bytecode cache."""
    cmd = [sys.executable, "-c", SETUP_SNIPPET]
    run_child(cmd, env, cwd, deadline - perf_counter())
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        run_child(cmd, env, cwd, deadline - perf_counter())
        samples.append(perf_counter() - start)
    return samples


def end_to_end(report: dict, setup: list[float]) -> dict[str, float]:
    """Time metrics are totals over the whole run, not medians over its
    operations: the host's speed drifts by up to ~1.5x over tens of
    seconds, and a median over operations jumps with whichever speed held
    for most of the run, while a total averages every part of it.

    ``wall_s`` is the run's wall time per nominal operation; an operation
    counts as 1 / scale of one (a greedy run of d days as d / 3N)."""
    ops = report["ops"]
    rss = report["peak_rss_kb"]
    peak_kb = rss["self"] + report["pool_workers"] * rss["largest_child"]
    wall = sum(op["wall"] for op in ops)
    return {
        "wall_s": wall / sum(1 / op["scale"] for op in ops),
        "agent_days_per_s": sum(op["agent_days"] for op in ops) / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024,
    }


def record(report: dict, setup: list[float]) -> dict:
    """What the run did, beyond the metrics: samples, digests, failures."""
    scaled = [op["wall"] * op["scale"] for op in report["ops"]]
    seen: dict[str, set[str]] = {}
    for op in report["ops"]:
        for name, digest in op["digests"].items():
            seen.setdefault(name, set()).add(digest)
    return {
        "workload": report["workload"],
        "seed": report["seed"],
        "samples": {
            "untraced_ops": sum(not op["traced"] for op in report["ops"]),
            "traced_ops": sum(op["traced"] for op in report["ops"]),
            "setup": len(setup),
        },
        "op_wall_s": [op["wall"] for op in report["ops"]],
        "scaled_wall_s": scaled,
        "agent_days": [op["agent_days"] for op in report["ops"]],
        "setup_s": setup,
        "digests": {name: sorted(values) for name, values in sorted(seen.items())},
        "digests_repeat": all(len(values) == 1 for values in seen.values()),
        "problems": [p for op in report["ops"] for p in op["problems"]],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    start = perf_counter()
    deadline = start + TIME_LIMIT_S

    if not (SRC / "kpr_lab" / "__init__.py").is_file():
        print(f"run.py: no kpr_lab package under {SRC}", file=sys.stderr)
        return 2
    out = ROOT / ".perfbench_out" / args.workload
    env = child_env(out)
    try:
        setup = time_setup(env, out, deadline)
        stdout = run_child(
            [sys.executable, str(HERE / "workload.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", str(out)],
            env, out, deadline - perf_counter(),
        )
        report = json.loads(stdout.strip().splitlines()[-1])
    except (BenchmarkError, json.JSONDecodeError, IndexError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    metrics = report["layers"] if args.trace else end_to_end(report, setup)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    details = record(report, setup)
    (out / "record.json").write_text(json.dumps(details, indent=1) + "\n")
    failed = sum(bool(op["problems"]) for op in report["ops"])
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(report["ops"]),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
