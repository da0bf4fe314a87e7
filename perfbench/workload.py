"""One benchmark workload, run in a process of its own.

``python3 perfbench/workload.py --workload W --seed S --seconds T --trace 0|1
--out DIR`` (with ``src`` on PYTHONPATH) repeats the workload's operation
for T seconds, checks every operation's output and prints one JSON line:
the operations (wall time, simulated agent-days, checks, output digests),
the peak resident memory and, with --trace 1, the per-layer numbers.

run.py starts this process, so that the peak-memory figures cover the
workload alone and not the interpreters it starts to time set-up.

Each operation goes through the program's public API or CLI only:
``engine.run`` for gca-run and ``kpr_lab.cli.main`` for the other three.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from kpr_lab import cli, engine
from kpr_lab.model import SimulationConfig, Strategy
from kpr_lab.orchestrator import derive_seed

import spans

GCA_RUN_N = 6400
GCA_RUN_SEEDS = 8
CA_LARGE_N = 25600
SWEEP_NS = (50, 100, 200, 400)
SWEEP_RUNS = 30
WORLDLINES_N = 400
# Capping the greedy world-line run at N days fixes its size at N^2 rows
# for all but the ~2% of seeds that converge sooner (3 of seeds 1-200;
# tau/N quartiles are 1.9 and 4.1 over 200 seeds at N = 400); uncapped,
# rows, wall time and memory would follow tau and spread x4 between seeds.
WORLDLINES_MAX_DAYS = WORLDLINES_N
# A greedy run's length follows its seed (tau/N has a coefficient of
# variation of ~0.65), so gca wall times are scaled to a run of the typical
# length tau = 3N.
GCA_NOMINAL_DAYS = 3 * GCA_RUN_N
# The default cap of 10N days censors ~2% of greedy runs (tau has a
# geometric tail of scale ~2N); at 30N the share left short of full
# utilization, the absorbing state, is ~e^-13, so the convergence check
# holds for any valid stream.
GCA_RUN_MAX_DAYS = 30 * GCA_RUN_N

CA_SATURATION = (0.786, 0.806)  # f_s at N = 25600 measured 0.7962-0.7971
SWEEP_SATURATION = (0.78, 0.83)  # fs_mean at N = 50..400 measured 0.798-0.808


@dataclass
class Op:
    wall: float
    agent_days: int
    scale: float = 1.0  # nominal work / this operation's work
    rows: int = 0  # CSV data rows written
    fnum_calls: int = 0  # counted only while traced
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    traced: bool = False
    window: tuple[float, float] = (0.0, 0.0)


def read_summary(path: Path) -> dict[str, str]:
    pairs = (line.split("=", 1) for line in path.read_text().splitlines() if line)
    return {key: value for key, value in pairs}


def day_one_band(n: int, sigmas: float = 6.0) -> tuple[float, float]:
    """Band around E[f(1)] = 1 - (1 - 1/n)^n of +-``sigmas`` exact stddevs.

    The variance is that of the number of empty restaurants when n agents
    pick uniformly among n, so the band holds for any valid random stream.
    """
    empty_mean = n * (1 - 1 / n) ** n
    empty_var = empty_mean + n * (n - 1) * (1 - 2 / n) ** n - empty_mean**2
    mean = 1 - empty_mean / n
    half = sigmas * math.sqrt(max(empty_var, 0.0)) / n
    return mean - half, mean + half


def check_gca_run(f_series: np.ndarray, final_rates: np.ndarray, converged: bool) -> list[str]:
    problems = []
    if not converged:
        problems.append("greedy run did not converge")
    if f_series[-1] != 1.0:
        problems.append(f"last f is {f_series[-1]}, not 1")
    if np.any(np.diff(f_series) < 0):
        problems.append("f decreased on some day")
    if not np.all((final_rates >= 0) & (final_rates <= 100)):
        problems.append("final rate outside [0, 100]")
    return problems


def check_timeseries(path: Path, n: int, days: int) -> list[str]:
    lines = path.read_text().splitlines()
    if lines[0] != "t,f,served_count":
        return [f"timeseries header {lines[0]!r}"]
    rows = np.array([line.split(",") for line in lines[1:]], dtype=np.float64)
    problems = []
    if len(rows) != days:
        problems.append(f"timeseries has {len(rows)} rows, expected {days}")
    if not np.array_equal(rows[:, 0], np.arange(1, len(rows) + 1)):
        problems.append("timeseries days are not 1, 2, ...")
    if np.any(np.abs(rows[:, 1] * n - rows[:, 2]) > 1e-5 * n):
        problems.append("served_count disagrees with f * n")
    lo, hi = day_one_band(n)
    if not lo <= rows[0, 1] <= hi:
        problems.append(f"day-1 f {rows[0, 1]} outside [{lo:.5f}, {hi:.5f}]")
    return problems


def check_ca_large(out: Path) -> list[str]:
    summary = read_summary(out / "summary.txt")
    problems = check_timeseries(out / "timeseries.csv", CA_LARGE_N, 1000)
    if summary.get("days") != "1000":
        problems.append(f"summary days={summary.get('days')}")
    f_s = float(summary["f_s"])
    if not CA_SATURATION[0] <= f_s <= CA_SATURATION[1]:
        problems.append(f"f_s {f_s} outside {CA_SATURATION}")
    return problems


def check_sweep(out: Path) -> list[str]:
    lines = (out / "sweep.csv").read_text().splitlines()
    if lines[0] != "value,fs_mean,fs_std,tau_mean,tau_std,runs,converged_fraction":
        return [f"sweep header {lines[0]!r}"]
    rows = np.array([line.split(",") for line in lines[1:]], dtype=np.float64)
    problems = []
    if len(rows) != len(SWEEP_NS) or list(rows[:, 0]) != list(SWEEP_NS):
        return [f"sweep values {rows[:, 0].tolist()}, expected {list(SWEEP_NS)}"]
    if np.any(rows[:, 5] != SWEEP_RUNS):
        problems.append(f"runs column {rows[:, 5].tolist()}")
    lo, hi = SWEEP_SATURATION
    if np.any((rows[:, 1] < lo) | (rows[:, 1] > hi)):
        problems.append(f"fs_mean {rows[:, 1].tolist()} outside {SWEEP_SATURATION}")
    if np.any((rows[:, 6] < 0) | (rows[:, 6] > 1)):
        problems.append("converged_fraction outside [0, 1]")
    return problems


def check_worldlines(out: Path) -> list[str]:
    summary = read_summary(out / "summary.txt")
    tau, n = int(summary["tau"]), WORLDLINES_N
    upto = max(tau, 1)
    table = np.loadtxt(out / "worldlines.csv", delimiter=",", skiprows=1, ndmin=2)
    problems = check_timeseries(out / "timeseries.csv", n, int(summary["days"]))
    if len(table) != n * upto:
        return problems + [f"{len(table)} world-line rows, expected {n} x {upto}"]
    agents = table[:, 0].reshape(n, upto)
    days = table[:, 1].reshape(n, upto)
    pct = table[:, 2].reshape(n, upto)
    if not (np.all(agents == np.arange(n)[:, None]) and np.all(days == np.arange(1, upto + 1))):
        problems.append("world lines are not agent-major over days 1..max(tau, 1)")
    if np.any((pct < 0) | (pct > 100)):
        problems.append("a cumulative success pct is outside [0, 100]")
    final = pct[:, -1]
    if float(summary["min_final"]) != final.min() or float(summary["max_final"]) != final.max():
        problems.append(
            f"summary min/max_final {summary['min_final']}/{summary['max_final']} "
            f"disagree with the CSV's {final.min()}/{final.max()}"
        )
    return problems


def data_rows(out: Path) -> int:
    total = 0
    for path in out.glob("*.csv"):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh) - 1
    return total


def digests(out: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }


class GcaRun:
    """Greedy runs at N = 6400 through engine.run, cycling over 8 seeds."""

    def __init__(self, seed: int, out: Path) -> None:
        self.seeds = [derive_seed(seed, i) for i in range(GCA_RUN_SEEDS)]

    def warmup(self) -> None:
        engine.run(SimulationConfig(n=200, strategy=Strategy.GREEDY_CROWD_AVOIDING))

    def op(self, index: int) -> Op:
        config = SimulationConfig(
            n=GCA_RUN_N,
            strategy=Strategy.GREEDY_CROWD_AVOIDING,
            max_days=GCA_RUN_MAX_DAYS,
            seed=self.seeds[index % GCA_RUN_SEEDS],
        )
        start = perf_counter()
        result = engine.run(config)
        wall = perf_counter() - start
        digest = hashlib.sha256(
            result.f_series.tobytes() + result.final_rates.tobytes()
        ).hexdigest()
        return Op(
            wall=wall,
            agent_days=GCA_RUN_N * result.days,
            scale=GCA_NOMINAL_DAYS / result.days,
            digests={f"seed{index % GCA_RUN_SEEDS}": digest},
            problems=check_gca_run(result.f_series, result.final_rates, result.converged),
        )


class CliWorkload:
    """One kpr command, repeated with the same seed into the same directory."""

    def __init__(self, seed: int, out: Path) -> None:
        self.out = out
        self.seed = str(derive_seed(seed, 0))

    def argv(self, out: Path) -> list[str]:
        raise NotImplementedError

    def agent_days(self) -> int:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def scale(self) -> float:
        return 1.0

    def warmup(self) -> None:
        cli.main(self.argv(self.out))

    def op(self, index: int) -> Op:
        shutil.rmtree(self.out, ignore_errors=True)
        argv = self.argv(self.out)
        start = perf_counter()
        status = cli.main(argv)
        wall = perf_counter() - start
        if status != 0:
            return Op(wall=wall, agent_days=1, problems=[f"kpr exited {status}"])
        return Op(
            wall=wall,
            agent_days=self.agent_days(),
            scale=self.scale(),
            rows=data_rows(self.out),
            digests=digests(self.out),
            problems=self.check(),
        )


class CaLarge(CliWorkload):
    def argv(self, out: Path, n: int | None = None) -> list[str]:
        return ["run", "--strategy", "ca", "--n", str(n or CA_LARGE_N),
                "--seed", self.seed, "--out", str(out)]

    def warmup(self) -> None:
        cli.main(self.argv(self.out, n=1600))

    def agent_days(self) -> int:
        return CA_LARGE_N * int(read_summary(self.out / "summary.txt")["days"])

    def check(self) -> list[str]:
        return check_ca_large(self.out)


class CaSweepSmall(CliWorkload):
    def __init__(self, seed: int, out: Path) -> None:
        super().__init__(seed, out)
        self.workers = min(2, os.cpu_count() or 1)

    def argv(self, out: Path, values=None, runs=None) -> list[str]:
        return ["sweep", "--strategy", "ca", "--variable", "n",
                "--values", ",".join(map(str, values or SWEEP_NS)),
                "--runs", str(runs or SWEEP_RUNS),
                "--threads", str(self.workers), "--seed", self.seed, "--out", str(out)]

    def warmup(self) -> None:
        cli.main(self.argv(self.out, values=(50, 100, 200), runs=2))

    def agent_days(self) -> int:
        # crowd-avoiding runs always play the full horizon
        return sum(
            SWEEP_RUNS * n * SimulationConfig(n=n, strategy=Strategy.CROWD_AVOIDING).effective_max_days
            for n in SWEEP_NS
        )

    def check(self) -> list[str]:
        return check_sweep(self.out)


class GcaWorldlines(CliWorkload):
    def argv(self, out: Path) -> list[str]:
        return ["worldlines", "--strategy", "gca", "--n", str(WORLDLINES_N),
                "--max-days", str(WORLDLINES_MAX_DAYS),
                "--seed", self.seed, "--out", str(out)]

    def days(self) -> int:
        return int(read_summary(self.out / "summary.txt")["days"])

    def agent_days(self) -> int:
        return WORLDLINES_N * self.days()

    def scale(self) -> float:
        return WORLDLINES_MAX_DAYS / self.days()

    def check(self) -> list[str]:
        return check_worldlines(self.out)


WORKLOADS = {
    "gca-run": GcaRun,
    "ca-large": CaLarge,
    "ca-sweep-small": CaSweepSmall,
    "gca-worldlines": GcaWorldlines,
}


def timed_op(workload, index: int, tracer: spans.Tracer | None, patches: list) -> Op:
    """One operation; traced while ``patches`` (from spans.wrappers) are in place."""
    undo = spans.swap(patches)
    fnum_before = tracer.fnum_calls if tracer else 0
    start = perf_counter()
    try:
        op = workload.op(index)
    finally:
        spans.swap(undo)
    op.window = (start, perf_counter())
    if tracer:
        op.traced = True
        op.fnum_calls = tracer.fnum_calls - fnum_before
    return op


def run_ops(workload, until: float, tracer: spans.Tracer | None = None) -> list[Op]:
    """Operations from index 0 until the clock passes ``until`` (at least one).

    With a tracer every index runs twice, untraced and traced, in alternating
    order, so that both halves of a pair see the same host speed.
    """
    patches = spans.wrappers(tracer) if tracer else []
    ops = []
    index = 0
    while True:
        if tracer:
            first_traced = index % 2 == 1
            for traced in (first_traced, not first_traced):
                ops.append(timed_op(workload, index, tracer if traced else None,
                                    patches if traced else []))
        else:
            ops.append(timed_op(workload, index, None, []))
        index += 1
        if perf_counter() >= until:
            return ops


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.out / "output")
    workload.warmup()
    start = perf_counter()
    report: dict = {"workload": args.workload, "seed": args.seed}
    if not args.trace:
        ops = run_ops(workload, start + args.seconds)
    else:
        trace_dir = args.out / "trace"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        tracer = spans.Tracer(trace_dir)
        ops = run_ops(workload, start + args.seconds, tracer)
        recorded = tracer.collect()
        np.save(args.out / "spans.npy", recorded)
        (args.out / "span_names.json").write_text(json.dumps(spans.NAMES))
        shutil.rmtree(trace_dir)
        traced = [op for op in ops if op.traced]
        layers = spans.layer_metrics(
            recorded,
            [op.window for op in traced],
            [op.rows for op in traced],
            [op.fnum_calls for op in traced],
        )
        # a pair is one input run untraced and traced; scale is shared
        layers["trace_overhead_fraction"] = statistics.median(
            traced_op.wall / plain_op.wall - 1
            for traced_op, plain_op in (
                sorted(ops[i:i + 2], key=lambda op: not op.traced)
                for i in range(0, len(ops), 2)
            )
        )
        report["layers"] = layers
    # ru_maxrss is in KiB; for children it is the largest waited-for child
    report["peak_rss_kb"] = {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "largest_child": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    report["pool_workers"] = getattr(workload, "workers", 0)
    report["ops"] = [
        {key: value for key, value in asdict(op).items() if key != "window"}
        for op in ops
    ]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
