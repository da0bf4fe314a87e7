"""Fast checks of the benchmark itself.

Run from the repository root with ``PYTHONPATH=src python -m pytest
perfbench``.  The smoke pass runs every workload at tiny sizes in a
subprocess, so that the tracing wrappers never touch this interpreter.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench_run  # noqa: E402
import workload  # noqa: E402

TINY = """
import sys
import workload
workload.GCA_RUN_N = 50
workload.GCA_NOMINAL_DAYS = 150
workload.GCA_RUN_MAX_DAYS = 1500
workload.CA_LARGE_N = 400
workload.SWEEP_RUNS = 2
workload.WORLDLINES_N = workload.WORLDLINES_MAX_DAYS = 50
sys.exit(workload.main(sys.argv[1:]))
"""


def bench_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(HERE), env.get("PYTHONPATH")) if p
    )
    return env


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


@pytest.mark.parametrize("name", bench_run.WORKLOADS)
def test_tiny_run_emits_every_metric(name, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", TINY, "--workload", name, "--seed", "3",
         "--seconds", "0", "--trace", "1", "--out", str(tmp_path)],
        env=bench_env(), cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert [op["problems"] for op in report["ops"]] == [[], []]
    assert [op["traced"] for op in report["ops"]] == [False, True]
    assert declared("end_to_end") == bench_run.END_TO_END_UNITS
    assert declared("per_layer") == bench_run.PER_LAYER_UNITS
    assert set(bench_run.end_to_end(report, [0.2])) == set(bench_run.END_TO_END_UNITS)
    layers = report["layers"]
    assert set(layers) == set(bench_run.PER_LAYER_UNITS)
    assert layers["engine.days"] > 0
    assert 0 < layers["engine.step_self_us_per_day"] < layers["engine.step_us_per_day"]
    if name == "ca-sweep-small":
        assert layers["orchestrator.runs"] == 4 * 2
        assert 0 < layers["orchestrator.pool_efficiency"] <= 1
    if name == "gca-worldlines":
        assert layers["cli.rows_written"] > 0
        assert layers["cli.fnum_calls"] >= layers["cli.rows_written"]


def test_time_metrics_average_the_whole_run():
    # a run that spent half its time at half speed: a median would pick
    # one speed, the totals cover both; the last operation did half the
    # nominal work in half the time
    ops = [{"wall": wall, "scale": 1.0, "agent_days": 100} for wall in (1.0, 1.0, 2.0, 2.0)]
    ops.append({"wall": 0.75, "scale": 2.0, "agent_days": 50})
    report = {"ops": ops, "peak_rss_kb": {"self": 2048, "largest_child": 0}, "pool_workers": 0}
    metrics = bench_run.end_to_end(report, [0.3, 0.1, 0.2])
    assert metrics == {
        "wall_s": 1.5,
        "agent_days_per_s": 450 / 6.75,
        "setup_s": 0.2,
        "peak_rss_mb": 2.0,
    }


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workload, "CA_LARGE_N", 400)
    monkeypatch.setattr(workload, "SWEEP_RUNS", 2)
    monkeypatch.setattr(workload, "WORLDLINES_N", 50)
    monkeypatch.setattr(workload, "WORLDLINES_MAX_DAYS", 50)


def corrupt_line(path: Path, index: int, column: int, value: str) -> None:
    lines = path.read_text().splitlines()
    cells = lines[index].split(",")
    cells[column] = value
    lines[index] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_corrupted_worldlines_fail_the_check(tiny, tmp_path):
    job = workload.GcaWorldlines(3, tmp_path)
    assert job.op(0).problems == []
    corrupt_line(tmp_path / "worldlines.csv", 2, 2, "100.500")
    assert any("outside [0, 100]" in p for p in workload.check_worldlines(tmp_path))


def test_worldline_summary_must_match_the_csv(tiny, tmp_path):
    job = workload.GcaWorldlines(3, tmp_path)
    assert job.op(0).problems == []
    summary = tmp_path / "summary.txt"
    text = summary.read_text().replace("max_final=", "max_final=1")
    summary.write_text(text)
    assert any("disagree" in p for p in workload.check_worldlines(tmp_path))


def test_corrupted_timeseries_fails_the_check(tiny, tmp_path):
    job = workload.CaLarge(3, tmp_path)
    assert job.op(0).problems == []
    corrupt_line(tmp_path / "timeseries.csv", 1, 1, "0.900000")
    problems = workload.check_ca_large(tmp_path)
    assert any("served_count" in p for p in problems)
    assert any("day-1 f" in p for p in problems)


def test_sweep_out_of_saturation_fails_the_check(tiny, tmp_path):
    job = workload.CaSweepSmall(3, tmp_path)
    assert job.op(0).problems == []
    corrupt_line(tmp_path / "sweep.csv", 1, 1, "0.632121")
    assert any("fs_mean" in p for p in workload.check_sweep(tmp_path))


def test_decreasing_greedy_series_fails_the_check():
    f = np.array([0.6, 0.9, 0.8, 1.0])
    assert workload.check_gca_run(f, np.full(4, 50.0), True) == [
        "f decreased on some day"
    ]
    assert len(workload.check_gca_run(f[:-1], np.full(4, 101.0), False)) == 4


def test_no_program_means_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ca-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
