"""The pair summary of scripts/bench_pairs.py: a side that crashes counts."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"wall_s": "lower"}


def finished(wall: float, failed: int = 0) -> dict:
    return {
        "returncode": 0,
        "record": {"digests": {"out.csv": "d"}},
        "result": {"failed": failed, "attempted": 10, "metrics": {"wall_s": {"value": wall}}},
    }


def pairs_with(change_sides: list[dict]) -> list[dict]:
    return [
        {"seed": seed, "parent": finished(2.0 + seed / 100), "change": side}
        for seed, side in enumerate(change_sides)
    ]


def test_a_clear_win_meets_the_gain_rule():
    summary = bench_pairs.summarize(pairs_with([finished(1.0)] * 10), BETTER)
    assert summary["wall_s"]["change_better_pairs"] == "10/10"
    assert summary["wall_s"]["gain_rule_met"]


def test_a_crashed_side_is_a_failed_run_and_a_lost_pair():
    crashed = {"returncode": 1, "stderr": ["Traceback"]}
    summary = bench_pairs.summarize(pairs_with([finished(1.0)] * 9 + [crashed]), BETTER)
    assert summary["complete_pairs"] == 9
    assert (summary["parent_failed_runs"], summary["change_failed_runs"]) == (0, 1)
    assert summary["wall_s"]["change_better_pairs"] == "9/10"
    assert not summary["wall_s"]["gain_rule_met"]


@pytest.mark.parametrize("failed", [0, 1])
def test_failed_operations_beyond_the_parents_forbid_a_gain(failed):
    sides = [finished(1.0)] * 9 + [finished(1.0, failed=failed)]
    summary = bench_pairs.summarize(pairs_with(sides), BETTER)
    assert summary["change_failed_ops"] == failed
    assert summary["wall_s"]["gain_rule_met"] is (failed == 0)


def test_a_timed_out_run_is_a_failed_run(monkeypatch):
    def hang(cmd, **kwargs):
        raise bench_pairs.subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(bench_pairs.subprocess, "run", hang)
    timed_out = bench_pairs.run_perfbench(Path("."), "gca-run", 11)
    assert "result" not in timed_out
    summary = bench_pairs.summarize(pairs_with([finished(1.0)] * 9 + [timed_out]), BETTER)
    assert summary["change_failed_runs"] == 1
    assert not summary["wall_s"]["gain_rule_met"]


def test_seed_ranges(tmp_path, capsys):
    assert bench_pairs.seed_list("11-13,5,7-7") == [11, 12, 13, 5, 7]
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", ".", "--change", ".", "--seeds", "20-11",
                          "--out", str(tmp_path / "bench.json")])
    assert exit_info.value.code == 2
    assert "descending seed range '20-11'" in capsys.readouterr().err
    assert not (tmp_path / "bench.json").exists()


def test_nothing_to_measure_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", ".", "--change", ".",
                          "--out", str(tmp_path / "bench.json")])
    assert exit_info.value.code == 2
    assert "nothing to measure" in capsys.readouterr().err
    assert not (tmp_path / "bench.json").exists()
