"""scripts/bench_pairs.py: a side that crashes or fails counts in the pair
summary, the day timing steps both checkouts to the same final state, and
the command timing compares both sides' output bytes."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"wall_s": "lower"}


def finished(wall: float, failed: int = 0) -> dict:
    return {"returncode": 0, "digests": {"out.csv": "d"}, "failed": failed, "attempted": 10,
            "metrics": {"wall_s": wall}}


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
    timed_out = bench_pairs.perfbench_side(Path("."), "gca-run", 11)
    assert "metrics" not in timed_out
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
    with pytest.raises(SystemExit) as exit_info:  # one pair has no quartiles
        bench_pairs.main(["--parent", ".", "--change", ".", "--seeds", "5",
                          "--cli", "run", "--out", str(tmp_path / "bench.json")])
    assert exit_info.value.code == 2
    assert "--cli needs two --seeds or more" in capsys.readouterr().err
    assert not (tmp_path / "bench.json").exists()


def test_nothing_to_measure_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", ".", "--change", ".",
                          "--out", str(tmp_path / "bench.json")])
    assert exit_info.value.code == 2
    assert "nothing to measure" in capsys.readouterr().err
    assert not (tmp_path / "bench.json").exists()


def test_days_step_both_checkouts_block_by_block(tmp_path):
    repo = SCRIPT.parent.parent
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(repo), "--change", str(repo),
                             "--days", "gca:30:50,ca:20:25,gca:30:45:7", "--out", str(out)]) == 0
    lines = json.loads(out.read_text())["days"]["lines"]
    assert list(lines) == ["gca:30:50", "ca:20:25", "gca:30:45:7"]
    assert [line["change_won_blocks"][-2:] for line in lines.values()] == ["/3", "/2", "/3"]
    for line in lines.values():
        assert line["final_states_equal"]
        assert line["parent_us_per_day"] > 0 and line["change_us_per_day"] > 0


def test_cli_runs_a_command_per_side_and_compares_its_outputs(tmp_path):
    repo = SCRIPT.parent.parent
    out = tmp_path / "bench.json"
    command = "run --strategy ca --n 20 --max-days 30 --seed 1 --out tiny"
    assert bench_pairs.main(["--parent", str(repo), "--change", str(repo),
                             "--cli", command, "--seeds", "1-2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    line = report["cli"]["lines"][command]
    assert line["outputs_equal"]
    assert line["output_files"] == 2  # tiny/timeseries.csv, tiny/summary.txt
    assert line["digests_equal_per_seed"] == {"1": True, "2": True}
    for pair in line["runs"]:
        for side in bench_pairs.SIDES:
            assert pair[side]["metrics"]["wall_s"] > 0 and pair[side]["metrics"]["peak_rss_mb"] > 0
    for metric in ("wall_s", "peak_rss_mb"):
        assert line[metric]["change_better_pairs"][-2:] == "/2"
        for side in bench_pairs.SIDES:
            assert 0 < line[metric][side]["q1"] <= line[metric][side]["q3"]
    # only a perfbench section names the perfbench command
    assert "command" not in report
    assert report["calls"] == [["--parent", str(repo), "--change", str(repo), "--cli", command,
                                "--seeds", "1-2", "--out", str(out)]]


def test_a_failing_command_is_a_failed_run(tmp_path):
    repo = SCRIPT.parent.parent
    out = tmp_path / "bench.json"
    # a greedy run capped at 5 days is censored, and --strict exits 3 on it
    command = "run --strategy gca --n 30 --seed 3 --max-days 5 --strict --out x"
    assert bench_pairs.main(["--parent", str(repo), "--change", str(repo),
                             "--cli", command, "--seeds", "1-2", "--out", str(out)]) == 0
    line = json.loads(out.read_text())["cli"]["lines"][command]
    assert line["parent_failed_runs"] == line["change_failed_runs"] == 2
    assert line["complete_pairs"] == 0
    assert not line["outputs_equal"]
    assert [pair["parent"]["returncode"] for pair in line["runs"]] == [3, 3]


def test_faults_are_summarized_per_n(tmp_path):
    repo = SCRIPT.parent.parent
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(repo), "--change", str(repo),
                             "--faults", "40", "--seeds", "1-2", "--out", str(out)]) == 0
    line = json.loads(out.read_text())["faults"]["by_n"]["40"]
    assert line["complete_pairs"] == 2
    assert line["digests_equal_per_seed"] == {"1": True, "2": True}
    assert line["faults_per_day"]["change_better_pairs"][-2:] == "/2"
    for side in bench_pairs.SIDES:
        assert 0 <= line["faults_per_day"][side]["q1"] <= line["faults_per_day"][side]["q3"]


def test_output_digests_see_every_file_and_byte(tmp_path):
    (tmp_path / "fig").mkdir()
    (tmp_path / "fig" / "a.csv").write_text("1\n")
    (tmp_path / "b.txt").write_text("x\n")
    before = bench_pairs.output_digests(tmp_path)
    assert sorted(before) == ["b.txt", "fig/a.csv"]
    (tmp_path / "fig" / "a.csv").write_text("2\n")
    after = bench_pairs.output_digests(tmp_path)
    assert after["b.txt"] == before["b.txt"] and after["fig/a.csv"] != before["fig/a.csv"]


def test_final_states_differ_after_one_more_day():
    engine, model = bench_pairs.load_package(SCRIPT.parent.parent, "kpr_alone")
    config = model.SimulationConfig(n=20, strategy=model.Strategy.CROWD_AVOIDING, seed=3)
    rng = np.random.default_rng(3)
    state, f = engine.init_day_one(config, rng)
    before = bench_pairs.final_state(state, rng, [f])
    assert before == bench_pairs.final_state(state, rng, [f])
    engine.step_day(state, config, rng)
    assert before != bench_pairs.final_state(state, rng, [f])


def test_final_states_compare_the_greedy_bookkeeping():
    engine, model = bench_pairs.load_package(SCRIPT.parent.parent, "kpr_alone")
    config = model.SimulationConfig(n=20, strategy=model.Strategy.GREEDY_CROWD_AVOIDING, seed=3)
    rng = np.random.default_rng(3)
    state, f = engine.init_day_one(config, rng)
    final = bench_pairs.final_state(state, rng, [f])
    assert set(bench_pairs.STATE_ARRAYS) <= set(final)
    for name in ("losses", "unserved", "resident"):
        other = dict(final, **{name: b""})
        assert not bench_pairs.states_equal(final, other)
        # an array only one side keeps is left out of the comparison
        assert bench_pairs.states_equal(final, {k: v for k, v in final.items() if k != name})


@pytest.mark.parametrize("spec", ["gca:30", "greedy:30:50", "ca:0:50", "ca:30:0",
                                  "gca:30:50:-1", "gca:30:50:1:2"])
def test_malformed_days_spec_is_a_usage_error(tmp_path, capsys, spec):
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", ".", "--change", ".", "--days", spec,
                          "--out", str(tmp_path / "bench.json")])
    assert exit_info.value.code == 2
    assert spec in capsys.readouterr().err
