"""scripts/full_scale.py refuses a run count or seed it cannot honour."""

import importlib.util
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "full_scale.py"
spec = importlib.util.spec_from_file_location("full_scale", SCRIPT)
full_scale = importlib.util.module_from_spec(spec)
spec.loader.exec_module(full_scale)


@pytest.mark.parametrize("argv,message", [
    (["--runs", "0"], "--runs must be >= 1, got 0"),
    (["--runs", "-3"], "--runs must be >= 1, got -3"),
    (["--seed", "-1"], "--seed: seed must fit in 64 bits, got -1"),
    (["--seed", str(2**64)], f"--seed: seed must fit in 64 bits, got {2**64}"),
])
def test_invalid_arguments_exit_2_with_one_line(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        full_scale.main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"full_scale.py: {message}\n"


def test_runs_are_timed_and_the_peak_rss_printed(monkeypatch, capsys):
    # a stand-in for the N = 51200 run; the script reports what it is given
    def fake_run(cfg):
        return SimpleNamespace(tau=3 * cfg.n, converged=True, f_s=1.0)

    monkeypatch.setattr(full_scale, "run", fake_run)
    full_scale.main(["--runs", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("greedy N=51200 run 0: tau=153600 tau/N=3.000 converged=True [")
    assert lines[2] == "tau/N over 2 runs: mean=3.000 std=0.000"
    assert re.fullmatch(r"peak RSS: \d+\.\d MB", lines[3])
