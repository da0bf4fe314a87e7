"""scripts/full_scale.py refuses a run count or seed it cannot honour."""

import importlib.util
from pathlib import Path

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
