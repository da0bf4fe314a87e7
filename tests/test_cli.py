import argparse
import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from reference import losers_of, reference_fnum, traced_peak

from kpr_lab import cli, engine, stats
from kpr_lab.cli import fnum, main
from kpr_lab.model import RunResult, SimulationConfig, Strategy

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SRC = ROOT / "src"


class TestNumberFormat:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.0, "0.000000"),
            (1.0, "1.00000"),
            (0.71, "0.710000"),
            (0.632121, "0.632121"),
            (0.000123456, "0.000123456"),
            (1234.56789, "1234.57"),
            (100.0, "100.000"),
            (-2.5, "-2.50000"),
        ],
    )
    def test_six_significant_digits(self, value, expected):
        assert fnum(value) == expected

    def test_round_trips(self):
        for value in (0.797, 17401.0, 0.00001234, 99.99999, 3.0):
            assert fnum(float(fnum(value))) == fnum(value)

    @pytest.mark.parametrize("value,expected", [
        (float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf"),
    ])
    def test_non_finite_values_round_trip(self, value, expected):
        assert fnum(value) == expected
        assert fnum(float(fnum(value))) == expected

    @given(st.floats())
    @example(9.9999996)  # carries into the next decade: 10.0000
    @example(99999.96)  # carries with one decimal left: 100000
    @example(0.0099999996)
    @example(-9.9999996)
    @example(999999.5)  # no decimals, nothing to drop
    @example(5e-324)
    @example(1.000004e-318)  # subnormal whose six digits parse a decade lower
    @example(1.7976931348623157e308)
    # the fast path's bounds: "#.6g" is exact for 1e-4 <= |x| < 99999.95
    @example(1e-4)
    @example(math.nextafter(1e-4, 0))
    @example(0.000099999996)  # carries up into the fast range: 0.000100000
    @example(9.99e-5)  # "#.6g" would switch to exponent form
    @example(99999.95)  # the float lies below 99999.95 and prints 99999.9
    @example(math.nextafter(99999.95, 0))
    @example(math.nextafter(99999.95, math.inf))  # "#.6g" would print "100000."
    @example(99999.949)
    @example(123456.0)  # "#.6g" would keep a trailing point
    @example(-1e-4)
    @example(-math.nextafter(1e-4, 0))
    @example(-0.000099999996)
    @example(-99999.95)
    @example(-math.nextafter(99999.95, 0))
    @example(-99999.949)
    def test_matches_the_two_pass_reference(self, value):
        assert fnum(value) == reference_fnum(value)

    def test_every_world_line_value_matches_the_reference(self):
        for t in range(1, 501):
            for c in range(t + 1):
                value = 100.0 * c / t
                assert fnum(value) == reference_fnum(value), (c, t)


class TestRunCommand:
    def test_writes_timeseries_and_summary(self, tmp_path):
        out = tmp_path / "d"
        rc = main(
            ["run", "--strategy", "gca", "--n", "40", "--seed", "3", "--out", str(out)]
        )
        assert rc == 0
        header = (out / "timeseries.csv").read_text().splitlines()[0]
        assert header == "t,f,served_count"
        summary = dict(
            line.split("=", 1)
            for line in (out / "summary.txt").read_text().splitlines()
        )
        assert summary["strategy"] == "gca"
        assert summary["converged"] == "true"
        assert summary["n"] == "40"

    def test_timeseries_round_trips(self, tmp_path):
        out = tmp_path / "d"
        main(["run", "--strategy", "ca", "--n", "60", "--seed", "1", "--max-days",
              "120", "--out", str(out)])
        raw = (out / "timeseries.csv").read_text()
        lines = raw.splitlines()
        rebuilt = [lines[0]]
        for line in lines[1:]:
            t, f, served = line.split(",")
            rebuilt.append(f"{int(t)},{fnum(float(f))},{int(served)}")
        assert "\n".join(rebuilt) + "\n" == raw

    def test_crowd_avoiding_tail_near_saturation(self, tmp_path):
        out = tmp_path / "d"
        main(["run", "--strategy", "ca", "--n", "400", "--seed", "1",
              "--out", str(out)])
        fs = [
            float(line.split(",")[1])
            for line in (out / "timeseries.csv").read_text().splitlines()[1:]
        ]
        assert abs(np.mean(fs[len(fs) // 2 :]) - 0.80) <= 0.03

    def test_greedy_last_row_is_exactly_one(self, tmp_path):
        out = tmp_path / "d"
        main(["run", "--strategy", "gca", "--n", "200", "--seed", "1",
              "--out", str(out)])
        last = (out / "timeseries.csv").read_text().splitlines()[-1]
        assert last.split(",")[1] == "1.00000"


class TestSeedResolution:
    def test_env_seed_used_when_flag_absent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KPR_SEED", "41")
        out = tmp_path / "d"
        main(["run", "--strategy", "random", "--n", "10", "--max-days", "5",
              "--out", str(out)])
        assert "seed=41" in (out / "summary.txt").read_text()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KPR_SEED", "41")
        out = tmp_path / "d"
        main(["run", "--strategy", "random", "--n", "10", "--max-days", "5",
              "--seed", "6", "--out", str(out)])
        assert "seed=6" in (out / "summary.txt").read_text()

    def test_config_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KPR_SEED", "41")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("seed=4\n")
        out = tmp_path / "d"
        main(["run", "--strategy", "random", "--n", "10", "--max-days", "5",
              "--config", str(cfg), "--out", str(out)])
        assert "seed=4" in (out / "summary.txt").read_text().splitlines()

    def test_default_is_zero(self, tmp_path, monkeypatch):
        monkeypatch.delenv("KPR_SEED", raising=False)
        out = tmp_path / "d"
        main(["run", "--strategy", "random", "--n", "10", "--max-days", "5",
              "--out", str(out)])
        assert "seed=0" in (out / "summary.txt").read_text()


class TestConfigFile:
    def test_config_file_fills_flags(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("strategy=ca\nn=30\nmax-days=60\nseed=4\n")
        out = tmp_path / "d"
        rc = main(["run", "--strategy", "ca", "--n", "30", "--config", str(cfg),
                   "--out", str(out)])
        assert rc == 0
        text = (out / "summary.txt").read_text()
        assert "seed=4" in text and "max_days=60" in text

    @pytest.mark.parametrize("key", ["max_days", "max-days"])
    def test_keys_take_dashes_or_underscores(self, key, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{key}=60\n")
        out = tmp_path / "d"
        rc = main(["run", "--strategy", "ca", "--n", "30", "--config", str(cfg),
                   "--out", str(out)])
        assert rc == 0
        assert "max_days=60" in (out / "summary.txt").read_text().splitlines()

    @pytest.mark.parametrize(
        "command,lines,written",
        [
            ("run", "strategy=ca\nn=30\nmax-days=40\n", "timeseries.csv"),
            ("sweep", "strategy=ca\nvariable=n\nvalues=20,40\nruns=2\n"
                      "max-days=40\nthreads=1\n", "sweep.csv"),
        ],
        ids=["run", "sweep"],
    )
    def test_config_file_supplies_required_flags(self, command, lines, written, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(lines)
        out = tmp_path / "d"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / written).exists()
        assert "strategy=ca" in (out / "summary.txt").read_text().splitlines()

    def test_required_flag_missing_from_config_and_flags(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n=30\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert exc.value.code == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert err == ["kpr: the following arguments are required: --strategy"]

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("seed=4\nmax-days=60\n")
        out = tmp_path / "d"
        main(["run", "--strategy", "ca", "--n", "30", "--seed", "9",
              "--config", str(cfg), "--out", str(out)])
        assert "seed=9" in (out / "summary.txt").read_text()

    @pytest.mark.parametrize(
        "lines,flags,expected",
        [
            ("full=true\nstrict=true\n", [], (True, True)),
            ("full=false\nstrict=FALSE\n", [], (False, False)),
            ("full=false\nstrict=false\n", ["--full", "--strict"], (True, True)),
            ("", [], (False, False)),
        ],
        ids=["true", "false", "flags-win", "unset"],
    )
    def test_boolean_keys_fill_flags(self, lines, flags, expected, tmp_path,
                                     monkeypatch):
        seen = []
        monkeypatch.setattr(
            cli, "cmd_figures", lambda args: seen.append((args.full, args.strict)) or 0
        )
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(lines)
        assert main(["figures", "--config", str(cfg), *flags]) == 0
        assert seen == [expected]

    @pytest.mark.parametrize("line", ["strict=yes", "strict=1", "full=", "full=on"])
    def test_boolean_key_rejects_other_words(self, line, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["figures", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert exc.value.code == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("kpr: ")
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("line", ["func=x", "command=sweep", "config=other.cfg"])
    def test_parsed_attributes_that_are_not_flags_are_unknown_keys(
        self, line, tmp_path, capsys
    ):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--strategy", "ca", "--n", "30", "--config", str(cfg),
                  "--out", str(tmp_path / "d")])
        assert exc.value.code == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert err == [f"kpr: unknown config key: {line.partition('=')[0]}"]
        assert not (tmp_path / "d").exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("bogus=1\n")
        with pytest.raises(SystemExit):
            main(["run", "--strategy", "ca", "--n", "30", "--config", str(cfg),
                  "--out", str(tmp_path / "d")])


class TestSweepCommand:
    def test_columns_and_summary(self, tmp_path):
        out = tmp_path / "d"
        rc = main(["sweep", "--strategy", "ca", "--variable", "n",
                   "--values", "20,40,80", "--runs", "3", "--seed", "2",
                   "--threads", "1", "--out", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "value,fs_mean,fs_std,tau_mean,tau_std,runs,converged_fraction"
        assert len(lines) == 4
        assert all(line.split(",")[5] == "3" for line in lines[1:])
        summary = (out / "summary.txt").read_text()
        assert "fs_extrapolated_intercept=" in summary

    def test_alpha_sweep_requires_n(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--strategy", "ca", "--variable", "alpha",
                  "--values", "0.5,1.0", "--runs", "2",
                  "--out", str(tmp_path / "d")])


class TestWorldlinesCommand:
    def test_single_agent_pinned_at_100(self, tmp_path):
        out = tmp_path / "d"
        rc = main(["worldlines", "--strategy", "gca", "--n", "1", "--seed", "0",
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "worldlines.csv").read_text().splitlines()
        assert lines[0] == "agent_id,t,cumulative_success_pct"
        assert lines[1] == "0,1,100.000"
        assert "min_final=100.000" in (out / "summary.txt").read_text()

    def test_day_one_mean_near_random_baseline(self, tmp_path):
        out = tmp_path / "d"
        main(["worldlines", "--strategy", "gca", "--n", "400", "--seed", "2",
              "--out", str(out)])
        day1 = [
            float(line.split(",")[2])
            for line in (out / "worldlines.csv").read_text().splitlines()[1:]
            if line.split(",")[1] == "1"
        ]
        assert len(day1) == 400
        assert abs(np.mean(day1) - 63.0) <= 3.0

    def test_worldlines_round_trip(self, tmp_path):
        out = tmp_path / "d"
        main(["worldlines", "--strategy", "gca", "--n", "25", "--seed", "8",
              "--out", str(out)])
        raw = (out / "worldlines.csv").read_text()
        lines = raw.splitlines()
        rebuilt = [lines[0]]
        for line in lines[1:]:
            agent, t, pct = line.split(",")
            rebuilt.append(f"{int(agent)},{int(t)},{fnum(float(pct))}")
        assert "\n".join(rebuilt) + "\n" == raw


def _write_peak_bytes(path, days, n):
    """tracemalloc peak of writing the world lines of the losers of a
    (days, n) flag history made beforehand."""
    flags = np.random.default_rng(0).random((days, n)) < 0.6
    losers, offsets = losers_of(flags)
    result = RunResult(
        config=SimulationConfig(n=n, strategy=Strategy.CROWD_AVOIDING),
        f_series=flags.mean(axis=1),
        tau=days,
        f_s=0.6,
        final_rates=None,
        converged=True,
        losers=losers,
        loser_offsets=offsets,
    )
    return traced_peak(lambda: cli.write_worldlines(path, stats.world_lines(result)))[1]


def test_worldline_rows_stream_one_agent_at_a_time(tmp_path):
    small = _write_peak_bytes(tmp_path / "small.csv", 400, 100)
    large = _write_peak_bytes(tmp_path / "large.csv", 400, 1600)
    assert large < 1_000_000
    assert large < 2 * small


def test_worldlines_command_makes_no_float_matrix(tmp_path):
    # the run keeps its losers; world lines as one float64 matrix would
    # take eight bytes per agent and day on top of them
    n = days = 800
    argv = ["worldlines", "--strategy", "gca", "--n", str(n), "--max-days", str(days),
            "--seed", "1", "--out", str(tmp_path)]
    _, peak = traced_peak(lambda: main(argv))
    assert f"days={days}\n" in (tmp_path / "summary.txt").read_text()
    matrix_bytes = days * n * np.dtype(np.float64).itemsize
    print(f"worldlines peak: {peak / matrix_bytes:.2f} of a (days, n) float matrix")
    assert peak < matrix_bytes / 2


def test_timeseries_rows_stream_in_blocks_of_days(tmp_path):
    # rows held at once stay one block's worth: a list of every row and its
    # joined copy took about 110 bytes a day
    days, n = 100_000, 1000
    result = RunResult(
        config=SimulationConfig(n=n, strategy=Strategy.CROWD_AVOIDING),
        f_series=np.random.default_rng(0).integers(0, n + 1, days) / n,
        tau=0,
        f_s=0.75,
        final_rates=None,
        converged=True,
    )
    path = tmp_path / "timeseries.csv"
    cli.write_timeseries(path, result)
    _, peak = traced_peak(lambda: cli.write_timeseries(path, result))
    rows = path.read_text().splitlines()
    assert len(rows) == days + 1
    assert rows[-1] == f"{days},{fnum(result.f_series[-1])},{round(result.f_series[-1] * n)}"
    print(f"write_timeseries peak: {peak / days:.1f} bytes a day")
    assert peak < 16 * days


@pytest.mark.parametrize("argv", [
    ["run", "--strategy", "gca", "--n", "40"],
    ["worldlines", "--strategy", "gca", "--n", "40"],
    ["sweep", "--strategy", "ca", "--variable", "n", "--values", "20,30", "--runs", "2",
     "--max-days", "50", "--threads", "1"],
], ids=["run", "worldlines", "sweep-threads-1"])
def test_commands_without_a_pool_load_no_multiprocessing(tmp_path, argv):
    # only a pooled ensemble imports the process pool and its ~1.8 MB of modules
    code = (
        "import sys\n"
        "from kpr_lab import cli\n"
        f"assert cli.main({argv + ['--out', str(tmp_path)]!r}) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith(('multiprocessing', 'concurrent.futures.process'))))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout == "[]\n"


class TestExitCodes:
    @pytest.mark.parametrize(
        "args,env_seed",
        [
            (["run", "--n", "10"], "0"),
            (["run", "--strategy", "ca", "--n", "x"], "0"),
            (["run", "--strategy", "ca", "--n", "10", "--bogus", "1"], "0"),
            (["bogus"], "0"),
            (["run", "--strategy", "ca", "--n", "10"], "abc"),
            (["run", "--strategy", "ca", "--n", "10", "--threads", "2"], "0"),
        ],
        ids=["missing-strategy", "non-integer-n", "unknown-flag",
             "unknown-subcommand", "non-integer-env-seed", "threads-on-run"],
    )
    def test_usage_error(self, args, env_seed, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("KPR_SEED", env_seed)
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(tmp_path / "d")])
        assert exc.value.code == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("kpr: ")
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["run", "--strategy", "ca", "--n", "0"],
            ["run", "--strategy", "ca", "--n", "10", "--alpha", "-1"],
            ["run", "--strategy", "ca", "--n", "10", "--seed", "-1"],
            ["sweep", "--strategy", "ca", "--variable", "n", "--values", "10,x"],
            ["sweep", "--strategy", "ca", "--variable", "n", "--values", "20,10"],
            ["sweep", "--strategy", "ca", "--variable", "alpha", "--values", "0.5,1"],
            ["run", "--strategy", "ca", "--n", "10", "--config", "{bogus_cfg}"],
            ["sweep", "--strategy", "ca", "--variable", "n", "--values", "10,20",
             "--threads", "0"],
            ["sweep", "--strategy", "ca", "--variable", "n", "--values", "10,20",
             "--threads", "-4"],
            ["run", "--strategy", "ca", "--n", "10", "--alpha", "nan"],
            ["run", "--strategy", "ca", "--n", "10", "--alpha", "inf"],
            ["sweep", "--strategy", "ca", "--variable", "alpha", "--values", "0.5,nan",
             "--n", "20"],
            ["sweep", "--strategy", "ca", "--variable", "n", "--values", "10,20",
             "--seed", "-1"],
            ["sweep", "--strategy", "ca", "--variable", "n", "--values", "10,20",
             "--seed", str(2**64)],
            ["sweep", "--strategy", "ca", "--variable", "n", "--values", "10,20",
             "--runs", "0"],
            # rejected while parsing, before fig1's run writes its directory
            ["figures", "--runs", "0"],
            ["sweep", "--strategy", "gca", "--variable", "alpha", "--values", "0.5,1",
             "--n", "20"],
            ["sweep", "--strategy", "random", "--variable", "alpha", "--values", "0.5,1",
             "--n", "20"],
            ["sweep", "--strategy", "ca", "--variable", "n", "--values", ""],
            ["sweep", "--strategy", "ca", "--variable", "n", "--values", "20,20"],
            ["sweep", "--strategy", "ca", "--variable", "n", "--values", "10,10.5"],
            ["sweep", "--strategy", "ca", "--variable", "alpha", "--values", "0.5,inf",
             "--n", "20"],
            ["sweep", "--strategy", "ca", "--variable", "alpha", "--values", "0,1",
             "--n", "20"],
            # the rows before the invalid value would run if configs were
            # built one row at a time
            ["sweep", "--strategy", "ca", "--variable", "n", "--values", "10,20,0"],
        ],
        ids=["n-zero", "negative-alpha", "negative-seed", "non-numeric-value",
             "decreasing-values", "alpha-sweep-without-n", "unknown-config-key",
             "zero-threads", "negative-threads", "nan-alpha", "inf-alpha",
             "nan-sweep-value", "sweep-negative-seed", "sweep-seed-above-64-bits",
             "sweep-zero-runs", "figures-zero-runs", "gca-alpha-sweep",
             "random-alpha-sweep", "empty-values", "repeated-values",
             "fractional-n-value", "inf-alpha-sweep-value", "zero-alpha-sweep-value",
             "invalid-last-n-value"],
    )
    def test_invalid_value_is_a_usage_error(self, args, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "bogus.cfg"
        cfg.write_text("bogus=1\n")
        args = [a.format(bogus_cfg=cfg) for a in args]
        if args[0] == "sweep" and "--threads" not in args:
            args += ["--threads", "1"]

        def no_run(config):
            raise AssertionError(f"n={config.n} ran before every value was checked")

        monkeypatch.setattr(engine, "run", no_run)
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(tmp_path / "d")])
        assert exc.value.code == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("kpr: ")
        assert not (tmp_path / "d").exists()

    def test_unwritable_output(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        rc = main(["run", "--strategy", "random", "--n", "5", "--max-days", "5",
                   "--out", str(blocker / "sub")])
        assert rc == cli.EXIT_ERROR

    def test_strict_flags_nonconvergence(self, tmp_path):
        rc = main(["run", "--strategy", "gca", "--n", "50", "--max-days", "2",
                   "--strict", "--out", str(tmp_path / "d")])
        assert rc == cli.EXIT_STRICT_UNCONVERGED

    def test_nonconvergence_without_strict_is_ok(self, tmp_path):
        rc = main(["run", "--strategy", "gca", "--n", "50", "--max-days", "2",
                   "--out", str(tmp_path / "d")])
        assert rc == 0


@pytest.mark.parametrize("command", [
    ["sweep", "--strategy", "ca", "--variable", "n", "--values", "10"],
    ["figures"],
])
def test_default_threads_are_the_cpus_this_process_may_use(command, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert cli.build_parser().parse_args(command).threads == 3
    # where the platform has no affinity mask, every CPU counts
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    assert cli.build_parser().parse_args(command).threads == 7


SMOKE_SWEEP = ["--values", "20,40,60", "--runs", "2", "--threads", "1"]

# fig1 to fig5 at the smoke sizes, written out as the commands they stand for
FIGURE_CALLS = {
    "fig1": ["run", "--strategy", "ca", "--n", "1600", "--seed", "1"],
    "fig2": ["sweep", "--strategy", "ca", "--variable", "n", "--seed", "2", *SMOKE_SWEEP],
    "fig3": ["run", "--strategy", "gca", "--n", "1600", "--seed", "3"],
    "fig4": ["sweep", "--strategy", "gca", "--variable", "n", "--seed", "4", *SMOKE_SWEEP],
    "fig5": ["worldlines", "--strategy", "gca", "--n", "50", "--seed", "5"],
}


def tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_each_figure_is_the_output_of_its_command(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "FIGURE_SWEEP_NS", (20, 40, 60))
    monkeypatch.setattr(cli, "FIGURE_WORLDLINE_NS", (20, 30))
    out = tmp_path / "figs"
    assert main(["figures", "--runs", "2", "--threads", "1", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [*FIGURE_CALLS, "fig6"]
    for fig, call in FIGURE_CALLS.items():
        alone = tmp_path / "alone" / fig
        assert main(call + ["--out", str(alone)]) == 0
        assert tree(out / fig) == tree(alone), fig
    # the default fig3 run is censored, and its summary says so
    assert {"tau=16000", "converged=false"} <= set(
        (out / "fig3" / "summary.txt").read_text().splitlines())
    header = (out / "fig6" / "dispersion.csv").read_text().splitlines()[0]
    assert header == "n,dispersion_min_rate_mean,runs"


@pytest.mark.parametrize("full", [False, True])
def test_full_switches_the_sweep_ns(full, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "FIGURE_SWEEP_NS", (20, 40, 60))
    monkeypatch.setattr(cli, "FIGURE_FULL_SWEEP_NS", (20, 40, 60, 80))
    monkeypatch.setattr(cli, "FIGURE_WORLDLINE_NS", (20,))
    out = tmp_path / "figs"
    args = ["figures", "--runs", "2", "--threads", "1", "--out", str(out)]
    assert main(args + ["--full"] * full) == 0
    values = "20,40,60,80" if full else "20,40,60"
    for fig in ("fig2", "fig4"):
        assert f"values={values}" in (out / fig / "summary.txt").read_text().splitlines()


@pytest.mark.parametrize("fig3_seed,censored,strict,expected", [
    (4, False, True, cli.EXIT_OK),
    (4, True, False, cli.EXIT_OK),
    (4, True, True, cli.EXIT_STRICT_UNCONVERGED),
    # the default fig3 run (N = 1600, seed 3) still has one agent unserved
    # at its 16000-day cap
    (3, False, True, cli.EXIT_STRICT_UNCONVERGED),
])
def test_figures_strict_counts_every_censored_run(
    fig3_seed, censored, strict, expected, tmp_path, monkeypatch
):
    # fig6's ensembles come after the fig4 sweep, and fig3's typical run
    # before it; a censored run in either fails --strict like one in fig4
    monkeypatch.setattr(cli, "FIGURE_SWEEP_NS", (20, 40, 60))
    monkeypatch.setattr(cli, "FIGURE_WORLDLINE_NS", (20, 30))
    monkeypatch.setitem(cli.FIGURE_SEEDS, "fig3", fig3_seed)
    if censored:
        ensemble = cli.run_ensemble

        def censored_ensemble(*args, **kwargs):
            return dataclasses.replace(ensemble(*args, **kwargs), converged_fraction=0.5)

        monkeypatch.setattr(cli, "run_ensemble", censored_ensemble)
    args = ["figures", "--runs", "2", "--threads", "1", "--out", str(tmp_path / "figs")]
    assert main(args + ["--strict"] * strict) == expected


def readme_synopsis() -> dict[str, set[str]]:
    """The long flags README's "Command line" synopsis lists per subcommand."""
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    flags: dict[str, set[str]] = {}
    for line in block.splitlines():
        if line.startswith("kpr "):
            command = line.split()[1]
        if line.strip():
            flags.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    return flags


def test_readme_synopsis_matches_the_parsers():
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    documented = readme_synopsis()
    assert documented.keys() == subparsers.keys()
    for command, parser in subparsers.items():
        flags = {s for s in parser._option_string_actions if s.startswith("--")}
        assert documented[command] == flags - {"--help"}, command
        keys = parser.get_default("flag_keys")
        assert {"--" + key.replace("_", "-") for key in keys} <= flags, command


def test_readme_figure_table_matches_the_figure_commands():
    rows = re.findall(r"^  \| (fig\d) \| [^|]+ \| (.+?) \| (\d+) \|$",
                      README.read_text(), re.MULTILINE)
    commands = {fig: cmd.strip("`").removeprefix("kpr ")
                for fig, cmd, _ in rows if cmd != "none"}
    assert commands == cli.FIGURE_COMMANDS
    assert {fig: int(seed) for fig, _, seed in rows} == cli.FIGURE_SEEDS
