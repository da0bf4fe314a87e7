"""Command-line front end.

Subcommands::

    kpr run        single simulation -> timeseries.csv + summary.txt
    kpr sweep      ensembles over n or alpha -> sweep.csv + summary.txt
    kpr worldlines per-agent cumulative success trajectories
    kpr figures    canonical experiment presets (fig1..fig6 directories)

All numeric output uses decimal notation with six significant digits, files
end lines with LF, and a fixed (flags, seed) pair reproduces every output
byte for byte.  The default seed comes from --seed, then a config file, then
the KPR_SEED environment variable, then 0.

A config file (--config) holds flat ``key=value`` lines mirroring the long
flag names, with ``-`` or ``_`` (e.g. ``strategy=ca``, ``max-days=2000``,
``strict=true``).  Each line becomes a flag token placed before the flags
typed on the command line, so argparse checks its value and explicit flags
win; the file may hold required flags too.  Every usage error, a malformed flag as much as an invalid value or a
config key, exits 2 with one ``kpr: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Iterable
from pathlib import Path

from . import engine, stats
from .model import SimulationConfig, Strategy
from .orchestrator import run_ensemble, run_sweep

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_STRICT_UNCONVERGED = 3

# documented default seeds for the `figures` presets
FIGURE_SEEDS = {"fig1": 1, "fig2": 2, "fig3": 3, "fig4": 4, "fig5": 5, "fig6": 6}
FIGURE_SWEEP_NS = (100, 200, 400, 800, 1600, 3200, 6400)
FIGURE_FULL_SWEEP_NS = FIGURE_SWEEP_NS + (12800, 25600, 51200)
FIGURE_WORLDLINE_NS = (50, 100, 200, 400, 800, 1600, 3200, 6400)


def fnum(x: float) -> str:
    """Decimal notation, six significant digits, no exponent form.

    Canonical (parse -> re-format is the identity), which keeps emitted CSV
    files byte-stable under round-trips.  When rounding carries into the next
    decade the text holds seven significant digits (9.9999996 -> "10.00000"),
    so one decimal is dropped ("10.0000"), or the point when it was the last
    one (99999.96 -> "100000").

    When 1e-4 <= |x| < 99999.95, the six rounded digits have a decimal
    exponent from -4 to 4, where ``format(x, "#.6g")`` writes them in fixed
    point.  It rounds before it picks the exponent and keeps trailing zeros,
    so it already gives the text above, carries included, in one call.
    """
    x = float(x)
    if 1e-4 <= abs(x) < 99999.95:
        return format(x, "#.6g")
    if not math.isfinite(x):
        return str(x)  # nan, inf or -inf, which float() reads back
    if x == 0.0:
        return "0.000000"
    decimals = max(0, 5 - math.floor(math.log10(abs(x))))
    text = f"{x:.{decimals}f}"
    if abs(x) < sys.float_info.min:
        # a subnormal has too few bits for its six digits to parse back to it:
        # print the float they parse to instead
        x = float(text)
        decimals = max(0, 5 - math.floor(math.log10(abs(x))))
        return f"{x:.{decimals}f}"
    if decimals and len(text.lstrip("-0.").replace(".", "")) > 6:
        return text[:-2] if decimals == 1 else text[:-1]
    return text


def _write_blocks(path: Path, blocks: Iterable[list[str]]) -> None:
    """Write each block of lines as soon as it is made, LF after every line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        for lines in blocks:
            fh.write("\n".join(lines) + "\n")


# days per block of timeseries rows, so that the rows held at once do not
# grow with the run
TIMESERIES_BLOCK_DAYS = 4096


def write_timeseries(path: Path, result) -> None:
    """One row per day (t, f, served count), written TIMESERIES_BLOCK_DAYS
    days at a time, each block's values read from f_series by one tolist."""
    n, f_series = result.config.n, result.f_series

    def blocks():
        yield ["t,f,served_count"]
        for start in range(0, len(f_series), TIMESERIES_BLOCK_DAYS):
            values = f_series[start:start + TIMESERIES_BLOCK_DAYS].tolist()
            yield [f"{t},{fnum(f)},{round(f * n)}" for t, f in enumerate(values, start + 1)]

    _write_blocks(path, blocks())


def write_sweep(path: Path, variable: str, rows) -> None:
    lines = ["value,fs_mean,fs_std,tau_mean,tau_std,runs,converged_fraction"]
    for row in rows:
        value = row.config.n if variable == "n" else fnum(row.config.alpha)
        lines.append(
            f"{value},{fnum(row.fs_mean)},{fnum(row.fs_std)},"
            f"{fnum(row.tau_mean)},{fnum(row.tau_std)},{row.runs},"
            f"{fnum(row.converged_fraction)}"
        )
    _write_blocks(path, [lines])


def write_worldlines(path: Path, lines) -> None:
    """Agent-major rows of world lines, written as each agent's line arrives."""

    def blocks():
        yield ["agent_id,t,cumulative_success_pct"]
        days: list[str] = []  # ",t," for t = 1, 2, ...
        for agent, line in enumerate(lines):
            days += [f",{day}," for day in range(len(days) + 1, len(line) + 1)]
            prefix = str(agent)
            yield [f"{prefix}{day}{fnum(value)}" for day, value in zip(days, line.tolist())]

    _write_blocks(path, blocks())


def write_summary(path: Path, entries: list[tuple[str, object]]) -> None:
    lines = []
    for key, value in entries:
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = fnum(value)
        lines.append(f"{key}={value}")
    _write_blocks(path, [lines])


def _run(args, command: str, record_history: bool = False):
    """Run the simulation the flags describe and write its timeseries.csv.

    Returns the result and the head of its summary: the command and the
    config echo.
    """
    config = SimulationConfig(
        n=args.n,
        strategy=Strategy(args.strategy),
        alpha=args.alpha,
        max_days=args.max_days,
        seed=args.seed,
        record_history=record_history,
    )
    result = engine.run(config)
    write_timeseries(Path(args.out) / "timeseries.csv", result)
    return result, [
        ("command", command),
        ("strategy", config.strategy.value),
        ("n", config.n),
        ("alpha", float(config.alpha)),
        ("max_days", config.effective_max_days),
        ("seed", config.seed),
    ]


def _status(args, converged: bool) -> int:
    return EXIT_STRICT_UNCONVERGED if args.strict and not converged else EXIT_OK


def cmd_run(args) -> int:
    result, echo = _run(args, "run")
    write_summary(
        Path(args.out) / "summary.txt",
        echo
        + [
            ("days", result.days),
            ("tau", result.tau),
            ("f_s", result.f_s),
            ("converged", result.converged),
        ],
    )
    return _status(args, result.converged)


def cmd_sweep(args) -> int:
    """Every config is built and checked before the first run: an n-sweep
    reads --alpha, an alpha sweep reads --n."""
    strategy = Strategy(args.strategy)
    by_n = args.variable == "n"
    values = [int(v) if by_n else float(v) for v in args.values.split(",")]
    if not by_n and args.n is None:
        raise ValueError("sweep over alpha requires --n")
    if not by_n and strategy is not Strategy.CROWD_AVOIDING:
        raise ValueError(f"{strategy.value} ignores alpha; only ca runs can sweep it")
    fixed = dict(n=args.n, strategy=strategy, alpha=args.alpha, max_days=args.max_days)
    configs = [SimulationConfig(**{**fixed, args.variable: v}) for v in values]
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("sweep values must be strictly increasing")
    rows = run_sweep(configs, args.runs, args.seed, max_workers=args.threads)
    out = Path(args.out)
    write_sweep(out / "sweep.csv", args.variable, rows)
    entries: list[tuple[str, object]] = [
        ("command", "sweep"),
        ("strategy", strategy.value),
        ("variable", args.variable),
        ("values", args.values),
        ("runs_per_value", args.runs),
        ("base_seed", args.seed),
        ("converged_fraction_min", min(r.converged_fraction for r in rows)),
    ]
    if by_n and len(rows) >= 3:
        intercept, slope = stats.estimate_fs_extrapolation(rows)
        entries.append(("fs_extrapolated_intercept", intercept))
        entries.append(("fs_vs_inverse_n_slope", slope))
    write_summary(out / "summary.txt", entries)
    return _status(args, all(r.converged_fraction == 1.0 for r in rows))


def cmd_worldlines(args) -> int:
    result, echo = _run(args, "worldlines", record_history=True)
    lo, hi, spread = stats.dispersion_summary(result)
    out = Path(args.out)
    write_worldlines(out / "worldlines.csv", stats.world_lines(result))
    write_summary(
        out / "summary.txt",
        echo
        + [
            ("days", result.days),
            ("tau", result.tau),
            ("converged", result.converged),
            ("min_final", lo),
            ("max_final", hi),
            ("spread", spread),
        ],
    )
    return _status(args, result.converged)


def cmd_figures(args) -> int:
    out = Path(args.out)
    workers = args.threads
    sweep_ns = FIGURE_FULL_SWEEP_NS if args.full else FIGURE_SWEEP_NS
    converged = True  # every run made here, for --strict

    # fig1/fig2 (crowd-avoiding) and fig3/fig4 (greedy): a typical run at
    # n = 1600 and the n-sweep behind the saturation-value, convergence-time
    # and linear tau(N) plots
    for strategy, run_fig, sweep_fig in (
        (Strategy.CROWD_AVOIDING, "fig1", "fig2"),
        (Strategy.GREEDY_CROWD_AVOIDING, "fig3", "fig4"),
    ):
        config = SimulationConfig(n=1600, strategy=strategy, seed=FIGURE_SEEDS[run_fig])
        typical = engine.run(config)
        write_timeseries(out / run_fig / "timeseries.csv", typical)
        rows = run_sweep(
            [SimulationConfig(n=n, strategy=strategy) for n in sweep_ns],
            args.runs,
            FIGURE_SEEDS[sweep_fig],
            max_workers=workers,
        )
        write_sweep(out / sweep_fig / "sweep.csv", "n", rows)
        converged &= typical.converged and all(r.converged_fraction == 1.0 for r in rows)
        if strategy is Strategy.CROWD_AVOIDING:
            intercept, slope = stats.estimate_fs_extrapolation(rows)
            write_sweep(out / run_fig / "sweep.csv", "n", rows)
            write_summary(
                out / run_fig / "summary.txt",
                [
                    ("command", "figures"),
                    ("figure", run_fig),
                    ("run_seed", FIGURE_SEEDS[run_fig]),
                    ("sweep_seed", FIGURE_SEEDS[sweep_fig]),
                    ("fs_extrapolated_intercept", intercept),
                    ("fs_vs_inverse_n_slope", slope),
                ],
            )

    # fig5: world lines of one greedy run at n=50
    wl_config = SimulationConfig(
        n=50,
        strategy=Strategy.GREEDY_CROWD_AVOIDING,
        seed=FIGURE_SEEDS["fig5"],
        record_history=True,
    )
    result = engine.run(wl_config)
    converged &= result.converged
    lo, hi, spread = stats.dispersion_summary(result)
    write_worldlines(out / "fig5" / "worldlines.csv", stats.world_lines(result))
    write_summary(
        out / "fig5" / "summary.txt",
        [
            ("command", "figures"),
            ("figure", "fig5"),
            ("seed", FIGURE_SEEDS["fig5"]),
            ("tau", result.tau),
            ("min_final", lo),
            ("max_final", hi),
        ],
    )

    # fig6: dispersion of final success rates versus system size
    lines = ["n,dispersion_min_rate_mean,runs"]
    for n in FIGURE_WORLDLINE_NS:
        summary = run_ensemble(
            SimulationConfig(n=n, strategy=Strategy.GREEDY_CROWD_AVOIDING),
            runs=args.runs,
            base_seed=FIGURE_SEEDS["fig6"],
            max_workers=workers,
        )
        converged &= summary.converged_fraction == 1.0
        lines.append(f"{n},{fnum(summary.dispersion_min_rate_mean)},{summary.runs}")
    _write_blocks(out / "fig6" / "dispersion.csv", [lines])
    return _status(args, converged)


class _Parser(argparse.ArgumentParser):
    """Raises ValueError on a malformed command line, so that main reports it
    as one ``kpr:`` line, like an invalid value, instead of usage + error."""

    def error(self, message):
        raise ValueError(message)


def _count(text: str) -> int:
    """An int of at least 1, checked at parse time (--runs, --threads)."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _flag_keys(p: argparse.ArgumentParser) -> frozenset[str]:
    """The attributes of a subcommand's flags: the keys a config file may set."""
    return frozenset(a.dest for a in p._actions if a.option_strings) - {"help", "config"}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kpr", description="Kolkata Paise Restaurant game simulations")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # subcommand name -> its parser
    p_run = sub.add_parser("run", help="single simulation run")
    p_sweep = sub.add_parser("sweep", help="ensemble sweep over n or alpha")
    p_wl = sub.add_parser("worldlines", help="per-agent success trajectories")
    p_fig = sub.add_parser("figures", help="canonical experiment presets")
    for p in (p_run, p_sweep, p_wl):
        p.add_argument("--strategy", choices=[s.value for s in Strategy], required=True)
        p.add_argument("--n", type=int, required=p is not p_sweep)
        p.add_argument("--alpha", type=float, default=1.0)
        p.add_argument("--seed", type=int, default=os.environ.get("KPR_SEED", "0"))
        p.add_argument("--max-days", type=int)
    p_sweep.add_argument("--variable", choices=["n", "alpha"], required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated list")
    p_fig.add_argument("--full", action="store_true")
    for p in (p_sweep, p_fig):
        p.add_argument("--runs", type=_count, default=30)
        p.add_argument("--threads", type=_count, default=_usable_cpus())
    for p, func in ((p_run, cmd_run), (p_sweep, cmd_sweep), (p_wl, cmd_worldlines),
                    (p_fig, cmd_figures)):
        p.add_argument("--out", default=".")
        p.add_argument("--strict", action="store_true")
        p.add_argument("--config", help="key=value defaults file")
        p.set_defaults(func=func, flag_keys=_flag_keys(p))
    return parser


def _config_tokens(path: str, flag_keys: frozenset[str]) -> list[str]:
    """The flag tokens that the key=value lines of a config file stand for."""
    tokens = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        if key.replace("-", "_") not in flag_keys:
            raise ValueError(f"unknown config key: {key}")
        flag = "--" + key.replace("_", "-")
        if key not in ("strict", "full"):
            tokens.append(f"{flag}={value}")
        elif value.lower() == "true":
            tokens.append(flag)
        elif value.lower() != "false":
            raise ValueError(f"config key {key}: expected true or false, got {value!r}")
    return tokens


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand.  I/O errors return EXIT_ERROR; a malformed flag or
    an invalid value prints one ``kpr:`` line and raises
    SystemExit(EXIT_USAGE)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        # --config is found before the full parse, which checks required
        # flags, so that the file may supply them
        head = _Parser(add_help=False)
        head.add_argument("--config")
        path = head.parse_known_args(argv)[0].config
        if path and argv[0] in parser.commands:
            # explicit flags follow the config's tokens, so they win
            keys = parser.commands[argv[0]].get_default("flag_keys")
            argv[1:1] = _config_tokens(path, keys)
        args = parser.parse_args(argv)
        return args.func(args)
    except OSError as exc:
        print(f"kpr: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ValueError as exc:
        print(f"kpr: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None


if __name__ == "__main__":
    sys.exit(main())
