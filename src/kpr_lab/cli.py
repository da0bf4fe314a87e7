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
flag names (e.g. ``strategy=ca``, ``max-days=2000``, ``strict=true``);
explicit flags win.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

from . import engine, stats
from .model import SimulationConfig, Strategy
from .orchestrator import SweepPlan, SweepVariable, run_ensemble, run_sweep

STRATEGY_NAMES = {
    "random": Strategy.RANDOM,
    "ca": Strategy.CROWD_AVOIDING,
    "gca": Strategy.GREEDY_CROWD_AVOIDING,
}

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
    files byte-stable under round-trips.
    """
    x = float(x)
    if not math.isfinite(x):
        return str(x)  # nan, inf or -inf, which float() reads back
    for _ in range(2):  # second pass re-anchors when rounding crosses a decade
        if x == 0.0:
            return "0.000000"
        decimals = max(0, 5 - math.floor(math.log10(abs(x))))
        text = f"{x:.{decimals}f}"
        if float(text) == x:
            return text
        x = float(text)
    return text


def _write_lines(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_timeseries(path: Path, result) -> None:
    n = result.config.n
    lines = ["t,f,served_count"]
    for t, f in enumerate(result.f_series, start=1):
        lines.append(f"{t},{fnum(f)},{int(round(f * n))}")
    _write_lines(path, lines)


def write_sweep(path: Path, table) -> None:
    lines = ["value,fs_mean,fs_std,tau_mean,tau_std,runs,converged_fraction"]
    for row in table.rows:
        value = int(row.value) if table.variable == "n" else fnum(row.value)
        lines.append(
            f"{value},{fnum(row.fs_mean)},{fnum(row.fs_std)},"
            f"{fnum(row.tau_mean)},{fnum(row.tau_std)},{row.runs},"
            f"{fnum(row.converged_fraction)}"
        )
    _write_lines(path, lines)


def write_worldlines(path: Path, pct) -> None:
    """Agent-major rows of a (days, n) world-line matrix."""
    out = ["agent_id,t,cumulative_success_pct"]
    for agent in range(pct.shape[1]):
        for day, value in enumerate(pct[:, agent].tolist(), start=1):
            out.append(f"{agent},{day},{fnum(value)}")
    _write_lines(path, out)


def write_summary(path: Path, entries: list[tuple[str, object]]) -> None:
    lines = []
    for key, value in entries:
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = fnum(value)
        lines.append(f"{key}={value}")
    _write_lines(path, lines)


def _config_from_args(args, strategy: Strategy) -> SimulationConfig:
    return SimulationConfig(
        n=args.n,
        strategy=strategy,
        alpha=args.alpha,
        max_days=args.max_days,
        seed=args.seed,
    )


def _config_echo(config: SimulationConfig) -> list[tuple[str, object]]:
    return [
        ("strategy", config.strategy.value),
        ("n", config.n),
        ("alpha", float(config.alpha)),
        ("max_days", config.effective_max_days),
        ("seed", config.seed),
    ]


def cmd_run(args) -> int:
    strategy = STRATEGY_NAMES[args.strategy]
    config = _config_from_args(args, strategy)
    result = engine.run(config)
    out = Path(args.out)
    write_timeseries(out / "timeseries.csv", result)
    write_summary(
        out / "summary.txt",
        [("command", "run")]
        + _config_echo(config)
        + [
            ("days", result.days),
            ("tau", result.tau),
            ("f_s", result.f_s),
            ("converged", result.converged),
        ],
    )
    if args.strict and not result.converged:
        return EXIT_STRICT_UNCONVERGED
    return EXIT_OK


def cmd_sweep(args) -> int:
    strategy = STRATEGY_NAMES[args.strategy]
    variable = SweepVariable(args.variable)
    if variable is SweepVariable.N:
        values = tuple(int(v) for v in args.values.split(","))
        base_n = values[0]
    else:
        values = tuple(float(v) for v in args.values.split(","))
        base_n = args.n
        if base_n is None:
            raise ValueError("sweep over alpha requires --n")
    config = SimulationConfig(
        n=base_n, strategy=strategy, alpha=args.alpha, max_days=args.max_days
    )
    plan = SweepPlan(
        base_config=config,
        variable=variable,
        values=values,
        runs_per_value=args.runs,
        base_seed=args.seed,
    )
    table = run_sweep(plan, max_workers=args.threads)
    out = Path(args.out)
    write_sweep(out / "sweep.csv", table)
    entries: list[tuple[str, object]] = [
        ("command", "sweep"),
        ("strategy", strategy.value),
        ("variable", variable.value),
        ("values", args.values),
        ("runs_per_value", args.runs),
        ("base_seed", args.seed),
        ("converged_fraction_min", min(r.converged_fraction for r in table.rows)),
    ]
    if variable is SweepVariable.N and len(table.rows) >= 3:
        intercept, slope = stats.estimate_fs_extrapolation(table)
        entries.append(("fs_extrapolated_intercept", intercept))
        entries.append(("fs_vs_inverse_n_slope", slope))
    write_summary(out / "summary.txt", entries)
    if args.strict and any(r.converged_fraction < 1.0 for r in table.rows):
        return EXIT_STRICT_UNCONVERGED
    return EXIT_OK


def cmd_worldlines(args) -> int:
    strategy = STRATEGY_NAMES[args.strategy]
    config = dataclasses.replace(
        _config_from_args(args, strategy), record_history=True
    )
    result = engine.run(config)
    pct = stats.world_lines(result)
    lo, hi, spread = stats.dispersion_summary(pct)
    out = Path(args.out)
    write_timeseries(out / "timeseries.csv", result)
    write_worldlines(out / "worldlines.csv", pct)
    write_summary(
        out / "summary.txt",
        [("command", "worldlines")]
        + _config_echo(config)
        + [
            ("days", result.days),
            ("tau", result.tau),
            ("converged", result.converged),
            ("min_final", lo),
            ("max_final", hi),
            ("spread", spread),
        ],
    )
    if args.strict and not result.converged:
        return EXIT_STRICT_UNCONVERGED
    return EXIT_OK


def cmd_figures(args) -> int:
    out = Path(args.out)
    workers = args.threads
    sweep_ns = FIGURE_FULL_SWEEP_NS if args.full else FIGURE_SWEEP_NS
    status = EXIT_OK

    # fig1/fig2: a typical crowd-avoiding run plus the n-sweep behind the
    # saturation-value and convergence-time plots
    ca = SimulationConfig(n=1600, strategy=Strategy.CROWD_AVOIDING, seed=FIGURE_SEEDS["fig1"])
    write_timeseries(out / "fig1" / "timeseries.csv", engine.run(ca))
    plan = SweepPlan(
        base_config=SimulationConfig(n=100, strategy=Strategy.CROWD_AVOIDING),
        variable=SweepVariable.N,
        values=tuple(float(v) for v in sweep_ns),
        runs_per_value=args.runs,
        base_seed=FIGURE_SEEDS["fig2"],
    )
    table = run_sweep(plan, max_workers=workers)
    intercept, slope = stats.estimate_fs_extrapolation(table)
    for fig in ("fig1", "fig2"):
        write_sweep(out / fig / "sweep.csv", table)
    write_summary(
        out / "fig1" / "summary.txt",
        [
            ("command", "figures"),
            ("figure", "fig1"),
            ("run_seed", FIGURE_SEEDS["fig1"]),
            ("sweep_seed", FIGURE_SEEDS["fig2"]),
            ("fs_extrapolated_intercept", intercept),
            ("fs_vs_inverse_n_slope", slope),
        ],
    )

    # fig3/fig4: a typical greedy run and the linear tau(N) sweep
    gca = SimulationConfig(
        n=1600, strategy=Strategy.GREEDY_CROWD_AVOIDING, seed=FIGURE_SEEDS["fig3"]
    )
    write_timeseries(out / "fig3" / "timeseries.csv", engine.run(gca))
    plan = SweepPlan(
        base_config=SimulationConfig(n=100, strategy=Strategy.GREEDY_CROWD_AVOIDING),
        variable=SweepVariable.N,
        values=tuple(float(v) for v in sweep_ns),
        runs_per_value=args.runs,
        base_seed=FIGURE_SEEDS["fig4"],
    )
    table = run_sweep(plan, max_workers=workers)
    write_sweep(out / "fig4" / "sweep.csv", table)
    if any(row.converged_fraction < 1.0 for row in table.rows):
        status = EXIT_STRICT_UNCONVERGED if args.strict else status

    # fig5: world lines of one greedy run at n=50
    wl_config = SimulationConfig(
        n=50,
        strategy=Strategy.GREEDY_CROWD_AVOIDING,
        seed=FIGURE_SEEDS["fig5"],
        record_history=True,
    )
    result = engine.run(wl_config)
    pct = stats.world_lines(result)
    lo, hi, spread = stats.dispersion_summary(pct)
    write_worldlines(out / "fig5" / "worldlines.csv", pct)
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
    rows = ["n,dispersion_min_rate_mean,runs"]
    for n in FIGURE_WORLDLINE_NS:
        summary = run_ensemble(
            SimulationConfig(n=n, strategy=Strategy.GREEDY_CROWD_AVOIDING),
            runs=args.runs,
            base_seed=FIGURE_SEEDS["fig6"],
            max_workers=workers,
        )
        rows.append(f"{n},{fnum(summary.dispersion_min_rate_mean)},{summary.runs}")
    _write_lines(out / "fig6" / "dispersion.csv", rows)
    return status


def _apply_config_file(args: argparse.Namespace) -> None:
    """Fill unset flags from a flat key=value config file."""
    if not getattr(args, "config", None):
        return
    path = Path(args.config)
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        attr = key.strip().replace("-", "_")
        if attr not in args.flag_keys:
            raise ValueError(f"unknown config key: {key.strip()}")
        if getattr(args, attr) is None:
            current_type = {
                "n": int, "seed": int, "max_days": int, "runs": int,
                "threads": int, "alpha": float, "strict": _boolean,
                "full": _boolean,
            }.get(attr, str)
            try:
                setattr(args, attr, current_type(value.strip()))
            except ValueError as exc:
                raise ValueError(f"config key {key.strip()}: {exc}") from None


def _boolean(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text.lower() == "true"


def _resolve_defaults(args: argparse.Namespace) -> None:
    if getattr(args, "seed", None) is None:
        args.seed = int(os.environ.get("KPR_SEED", "0"))
    if getattr(args, "alpha", None) is None:
        args.alpha = 1.0
    if getattr(args, "runs", None) is None:
        args.runs = 30
    if getattr(args, "threads", None) is None:
        args.threads = os.cpu_count() or 1
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    if getattr(args, "strict", None) is None:
        args.strict = False
    if getattr(args, "full", None) is None:
        args.full = False


def _flag_keys(p: argparse.ArgumentParser) -> frozenset[str]:
    """The attributes of a subcommand's flags: the keys a config file may set."""
    return frozenset(a.dest for a in p._actions if a.option_strings) - {"help", "config"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kpr", description="Kolkata Paise Restaurant game simulations"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_n: bool) -> None:
        p.add_argument("--strategy", choices=sorted(STRATEGY_NAMES), required=True)
        p.add_argument("--n", type=int, required=needs_n)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--max-days", type=int, default=None, dest="max_days")
        p.add_argument("--out", default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--strict", action="store_const", const=True, default=None)
        p.add_argument("--config", default=None, help="key=value defaults file")

    p_run = sub.add_parser("run", help="single simulation run")
    common(p_run, needs_n=True)
    p_run.set_defaults(func=cmd_run, flag_keys=_flag_keys(p_run))

    p_sweep = sub.add_parser("sweep", help="ensemble sweep over n or alpha")
    common(p_sweep, needs_n=False)
    p_sweep.add_argument("--variable", choices=["n", "alpha"], required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated list")
    p_sweep.add_argument("--runs", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep, flag_keys=_flag_keys(p_sweep))

    p_wl = sub.add_parser("worldlines", help="per-agent success trajectories")
    common(p_wl, needs_n=True)
    p_wl.set_defaults(func=cmd_worldlines, flag_keys=_flag_keys(p_wl))

    p_fig = sub.add_parser("figures", help="canonical experiment presets")
    p_fig.add_argument("--out", default=None)
    p_fig.add_argument("--runs", type=int, default=None)
    p_fig.add_argument("--threads", type=int, default=None)
    p_fig.add_argument("--full", action="store_const", const=True, default=None)
    p_fig.add_argument("--strict", action="store_const", const=True, default=None)
    p_fig.add_argument("--config", default=None)
    p_fig.set_defaults(func=cmd_figures, flag_keys=_flag_keys(p_fig))
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand.  I/O errors return EXIT_ERROR; invalid values
    raise SystemExit(EXIT_USAGE), as argparse does for malformed flags."""
    args = build_parser().parse_args(argv)
    try:
        _apply_config_file(args)
        _resolve_defaults(args)
        if getattr(args, "out", None) is None:
            args.out = "."
        return args.func(args)
    except OSError as exc:
        print(f"kpr: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ValueError as exc:
        print(f"kpr: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None


if __name__ == "__main__":
    sys.exit(main())
