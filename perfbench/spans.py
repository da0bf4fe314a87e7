"""Outside-in tracing of kpr_lab: wrappers around its public functions.

Nothing here edits the package.  ``wrappers`` builds timing wrappers for the
module attributes at the places where the package looks them up (for example
``engine.sample_choices_vectorized``, the name ``engine.step_day`` binds),
and ``swap`` puts them in place (and back), so that while they are in place
every call the program makes goes through a wrapper.

A span is (name, pid, id, parent, start, end, overhead, a, b, c):

* ``start``/``end`` come from ``time.perf_counter``, which on Linux reads
  CLOCK_MONOTONIC and so agrees across processes;
* ``overhead`` is the time the wrappers of this span's descendants spent on
  their own bookkeeping inside it, which is subtracted before any duration
  is reported;
* ``a``, ``b``, ``c`` are counts read at the boundary (movers and n for a
  choice call, contested restaurants and n for a day step, days, n and a
  history flag for a run, runs and workers for an ensemble).

Spans stay in memory.  A pool worker, which inherits the wrappers through
fork, appends its spans to a file of its own in the trace directory each
time one of its top-level calls ends, because it exits without a hook the
benchmark could use; the benchmark process reads those files when the
traced phase ends.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path
from time import perf_counter

import numpy as np

SPAN_DTYPE = np.dtype(
    [
        ("name", "i2"),
        ("pid", "i4"),
        ("id", "i4"),
        ("parent", "i4"),
        ("start", "f8"),
        ("end", "f8"),
        ("overhead", "f8"),
        ("a", "i8"),
        ("b", "i8"),
        ("c", "i8"),
    ]
)

CHOICE = "strategy.sample_choices_vectorized"
INIT = "engine.init_day_one"
STEP = "engine.step_day"
DETECT = "engine.detect_convergence"
RUN = "engine.run"
ENSEMBLE = "orchestrator.run_ensemble"
SWEEP = "orchestrator.run_sweep"
WORLD_LINES = "stats.world_lines"
DISPERSION = "stats.dispersion_summary"
EXTRAPOLATION = "stats.estimate_fs_extrapolation"
MAIN = "cli.main"
WRITERS = (
    "cli.write_timeseries",
    "cli.write_sweep",
    "cli.write_worldlines",
    "cli.write_summary",
)
NAMES = (
    CHOICE, INIT, STEP, DETECT, RUN, ENSEMBLE, SWEEP,
    WORLD_LINES, DISPERSION, EXTRAPOLATION, MAIN,
) + WRITERS


class Tracer:
    """Span store of one process; a forked worker starts an empty one."""

    def __init__(self, trace_dir: Path) -> None:
        self.trace_dir = trace_dir
        self.owner = os.getpid()
        self.pid = self.owner
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [span id, overhead accumulated inside]
        self.next_id = 0
        self.fnum_calls = 0

    def _adopt_process(self) -> None:
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []
            self.stack = []
            self.next_id = 0

    def wrap(self, name: str, fn, counts=None):
        """Time ``fn`` as span ``name``; ``counts(result, args, kwargs)`` gives
        the span's (a, b, c)."""
        name_id = NAMES.index(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._adopt_process()
            span_id = self.next_id
            self.next_id += 1
            parent = self.stack[-1][0] if self.stack else -1
            frame = [span_id, 0.0]
            self.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
            a, b, c = counts(result, args, kwargs) if counts else (0, 0, 0)
            self.spans.append(
                (name_id, self.pid, span_id, parent, start, end, frame[1], a, b, c)
            )
            if self.stack:
                self.stack[-1][1] += frame[1] + (perf_counter() - end)
            elif self.pid != self.owner:
                self.flush_worker()
            return result

        return wrapper

    def count_fnum(self, fn):
        @functools.wraps(fn)
        def wrapper(x):
            self.fnum_calls += 1
            return fn(x)

        return wrapper

    def flush_worker(self) -> None:
        path = self.trace_dir / f"worker-{self.pid}.spans"
        with open(path, "ab") as fh:
            np.array(self.spans, dtype=SPAN_DTYPE).tofile(fh)
        self.spans = []

    def collect(self) -> np.ndarray:
        """This process's spans plus every span a pool worker wrote out."""
        parts = [np.array(self.spans, dtype=SPAN_DTYPE)]
        for path in sorted(self.trace_dir.glob("worker-*.spans")):
            parts.append(np.fromfile(path, dtype=SPAN_DTYPE))
        return np.concatenate(parts)


def wrappers(tracer: Tracer) -> list[tuple]:
    """(module, attribute, wrapper) for the public functions of strategy,
    engine, stats, orchestrator and cli, at the names the program calls."""
    from kpr_lab import cli, engine, orchestrator, stats
    from kpr_lab.model import Strategy

    def choice_counts(choices, args, _kwargs):
        last_restaurant, n = args[2], args[5]
        return int(np.count_nonzero(choices != last_restaurant)), n, 0

    def step_counts(_record, args, _kwargs):
        state, config = args[0], args[1]
        return int(np.count_nonzero(state.crowds >= 2)), config.n, 0

    def run_counts(result, args, _kwargs):
        config = args[0]
        # the engine at this commit keeps a (days x n) bool flag matrix for
        # every non-greedy run and for runs that record history
        keeps_flags = config.record_history or (
            config.strategy is not Strategy.GREEDY_CROWD_AVOIDING
        )
        return result.days, config.n, int(keeps_flags)

    def ensemble_counts(_summary, args, kwargs):
        runs = args[1]
        workers = kwargs.get("max_workers", args[3] if len(args) > 3 else 1)
        # run_ensemble runs serially unless both exceed 1
        return runs, workers if runs > 1 and workers > 1 else 1, 0

    ensemble = tracer.wrap(ENSEMBLE, orchestrator.run_ensemble, ensemble_counts)
    sweep = tracer.wrap(SWEEP, orchestrator.run_sweep)
    patches = [
        (engine, "sample_choices_vectorized",
         tracer.wrap(CHOICE, engine.sample_choices_vectorized, choice_counts)),
        (engine, "init_day_one", tracer.wrap(INIT, engine.init_day_one)),
        (engine, "step_day", tracer.wrap(STEP, engine.step_day, step_counts)),
        (engine, "detect_convergence", tracer.wrap(DETECT, engine.detect_convergence)),
        (engine, "run", tracer.wrap(RUN, engine.run, run_counts)),
        (orchestrator, "run_ensemble", ensemble),
        (cli, "run_ensemble", ensemble),
        (orchestrator, "run_sweep", sweep),
        (cli, "run_sweep", sweep),
        (stats, "world_lines", tracer.wrap(WORLD_LINES, stats.world_lines)),
        (stats, "dispersion_summary", tracer.wrap(DISPERSION, stats.dispersion_summary)),
        (stats, "estimate_fs_extrapolation",
         tracer.wrap(EXTRAPOLATION, stats.estimate_fs_extrapolation)),
        (cli, "fnum", tracer.count_fnum(cli.fnum)),
        (cli, "main", tracer.wrap(MAIN, cli.main)),
    ]
    for name in WRITERS:
        attr = name.split(".", 1)[1]
        patches.append((cli, attr, tracer.wrap(name, getattr(cli, attr))))
    return patches


def swap(patches: list[tuple]) -> list[tuple]:
    """Set each (module, attribute, value); return the patches that undo it."""
    undo = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    for module, attr, value in patches:
        setattr(module, attr, value)
    return undo


def _self_times(spans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(duration, self time) per span, both net of tracing overhead."""
    duration = spans["end"] - spans["start"] - spans["overhead"]
    keys = spans["pid"].astype(np.int64) << 32 | spans["id"].astype(np.int64)
    order = np.argsort(keys)
    has_parent = spans["parent"] >= 0
    parent_keys = (
        spans["pid"][has_parent].astype(np.int64) << 32
        | spans["parent"][has_parent].astype(np.int64)
    )
    parent_index = order[np.searchsorted(keys[order], parent_keys)]
    children = np.zeros(len(spans))
    np.add.at(children, parent_index, duration[has_parent])
    return duration, duration - children


def layer_metrics(
    spans: np.ndarray,
    op_windows: list[tuple[float, float]],
    op_rows: list[int],
    op_fnum_calls: list[int],
) -> dict[str, float]:
    """Per-layer numbers of a traced phase.

    Rates are summed over every traced operation; counts (days, runs, rows,
    fnum calls) are those of the first traced operation, which is the same
    input on every run with the same seed.  A layer the workload never
    calls reports 0.
    """
    duration, self_time = _self_times(spans)
    ops = len(op_windows)
    first_lo, first_hi = op_windows[0]
    in_first = (spans["start"] >= first_lo) & (spans["end"] <= first_hi)

    def pick(name: str) -> np.ndarray:
        return spans["name"] == NAMES.index(name)

    def ratio(num: float, den: float) -> float:
        return float(num / den) if den else 0.0

    choice, step, run, detect = pick(CHOICE), pick(STEP), pick(RUN), pick(DETECT)
    ensemble = pick(ENSEMBLE)
    writes = np.isin(spans["name"], [NAMES.index(w) for w in WRITERS])

    run_in_ensemble = np.zeros(len(spans), dtype=bool)
    for lo, hi in zip(spans["start"][ensemble], spans["end"][ensemble]):
        run_in_ensemble |= run & (spans["start"] >= lo) & (spans["end"] <= hi)
    pool_capacity = float(np.sum(spans["b"][ensemble] * duration[ensemble]))

    history_bytes = spans["a"][run] * spans["b"][run] * spans["c"][run]
    write_s = float(duration[writes].sum())
    return {
        "strategy.choice_us_per_day": 1e6 * ratio(duration[choice].sum(), choice.sum()),
        "strategy.mover_fraction": ratio(spans["a"][choice].sum(), spans["b"][choice].sum()),
        "engine.contested_fraction": ratio(spans["a"][step].sum(), spans["b"][step].sum()),
        "engine.step_us_per_day": 1e6 * ratio(duration[step].sum(), step.sum()),
        "engine.step_self_us_per_day": 1e6 * ratio(self_time[step].sum(), step.sum()),
        "engine.run_self_us_per_day": 1e6 * ratio(self_time[run].sum(), spans["a"][run].sum()),
        "engine.detect_ms_per_run": 1e3 * ratio(duration[detect].sum(), run.sum()),
        "engine.days": int(spans["a"][run & in_first].sum()),
        "engine.history_mb": float(history_bytes.max()) / 1e6 if run.any() else 0.0,
        "orchestrator.ensemble_s": ratio(duration[ensemble].sum(), ensemble.sum()),
        "orchestrator.runs": int(spans["a"][ensemble & in_first].sum()),
        "orchestrator.pool_efficiency": ratio(
            duration[run_in_ensemble].sum(), pool_capacity
        ),
        "stats.world_lines_s": ratio(duration[pick(WORLD_LINES)].sum(), ops),
        "cli.write_s": write_s / ops,
        "cli.rows_written": op_rows[0],
        "cli.fnum_calls": op_fnum_calls[0],
        "cli.us_per_row": 1e6 * ratio(write_s, sum(op_rows)),
    }
