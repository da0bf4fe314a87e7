"""The day step calls ndarray methods and ufuncs, not numpy's Python-level
wrappers around them.

The functions that run once per simulated day, and ``run``, whose loop
body does, may not reference ``np.flatnonzero``, ``np.nonzero``,
``np.cumsum``, ``np.argsort``, ``np.diff`` or ``np.append``.  Each is a
Python function that ends in an ndarray method or a concatenation, and at
the small N of a sweep the wrapper costs more than the work.
``x.nonzero()[0]``, ``a.cumsum()`` and ``a.argsort(kind="stable")``
compute the same values.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kpr_lab"
DAY_STEP = {
    "engine.py": ("sample_choices_vectorized", "uniforms_at", "_service_lottery",
                  "_stable_order", "_play_day", "_greedy_day", "_run_starts",
                  "step_day", "run"),
}
WRAPPERS = frozenset({"flatnonzero", "nonzero", "cumsum", "argsort", "diff", "append"})


def wrapper_references(source: str, names) -> dict[str, list[str]]:
    """Each named function's references to a numpy wrapper, as
    ``np.<wrapper> (line <n>)``.  A name the source does not define raises
    KeyError, so a renamed function cannot slip out of the scan."""
    functions = {node.name: node for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.FunctionDef)}
    return {
        name: [f"np.{node.attr} (line {node.lineno})"
               for node in ast.walk(functions[name])
               if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name)
               and node.value.id in ("np", "numpy")
               and node.attr in WRAPPERS]
        for name in names
    }


@pytest.mark.parametrize("module", sorted(DAY_STEP))
def test_day_step_calls_no_numpy_wrappers(module):
    found = wrapper_references((SRC / module).read_text(), DAY_STEP[module])
    assert found == {name: [] for name in DAY_STEP[module]}


def test_scan_sees_a_planted_wrapper():
    source = (
        "import numpy as np\n"
        "def step_day(x):\n"
        "    idx = x.nonzero()[0]\n"
        "    return np.flatnonzero(x), np.cumsum(idx)\n"
        "def other(x):\n"
        "    return np.diff(x)\n"
    )
    assert wrapper_references(source, ["step_day"]) == {
        "step_day": ["np.flatnonzero (line 4)", "np.cumsum (line 4)"]
    }
    with pytest.raises(KeyError):
        wrapper_references(source, ["_greedy_day"])
