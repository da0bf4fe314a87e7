"""Import gates: no unused import in the package, the tests and the
scripts, and no import cycle inside the package.

A name bound by an import must be read somewhere in its module.  Package
``__init__.py`` files are skipped (their imports are re-exports), and so are
``__future__`` imports.  The relative imports among the package's modules,
those under ``if TYPE_CHECKING:`` included, must form no cycle.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src/kpr_lab").glob("*.py"))
SOURCES = sorted(
    path
    for folder in ("src/kpr_lab", "tests", "scripts")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_gate_sees_an_unused_import():
    source = "import os\nimport sys\nfrom a import b as c, d\nprint(sys.argv, d)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: c"]


def relative_imports(source: str) -> set[str]:
    """The sibling modules a module imports relatively, wherever the import
    sits (an ``if TYPE_CHECKING:`` block too)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def import_cycle(sources: dict[str, str]) -> list[str]:
    """One cycle of relative imports among the named module sources, as
    ``[a, b, ..., a]``, or [] when there is none."""
    graph = {name: sorted(relative_imports(source) & sources.keys())
             for name, source in sources.items()}
    path, done = [], set()

    def visit(name):
        if name in path:
            return path[path.index(name):] + [name]
        if name in done:
            return []
        path.append(name)
        for target in graph[name]:
            cycle = visit(target)
            if cycle:
                return cycle
        path.pop()
        done.add(name)
        return []

    for name in sorted(graph):
        cycle = visit(name)
        if cycle:
            return cycle
    return []


def test_package_imports_form_no_cycle():
    assert import_cycle({path.stem: path.read_text() for path in PACKAGE}) == []


def test_gate_sees_a_planted_cycle():
    sources = {
        "a": "from .b import f\n",
        "b": "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from .c import g\n",
        "c": "import numpy\nfrom . import a, numpy\n",
        "d": "from .a import f\n",
    }
    assert import_cycle(sources) == ["a", "b", "c", "a"]
    sources["c"] = "from .d import h\n"
    assert import_cycle(sources) == ["a", "b", "c", "d", "a"]
    sources["d"] = "from .model import f\n"
    assert import_cycle(sources) == []
