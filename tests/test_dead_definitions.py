"""Dead-definition gate over the package, the scripts and the test oracles.

Every top-level function, class and module constant of ``src/kpr_lab`` must
be read somewhere in the package, the scripts or the benchmark harness,
every one of ``scripts/`` somewhere in the scripts, and every one of
``tests/reference.py`` somewhere in the tests.  A package name that only
tests read is library code for tests: it belongs in ``tests/`` or nowhere.
A read is a name loaded, an attribute, an imported name, or a string naming
it (the benchmark patches functions by name).  Names are matched without
their module, and dunder names are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src/kpr_lab").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
READERS = PACKAGE + SCRIPTS + sorted(
    path for path in (ROOT / "perfbench").rglob("*.py") if not path.name.startswith("test_")
)
REFERENCE = [ROOT / "tests/reference.py"]
TESTS = sorted((ROOT / "tests").glob("test_*.py"))


def definitions(source: str) -> list[str]:
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("__")]


def reads(source: str) -> set[str]:
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value.rpartition(".")[2])
    return found


def unread_definitions(source: str, readers: list[str]) -> list[str]:
    read = set().union(*map(reads, readers))
    return [name for name in definitions(source) if name not in read]


@pytest.mark.parametrize(
    "path, readers",
    [pytest.param(path, readers, id=path.relative_to(ROOT).as_posix())
     for files, readers in ((PACKAGE, READERS), (SCRIPTS, SCRIPTS), (REFERENCE, TESTS))
     for path in files],
)
def test_every_definition_is_read(path, readers):
    assert unread_definitions(path.read_text(), [r.read_text() for r in readers]) == []


def test_gate_sees_an_unread_definition():
    source = ("A = 1\nB: int = 2\n__all__ = []\n"
              "def f():\n    return A\nclass C:\n    pass\ndef g():\n    pass\n")
    reader = "import m\nm.g()\nname = 'pkg.C'\n"
    assert unread_definitions(source, [source, reader]) == ["B", "f"]
