"""Every name a module imports is used in it (no linter is required to
run the suite, so this stands in for pyflakes' unused-import rule).
``__init__.py`` is left out: its imports are the package API.  And every
private definition is referenced somewhere in the package, so dead
private code cannot linger."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "causalcast"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_guard_sees_an_unused_import():
    assert unused_imports("from .stats import check_alpha, check_max_lag\ncheck_alpha(0.1)\n") == [
        "check_max_lag"
    ]


def private_definitions(tree: ast.Module) -> list[str]:
    """Private module-level functions, classes and constants, and private
    methods, in definition order."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


def unreferenced_privates(sources: list[str]) -> list[str]:
    """Private definitions in ``sources`` that no source reads by name or
    as an attribute."""
    trees = [ast.parse(source) for source in sources]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    used = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    used |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    return [name for tree in trees for name in private_definitions(tree) if name not in used]


def test_every_private_definition_is_referenced():
    assert unreferenced_privates([p.read_text() for p in sorted(SRC.glob("*.py"))]) == []


def test_guard_sees_an_unreferenced_helper():
    source = (
        "_LIMIT = 3\n"
        "def _used():\n    return _LIMIT\n"
        "class Panel:\n    def _dead(self):\n        pass\n"
        "def _gone():\n    pass\n"
        "_used()\n"
    )
    assert unreferenced_privates([source]) == ["_dead", "_gone"]
