"""Every name a module of the package or of the test suite imports is
used in it, and every function and class the package defines is named
somewhere besides its definition."""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def unused_imports(path):
    """The names that ``path`` imports and never reads, nor lists in its
    ``__all__`` (``from __future__`` imports aside), as "file:line name"."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        targets = getattr(node, "targets", [])
        if any(getattr(t, "id", None) == "__all__" for t in targets):
            used.update(ast.literal_eval(node.value))
    return [
        "%s:%d %s" % (path.relative_to(ROOT), line, name)
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used
    ]


def test_no_unused_imports():
    paths = sorted(ROOT.glob("src/calderon/*.py")) + sorted(
        ROOT.glob("tests/*.py")
    )
    assert len(paths) > 10
    assert [u for p in paths for u in unused_imports(p)] == []


def dead_definitions():
    """The functions and classes (methods too, dunders aside) defined in
    ``src/calderon`` whose name appears, as a word, nowhere in the Python
    files of ``src/``, ``tests/`` or ``benchmarks/`` but at its own
    definition, as "file:line name"."""
    words = collections.Counter()
    for d in ("src", "tests", "benchmarks"):
        for p in (ROOT / d).rglob("*.py"):
            words.update(re.findall(r"\w+", p.read_text()))
    dead = []
    for path in sorted(ROOT.glob("src/calderon/*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or node.name.startswith("__"):
                continue
            if words[node.name] < 2:
                dead.append(
                    "%s:%d %s"
                    % (path.relative_to(ROOT), node.lineno, node.name)
                )
    return dead


def test_no_dead_definitions():
    assert dead_definitions() == []
