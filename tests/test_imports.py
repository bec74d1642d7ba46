"""Every name a module of the package or of the test suite imports is
used in it."""

import ast
import pathlib

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
