"""Every name in a module's __all__ is read by the package, a demo or the benchmark.

A name counts as read where it appears as a loaded name, an attribute or an
imported name in `src/helioq`, `demos/` or `perfbench/`, in its own module or
in another file.  Tests do not count: a public name only they reach is dead.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "helioq"
SOURCES = [
    *sorted(PACKAGE.glob("*.py")),
    *sorted((ROOT / "demos").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
]


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _read_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_exported_name_is_read():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    read = set().union(*(_read_names(tree) for tree in trees.values()))
    exported = [
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _exported(trees[path])
    ]
    assert len(exported) > 50
    assert [f"{module}.{name}" for module, name in exported if name not in read] == []
