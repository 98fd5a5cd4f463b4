"""Every name in a module's __all__, and every dataclass field, is read by the
package, a demo or the benchmark.

A name counts as read where it appears as a loaded name, an attribute or an
imported name in `src/helioq`, `demos/` or `perfbench/`, in its own module or
in another file.  A field counts as read where it appears as a loaded
attribute there, or where its class serializes itself with `asdict(self)`.
Tests do not count: a public name or a field only they reach is dead.
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


def _dataclass_fields(tree: ast.Module):
    """(class, field) for each annotated field of a dataclass not serialized by `asdict(self)`."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef) or not any(
            "dataclass" in ast.unparse(d) for d in cls.decorator_list
        ):
            continue
        if any(
            isinstance(node, ast.Call) and ast.unparse(node) == "asdict(self)"
            for node in ast.walk(cls)
        ):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                yield cls.name, node.target.id


def test_every_dataclass_field_is_read():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = [
        (cls, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for cls, name in _dataclass_fields(trees[path])
    ]
    assert len(fields) > 40
    assert [f"{cls}.{name}" for cls, name in fields if name not in read] == []
