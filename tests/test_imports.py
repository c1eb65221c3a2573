"""Static checks: every top-level import of a dampwave module is used, and every
top-level definition is used in the package or exported."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "dampwave"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree):
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_unused_import_check_sees_an_unused_name():
    tree = ast.parse("import os\nfrom . import a, b as c\nprint(a)\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "c")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, f"{path.name}: unused imports {unused}"


def _top_level_names(tree):
    """Names a module defines at top level (functions, classes, assignments)."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    names[target.id] = node.lineno
    return names


def _used_names(trees):
    """Names read anywhere: bare names, attributes and imported names."""
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def _unused_definitions(sources, exported):
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = _used_names(trees.values()) | set(exported)
    return sorted((name, line, defined) for name, tree in trees.items()
                  for defined, line in _top_level_names(tree).items() if defined not in used)


def test_unused_definition_check_sees_an_unused_name():
    sources = {"a.py": "KINDS = (1, 2)\nX = 1\ndef f():\n    return X\n",
               "b.py": "from .a import f\n"}
    assert _unused_definitions(sources, exported=()) == [("a.py", 1, "KINDS")]
    assert _unused_definitions(sources, exported=("KINDS",)) == []


def test_every_top_level_definition_is_used_or_exported():
    import dampwave

    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    unused = _unused_definitions(sources, dampwave.__all__)
    assert not unused, f"defined but neither used in the package nor exported: {unused}"
