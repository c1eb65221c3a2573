"""Import checks.

Static: every top-level import of a dampwave module is used, every top-level
definition is used in the package or exported, no module imports a dampwave
module inside a function, the package's import graph has no cycles, and mu is
ordered against a number only in ``analysis._regime``.
Run time: the package namespace resolves its names lazily, and a fresh
process loads only the modules a run uses.
"""

import ast
import graphlib
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dampwave"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SUBMODULES = {f"dampwave.{p.stem}" for p in MODULES}


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
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
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


def _package_targets(node):
    """The dampwave modules an import statement names (bare stems)."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0 and not (node.module or "").startswith("dampwave"):
            return []
        module = (node.module or "").removeprefix("dampwave").lstrip(".")
        if module:
            return [module.split(".")[0]]
        return [alias.name for alias in node.names]
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("dampwave.")]
    return []


def _local_package_imports(tree):
    """(line, module) of each dampwave import made inside a function."""
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                found.update((node.lineno, m) for m in _package_targets(node))
    return sorted(found)


def test_local_import_check_sees_a_function_level_import():
    tree = ast.parse("from . import a\nimport os\ndef f():\n    import json\n"
                     "    from .b import c\n    def g():\n        import dampwave.d\n")
    assert _local_package_imports(tree) == [(5, "b"), (7, "d")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_level_package_imports(path):
    local = _local_package_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not local, f"{path.name}: dampwave imports inside functions {local}"


def _import_graph():
    """Module -> the package modules it imports at top level."""
    graph = {}
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        graph[path.stem] = {m for node in tree.body for m in _package_targets(node)}
    return graph


def test_import_graph_has_no_cycles():
    list(graphlib.TopologicalSorter(_import_graph()).static_order())  # raises CycleError


_ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _is_mu(node):
    return (isinstance(node, ast.Name) and node.id == "mu"
            or isinstance(node, ast.Attribute) and node.attr == "mu")


def _mu_orderings(tree, exempt=()):
    """Lines of the <, <=, > and >= comparisons with a bare ``mu`` or ``.mu``
    operand, outside the functions named in ``exempt``."""
    skip = {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name in exempt for node in ast.walk(fn)}
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and id(node) not in skip:
            operands = [node.left, *node.comparators]
            if any(isinstance(op, _ORDERINGS) and (_is_mu(a) or _is_mu(b))
                   for op, a, b in zip(node.ops, operands, operands[1:])):
                lines.add(node.lineno)
    return sorted(lines)


def test_mu_ordering_check_sees_a_comparison():
    tree = ast.parse("def _regime(mu, b):\n    return mu > b\n"
                     "def f(spec, mu, n):\n    a = spec.mu >= 0\n    b = 1.0 <= mu < 2.0\n"
                     "    return mu == 2 or n < 3 or mu - 1 > 0 or n < 2 < mu\n")
    assert _mu_orderings(tree, exempt={"_regime"}) == [4, 5, 6]
    assert _mu_orderings(tree) == [2, 4, 5, 6]


def test_mu_meets_a_border_only_in_regime():
    # analysis._regime is the one comparison of mu with a border: a second one
    # would split mu within 1e-9 of a border from the side _regime puts it on
    found = {p.name: _mu_orderings(ast.parse(p.read_text(), filename=str(p)),
                                   exempt={"_regime"} if p.name == "analysis.py" else ())
             for p in MODULES}
    found = {name: lines for name, lines in found.items() if lines}
    assert not found, f"mu ordered against a number outside analysis._regime: {found}"


def _run(code):
    out = subprocess.run([sys.executable, "-c", "import sys; sys.path[:0] = ['src']\n" + code],
                         cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.splitlines()[-1]


@pytest.mark.parametrize("access, absent", [
    ("", SUBMODULES | {"numpy"}),
    ("dampwave.linear_decay_series",
     {"dampwave.solver", "dampwave.config", "dampwave.scan", "hashlib"}),
    ("dampwave.validate_config", {"dampwave.radial", "dampwave.scan"}),
], ids=["import", "radial_path", "config_path"])
def test_a_fresh_process_loads_only_the_modules_it_uses(access, absent):
    loaded = json.loads(_run(f"import json, dampwave\n{access}\n"
                             "print(json.dumps(sorted(sys.modules)))"))
    assert not absent & set(loaded)


def test_every_submodule_resolves_before_it_is_imported():
    # dependencies first, so that no module is loaded before its own turn
    order = list(graphlib.TopologicalSorter(_import_graph()).static_order())
    code = (f"import dampwave\nfor m in {order!r}:\n"
            "    assert 'dampwave.' + m not in sys.modules, m\n"
            "    assert getattr(dampwave, m).__name__ == 'dampwave.' + m\nprint('ok')")
    assert _run(code) == "ok"


def test_namespace_resolves_every_exported_name():
    import dampwave

    assert len(dampwave.__all__) == sum(map(len, dampwave._EXPORTS.values()))
    for name in dampwave.__all__:
        getattr(dampwave, name)
    star = {}
    exec("from dampwave import *", star)
    assert set(dampwave.__all__) <= set(star)
    assert set(dampwave.__all__) <= set(dir(dampwave))
    with pytest.raises(AttributeError):
        dampwave.no_such_name
