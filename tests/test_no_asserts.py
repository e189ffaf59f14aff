"""Correctness checks in the package must raise, not assert.

``python -O`` strips assert statements, so a check written as one silently
disappears.  This lint parses every module of the package and fails on any
assert node, and on any ``raise AssertionError``: a failed check raises an
error named after what went wrong.

It also holds the package to one popcount idiom, ``int.bit_count``, and
fails on ``bin(x).count("1")``, on unused imports, on module-level private
names that nothing else in the package reads, on a function in ``solvers``
that calls itself, and on a float tolerance written anywhere but the table
at the top of ``spectra``.
"""

import ast
from pathlib import Path

import boxchrom

PACKAGE = Path(boxchrom.__file__).parent


def _nodes():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            yield path.name, node


def test_package_has_no_assert_statements():
    found = [f"{name}:{node.lineno}" for name, node in _nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_raises_no_assertion_error():
    found = []
    for name, node in _nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_package_counts_bits_with_bit_count():
    found = []
    for name, node in _nodes():
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "count" and isinstance(node.func.value, ast.Call) \
                and isinstance(node.func.value.func, ast.Name) and node.func.value.func.id == "bin":
            found.append(f"{name}:{node.lineno}")
    assert found == []


def test_package_imports_only_what_it_uses():
    # a module-level import whose name no expression and no __all__ entry uses
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        found += [f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used]
    assert found == []


def _references(node) -> set[str]:
    # every name a node reads: loaded names, attribute names and imported names
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def test_package_has_no_dead_private_names():
    # a module-level _name (function, class or assignment) that no other
    # top-level statement of the package reads is a leftover
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    refs = {name: [_references(node) for node in tree.body] for name, tree in trees.items()}
    found = []
    for name, tree in trees.items():
        for i, node in enumerate(tree.body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = {sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name)}
            else:
                continue
            read = set().union(*(r for other, rs in refs.items() for j, r in enumerate(rs)
                                 if other != name or j != i))
            found += [f"{name}:{node.lineno} {x}" for x in sorted(defined)
                      if x.startswith("_") and not x.startswith("__") and x not in read]
    assert found == []


def test_solvers_do_not_recurse():
    # every search keeps its branches on an explicit stack, so its speed does
    # not depend on the caller's stack depth: no function of solvers, nested
    # ones included, calls itself by name
    path = PACKAGE / "solvers.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"solvers.py:{node.lineno} {node.name}" for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and any(isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                     and sub.func.id == node.name for sub in ast.walk(node))]
    assert found == []



def test_float_tolerances_live_in_the_spectra_table():
    # a non-zero float literal below 1e-3 is a tolerance: it may only be the
    # value of a module-level constant of spectra, which the other modules read
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    table = {id(node.value) for node in trees["spectra.py"].body
             if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)}
    found = [f"{name}:{node.lineno} {node.value!r}" for name, tree in trees.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, float)
             and 0 < abs(node.value) < 1e-3 and id(node) not in table]
    assert found == []
