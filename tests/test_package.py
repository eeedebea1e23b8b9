"""Layout rules for the package source."""

import ast
from pathlib import Path

import ifgames

SRC = Path(ifgames.__file__).parent
PERFBENCH = SRC.parents[1] / "perfbench"

# Public names that nothing in the package or the benchmark calls, each with
# the reason it stays.
ALLOWED = {
    "value_engine.submatrix_lower_bound": "the paper's row-submatrix lower bound, not yet wired into `bounds`",
    "value_engine.balanced_submatrix_certificate": "the paper's certificate, not yet wired into `solve_game`",
    "value_engine.solve_by_support_enumeration": "the independent oracle the tests check the LP against",
}


def test_no_module_imports_a_private_name_from_another():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                offenders += [
                    f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def _public_definitions(tree: ast.Module):
    """(name, node) for every public module-level name and every public
    method of a public class, a method named `Class.method`."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.AnnAssign, ast.FunctionDef, ast.ClassDef)):
            targets = [node.target.id if isinstance(node, ast.AnnAssign) else node.name]
        else:
            continue
        for name in targets:
            if name.startswith("_"):
                continue
            yield name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{name}.{item.name}", item


def _references(tree: ast.Module, strings: bool):
    """(name, line) for every name the module reads or imports, and, with
    `strings`, every dotted part of a string constant: the benchmark's tracer
    names its targets in strings.  Names are matched by spelling alone."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from ((part, node.lineno) for part in node.value.split("."))


def test_every_public_name_has_a_caller():
    """A public name needs a reference outside its own definition, in the
    package (re-exports in `__init__` do not count) or in the benchmark."""
    modules = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    del modules[SRC / "__init__.py"]
    readers = [(path, tree, False) for path, tree in modules.items()]
    readers += [(path, ast.parse(path.read_text(encoding="utf-8")), True) for path in sorted(PERFBENCH.glob("*.py"))]
    seen = {}  # name -> (path, line) of each reference
    for path, tree, strings in readers:
        for name, line in _references(tree, strings):
            seen.setdefault(name, []).append((path, line))
    uncalled = []
    for path, tree in modules.items():
        for name, node in _public_definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            refs = seen.get(name.rpartition(".")[2], [])
            if not any(p != path or line not in own for p, line in refs):
                uncalled.append(f"{path.stem}.{name}")
    no_caller = sorted(set(uncalled) - set(ALLOWED))
    called_now = sorted(set(ALLOWED) - set(uncalled))
    assert (no_caller, called_now) == ([], [])
    assert all(ALLOWED.values())
