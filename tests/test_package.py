"""Layout rules for the package source, and the README's library example."""

import ast
import importlib
import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import ifgames

SRC = Path(ifgames.__file__).parent
PERFBENCH = SRC.parents[1] / "perfbench"
README = SRC.parents[1] / "README.md"
FIXTURES = Path(__file__).parent / "fixtures"

# The package's public names, as eager imports exported them: its submodules,
# and the names of each module.
SUBMODULES = "errors formula linalg matrix_game semantic_game structure value_engine".split()
EXPORTS = {
    "errors": "BudgetExceededError EvaluationError GameBuildError IfGamesError ParseError SizeLimitError "
    "StructureFormatError",
    "formula": "App Atom Connective Equals Formula Quant Term Var Violation Vocabulary format_formula parse validate",
    "matrix_game": "Bounds DEFAULT_STRATEGY_BUDGET GameMatrix MixedStrategy ReducedForm ReducedStrategies "
    "expected_utility format_matrix parse_matrix reduce security_levels tallies",
    "semantic_game": "ABELARD ELOISE DecisionPoint Game build_matrix build_reduced decision_points",
    "structure": "Assignment Structure compile_qf holds_qf load_structure",
    "value_engine": "ValueReport balanced_value detect_trivial solve_game solve_value verify_equilibrium",
}
SIDE_MODULES = ("ifgames.formula", "ifgames.structure", "ifgames.semantic_game", "ifgames.applications", "json")


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
    assert uncalled == []


def test_every_trace_target_resolves():
    """Each `(module, attr)` in the benchmark tracer's `TARGETS`, read from
    its source without importing the benchmark, names a live attribute: the
    tracer refuses to install with one missing."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text(encoding="utf-8"))
    (targets,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TARGETS"
    ]
    names = [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]
    assert ("ifgames.matrix_game", "MixedStrategy.__post_init__") in names
    missing = []
    for module, attr in names:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_readme_library_example_prints_its_comments():
    """The README's one python block, run as written, prints on each line
    the `# ...` comment of the `print` call that made it."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    expected = [line.partition("# ")[2] for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines() == expected


def test_every_export_resolves_to_its_defining_module():
    homes = {name: importlib.import_module(f"ifgames.{name}") for name in SUBMODULES}
    homes |= {name: getattr(homes[module], name) for module, listed in EXPORTS.items() for name in listed.split()}
    names = sorted(homes)
    assert ifgames.__all__ == names
    listed = dir(ifgames)
    for name in names:
        assert getattr(ifgames, name) is homes[name], name
        assert name in listed
    star = {}
    exec("from ifgames import *", star)
    assert set(star) - {"__builtins__"} == set(names)
    assert all(star[name] is getattr(ifgames, name) for name in names)


def test_unknown_export_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        ifgames.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from ifgames import no_such_name", {})


def test_moved_names_are_the_same_objects_in_semantic_game():
    from ifgames import matrix_game, semantic_game

    for name in ("ReducedForm", "ReducedStrategies", "DEFAULT_STRATEGY_BUDGET"):
        assert getattr(semantic_game, name) is getattr(matrix_game, name)
    assert semantic_game.ReducedForm.__module__ == "ifgames.matrix_game"


_FRESH_RUN = """
import io, sys
from contextlib import redirect_stdout
from ifgames import cli

def run(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()

print(repr(run("value", "--matrix", sys.argv[1], "--format", "machine")))
print(repr(sorted(set(sys.argv[3:]) & set(sys.modules))))
print(repr(run("value", "--structure", sys.argv[2], "--formula", "A x (E y/x) x = y", "--format", "machine")))
print(repr(run("hashing", "2", "2", "--format", "machine")))
"""


def test_matrix_command_loads_no_sentence_module():
    """In a fresh interpreter (this session has imported every module), a
    --matrix run loads none of the sentence side, and the sentence commands
    run after it in the same process print what they did with eager imports."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    argv = [sys.executable, "-c", _FRESH_RUN, FIXTURES / "m5x6_b.txt", FIXTURES / "cyclic3.json", *SIDE_MODULES]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True, timeout=60)
    matrix, loaded, sentence, hashing = map(ast.literal_eval, proc.stdout.splitlines())
    assert matrix == (0, "command=value\nrows=5\ncols=6\nfloor=2/5\nceil=1/2\nvalue=3/7\nmethod=lp\n"
                         "eloise=0:1/7 1:1/7 2:2/7 3:1/7 4:2/7\nabelard=0:1/7 1:1/7 3:2/7 4:1/7 5:2/7\n")
    assert loaded == []
    assert sentence == (0, "command=value\nrows=3\ncols=3\nfloor=1/3\nceil=1/3\nvalue=1/3\nmethod=balanced\n"
                           "eloise=0:1/3 1:1/3 2:1/3\nabelard=0:1/3 1:1/3 2:1/3\n")
    assert hashing == (0, "command=hashing\nrows=4\ncols=1024\nfloor=1/2\nceil=1/1\nvalue=1/1\n"
                          "method=hashing-certificate\nverified=true\nminimal_degree_indices=1,2\n"
                          "eloise=1:1/2 2:1/2\nadversary_pair_count=128\n")
    assert proc.stderr == ""
