"""Shared fixtures: the worked matrices, seeded generators, fixture paths, and
a formula evaluator that shares no code with the package."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from ifgames.formula import App, Atom, Connective, Equals, Quant, Var, Vocabulary
from ifgames.matrix_game import GameMatrix

FIXTURES = Path(__file__).parent / "fixtures"


def perfbench_workloads():
    """The benchmark's `perfbench/workloads.py`, loaded by its path, so the
    tests read the benchmark's inputs without importing perfbench."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads

# The two wins-for-one-side 4x4 games and the undetermined one worked out in full.
M4_LOSS = GameMatrix([[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 1, 0]])
M4_WIN = GameMatrix([[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 1, 1]])
M4_MIXED = GameMatrix([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 1, 0, 1]])

# Two 5x6 fixtures differing only in entry (4, 5).  Variant A has a singleton
# column, hence uniform floor 1/5, and its exact value is 1/3.  Variant B has
# value 3/7, guaranteed by the mix (1/7, 1/7, 2/7, 1/7, 2/7) whose best pure
# reply yields 3/7, and its column constraints as equalities are infeasible.
M5X6_A = GameMatrix(
    [
        [1, 0, 0, 0, 0, 1],
        [1, 0, 0, 1, 0, 0],
        [0, 1, 1, 1, 0, 0],
        [1, 1, 0, 0, 1, 0],
        [0, 0, 1, 0, 1, 0],
    ]
)
M5X6_B = GameMatrix(
    [
        [1, 0, 0, 0, 0, 1],
        [1, 0, 0, 1, 0, 0],
        [0, 1, 1, 1, 0, 0],
        [1, 1, 0, 0, 1, 0],
        [0, 0, 1, 0, 1, 1],
    ]
)


def identity_matrix(n: int) -> GameMatrix:
    return GameMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def random_matrix(rng: random.Random, max_m: int, max_n: int) -> GameMatrix:
    m = rng.randint(1, max_m)
    n = rng.randint(1, max_n)
    p = rng.uniform(0.15, 0.85)
    return GameMatrix([[1 if rng.random() < p else 0 for _ in range(n)] for _ in range(m)])


def circulant_matrix(rng: random.Random, max_n: int) -> GameMatrix:
    """Cyclic shifts of a random first row: balanced by construction."""
    n = rng.randint(1, max_n)
    first = [rng.randint(0, 1) for _ in range(n)]
    return GameMatrix([[first[(j - i) % n] for j in range(n)] for i in range(n)])


# ---------------------------------------------------------------------------
# Random sentences for round-trip and evaluation tests

TEST_VOCAB = Vocabulary(relations={"R": 1, "P": 2}, functions={"add": 2, "c": 0})


def random_term(rng: random.Random, bound: list[str], depth: int):
    if depth > 0 and rng.random() < 0.4:
        return App("add", (random_term(rng, bound, depth - 1), random_term(rng, bound, depth - 1)))
    if bound and rng.random() < 0.8:
        return Var(rng.choice(bound))
    return App("c", ())


def random_atom(rng: random.Random, bound: list[str]):
    negated = rng.random() < 0.4
    kind = rng.random()
    if kind < 0.35:
        return Atom("R", (random_term(rng, bound, 1),), negated=negated)
    if kind < 0.55:
        return Atom("P", (random_term(rng, bound, 1), random_term(rng, bound, 1)), negated=negated)
    return Equals(random_term(rng, bound, 1), random_term(rng, bound, 1), negated=negated)


def random_qf(rng: random.Random, bound: list[str], depth: int):
    if depth == 0 or rng.random() < 0.45:
        return random_atom(rng, bound)
    kind = "or" if rng.random() < 0.5 else "and"
    k = rng.randint(2, 3)
    return Connective(kind, None, tuple(random_qf(rng, bound, depth - 1) for _ in range(k)))


def random_sentence(rng: random.Random, fresh=None, bound=None, choosable=None, depth: int = 3):
    """A well-formed random sentence: quantifier prefixes with random slash
    sets, occasional choice disjunctions (always slashed somewhere inside),
    and quantifier-free bodies over TEST_VOCAB."""
    if fresh is None:
        fresh = iter(f"v{i}" for i in range(1000))
    bound = list(bound or [])
    choosable = list(choosable or [])  # identifiers legal in slash sets
    roll = rng.random()
    if depth > 0 and roll < 0.55:
        var = next(fresh)
        kind = "forall" if rng.random() < 0.5 else "exists"
        slash = frozenset(x for x in choosable if rng.random() < 0.35)
        body = random_sentence(rng, fresh, bound + [var], choosable + [var], depth - 1)
        return Quant(kind, var, slash, body)
    if depth > 1 and roll < 0.7:
        cv = next(fresh)
        k = rng.randint(2, 3)
        branches = []
        for b in range(k):
            var = next(fresh)
            kind = "forall" if rng.random() < 0.5 else "exists"
            # Slashing the choice variable on the first branch keeps it used.
            slash = frozenset({cv}) if b == 0 or rng.random() < 0.5 else frozenset()
            inner = random_sentence(rng, fresh, bound + [var], choosable + [cv, var], depth - 2)
            branches.append(Quant(kind, var, slash, inner))
        return Connective("or", cv, tuple(branches))
    return random_qf(rng, bound, 2)


def _naive_term(s, a, t):
    """Independent term evaluator: an explicit worklist, no recursion."""
    stack = [(t, False)]
    values = []
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, Var):
            values.append(a[node.name])
        elif not expanded:
            stack.append((node, True))
            for arg in reversed(node.args):
                stack.append((arg, False))
        else:
            args = tuple(values[len(values) - len(node.args) :]) if node.args else ()
            if node.args:
                del values[len(values) - len(node.args) :]
            values.append(s.functions[node.fn][args])
    return values[0]


def _naive_eval(s, a, f):
    """Independent Tarski evaluator under the assignment dict `a`, the
    reference the package's compiled evaluator is tested against."""
    if isinstance(f, Quant):
        results = [_naive_eval(s, {**a, f.var: v}, f.body) for v in range(s.size)]
        return any(results) if f.kind == "exists" else all(results)
    if isinstance(f, Atom):
        result = tuple(_naive_term(s, a, t) for t in f.args) in s.relations[f.rel]
        return not result if f.negated else result
    if isinstance(f, Equals):
        result = _naive_term(s, a, f.lhs) == _naive_term(s, a, f.rhs)
        return not result if f.negated else result
    if isinstance(f, Connective):
        results = [_naive_eval(s, a, b) for b in f.branches]
        return any(results) if f.kind == "or" else all(results)
    raise AssertionError(f"unexpected node {f!r}")


@pytest.fixture
def rng():
    return random.Random(20260810)
