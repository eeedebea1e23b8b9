"""The reduced strategic form R against the full strategic form.

Every check runs on the six fixture games and on 50 seeded random sentences,
with and without collapsing; games over the budget are skipped, as in the
walker's reference test.
"""

import io
import random
from contextlib import redirect_stdout
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from ifgames import semantic_game
from ifgames.applications import (
    birthday_game,
    birthday_sentence,
    cyclic_structure,
    hash_structure,
    hashing_sentence,
    matching_pennies,
)
from ifgames.cli import main
from ifgames.errors import GameBuildError
from ifgames.formula import Equals, Quant, Var, Vocabulary, format_formula, parse
from ifgames.matrix_game import ReducedStrategies, reduce
from ifgames.semantic_game import (
    ABELARD,
    ELOISE,
    Game,
    build_matrix,
    build_reduced,
)
from ifgames.structure import Structure, load_structure, total_function_table
from ifgames.value_engine import solve_game

from conftest import FIXTURES, random_sentence
from reference import _reference_matrix, enumerate_strategies, save_structure

EMPTY = Vocabulary()
BUDGET = 256

RANDOM_STRUCTURE = Structure(
    size=2,
    relations={"R": frozenset({(1,)}), "P": frozenset({(0, 1), (1, 1)})},
    functions={"add": total_function_table(2, 2, lambda a, b: (a + b) % 2), "c": {(): 1}},
)


def _games():
    games = [
        matching_pennies(3),
        (parse("Ax Ey x = y", EMPTY), Structure(size=2)),
        (parse("Ax Ey (x = y | ~x = y)", EMPTY), Structure(size=2)),
        (
            parse("Ax (Ey/x) (R(x) & x = y)", Vocabulary(relations={"R": 1})),
            Structure(size=2, relations={"R": frozenset({(1,)})}),
        ),
        (birthday_sentence(2), cyclic_structure(2)),
        (hashing_sentence(hash_structure(2, 2)[1]), hash_structure(2, 2)[0]),
    ]
    rng = random.Random(4242)
    games += [(random_sentence(rng), RANDOM_STRUCTURE) for _ in range(50)]
    return games


def _pairs():
    """(R, full game) per buildable game and collapse mode."""
    out = []
    for f, s in _games():
        for collapse in (True, False):
            try:
                form = build_reduced(s, f, collapse=collapse, max_strategies=BUDGET)
            except GameBuildError:  # over budget, or positions that no game can merge
                continue
            full = build_matrix(s, f, collapse=collapse, max_strategies=BUDGET)
            out.append((f, s, collapse, form, full))
    return out


PAIRS = _pairs()


def _classes(reduced, strategies):
    """The reduced strategy each full strategy agrees with, where assigned."""
    out = []
    for strategy in strategies:
        flat = [k for table in strategy.tables for k in table]
        matches = [
            r for r, cells in enumerate(reduced.cells) if all(k < 0 or k == v for k, v in zip(cells, flat, strict=True))
        ]
        assert len(matches) == 1, "every full strategy belongs to exactly one class"
        out.append(matches[0])
    return out


def test_corpus_is_large_enough():
    assert len(PAIRS) >= 80
    # The corpus exercises the reduction, not only games where R is the full form.
    assert sum(1 for *_, form, full in PAIRS if form.matrix.m * form.matrix.n < full.matrix.m * full.matrix.n) >= 20


@pytest.mark.parametrize("index", range(len(PAIRS)))
def test_reduced_form_matches_full_form(index):
    f, s, collapse, form, full = PAIRS[index]
    # build_matrix plays every full pair apart from R's walker; the walker-free reference checks it first.
    assert full.matrix == _reference_matrix(s, f, collapse)
    u = full.matrix.array
    r = form.matrix.array
    # R is the full game at the representatives, which are in increasing order.
    assert np.array_equal(r, u[np.ix_(form.eloise.reps, form.abelard.reps)])
    assert list(form.eloise.reps) == sorted(set(form.eloise.reps))
    assert list(form.abelard.reps) == sorted(set(form.abelard.reps))
    # The multiplicities sum to the full counts.
    assert form.eloise.count == full.eloise.count == u.shape[0]
    assert form.abelard.count == full.abelard.count == u.shape[1]
    assert form.collapsed_loci == full.collapsed_loci
    # Every full row and column copies the one of its class; each class has
    # its multiplicity of members, the representative the smallest.
    for side, reduced, axis in ((ELOISE, form.eloise, 0), (ABELARD, form.abelard, 1)):
        classes = _classes(reduced, enumerate_strategies(s, f, side, collapse=collapse, max_strategies=BUDGET))
        for i, c in enumerate(classes):
            rep = reduced.reps[c]
            assert np.array_equal(u[i], u[rep]) if axis == 0 else np.array_equal(u[:, i], u[:, rep])
        assert [classes.count(c) for c in range(len(reduced.reps))] == list(reduced.weights)
        assert [classes.index(c) for c in range(len(reduced.reps))] == list(reduced.reps)


@pytest.mark.parametrize("index", range(len(PAIRS)))
def test_value_on_reduced_form_is_the_full_value(index):
    *_, form, full = PAIRS[index]
    assert solve_game(form.matrix).value == solve_game(full.matrix).value


@pytest.mark.parametrize("index", range(len(PAIRS)))
def test_reducing_r_keeps_the_representatives_of_the_full_reduction(index):
    *_, form, full = PAIRS[index]
    kept, rows, cols = reduce(full.matrix)
    kept_r, rows_r, cols_r = reduce(form.matrix)
    assert kept_r == kept
    assert tuple(form.eloise.reps[i] for i in rows_r) == rows
    assert tuple(form.abelard.reps[j] for j in cols_r) == cols


# ---------------------------------------------------------------------------
# The printed strategies certify the printed full matrix.


def _cli(*argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def _fraction(text: str) -> Fraction:
    p, _, q = text.partition("/")
    return Fraction(int(p), int(q))


def _strategy(text: str, size: int) -> dict[int, Fraction]:
    weights = {}
    for token in text.split():
        i, _, p = token.partition(":")
        assert 0 <= int(i) < size and int(i) not in weights
        weights[int(i)] = _fraction(p)
    assert sum(weights.values()) == 1 and min(weights.values()) > 0
    return weights


def _certify(output: str, matrix: str) -> None:
    """The printed value, bounds and strategies against the printed matrix,
    in integer arithmetic over the strategies' common denominator."""
    lines = matrix.splitlines()
    m, n = map(int, lines[0].split())
    a = [[int(x) for x in line.split()] for line in lines[1:]]
    out = dict(line.split("=", 1) for line in output.splitlines())
    assert (int(out["rows"]), int(out["cols"])) == (m, n)
    assert _fraction(out["floor"]) == Fraction(min(sum(a[i][j] for i in range(m)) for j in range(n)), m)
    assert _fraction(out["ceil"]) == Fraction(max(sum(row) for row in a), n)
    value = _fraction(out["value"])
    mu, nu = _strategy(out["eloise"], m), _strategy(out["abelard"], n)
    den = np.lcm.reduce([p.denominator for p in (*mu.values(), *nu.values(), value)])
    guarantee = min(sum(int(p * den) * a[i][j] for i, p in mu.items()) for j in range(n))
    cap = max(sum(int(p * den) * a[i][j] for j, p in nu.items()) for i in range(m))
    assert guarantee == cap == value * den


@pytest.mark.parametrize("index", range(len(PAIRS)))
def test_printed_strategies_certify_on_the_printed_matrix(index, tmp_path):
    f, s, collapse, *_ = PAIRS[index]
    structure = tmp_path / "s.json"
    structure.write_text(save_structure(s))
    argv = ["--structure", str(structure), "--formula", format_formula(f), "--max-strategies", str(BUDGET)]
    if not collapse:
        argv.append("--no-collapse")
    _certify(_cli("value", *argv, "--format", "machine"), _cli("matrix", *argv))


# ---------------------------------------------------------------------------
# The two payoff routes


def reduced_on_route(s, f, grid_cells=semantic_game._GRID_CELLS, **build):
    """R with the grid threshold at `grid_cells`, and whether `Game._grid` scored it."""
    with mock.patch.object(semantic_game, "_GRID_CELLS", grid_cells), mock.patch.object(
        Game, "_grid", autospec=True, side_effect=Game._grid
    ) as grid:
        form = build_reduced(s, f, **build)
    return form, grid.called


@pytest.mark.parametrize(
    "game, shape, wide",
    [
        (birthday_game(4, 2), (16, 16), True),
        (birthday_game(4, 3), (64, 64), True),
        (birthday_game(5, 3), (125, 125), True),
        ((hashing_sentence(hash_structure(3, 2)[1]), hash_structure(3, 2)[0]), (8, 25), False),
        (matching_pennies(9), (9, 9), False),
    ],
    ids=["birthday-4-2", "birthday-4-3", "birthday-5-3", "hashing-3-2", "mp-9"],
)
def test_r_of_256_cells_or_more_takes_the_grid(game, shape, wide):
    f, s = game
    form, grid = reduced_on_route(s, f)
    assert (form.matrix.m, form.matrix.n) == shape
    assert grid == wide


@pytest.mark.parametrize("game", [birthday_game(4, 2), birthday_game(5, 3)], ids=["birthday-4-2", "birthday-5-3"])
def test_one_walk_per_reduced_form(game):
    """R's strategies are found by one walk per side, Eloise's first, and R
    is scored after them, however wide it is."""
    f, s = game
    with mock.patch.object(Game, "_strategies", autospec=True, side_effect=Game._strategies) as strategies:
        build_reduced(s, f)
    assert [call.args[1] for call in strategies.call_args_list] == [0, 1]


def test_a_98_deep_collapsed_chain_runs_on_the_grid():
    """A hidden pair of moves over 98 nested quantifiers that slash nothing:
    one collapsed chain, which the array form must evaluate without an axis
    per quantifier (numpy caps arrays at 64)."""
    names = [f"z{k}" for k in range(98)]
    body = Equals(Var(names[-1]), Var("x"))
    for name in reversed(names):
        body = Quant("forall", name, frozenset(), body)
    f = Quant("forall", "x", frozenset(), Quant("exists", "y", frozenset({"x"}), body))
    form, grid = reduced_on_route(Structure(size=1), f, grid_cells=1)
    assert grid and form.matrix.array.tolist() == [[1]]
    assert build_reduced(Structure(size=1), f).matrix == form.matrix


# ---------------------------------------------------------------------------
# The full form is played apart from R


@pytest.mark.parametrize(
    "game, collapse, shape",
    [
        ((hashing_sentence(hash_structure(3, 2)[1]), hash_structure(3, 2)[0]), True, (8, 15625)),
        ((parse("Ax Ey x = y", EMPTY), load_structure((FIXTURES / "cyclic3.json").read_text())), False, (27, 3)),
    ],
    ids=["hashing-3-2", "cyclic3-no-collapse"],
)
def test_build_matrix_uses_neither_the_walker_nor_play(game, collapse, shape):
    """The full form checks R only if it shares none of R's code."""
    f, s = game
    with mock.patch.object(Game, "_strategies", side_effect=AssertionError("R's walker")), mock.patch.object(
        Game, "_play", side_effect=AssertionError("R's scorer")
    ):
        full = build_matrix(s, f, collapse=collapse)
    assert (full.matrix.m, full.matrix.n) == shape
    assert full.matrix == _reference_matrix(s, f, collapse)


def test_a_walk_that_misses_a_full_strategy_is_refused():
    """R's multiplicities must cover the full counts: a walker that drops
    its last strategy raises rather than give a short form."""
    walk = Game._strategies

    def short(game, side, count):
        found = walk(game, side, count)
        return ReducedStrategies(found.cells[:-1], found.reps[:-1], found.weights[:-1])

    f, s = matching_pennies(3)
    with mock.patch.object(Game, "_strategies", short), pytest.raises(
        RuntimeError, match="^eloise: reduced strategies cover 2 full ones, not 3$"
    ):
        build_reduced(s, f)
