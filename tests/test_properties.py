"""Property tests of the solver core on small 0/1 games and random strategies,
and of the semantic game on small sentences and structures.

Runs are derandomized, so every run draws the same examples."""

import math
from fractions import Fraction
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ifgames import value_engine
from ifgames.applications import matching_pennies
from ifgames.errors import GameBuildError
from ifgames.formula import Connective, Equals, Quant, Var, Vocabulary, parse, subformulas
from ifgames.matrix_game import GameMatrix, MixedStrategy, expected_utility, reduce, security_levels
from ifgames.semantic_game import build_matrix, build_reduced
from ifgames.structure import Structure, load_structure
from ifgames.value_engine import (
    detect_trivial,
    solve_game,
    solve_value,
    verify_equilibrium,
)

from conftest import FIXTURES, random_sentence
from reference import _reference_matrix, solve_by_support_enumeration
from test_reduced_form import reduced_on_route
from test_value_engine import _verify_reference

FIXED = settings(derandomize=True, deadline=None, database=None, max_examples=100)


@st.composite
def games(draw, max_side=7):
    m, n = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    row = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    return GameMatrix(draw(st.lists(row, min_size=m, max_size=m)))


def mixtures(k: int, side: str):
    """Strategies over k pure strategies with small integer weights."""

    def build(weights):
        if not any(weights):
            weights[0] = 1
        return MixedStrategy(weights, sum(weights), side)

    return st.lists(st.integers(0, 9), min_size=k, max_size=k).map(build)


@st.composite
def games_with_pairs(draw):
    u = draw(games())
    return u, draw(mixtures(u.m, "row")), draw(mixtures(u.n, "column"))


def _permuted(u: GameMatrix, rows, cols) -> GameMatrix:
    return GameMatrix(u.array[list(rows), :][:, list(cols)])


@FIXED
@given(games_with_pairs())
def test_expected_utility_lies_between_the_security_levels(case):
    u, mu, nu = case
    guarantee, cap = security_levels(u, mu, nu)
    assert guarantee <= expected_utility(u, mu, nu) <= cap


@FIXED
@given(games_with_pairs())
def test_verify_matches_the_reference_on_random_and_solved_pairs(case):
    u, mu, nu = case
    solved = solve_value(u)
    for pair in ((mu, nu), (solved.eloise, solved.abelard), (solved.eloise, nu)):
        assert verify_equilibrium(u, *pair) == _verify_reference(u, *pair)


@FIXED
@given(games())
def test_lp_value_matches_support_enumeration(u):
    assert solve_value(u).value == solve_by_support_enumeration(u).value


@FIXED
@given(games())
def test_value_plus_complement_transpose_value_is_one(u):
    assert solve_value(u).value + solve_value(GameMatrix(1 - u.array.T)).value == 1


@FIXED
@given(games(), st.randoms(use_true_random=False))
def test_value_is_invariant_under_permutation(u, rng):
    rows, cols = list(range(u.m)), list(range(u.n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    assert solve_value(_permuted(u, rows, cols)).value == solve_value(u).value


@FIXED
@given(games())
def test_reduce_keeps_the_value_and_the_lifted_pair_verifies(u):
    value = solve_value(u).value
    reduced, _, _ = reduce(u)
    assert solve_value(reduced).value == value
    # With no size left to solve directly, solve_game reduces every game that
    # has no shortcut and lifts the reduced pair back.
    with mock.patch.object(value_engine, "_SOLVE_DIRECTLY_LIMIT", 0):
        report = solve_game(u)
    assert report.value == value
    assert verify_equilibrium(u, report.eloise, report.abelard)


def _report(u: GameMatrix) -> tuple:
    report = solve_game(u)
    return report.value, report.method, report.eloise.nums, report.abelard.nums


@st.composite
def irreducible_games(draw):
    """Shuffled block-diagonal games of identity blocks and, from 3x3 on,
    complemented ones: within a block no row or column dominates another, and
    across blocks their supports are disjoint, so `reduce` leaves them whole.
    Blocks with unequal row sums make a game only the LP solves."""
    blocks = draw(st.lists(st.tuples(st.integers(1, 4), st.booleans()), min_size=1, max_size=3))
    k = sum(j for j, _ in blocks)
    rows = []
    for j, complemented in blocks:
        at, flip = len(rows), complemented and j > 2
        for i in range(j):
            row = [0] * k
            row[at : at + j] = [int((c == i) != flip) for c in range(j)]
            rows.append(row)
    return _permuted(GameMatrix(rows), draw(st.permutations(range(k))), draw(st.permutations(range(k))))


@FIXED
@given(games(), irreducible_games())
def test_reduce_and_lift_of_an_irreducible_game_is_the_direct_solve(drawn, irreducible):
    # Past the direct limit, a game `reduce` leaves whole takes the same LP on
    # the same matrix as below it, so the reports agree to the numerator.
    assert reduce(irreducible)[0] == irreducible
    for u in (drawn, irreducible):
        if reduce(u)[0] == u:
            direct = _report(u)
            with mock.patch.object(value_engine, "_SOLVE_DIRECTLY_LIMIT", 0):
                assert _report(u) == direct


@FIXED
@given(games())
def test_reduce_keeps_a_nontrivial_game_nontrivial(u):
    # `solve_game` tests triviality on its input alone and relies on this.
    if detect_trivial(u) is None:
        assert detect_trivial(reduce(u)[0]) is None


def test_the_tall_fixture_reduces_to_a_nontrivial_game():
    # R is 19683x27: the one fixture past the direct limit that `reduce` shrinks.
    s = load_structure((FIXTURES / "tall_game.json").read_text())
    u = build_reduced(s, parse((FIXTURES / "tall_game.formula").read_text(), s.vocabulary())).matrix
    reduced = reduce(u)[0]
    assert (u.m, u.n) == (19683, 27) and reduced.m < u.m
    assert detect_trivial(u) is None and detect_trivial(reduced) is None


# ---------------------------------------------------------------------------
# The paper's two theorems, as properties of the exact solver


@st.composite
def games_with_planted_blocks(draw, max_side=7):
    """`games()`, in about half of them with every cyclic shift of one row
    planted among the rows: a block whose column sums are all equal."""
    u = draw(games(max_side))
    if not draw(st.booleans()):
        return u
    first = draw(st.lists(st.integers(0, 1), min_size=u.n, max_size=u.n))
    block = [[first[(j - i) % u.n] for j in range(u.n)] for i in range(u.n)]
    return GameMatrix(draw(st.permutations(block + u.array.tolist()[: max(u.m - u.n, 0)])))


def _col_sums(u: GameMatrix, rows) -> list[int]:
    return u.array[list(rows), :].sum(axis=0).tolist()


def _subsets(items):
    return (s for k in range(1, len(items) + 1) for s in combinations(items, k))


@FIXED
@given(games_with_planted_blocks())
def test_every_row_submatrix_floor_is_at_most_the_value(u):
    """(a) Eloise uniform on a set S of rows secures the least column sum
    over S divided by |S|, so no such floor exceeds the value."""
    value = solve_game(u).value
    for rows in _subsets(range(u.m)):
        assert Fraction(min(_col_sums(u, rows)), len(rows)) <= value


@FIXED
@given(games_with_planted_blocks())
def test_balanced_maximum_sum_rows_give_the_value(u):
    """(b) If some set S of maximum-sum rows has equal column sums, the
    value is rowmax / n, met by uniform on S against uniform on the columns."""
    rowmax = max(u.row_sums())
    top = [i for i, s in enumerate(u.row_sums()) if s == rowmax]
    balanced = [rows for rows in _subsets(top) if len(set(_col_sums(u, rows))) == 1]
    assume(balanced)
    value = Fraction(rowmax, u.n)
    assert solve_game(u).value == value
    mu = MixedStrategy.uniform_on(balanced[0], u.m, "row")
    assert security_levels(u, mu, MixedStrategy.uniform(u.n, "column")) == (value, value)


# ---------------------------------------------------------------------------
# Small sentences on small structures


@st.composite
def structures(draw, max_size=3):
    """A structure over the symbols `random_sentence` draws: R unary, P
    binary, `add` binary and the constant `c`."""
    n = draw(st.integers(1, max_size))
    universe = range(n)
    pairs = list(product(universe, repeat=2))
    return Structure(
        size=n,
        relations={
            "R": frozenset((x,) for x in universe if draw(st.booleans())),
            "P": frozenset(pair for pair in pairs if draw(st.booleans())),
        },
        functions={
            "add": {pair: draw(st.integers(0, n - 1)) for pair in pairs},
            "c": {(): draw(st.integers(0, n - 1))},
        },
    )


def _quantifiers(f) -> int:
    return sum(isinstance(node, Quant) for _, node in subformulas(f))


def sentences(max_quantifiers=4):
    """`random_sentence` at depths 1 to 4, kept when it has one to
    `max_quantifiers` quantifiers."""
    drawn = st.builds(random_sentence, st.randoms(use_true_random=False), depth=st.integers(1, 4))
    return drawn.filter(lambda f: 1 <= _quantifiers(f) <= max_quantifiers)


@settings(FIXED, max_examples=200)
@given(sentences(), structures())
def test_build_matrix_agrees_with_reference_play_and_every_form_has_one_value(f, s):
    """With and without collapse: every cell of the full form against the
    walker-free reference, R's value against the full form's, and the
    collapsed value against the played-out one."""
    values = set()
    for collapse in (True, False):
        try:
            full = build_matrix(s, f, collapse=collapse, max_strategies=64)
        except GameBuildError:  # over budget, or positions that no game can merge
            continue
        assert full.matrix == _reference_matrix(s, f, collapse)
        value = solve_value(full.matrix).value
        assert solve_value(build_reduced(s, f, collapse=collapse, max_strategies=64).matrix).value == value
        values.add(value)
    assert len(values) <= 1


@st.composite
def hidden_pairs(draw):
    """`Aa (Eb/a) (a = b | g)` or with `&`: a hidden pair of moves over a
    random sentence g that slashes nothing but its choice variables, so
    that its quantifier chains collapse and its choice disjunctions stay
    moves."""
    rng = draw(st.randoms(use_true_random=False))
    inner = random_sentence(rng, bound=["a", "b"], depth=draw(st.integers(1, 4)))
    body = Connective(draw(st.sampled_from(["or", "and"])), None, (Equals(Var("a"), Var("b")), inner))
    return Quant("forall", "a", frozenset(), Quant("exists", "b", frozenset({"a"}), body))


@settings(FIXED, max_examples=300)
@given(st.one_of(sentences(), hidden_pairs()), structures())
def test_grid_route_gives_the_walks_reduced_form(f, s):
    """With the grid taken by every game, 1 x 1 games with no move
    included, R's matrix and both sides' cells, representatives and
    multiplicities equal those of `Game._play`, with and without
    collapse (collapsed chains and choice connectives included)."""
    for collapse in (True, False):
        try:
            walked, walk_used_grid = reduced_on_route(s, f, math.inf, collapse=collapse, max_strategies=64)
        except GameBuildError:  # over budget, or positions that no game can merge
            continue
        gridded, grid_used = reduced_on_route(s, f, 1, collapse=collapse, max_strategies=64)
        assert not walk_used_grid
        assert grid_used
        assert gridded.matrix == walked.matrix
        for got, want in ((gridded.eloise, walked.eloise), (gridded.abelard, walked.abelard)):
            assert (got.cells, got.reps, got.weights) == (want.cells, want.reps, want.weights)


@pytest.mark.parametrize("n", range(1, 7))
def test_closed_form_values(n):
    mismatch = parse("Ax (Ey/x) ~x = y", Vocabulary())
    assert solve_game(build_reduced(Structure(size=n), mismatch).matrix).value == Fraction(n - 1, n)
    sentence, structure = matching_pennies(n)
    assert solve_game(build_reduced(structure, sentence).matrix).value == Fraction(1, n)
