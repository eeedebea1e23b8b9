"""Property tests of the solver core on small 0/1 games and random strategies.

Runs are derandomized, so every run draws the same examples."""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from ifgames import value_engine
from ifgames.matrix_game import GameMatrix, MixedStrategy, expected_utility, reduce, security_levels
from ifgames.value_engine import (
    solve_by_support_enumeration,
    solve_game,
    solve_value,
    verify_equilibrium,
)

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
    assert solve_value(u).value + solve_value(u.complement().transpose()).value == 1


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
