import random
from fractions import Fraction

import numpy as np
import pytest

from ifgames import matrix_game
from ifgames.errors import IfGamesError
from ifgames.matrix_game import (
    GameMatrix,
    MixedStrategy,
    expected_utility,
    format_matrix,
    parse_matrix,
    reduce,
    security_levels,
    tallies,
    weighted_col_sums,
    weighted_row_sums,
)
from ifgames.value_engine import balanced_value, solve_value

from conftest import FIXTURES, M4_WIN, M5X6_A, M5X6_B, identity_matrix, random_matrix

PAPER_MIX = MixedStrategy((1, 1, 2, 1, 2), 7, "row")


class TestGameMatrix:
    def test_rejects_non_binary(self):
        for rows in ([[0, 2]], [[0.5, 1]], [[1.9, 0]], [["1", "0"]]):
            with pytest.raises(ValueError):
                GameMatrix(rows)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GameMatrix([[]])

    def test_narrow_arrays_are_checked_too(self):
        bad = np.zeros((2, 3), dtype=np.uint8)
        bad[1, 2] = 2
        with pytest.raises(ValueError):
            GameMatrix(bad)
        good = np.array([[0, 1], [1, 1]], dtype=np.uint8)
        assert GameMatrix(good) == GameMatrix(good.astype(bool)) == GameMatrix([[0, 1], [1, 1]])


class TestMixedStrategy:
    def test_probs_round_trip(self, rng):
        for _ in range(100):
            ms = _random_mix(rng, rng.randint(1, 9), "row")
            assert sum(ms.probs) == 1
            again = MixedStrategy(list(ms.nums), ms.den, "row")
            assert again == ms and again.probs == ms.probs

    def test_numerators_are_kept_in_lowest_terms(self):
        halves = MixedStrategy([2, 2], 4, "row")
        assert halves == MixedStrategy.uniform(2, "row")
        assert hash(halves) == hash(MixedStrategy.uniform(2, "row"))
        assert (halves.nums, halves.den) == ((1, 1), 2)
        assert halves.probs == (Fraction(1, 2), Fraction(1, 2))
        assert halves != MixedStrategy.uniform(2, "column")

    @pytest.mark.parametrize(
        "nums, den, side",
        [
            ([2, -1], 1, "row"),  # a negative entry
            ([1, 1], 3, "row"),  # numerators not summing to the denominator
            ([0, 0], 0, "row"),  # no denominator
            ([], 1, "row"),  # no strategies
            ([1, 1], 2, "diagonal"),  # bad side
        ],
    )
    def test_rejects_invalid_numerators(self, nums, den, side):
        with pytest.raises(ValueError):
            MixedStrategy(nums, den, side)


class TestTallies:
    def test_worked_5x6(self):
        t = tallies(M5X6_A)
        assert (t.floor, t.ceil) == (Fraction(1, 5), Fraction(3, 6))
        assert (t.colmin, t.rowmax) == (1, 3)

    def test_identity(self):
        for n in (1, 2, 5):
            t = tallies(identity_matrix(n))
            assert t.floor == t.ceil == Fraction(1, n)

    def test_all_zeros(self):
        t = tallies(GameMatrix([[0] * 4] * 3))
        assert (t.floor, t.ceil) == (0, 0)

    def test_unit_weights_take_the_cached_sums(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("unit weights went down the weighted path")

        monkeypatch.setattr(matrix_game, "weighted_col_sums", refuse)
        monkeypatch.setattr(matrix_game, "weighted_row_sums", refuse)
        assert tallies(M5X6_A, (1,) * 5, [1] * 6) == tallies(M5X6_A)

    def test_weights_stand_for_copies(self):
        u = GameMatrix([[1, 0, 0], [0, 1, 1]])
        copies = GameMatrix([[1, 0, 0, 0], [0, 1, 1, 1], [0, 1, 1, 1], [0, 1, 1, 1]])
        weighted, expanded = tallies(u, (1, 3), (1, 1, 2)), tallies(copies)
        for key in ("floor", "ceil", "colmin", "rowmax"):
            assert getattr(weighted, key) == getattr(expanded, key)
        with pytest.raises(ValueError, match="row count"):
            tallies(u, (1, 1, 1))


class TestBalance:
    """`balanced_value` answers exactly when every row sum is equal and every
    column sum is equal."""

    def test_identity_balanced(self):
        assert balanced_value(identity_matrix(4)) is not None

    def test_worked_5x6_unbalanced(self):
        assert M5X6_A.row_sums() == [2, 2, 3, 3, 2]
        assert balanced_value(M5X6_A) is None

    def test_single_zero_cell(self):
        assert balanced_value(GameMatrix([[0]])) is not None

    def test_row_but_not_column(self):
        u = GameMatrix([[1, 0], [1, 0]])
        assert u.row_sums() == [1, 1] and u.col_sums() == [2, 0]
        assert balanced_value(u) is None


class TestExpectedUtility:
    def test_worked_mix_against_third_column(self):
        nu = MixedStrategy.point_mass(6, 2, "column")
        assert expected_utility(M5X6_B, PAPER_MIX, nu) == Fraction(4, 7)

    def test_point_masses_read_entries(self):
        u = M5X6_A
        for i in (0, 2, 4):
            for j in (0, 3, 5):
                mu = MixedStrategy.point_mass(u.m, i, "row")
                nu = MixedStrategy.point_mass(u.n, j, "column")
                assert expected_utility(u, mu, nu) == int(u.array[i, j])

    def test_identity_uniform(self):
        u = identity_matrix(2)
        mu = MixedStrategy.uniform(2, "row")
        nu = MixedStrategy.uniform(2, "column")
        assert expected_utility(u, mu, nu) == Fraction(1, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expected_utility(identity_matrix(2), MixedStrategy.uniform(3, "row"), MixedStrategy.uniform(2, "column"))

    def test_in_unit_interval_and_zero_sum(self, rng):
        for _ in range(100):
            u = random_matrix(rng, 6, 6)
            mu = _random_mix(rng, u.m, "row")
            nu = _random_mix(rng, u.n, "column")
            value = expected_utility(u, mu, nu)
            assert 0 <= value <= 1
            assert value + expected_utility(GameMatrix(1 - u.array), mu, nu) == 1


def _best_pure_response(u, mu):
    """The column player's best reply to `mu`: what `mu` guarantees, the
    first half of `security_levels`, and the smallest column attaining it."""
    guarantee, _ = security_levels(u, mu, MixedStrategy.uniform(u.n, "column"))
    totals = weighted_col_sums(u, mu.nums)
    return guarantee, totals.index(min(totals))


class TestBestPureResponse:
    def test_worked_mix_guarantees_three_sevenths(self):
        value, column = _best_pure_response(M5X6_B, PAPER_MIX)
        assert value == Fraction(3, 7)
        assert expected_utility(M5X6_B, PAPER_MIX, MixedStrategy.point_mass(6, column, "column")) == value

    def test_uniform_matches_floor(self, rng):
        for _ in range(50):
            u = random_matrix(rng, 7, 7)
            t = tallies(u)
            value, column = _best_pure_response(u, MixedStrategy.uniform(u.m, "row"))
            assert value == t.floor
            assert u.col_sums()[column] == t.colmin

    def test_point_mass_on_winning_row(self):
        value, column = _best_pure_response(M4_WIN, MixedStrategy.point_mass(4, 3, "row"))
        assert (value, column) == (1, 0)

    def test_mixed_reply_never_beats_best_pure(self, rng):
        # A mixed reply is an average of pure ones, so it cannot do better.
        for _ in range(200):
            u = random_matrix(rng, 6, 8)
            mu = _random_mix(rng, u.m, "row")
            best, column = _best_pure_response(u, mu)
            for _ in range(50):
                nu = _random_mix(rng, u.n, "column")
                assert expected_utility(u, mu, nu) >= best
            point = MixedStrategy.point_mass(u.n, column, "column")
            assert expected_utility(u, mu, point) == best


def _python_col_sums(u, w):
    a = u.array.tolist()
    return [sum(w[i] * a[i][j] for i in range(u.m)) for j in range(u.n)]


def _python_row_sums(u, w):
    a = u.array.tolist()
    return [sum(w[j] * a[i][j] for j in range(u.n)) for i in range(u.m)]


def _both_orientations(u):
    """(kernel, plain Python reference, weight count) for columns, then rows."""
    return ((weighted_col_sums, _python_col_sums, u.m), (weighted_row_sums, _python_row_sums, u.n))


class TestWeightedSums:
    @pytest.mark.parametrize("top", [2**61, 2**62, 2**80])
    def test_big_weights_match_python_sums(self, rng, top):
        for _ in range(20):
            u = random_matrix(rng, 6, 6)
            for kernel, reference, k in _both_orientations(u):
                w = [rng.randint(-top, top) for _ in range(k)]
                w[rng.randrange(k)] = top
                assert kernel(u, w) == reference(u, w)

    def test_both_sides_of_the_int64_guard(self, rng):
        safe = matrix_game._INT64_SAFE
        for _ in range(20):
            u = random_matrix(rng, 6, 6)
            for kernel, reference, k in _both_orientations(u):
                edge = -(-safe // k)  # the smallest top weight that leaves int64
                for top in (edge - 1, edge, edge + 1):
                    w = [rng.randint(0, top) for _ in range(k)]
                    w[rng.randrange(k)] = top
                    got = kernel(u, w)
                    assert got == reference(u, w)
                    assert all(type(x) is int for x in got)

    def test_expected_utility_over_a_huge_denominator(self, rng):
        for _ in range(20):
            m, n = rng.randint(2, 6), rng.randint(2, 6)
            u = GameMatrix([[rng.randint(0, 1) for _ in range(n)] for _ in range(m)])
            strategies = []
            for k, side in ((u.m, "row"), (u.n, "column")):
                den = 2**63 + rng.randrange(2**40)
                cuts = [1, *sorted(rng.randrange(2, den) for _ in range(k - 2))]  # nums[0] = 1: lowest terms
                nums = [b - a for a, b in zip([0, *cuts], [*cuts, den])]
                strategies.append(MixedStrategy(nums, den, side))
            mu, nu = strategies
            a = u.array.tolist()
            expected = sum(p * q * a[i][j] for i, p in enumerate(mu.probs) for j, q in enumerate(nu.probs))
            assert expected_utility(u, mu, nu) == expected
            # nu's weights are past the int64 guard
            assert min(mu.den, nu.den) > 2**63 and max(nu.nums) * u.n >= matrix_game._INT64_SAFE


class TestReduce:
    def test_duplicate_rows_drop_to_first(self):
        u = GameMatrix([[1, 0], [1, 0], [0, 1]])
        reduced, rows, cols = reduce(u)
        assert rows == (0, 2)
        assert cols == (0, 1)

    def test_winning_row_crushes_to_single_cell(self):
        reduced, rows, cols = reduce(M4_WIN)
        assert reduced == GameMatrix([[1]])
        assert rows == (3,)

    def test_value_preserved_on_worked_games(self):
        for u, expected in ((M5X6_A, Fraction(1, 3)), (M5X6_B, Fraction(3, 7))):
            reduced, _, _ = reduce(u)
            assert solve_value(u).value == solve_value(reduced).value == expected

    def test_value_preserved_random(self, rng):
        for _ in range(60):
            u = random_matrix(rng, 8, 8)
            reduced, rows, cols = reduce(u)
            assert solve_value(u).value == solve_value(reduced).value
            assert reduced.m == len(rows) and reduced.n == len(cols)


def _dominance_keep_reference(vectors: np.ndarray, larger_survives: bool) -> list[int]:
    """The earlier `_dominance_keep`, deduplicating with np.unique(axis=0)."""
    k = vectors.shape[0]
    _, first, inverse = np.unique(vectors, axis=0, return_index=True, return_inverse=True)
    rep_of = first[inverse]
    alive = [i for i in range(k) if rep_of[i] == i]
    removed = set(i for i in range(k) if rep_of[i] != i)
    for i in alive:
        vi = vectors[i]
        for j in alive:
            if i == j or j in removed:
                continue
            vj = vectors[j]
            if larger_survives:
                dominated = bool((vi <= vj).all())
            else:
                dominated = bool((vi >= vj).all())
            if dominated and (not (vi == vj).all() or j < i):
                removed.add(i)
                break
    return [i for i in range(k) if i not in removed]


def _games_for_reduction(rng: random.Random):
    """Random games: wide ones, and ones whose rows and columns repeat a few vectors."""
    for _ in range(30):
        yield random_matrix(rng, 5, 300)
    for _ in range(30):
        m, n = rng.randint(1, 12), rng.randint(1, 90)
        pool = [[rng.randint(0, 1) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        rows = [list(rng.choice(pool)) for _ in range(m)]
        for j in range(1, n):
            if rng.random() < 0.5:
                source = rng.randrange(j)
                for row in rows:
                    row[j] = row[source]
        yield GameMatrix(rows)


class TestReduceAgainstReference:
    def test_dominance_keep_matches(self, rng):
        for u in _games_for_reduction(rng):
            for vectors in (u.array, u.array.T):
                for larger in (True, False):
                    expected = _dominance_keep_reference(vectors, larger)
                    assert matrix_game._dominance_keep(vectors, larger) == expected

    def test_reduce_matches(self, rng, monkeypatch):
        games = list(_games_for_reduction(rng))
        got = [reduce(u) for u in games]
        monkeypatch.setattr(matrix_game, "_dominance_keep", _dominance_keep_reference)
        assert got == [reduce(u) for u in games]


class TestTextFormat:
    def test_round_trip(self):
        for u in (M5X6_A, identity_matrix(1), GameMatrix([[0] * 4] * 2)):
            assert parse_matrix(format_matrix(u)) == u

    def test_format_matches_joined_rows(self, rng):
        games = [GameMatrix([[0]]), GameMatrix([[1], [0], [1]]), GameMatrix([[1] * 300] * 16)]
        games += [random_matrix(rng, 20, 40) for _ in range(30)]
        for u in games:
            lines = [f"{u.m} {u.n}"] + [" ".join(map(str, row)) for row in u.array.tolist()]
            assert format_matrix(u) == "\n".join(lines) + "\n"

    def test_fixture_files_parse(self):
        u = parse_matrix((FIXTURES / "m5x6_a.txt").read_text())
        assert u == M5X6_A

    def test_bad_header(self):
        with pytest.raises(IfGamesError):
            parse_matrix("2\n0 1\n1 0\n")

    def test_bad_entry(self):
        with pytest.raises(IfGamesError):
            parse_matrix("1 2\n0 7\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty matrix file"),
            ("2\n0 1\n1 0\n", "matrix header must be 'm n', got '2'"),
            ("0 2\n", "a game matrix needs at least one row and one column, got 0 x 2"),
            ("2 2\n0 1\n", "expected 2 matrix rows, found 1"),
            ("1 2\n0 7\n", "bad matrix row '0 7'"),
            ("1 2\n0 1 1\n", "bad matrix row '0 1 1'"),
            ("1 2\n01 1\n", "bad matrix row '01 1'"),
            ("1 2\n0 \u0661\n", "bad matrix row '0 \u0661'"),
            ("\u00b2 2\n0 1\n", "matrix header must be 'm n', got '\u00b2 2'"),
            ("1 \u0662\n0 1\n", "matrix header must be 'm n', got '1 \u0662'"),
            ("1" * 19 + " 1\n1\n", f"matrix header must be 'm n', got '{'1' * 19} 1'"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(IfGamesError) as caught:
            parse_matrix(text)
        assert str(caught.value) == message

    def test_whitespace_and_dtype(self):
        u = parse_matrix(" 2  3 \n 0\t1 1 \n\n1 0  0\n")
        assert u.array.tolist() == [[0, 1, 1], [1, 0, 0]]
        assert u.array.dtype == np.uint8


def _random_mix(rng: random.Random, k: int, side: str) -> MixedStrategy:
    weights = [rng.randint(0, 6) for _ in range(k)]
    if sum(weights) == 0:
        weights[rng.randrange(k)] = 1
    return MixedStrategy(weights, sum(weights), side)
