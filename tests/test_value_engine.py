import random
from fractions import Fraction
from itertools import combinations
from operator import itemgetter

import numpy as np
import pytest

from ifgames import value_engine
from ifgames.errors import SizeLimitError
from ifgames.linalg import solve_linear_system
from ifgames.matrix_game import GameMatrix, MixedStrategy, reduce, tallies
from ifgames.value_engine import (
    _GREEDY_RESTARTS,
    METHOD_BALANCED,
    METHOD_BALANCED_SUBMATRIX,
    METHOD_LP,
    METHOD_SUPPORT_ENUMERATION,
    METHOD_TRIVIAL_LOSS,
    METHOD_TRIVIAL_WIN,
    _certified,
    _local_optima,
    balanced_submatrix_certificate,
    balanced_value,
    detect_trivial,
    solve_by_support_enumeration,
    solve_game,
    solve_value,
    submatrix_lower_bound,
    verify_equilibrium,
)

from conftest import (
    M4_LOSS,
    M4_MIXED,
    M4_WIN,
    M5X6_A,
    M5X6_B,
    circulant_matrix,
    identity_matrix,
    random_matrix,
)


class TestSolveValue:
    def test_losing_4x4(self):
        assert solve_value(M4_LOSS).value == 0

    def test_winning_4x4(self):
        assert solve_value(M4_WIN).value == 1

    def test_mixed_4x4_with_unique_optimum(self):
        report = solve_value(M4_MIXED)
        assert report.value == Fraction(2, 5)
        assert report.eloise.probs == (
            Fraction(2, 5),
            Fraction(1, 5),
            Fraction(1, 5),
            Fraction(1, 5),
        )

    def test_worked_5x6_variants(self):
        assert solve_value(M5X6_B).value == Fraction(3, 7)
        assert solve_value(M5X6_A).value == Fraction(1, 3)

    def test_identity_one_over_n(self):
        for n in range(1, 7):
            assert solve_value(identity_matrix(n)).value == Fraction(1, n)

    def test_reports_carry_method_and_verify(self):
        report = solve_value(M5X6_B)
        assert report.method == METHOD_LP
        assert verify_equilibrium(M5X6_B, report.eloise, report.abelard)


class TestSupportEnumerationOracle:
    def test_mixed_4x4(self):
        assert solve_by_support_enumeration(M4_MIXED).value == Fraction(2, 5)

    def test_single_winning_cell(self):
        report = solve_by_support_enumeration(GameMatrix([[1]]))
        assert report.value == 1
        assert report.method == METHOD_SUPPORT_ENUMERATION

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            solve_by_support_enumeration(identity_matrix(8))

    def test_matches_lp_on_random_corpus(self, rng):
        for _ in range(60):
            u = random_matrix(rng, 6, 6)
            assert solve_value(u).value == solve_by_support_enumeration(u).value


def _uniform_bounds(u: GameMatrix) -> tuple[Fraction, Fraction]:
    """(floor, ceil): what the uniform strategies guarantee each player."""
    t = tallies(u)
    return t.floor, t.ceil


class TestUniformBounds:
    def test_worked_5x6(self):
        assert _uniform_bounds(M5X6_A) == (Fraction(1, 5), Fraction(1, 2))

    def test_identity(self):
        assert _uniform_bounds(identity_matrix(4)) == (Fraction(1, 4), Fraction(1, 4))

    def test_all_ones(self):
        assert _uniform_bounds(GameMatrix([[1, 1, 1], [1, 1, 1]])) == (1, 1)

    def test_sandwich_on_random_corpus(self, rng):
        for _ in range(100):
            u = random_matrix(rng, 8, 8)
            floor, ceil = _uniform_bounds(u)
            assert floor <= solve_value(u).value <= ceil


class TestBalancedValue:
    def test_identity(self):
        for n in (1, 3, 5):
            report = balanced_value(identity_matrix(n))
            assert report is not None
            assert report.value == Fraction(1, n)
            assert report.method == METHOD_BALANCED
            assert report.eloise.probs == tuple(Fraction(1, n) for _ in range(n))

    def test_unbalanced_absent(self):
        assert balanced_value(M5X6_A) is None

    def test_all_ones(self):
        report = balanced_value(GameMatrix([[1, 1], [1, 1]]))
        assert report is not None and report.value == 1

    def test_circulant_corpus_matches_lp(self, rng):
        for _ in range(40):
            u = circulant_matrix(rng, 8)
            report = balanced_value(u)
            assert report is not None
            assert report.value == solve_value(u).value
            assert verify_equilibrium(u, report.eloise, report.abelard)


class TestSubmatrixLowerBound:
    def test_winning_row_found(self):
        bound, rows = submatrix_lower_bound(M4_WIN)
        assert bound == 1 and rows == frozenset({3})

    def test_identity_needs_all_rows(self):
        bound, rows = submatrix_lower_bound(identity_matrix(3))
        assert bound == Fraction(1, 3) and rows == frozenset({0, 1, 2})

    def test_zero_row(self):
        assert submatrix_lower_bound(GameMatrix([[0, 0]]))[0] == 0

    def test_exhaustive_size_cap(self):
        # Past 15 rows the bound comes from the local search.
        big = GameMatrix([[1] * 2 for _ in range(16)])
        bound, _ = submatrix_lower_bound(big)
        assert bound == 1

    def test_bounds_value_on_random_corpus(self, rng):
        for _ in range(60):
            u = random_matrix(rng, 10, 8)
            value = solve_value(u).value
            bound, _ = submatrix_lower_bound(u)
            assert bound <= value
            greedy = _local_optima(range(u.m), lambda subset: _reference_floor(u, subset))
            greedy_bound, _ = max(greedy, key=itemgetter(0))
            assert greedy_bound <= bound


class TestBalancedSubmatrixCertificate:
    def test_balanced_game_uses_all_rows(self):
        report = balanced_submatrix_certificate(identity_matrix(3))
        assert report is not None
        assert report.value == Fraction(1, 3)
        assert report.method == METHOD_BALANCED_SUBMATRIX
        assert report.eloise.probs == (Fraction(1, 3),) * 3

    def test_duplicated_identity_row(self):
        u = GameMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]])
        report = balanced_submatrix_certificate(u)
        assert report is not None
        assert report.value == Fraction(1, 3)
        assert verify_equilibrium(u, report.eloise, report.abelard)

    def test_worked_5x6_never_unverified(self):
        for u in (M5X6_A, M5X6_B):
            report = balanced_submatrix_certificate(u)
            if report is not None:
                assert verify_equilibrium(u, report.eloise, report.abelard)
                assert report.value == solve_value(u).value

    def test_sound_on_random_corpus(self, rng):
        hits = 0
        for _ in range(80):
            u = random_matrix(rng, 7, 7)
            report = balanced_submatrix_certificate(u)
            if report is not None:
                hits += 1
                assert report.value == solve_value(u).value
        assert hits > 0

    def test_greedy_search_above_the_exhaustive_cap(self):
        u = GameMatrix([[1, 1, 1]] * 17)  # 17 candidate rows forces the greedy path
        report = balanced_submatrix_certificate(u)
        assert report is not None and report.value == 1

    def test_greedy_may_come_up_empty_but_never_lies(self):
        report = balanced_submatrix_certificate(identity_matrix(17))
        if report is not None:
            assert report.value == Fraction(1, 17)


class TestLocalSearchAgainstReference:
    """The shared local search gives what the two searches it replaced gave."""

    def test_greedy_lower_bound(self, rng):
        for _ in range(12):
            u = random_matrix_with_rows(rng, rng.randint(16, 20), rng.randint(3, 8))
            assert submatrix_lower_bound(u) == _reference_greedy_search(
                u, lambda subset: _reference_floor(u, subset)
            )

    def test_certificate_on_many_max_sum_rows(self, rng):
        games = [identity_matrix(17), GameMatrix([[1, 1, 0]] * 17)]
        for _ in range(24):
            m, n = rng.randint(16, 20), rng.randint(3, 6)
            k = rng.randint(1, n - 1)
            # Most rows share the maximum sum k, so more than 15 candidates
            # send the certificate down its local-search branch.
            rows = [rng.sample(range(n), k) for _ in range(m)]
            rows = [row if rng.random() < 0.95 else row[:-1] for row in rows]
            games.append(GameMatrix([[1 if j in row else 0 for j in range(n)] for row in rows]))
        greedy_runs = hits = 0
        for u in games:
            greedy_runs += u.row_sums().count(max(u.row_sums())) > 15
            report = balanced_submatrix_certificate(u)
            assert report == _reference_certificate(u)
            hits += report is not None
        assert greedy_runs >= 12 and 3 <= hits < len(games)


def random_matrix_with_rows(rng, m, n):
    p = rng.uniform(0.2, 0.8)
    return GameMatrix([[1 if rng.random() < p else 0 for _ in range(n)] for _ in range(m)])


def _reference_floor(u, subset):
    cols = u.array[list(subset), :].sum(axis=0, dtype=int)
    return Fraction(int(cols.min()), len(subset))


def _reference_spread(u, subset):
    cols = u.array[list(subset), :].sum(axis=0, dtype=int)
    return int(cols.max() - cols.min())


def _reference_greedy_search(u, score):
    """The row-submatrix local search as it stood on its own."""
    rng = random.Random(0)
    best = None
    for _ in range(_GREEDY_RESTARTS):
        current = frozenset(i for i in range(u.m) if rng.random() < 0.5) or frozenset({rng.randrange(u.m)})
        current_score = score(current)
        improved = True
        while improved:
            improved = False
            for i in range(u.m):
                candidate = current - {i} if i in current else current | {i}
                if not candidate:
                    continue
                s = score(candidate)
                if s > current_score:
                    current, current_score = frozenset(candidate), s
                    improved = True
        if best is None or current_score > best[0]:
            best = (current_score, current)
    return best


def _reference_certificate(u):
    """The balanced-row-submatrix certificate with its own inline search."""
    rowmax = max(u.row_sums())
    candidates = [i for i, s in enumerate(u.row_sums()) if s == rowmax]
    nu = MixedStrategy.uniform(u.n, "column")
    value = Fraction(rowmax, u.n)

    def attempt(subset):
        if _reference_spread(u, subset) != 0:
            return None
        mu = MixedStrategy.uniform_on(subset, u.m, "row")
        if not verify_equilibrium(u, mu, nu):
            return None
        return _certified(u, value, mu, nu, METHOD_BALANCED_SUBMATRIX)

    if len(candidates) <= 15:
        for size in range(1, len(candidates) + 1):
            for subset in combinations(candidates, size):
                report = attempt(subset)
                if report is not None:
                    return report
        return None
    rng = random.Random(0)
    for _ in range(_GREEDY_RESTARTS):
        subset = frozenset(i for i in candidates if rng.random() < 0.5) or frozenset(
            {candidates[rng.randrange(len(candidates))]}
        )
        spread = _reference_spread(u, subset)
        improved = True
        while improved and spread > 0:
            improved = False
            for i in candidates:
                candidate = subset - {i} if i in subset else subset | {i}
                if not candidate:
                    continue
                s = _reference_spread(u, candidate)
                if s < spread:
                    subset, spread = frozenset(candidate), s
                    improved = True
        if spread == 0:
            report = attempt(sorted(subset))
            if report is not None:
                return report
    return None


class TestVerifyEquilibrium:
    def test_uniform_pair_on_identity(self):
        u = identity_matrix(2)
        assert verify_equilibrium(
            u, MixedStrategy.uniform(2, "row"), MixedStrategy.uniform(2, "column")
        )

    def test_point_mass_is_exploitable(self):
        u = identity_matrix(2)
        assert not verify_equilibrium(
            u, MixedStrategy.point_mass(2, 0, "row"), MixedStrategy.uniform(2, "column")
        )

    def test_single_winning_cell(self):
        u = GameMatrix([[1]])
        assert verify_equilibrium(
            u, MixedStrategy.point_mass(1, 0, "row"), MixedStrategy.point_mass(1, 0, "column")
        )

    @pytest.mark.parametrize(
        "nu",
        [MixedStrategy.uniform(2, "row"), MixedStrategy.uniform(3, "column")],
        ids=["wrong-side", "wrong-length"],
    )
    def test_rejects_a_mismatched_column_strategy(self, nu):
        with pytest.raises(ValueError):
            verify_equilibrium(identity_matrix(2), MixedStrategy.uniform(2, "row"), nu)


class TestCertified:
    """`_certified` refuses any pair whose security levels miss the claimed value."""

    def test_accepts_the_uniform_pair_on_identity(self):
        mu, nu = MixedStrategy.uniform(2, "row"), MixedStrategy.uniform(2, "column")
        report = _certified(identity_matrix(2), Fraction(1, 2), mu, nu, METHOD_LP)
        assert (report.value, report.eloise, report.abelard) == (Fraction(1, 2), mu, nu)

    @pytest.mark.parametrize(
        "mu, nu, value",
        [
            # mu guarantees 0 against column 1, less than the claimed 1/2
            (MixedStrategy.point_mass(2, 0, "row"), MixedStrategy.uniform(2, "column"), Fraction(1, 2)),
            # nu lets row 0 earn 1, above the claimed 1/2
            (MixedStrategy.uniform(2, "row"), MixedStrategy.point_mass(2, 0, "column"), Fraction(1, 2)),
            # an equilibrium pair, but the value 1/3 is wrong
            (MixedStrategy.uniform(2, "row"), MixedStrategy.uniform(2, "column"), Fraction(1, 3)),
        ],
        ids=["low-guarantee", "high-cap", "wrong-value"],
    )
    def test_refuses(self, mu, nu, value):
        with pytest.raises(RuntimeError, match="guarantee .* and cap .* must both equal"):
            _certified(identity_matrix(2), value, mu, nu, METHOD_LP)


class TestDetectTrivial:
    def test_all_zero_column_means_loss(self):
        report = detect_trivial(M4_LOSS)
        assert report is not None
        assert (report.value, report.method) == (0, METHOD_TRIVIAL_LOSS)

    def test_all_ones_row_means_win(self):
        report = detect_trivial(M4_WIN)
        assert report is not None
        assert (report.value, report.method) == (1, METHOD_TRIVIAL_WIN)

    def test_undetermined_absent(self):
        assert detect_trivial(identity_matrix(2)) is None

    def test_both_routes_return_certified_pure_pairs(self, rng):
        routes = set()
        for _ in range(60):
            u = random_matrix(rng, 6, 40)
            rows = u.array.tolist()
            if rng.random() < 0.5:
                rows[rng.randrange(u.m)] = [1] * u.n
            else:
                j = rng.randrange(u.n)
                for row in rows:
                    row[j] = 0
            u = GameMatrix(rows)
            report = detect_trivial(u)
            routes.add(report.method)
            assert len(report.eloise.support()) == len(report.abelard.support()) == 1
            assert _certified(u, report.value, report.eloise, report.abelard, report.method) == report
            assert _verify_reference(u, report.eloise, report.abelard)
        assert routes == {METHOD_TRIVIAL_WIN, METHOD_TRIVIAL_LOSS}


def _verify_reference(u: GameMatrix, mu: MixedStrategy, nu: MixedStrategy) -> bool:
    """The earlier `verify_equilibrium`, one Fraction per cell and per pure reply."""
    a = u.array.tolist()
    value = sum(p * q * a[i][j] for i, p in enumerate(mu.probs) for j, q in enumerate(nu.probs))
    cols = [sum(p * a[i][j] for i, p in enumerate(mu.probs)) for j in range(u.n)]
    rows = [sum(q * a[i][j] for j, q in enumerate(nu.probs)) for i in range(u.m)]
    return min(cols) >= value and max(rows) <= value


class TestSolveGame:
    def test_reduces_once(self, monkeypatch):
        """A 70x105 game that reduction shrinks to 40x100, still over the
        direct-solve limit, is reduced once and its reduced game solved as
        it stands."""
        rng = random.Random(7)
        base = [[rng.randint(0, 1) for _ in range(100)] for _ in range(40)]
        rows = base + [[x * (j != k) for j, x in enumerate(base[k % 40])] for k in range(30)]  # dominated
        u = GameMatrix([row + row[:5] for row in rows])  # five duplicate columns
        shapes = []

        def spy(game):
            reduced = reduce(game)
            shapes.append((game.m, game.n, reduced[0].m, reduced[0].n))
            return reduced

        monkeypatch.setattr(value_engine, "reduce", spy)
        report = solve_game(u)
        assert shapes == [(70, 105, 40, 100)]
        assert report.method == METHOD_LP
        assert verify_equilibrium(u, report.eloise, report.abelard)


class TestVerifyAgainstReference:
    def test_random_pairs(self, rng):
        verdicts = set()
        for _ in range(150):
            u = random_matrix(rng, 6, 60)
            for mu, nu in (
                (_random_mix(rng, u.m, "row"), _random_mix(rng, u.n, "column")),
                (MixedStrategy.uniform(u.m, "row"), MixedStrategy.uniform(u.n, "column")),
            ):
                verdict = verify_equilibrium(u, mu, nu)
                assert verdict == _verify_reference(u, mu, nu)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_solved_pairs_and_their_perturbations(self, rng):
        solved = 0
        while solved < 30:
            u = random_matrix(rng, 5, 150)
            if u.n <= 64 or detect_trivial(u) is not None:
                continue  # keep the games solve_game reduces and lifts back
            solved += 1
            report = solve_game(u)
            assert verify_equilibrium(u, report.eloise, report.abelard)
            assert _verify_reference(u, report.eloise, report.abelard)
            shifted = MixedStrategy.point_mass(u.n, rng.randrange(u.n), "column")
            assert verify_equilibrium(u, report.eloise, shifted) == _verify_reference(
                u, report.eloise, shifted
            )


def _random_mix(rng: random.Random, k: int, side: str) -> MixedStrategy:
    weights = [rng.randint(0, 6) for _ in range(k)]
    if sum(weights) == 0:
        weights[rng.randrange(k)] = 1
    return MixedStrategy(weights, sum(weights), side)


class TestDuality:
    def test_primal_equals_dual_on_worked_games(self):
        for u in (M4_LOSS, M4_WIN, M4_MIXED, M5X6_A, M5X6_B):
            # The opponent's own maximization problem is the game on the
            # complemented transpose; by minimax the two optima are complementary.
            assert solve_value(u).value + solve_value(GameMatrix(1 - u.array.T)).value == 1

    def test_corpus(self, rng):
        for _ in range(120):
            u = random_matrix(rng, 10, 12)
            report = solve_value(u)
            dual = solve_value(GameMatrix(1 - u.array.T))
            assert report.value + dual.value == 1
            floor, ceil = _uniform_bounds(u)
            assert floor <= report.value <= ceil
            assert verify_equilibrium(u, report.eloise, report.abelard)
            assert (report.value == 1) == (u.n in set(u.row_sums()))
            assert (report.value == 0) == (0 in u.col_sums())


class TestEqualitySystem:
    def test_worked_equalizing_system_is_infeasible(self):
        # Forcing every column of the worked 5x6 analysis to the same payoff v
        # (instead of at-least-v) together with total probability 1 admits no
        # solution, even before sign constraints.
        rows = [
            [1, 1, 0, 1, 0, -1],
            [0, 0, 1, 1, 0, -1],
            [0, 0, 1, 0, 1, -1],
            [0, 1, 1, 0, 0, -1],
            [0, 0, 0, 1, 1, -1],
            [1, 0, 0, 0, 1, -1],
            [1, 1, 1, 1, 1, 0],
        ]
        assert solve_linear_system(np.array(rows), np.array([0] * 6 + [1])) is None

    def test_solver_finds_unique_solutions(self):
        (nums, den), unique = solve_linear_system(np.array([[1, 1], [1, -1]]), np.array([3, 1]))
        assert den > 0 and unique
        assert [Fraction(q, den) for q in nums] == [2, 1]

    def test_underdetermined_flagged(self):
        solved = solve_linear_system(np.array([[1, 1]]), np.array([2]))
        assert solved is not None and solved[1] is False
