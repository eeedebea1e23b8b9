import random
from fractions import Fraction

import pytest

from ifgames import value_engine
from ifgames.errors import SizeLimitError
from ifgames.matrix_game import GameMatrix, MixedStrategy, reduce, tallies
from ifgames.value_engine import (
    METHOD_BALANCED,
    METHOD_LP,
    METHOD_TRIVIAL_LOSS,
    METHOD_TRIVIAL_WIN,
    _certified,
    balanced_value,
    detect_trivial,
    solve_game,
    solve_value,
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
from reference import METHOD_SUPPORT_ENUMERATION, reference_linear_system, solve_by_support_enumeration


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
        assert reference_linear_system(rows, [0] * 6 + [1]) is None
