"""Differential tests: the integer-preserving simplex in `ifgames.linalg`
against the plain `Fraction` tableau simplex kept here, and the LP value
against the support-enumeration oracle of `reference`.  The simplex returns
numerators over a positive common denominator; the comparisons read them
back as `Fraction`s."""

import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given

from ifgames import linalg
from ifgames.linalg import security_level_lp
from ifgames.matrix_game import GameMatrix, MixedStrategy, security_levels
from ifgames.value_engine import solve_value
from conftest import M4_MIXED, M5X6_B, perfbench_workloads
from reference import solve_by_support_enumeration
from test_properties import FIXED, games


def reference_lp(matrix, degenerate_run=0):
    """The textbook game program, maximize sum y s.t. u.y <= 1, y >= 0, by a
    tableau simplex with one `Fraction` per cell, with the same zero-column
    answer, order, starting basis and pivot rule: columns by ascending sum,
    rows by descending sum, then Dantzig until `degenerate_run` pivots in a
    row leave sum y unchanged, and Bland until one raises it.  The default,
    0, is pure Bland.  v = 1 / sum y, nu = y / sum y and mu = x / sum x for
    the duals x read off the slack reduced costs.  A tall game without a
    zero column is solved as top - u^T, whose value is top - v and whose row
    and column mixes are Abelard's and Eloise's."""
    m, n = len(matrix), len(matrix[0])
    col_sums = [sum(col) for col in zip(*matrix)]
    if 0 in col_sums:
        mu, nu = [Fraction(0)] * m, [Fraction(0)] * n
        mu[0] = nu[col_sums.index(0)] = Fraction(1)
        return Fraction(0), mu, nu
    if m > n:
        top = max(map(max, matrix))
        value, nu, mu = reference_lp([[top - x for x in col] for col in zip(*matrix)], degenerate_run)
        return top - value, mu, nu
    rows = sorted(range(m), key=lambda i: -sum(matrix[i]))
    cols = sorted(range(n), key=lambda j: col_sums[j])
    nvars = n + m
    tableau = []
    for r, i in enumerate(rows):
        row = [Fraction(matrix[i][j]) for j in cols] + [Fraction(0)] * m + [Fraction(1)]
        row[n + r] = Fraction(1)
        tableau.append(row)
    basis = list(range(n, nvars))
    reduced = [Fraction(1)] * n + [Fraction(0)] * (m + 1)
    run = 0
    while True:
        improving = [j for j in range(nvars) if reduced[j] > 0]
        if not improving:
            break
        if run < degenerate_run:
            entering = max(improving, key=lambda j: (reduced[j], -j))
        else:
            entering = improving[0]
        pivot_row, best = None, None
        for r, row in enumerate(tableau):
            if row[entering] > 0:
                ratio = row[nvars] / row[entering]
                if best is None or ratio < best or (ratio == best and basis[r] < basis[pivot_row]):
                    pivot_row, best = r, ratio
        run = run + 1 if best == 0 else 0
        piv = tableau[pivot_row][entering]
        prow = tableau[pivot_row] = [x / piv for x in tableau[pivot_row]]
        for r, row in enumerate(tableau):
            if r != pivot_row and row[entering] != 0:
                f = row[entering]
                tableau[r] = [a - f * b for a, b in zip(row, prow)]
        f = reduced[entering]
        reduced = [a - f * b for a, b in zip(reduced, prow)]
        basis[pivot_row] = entering
    total = -reduced[nvars]  # sum y at the optimum, and sum x
    mu, nu = [Fraction(0)] * m, [Fraction(0)] * n
    for r, (i, b) in enumerate(zip(rows, basis)):
        mu[i] = -reduced[n + r] / total
        if b < n:
            nu[cols[b]] = tableau[r][nvars] / total
    return 1 / total, mu, nu


def random_games(rng, count, max_m, max_n):
    for _ in range(count):
        m, n = rng.randint(1, max_m), rng.randint(1, max_n)
        p = rng.uniform(0.2, 0.8)
        yield [[1 if rng.random() < p else 0 for _ in range(n)] for _ in range(m)]


def lp_cases():
    rng = random.Random(20260418)
    yield from random_games(rng, 200, 8, 8)
    yield from random_games(rng, 60, 16, 16)
    for k in range(1, 13):
        yield [[rng.randint(0, 1) for _ in range(k)]]  # 1 x n
        yield [[rng.randint(0, 1)] for _ in range(k)]  # m x 1
        yield [[1] * k for _ in range(k)]  # all equal
        yield [[0] * (k + 1) for _ in range(k)]  # all zero
    for game in random_games(rng, 30, 8, 8):
        yield game + game[:1] + game  # duplicate rows


def lp_as_fractions(matrix):
    value, mu_nums, nu_nums, den = security_level_lp(np.array(matrix, dtype=np.int64))
    assert den > 0
    return value, [Fraction(q, den) for q in mu_nums], [Fraction(x, den) for x in nu_nums]


def spy_pivots(monkeypatch):
    """Replace `linalg._pivot` by a spy; returns the list it fills, for every
    pivot, with the table's dtype and whether the entering column has the
    largest reduced cost (the first of equals).  A pivot elsewhere can only
    come from the Bland fallback."""
    seen = []
    pivot = linalg._pivot

    def spy(table, r, c, d):
        costs = table[-1, :-1].tolist()
        seen.append((table.dtype, c == costs.index(max(costs))))
        return pivot(table, r, c, d)

    monkeypatch.setattr(linalg, "_pivot", spy)
    return seen


class TestSecurityLevelLP:
    def test_matches_fraction_reference(self, monkeypatch):
        # With no Dantzig pivots the rule is pure Bland, the reference's default.
        monkeypatch.setattr(linalg, "_DEGENERATE_RUN", 0)
        cases = list(lp_cases())
        assert len(cases) >= 300
        for matrix in cases:
            assert lp_as_fractions(matrix) == reference_lp(matrix), matrix

    def test_default_rule_matches_fraction_reference(self):
        for matrix in lp_cases():
            assert lp_as_fractions(matrix) == reference_lp(matrix, linalg._DEGENERATE_RUN), matrix

    def test_value_matches_support_enumeration(self):
        for matrix in random_games(random.Random(7), 80, 6, 6):
            u = GameMatrix(matrix)
            value = security_level_lp(u.array)[0]
            assert value == solve_by_support_enumeration(u).value, matrix

    def test_shares_no_pivot_with_the_lp(self, monkeypatch):
        # The oracle solves its systems by `Fraction` Gauss-Jordan, so a fault
        # in the simplex's integer pivot cannot reach both sides of a check.
        rng = random.Random(2023)
        games = [M4_MIXED, M5X6_B]
        games += [GameMatrix([[rng.randint(0, 1) for _ in range(6)] for _ in range(6)]) for _ in range(50)]
        values = [solve_value(u).value for u in games]
        seen = spy_pivots(monkeypatch)
        for u, value in zip(games, values):
            assert solve_by_support_enumeration(u).value == value, u.array.tolist()
        assert seen == []
        solve_value(M4_MIXED)  # the spy sees the LP's pivots
        assert seen

    def test_column_sums_do_not_wrap(self):
        # Column 0 sums to 2^64, which an int64 total reads as a zero column.
        big = 2**63 - 1
        matrix = [[big, 1, 1], [big, 1, 1], [2, 1, 1]]
        assert lp_as_fractions(matrix) == reference_lp(matrix, linalg._DEGENERATE_RUN)
        assert lp_as_fractions(matrix)[0] == 1

    @pytest.mark.parametrize("top", [1, 7, 2**40])
    def test_zero_column_has_value_zero(self, top):
        rng = random.Random(top)
        for _ in range(60):
            m, n = rng.randint(1, 9), rng.randint(1, 9)
            matrix = [[rng.randint(0, top) for _ in range(n)] for _ in range(m)]
            for j in rng.sample(range(n), rng.randint(1, n)):
                for row in matrix:
                    row[j] = 0
            value, mu_nums, nu_nums, den = security_level_lp(np.array(matrix, dtype=np.int64))
            mu, nu = MixedStrategy(mu_nums, den, "row"), MixedStrategy(nu_nums, den, "column")
            # `GameMatrix` holds 0/1 entries only; `security_levels` reads the array.
            u = GameMatrix(matrix) if top == 1 else SimpleNamespace(array=np.array(matrix), m=m, n=n)
            assert value == 0 and security_levels(u, mu, nu) == (0, 0), matrix

    def test_lp_dense_mean_pivots(self, monkeypatch):
        # The benchmark's 180 dense 12 x 12 games take 5.1 pivots on average.
        games = [op.expect["matrix"] for op in perfbench_workloads().lp_dense(2024).ops]
        assert len(games) == 180
        seen = spy_pivots(monkeypatch)
        for matrix in games:
            security_level_lp(GameMatrix(matrix).array)
        assert len(seen) / len(games) <= 6

    def test_tall_game_pivots_on_its_short_side(self, monkeypatch):
        # A 200 x 20 game is solved as top - u^T, in a tableau of 20 + 1 rows.
        rng = random.Random(2020)
        u = GameMatrix([[int(rng.random() < 0.5) for _ in range(20)] for _ in range(200)])
        heights = []
        pivot = linalg._pivot
        monkeypatch.setattr(linalg, "_pivot", lambda table, *args: heights.append(len(table)) or pivot(table, *args))
        value, mu_nums, nu_nums, den = security_level_lp(u.array)
        assert heights and set(heights) == {21}
        mu, nu = MixedStrategy(mu_nums, den, "row"), MixedStrategy(nu_nums, den, "column")
        assert security_levels(u, mu, nu) == (value, value)

    @pytest.mark.parametrize("bad", [Fraction(1, 2), 0.5, 2.25])
    def test_non_integral_payoff_raises(self, bad):
        # A non-integral entry makes an object or float array, not an integer one.
        with pytest.raises(ValueError):
            security_level_lp(np.array([[1, 0], [0, bad]]))

    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros((0, 0), dtype=np.int64),
            np.zeros((1, 0), dtype=np.int64),
            np.array([[1, -1]]),
            np.array([[1, 0], [1]], dtype=object),  # ragged rows
        ],
    )
    def test_malformed_matrices_raise(self, bad):
        with pytest.raises(ValueError):
            security_level_lp(bad)


def degenerate_games():
    """Games whose LPs pivot degenerately: every row twice, every column
    twice, and two all-ones columns appended, on random games of 12 to 16
    strategies a side, where runs of degenerate pivots are long enough to
    reach the Bland fallback; and each with a zero column appended, which
    `security_level_lp` answers without a tableau."""
    rng = random.Random(20261018)
    for _ in range(12):
        k, p = rng.randint(12, 16), rng.uniform(0.3, 0.7)
        game = [[int(rng.random() < p) for _ in range(k)] for _ in range(k)]
        yield game + game
        yield [row + row for row in game]
        yield [row + [1, 1] for row in game]
        yield [row + [0] for row in game]


class TestDegenerateCorpus:
    def test_matches_fraction_reference(self, monkeypatch):
        seen = spy_pivots(monkeypatch)
        for matrix in degenerate_games():
            assert lp_as_fractions(matrix) == reference_lp(matrix, linalg._DEGENERATE_RUN), matrix
        # Some game ran _DEGENERATE_RUN degenerate pivots and entered by Bland.
        assert sum(not dantzig for _, dantzig in seen) > 0

    @FIXED
    @given(games(max_side=9))
    def test_hypothesis_games_match_fraction_reference(self, u):
        matrix = u.array.tolist()
        assert lp_as_fractions(matrix) == reference_lp(matrix, linalg._DEGENERATE_RUN)
        assert security_level_lp(u.array) == security_level_lp(u.array.astype(np.int64))

    @pytest.mark.parametrize("k, dtype", [(14, np.int64), (15, object)])
    def test_int64_guard_boundary(self, monkeypatch, k, dtype):
        # 0/1 games: every minor of the tableau has order min(m, n) + 1 or less.
        seen = spy_pivots(monkeypatch)
        rng = random.Random(k)
        for m, n in ((k, k), (k, k + 4), (k + 4, k)):
            for p in (0.3, 0.5, 0.7):
                matrix = [[int(rng.random() < p) for _ in range(n)] for _ in range(m)]
                assert lp_as_fractions(matrix) == reference_lp(matrix, linalg._DEGENERATE_RUN), matrix
        assert {dt for dt, _ in seen} == {np.dtype(dtype)}
