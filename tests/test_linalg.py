"""Differential tests: the integer-preserving solvers in `ifgames.linalg`
against plain `Fraction` references kept here, and the LP value against the
support-enumeration oracle.  The solvers return numerators over a positive
common denominator; the comparisons read them back as `Fraction`s."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given

from ifgames import linalg
from ifgames.linalg import security_level_lp, solve_linear_system
from ifgames.matrix_game import GameMatrix
from ifgames.value_engine import solve_by_support_enumeration
from test_properties import FIXED, games


def reference_linear_system(rows, rhs):
    """Gauss-Jordan elimination with one `Fraction` per cell."""
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    if not aug:
        return [], True
    ncols = len(aug[0]) - 1
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        factor = aug[r][c]
        aug[r] = [x / factor for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(aug):
            break
    if any(aug[i][ncols] != 0 for i in range(r, len(aug))):
        return None
    solution = [Fraction(0)] * ncols
    for i, c in enumerate(pivot_cols):
        solution[c] = aug[i][ncols]
    return solution, len(pivot_cols) == ncols


def reference_lp(matrix, degenerate_run=0):
    """The security-level tableau simplex with one `Fraction` per cell, the
    same variable order, starting basis and pivot rule: Dantzig until
    `degenerate_run` pivots in a row leave v unchanged, then Bland until one
    raises it.  The default, 0, is pure Bland."""
    m, n = len(matrix), len(matrix[0])
    u = [[Fraction(x) for x in row] for row in matrix]
    v_idx, nvars = m, m + 1 + n
    tableau = []
    for j in range(n):
        row = [Fraction(0)] * (nvars + 1)
        for i in range(m):
            row[i] = u[0][j] - u[i][j]
        row[v_idx] = Fraction(1)
        row[v_idx + 1 + j] = Fraction(1)
        row[nvars] = u[0][j]
        tableau.append(row)
    tableau.append([Fraction(1)] * m + [Fraction(0)] * (n + 1) + [Fraction(1)])
    basis = [v_idx + 1 + j for j in range(n)] + [0]
    reduced = [Fraction(0)] * (nvars + 1)
    reduced[v_idx] = Fraction(1)
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
    assignment = [Fraction(0)] * nvars
    for r, b in enumerate(basis):
        assignment[b] = tableau[r][nvars]
    raw = [-reduced[v_idx + 1 + j] for j in range(n)]
    total = sum(raw)
    return assignment[v_idx], assignment[:m], [x / total for x in raw]


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
    value, (mu_nums, d), (nu_raw, total) = security_level_lp(np.array(matrix, dtype=np.int64))
    assert d > 0 and total > 0
    return value, [Fraction(q, d) for q in mu_nums], [Fraction(x, total) for x in nu_raw]


def spy_pivots(monkeypatch):
    """Replace `linalg._pivot` by a spy; returns the list it fills, for every
    pivot, with the table's dtype and, meaningful on LP tables only, whether
    the entering column has the largest reduced cost (the first of equals).
    An LP pivot elsewhere can only come from the Bland fallback."""
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
            value, _, _ = security_level_lp(u.array)
            assert value == solve_by_support_enumeration(u).value, matrix

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
    twice, and all-equal columns (all ones, all zeros) appended, on random
    games of 12 to 16 strategies a side, where runs of degenerate pivots are
    long enough to reach the Bland fallback."""
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

    @pytest.mark.parametrize("k, dtype", [(13, np.int64), (14, object)])
    def test_int64_guard_boundary(self, monkeypatch, k, dtype):
        # 0/1 games: every minor of the tableau has order min(m, n) + 2 or less.
        seen = spy_pivots(monkeypatch)
        rng = random.Random(k)
        for m, n in ((k, k), (k, k + 4), (k + 4, k)):
            for p in (0.3, 0.5, 0.7):
                matrix = [[int(rng.random() < p) for _ in range(n)] for _ in range(m)]
                assert lp_as_fractions(matrix) == reference_lp(matrix, linalg._DEGENERATE_RUN), matrix
        assert {dt for dt, _ in seen} == {np.dtype(dtype)}


def random_system(rng, m, n, entry):
    rows = [[entry() for _ in range(n)] for _ in range(m)]
    return rows, [entry() for _ in range(m)]


class TestLinearSystem:
    def _check(self, rows, rhs):
        solved = solve_linear_system(np.array(rows, dtype=np.int64), np.array(rhs, dtype=np.int64))
        if solved is not None:
            (nums, den), unique = solved
            assert den > 0
            solved = [Fraction(q, den) for q in nums], unique
        assert solved == reference_linear_system(rows, rhs), (rows, rhs)

    def test_square_and_rectangular(self):
        rng = random.Random(11)
        for _ in range(300):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            self._check(*random_system(rng, m, n, lambda: rng.randint(-3, 3)))

    def test_singular_systems(self):
        rng = random.Random(12)
        for _ in range(150):
            n = rng.randint(2, 7)
            rows, rhs = random_system(rng, n, n, lambda: rng.randint(0, 1))
            i, j = rng.sample(range(n), 2)
            k = rng.randint(-2, 2)
            rows[i] = [k * x for x in rows[j]]
            # Half consistent, half (usually) not.
            rhs[i] = k * rhs[j] if rng.random() < 0.5 else k * rhs[j] + 1
            self._check(rows, rhs)

    def test_underdetermined_systems(self):
        rng = random.Random(13)
        for _ in range(150):
            n = rng.randint(2, 8)
            m = rng.randint(1, n - 1)
            rows, rhs = random_system(rng, m, n, lambda: rng.randint(-2, 2))
            solved = solve_linear_system(np.array(rows), np.array(rhs))
            assert solved is None or solved[1] is False
            self._check(rows, rhs)

    def test_inconsistent_systems(self):
        rng = random.Random(14)
        for _ in range(100):
            n = rng.randint(1, 6)
            rows, rhs = random_system(rng, n, n, lambda: rng.randint(-2, 2))
            rows.append([sum(col) for col in zip(*rows)])
            rhs.append(sum(rhs) + 1)
            assert solve_linear_system(np.array(rows), np.array(rhs)) is None
            self._check(rows, rhs)

    def test_security_level_support_systems(self):
        # The equalizing systems support enumeration builds: 0/1 columns, a -1
        # value column and a probability row.
        rng = random.Random(16)
        for _ in range(200):
            k = rng.randint(1, 6)
            rows = [[rng.randint(0, 1) for _ in range(k)] + [-1] for _ in range(k)]
            rows.append([1] * k + [0])
            self._check(rows, [0] * k + [1])

    def test_int64_guard_boundary(self, monkeypatch):
        # Entries at the largest size the guard admits for a 3 x 3 augmented
        # matrix run in int64; one more runs on Python ints, and both match.
        seen = spy_pivots(monkeypatch)
        top = next(t for t in itertools.count(1) if linalg._dtype(t + 1, 3) is object)
        rng = random.Random(18)
        for size in (top, top + 1):
            for _ in range(40):
                rows, rhs = random_system(rng, 3, 2, lambda: rng.choice((-size, size, rng.randint(-size, size))))
                self._check(rows, rhs)
            assert seen and {dt for dt, _ in seen} == {np.dtype(np.int64 if size == top else object)}
            seen.clear()

    def test_large_entries_run_on_python_ints(self, monkeypatch):
        # Entries within int64 whose pivot products could pass 2^62.
        seen = spy_pivots(monkeypatch)
        rng = random.Random(19)
        for _ in range(100):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            self._check(*random_system(rng, m, n, lambda: rng.randint(-(2**40), 2**40)))
        assert {dt for dt, _ in seen} == {np.dtype(object)}

    def test_empty_and_ragged(self):
        no_rhs = np.zeros(0, dtype=np.int64)
        assert solve_linear_system(np.zeros((0, 0), dtype=np.int64), no_rhs) == (([], 1), True)
        assert solve_linear_system(np.zeros((0, 2), dtype=np.int64), no_rhs) == (([0, 0], 1), False)
        with pytest.raises(ValueError):  # ragged rows make an object array
            solve_linear_system(np.array([[1, 2], [1]], dtype=object), np.array([0, 0]))
        with pytest.raises(ValueError):
            solve_linear_system(np.array([[1]]), np.array([0, 0]))
        with pytest.raises(ValueError):
            solve_linear_system(np.array([[1, 0], [0, 1]]), np.array([1, 0.5]))
