"""Exact linear algebra on Python ints: Gauss-Jordan elimination and a tableau simplex.

Both entry points take integer coefficients (integral `Fraction`s and floats
pass) and return integers: numerators over one positive common denominator,
the pair a `MixedStrategy` stores.  They share one integer-preserving
(Edmonds/Bareiss) pivot, so no `Fraction` is built per cell or per variable.
The simplex is specialized to the security-level program of a nonnegative
integer payoff matrix: maximize v subject to mu . col(j) >= v for every
column, the mu_i forming a probability vector.  The smallest-index (Bland)
pivot rule makes it terminate, and both the optimum and the dual certificate
come out exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def _integer_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """`rows` as lists of ints; ragged rows or a non-integral entry raise ValueError."""
    if len({len(row) for row in rows}) > 1:
        raise ValueError("ragged coefficient matrix")
    ints = [[int(x) for x in row] for row in rows]
    if ints != [list(row) for row in rows]:
        raise ValueError("coefficients must be integers")
    return ints


def _pivot(table: list[list[int]], r: int, c: int, d: int) -> int:
    """Pivot on p = table[r][c] under common denominator d: row r stays, every
    other row becomes (p * row - row[c] * table[r]) // d, an exact division,
    and p, returned, is the new common denominator."""
    prow = table[r]
    p = prow[c]
    for i, row in enumerate(table):
        if i == r:
            continue
        f = row[c]
        if f:
            table[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
        else:
            table[i] = [p * a // d for a in row]
    return p


def solve_linear_system(
    rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> tuple[tuple[list[int], int], bool] | None:
    """Solve rows . x = rhs exactly.

    Returns None when the system is inconsistent; otherwise ((nums, den),
    unique) with x[c] = nums[c] / den and den > 0, where free variables, if
    any, are set to 0 and `unique` says whether the solution is the only one.
    """
    if len(rows) != len(rhs):
        raise ValueError("matrix and right-hand side sizes differ")
    if not rows:
        return ([], 1), True
    aug = _integer_rows([[*row, b] for row, b in zip(rows, rhs)])
    ncols = len(aug[0]) - 1

    d = 1
    pivots: list[tuple[int, int]] = []  # (row, column)
    open_rows = list(range(len(aug)))
    for c in range(ncols):
        r = next((i for i in open_rows if aug[i][c] != 0), None)
        if r is None:
            continue
        d = _pivot(aug, r, c, d)
        open_rows.remove(r)
        pivots.append((r, c))
        if not open_rows:
            break
    if any(aug[i][ncols] != 0 for i in open_rows):
        return None
    # Every pivot row ends with the final d on its pivot column; a negative d
    # flips the signs of all numerators with it.
    sign = 1 if d > 0 else -1
    nums = [0] * ncols
    for r, c in pivots:
        nums[c] = sign * aug[r][ncols]
    return (nums, sign * d), len(pivots) == ncols


def security_level_lp(
    matrix: Sequence[Sequence[int]],
) -> tuple[Fraction, tuple[list[int], int], tuple[list[int], int]]:
    """Exact optimum of: maximize v s.t. mu.col(j) >= v for all j, sum mu = 1, mu >= 0.

    `matrix` is the m x n payoff array with nonnegative integer entries
    (which makes the optimal v nonnegative, so v needs no sign split); a
    non-integral entry raises ValueError.  Returns (v, (mu_nums, d),
    (nu_raw, total)): mu_i = mu_nums[i] / d attains the maximum, and nu_j =
    nu_raw[j] / total is the dual vector read off the optimal tableau, a
    column mixture with max_i row(i).nu == v.  Both denominators are positive.
    """
    u = _integer_rows(matrix)
    m, n = len(u), len(u[0])
    if any(x < 0 for row in u for x in row):
        raise ValueError("this LP form requires nonnegative entries")

    # Variable order (also the Bland order): mu_0..mu_{m-1}, v, s_0..s_{n-1}.
    v_idx = m
    nvars = m + 1 + n

    # Row j encodes -mu.col(j) + v + s_j = 0; row n encodes sum mu = 1.
    # Pivoting mu_0 into the sum row and adding u[0][j] times it to row j
    # yields a feasible starting basis {s_0..s_{n-1}, mu_0} with determinant
    # 1, so the common denominator starts at 1.  The last row holds the
    # reduced costs for maximizing v; all initial basic variables cost 0.
    tableau: list[list[int]] = []
    for j in range(n):
        row = [u[0][j] - u[i][j] for i in range(m)] + [1] + [0] * n + [u[0][j]]
        row[v_idx + 1 + j] = 1
        tableau.append(row)
    tableau.append([1] * m + [0] * (n + 1) + [1])
    tableau.append([0] * m + [1] + [0] * (n + 1))
    reduced = n + 1
    basis = [v_idx + 1 + j for j in range(n)] + [0]
    d = 1

    while True:
        entering = next((j for j in range(nvars) if tableau[reduced][j] > 0), None)
        if entering is None:
            break
        # The ratios rhs/coef do not depend on d; compare them by
        # cross-multiplying (coef > 0); ties go to the smaller basis index.
        pivot_row = None
        for r in range(reduced):
            coef = tableau[r][entering]
            if coef > 0:
                if pivot_row is None:
                    pivot_row = r
                    continue
                lhs = tableau[r][nvars] * tableau[pivot_row][entering]
                rhs = tableau[pivot_row][nvars] * coef
                if lhs < rhs or (lhs == rhs and basis[r] < basis[pivot_row]):
                    pivot_row = r
        if pivot_row is None:
            raise RuntimeError("security-level LP cannot be unbounded")
        # Every pivot is positive, so d stays positive.
        d = _pivot(tableau, pivot_row, entering, d)
        basis[pivot_row] = entering

    # Basic values share the denominator d; nonbasic ones are 0.
    assignment = [0] * nvars
    for r, b in enumerate(basis):
        assignment[b] = tableau[r][nvars]

    # Duals of the column constraints sit in the slack reduced costs; they
    # form an unnormalized column mixture whose normalization caps the value.
    raw = [-tableau[reduced][v_idx + 1 + j] for j in range(n)]
    total = sum(raw)
    if total <= 0:
        raise RuntimeError("optimal tableau yielded no dual mixture")
    return Fraction(assignment[v_idx], d), (assignment[:m], d), (raw, total)
