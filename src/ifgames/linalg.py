"""Exact linear algebra on integer numpy tables: Gauss-Jordan elimination and a tableau simplex.

Both take integer coefficients (integral `Fraction`s and floats pass) and
return numerators over one positive common denominator, the pair a
`MixedStrategy` stores.  They share one integer-preserving (Edmonds/Bareiss)
pivot, an in-place numpy update of the whole table.  Every entry it leaves is
a minor of the starting table, so a Hadamard bound on those minors picks the
dtype once: int64 when no pivot product can reach 2^62, else `object` (exact
Python ints).  The simplex, for the security-level program of a payoff
matrix, enters the largest reduced cost (Dantzig, ties to the smallest index);
after `_DEGENERATE_RUN` pivots in a row that leave v unchanged it enters the
smallest improving index (Bland) until v rises.  Bland cannot cycle and v never
falls, so it terminates, with an exact optimum and dual certificate.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

_DEGENERATE_RUN = 4


def _integer_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """`rows` as lists of ints; ragged rows or a non-integral entry raise ValueError."""
    if len({len(row) for row in rows}) > 1:
        raise ValueError("ragged coefficient matrix")
    ints = [[int(x) for x in row] for row in rows]
    if ints != [list(row) for row in rows]:
        raise ValueError("coefficients must be integers")
    return ints


def _dtype(top: int, order: int):
    """int64 when every minor of order <= `order` of a table whose entries are
    at most `top` in absolute value (Hadamard: |minor| <= top^k * k^(k/2))
    keeps 2 * minor^2 below 2^62, so no pivot can overflow; object otherwise."""
    return np.int64 if 2 * top ** (2 * order) * order**order < 2**62 else object


def _pivot(table: np.ndarray, r: int, c: int, d: int) -> int:
    """Pivot on p = table[r, c] under common denominator d, in place: row r
    stays, every other row becomes (p * row - row[c] * table[r]) // d, an
    exact division, and p, returned, is the new common denominator."""
    prow = table[r].copy()
    p = prow[c]
    cross = table[:, c, None] * prow
    table *= p
    table -= cross
    table //= d
    table[r] = prow
    return int(p)


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
    ints = _integer_rows([[*row, b] for row, b in zip(rows, rhs)])
    aug = np.array(ints, dtype=_dtype(max(abs(x) for row in ints for x in row), min(len(ints), len(ints[0]))))
    ncols = aug.shape[1] - 1

    d = 1
    pivots: dict[int, int] = {}  # row -> its pivot column
    for c in range(ncols):
        column = aug[:, c].tolist()
        r = next((i for i, x in enumerate(column) if x != 0 and i not in pivots), None)
        if r is not None:
            d = _pivot(aug, r, c, d)
            pivots[r] = c
    last = aug[:, ncols].tolist()
    if any(x != 0 for i, x in enumerate(last) if i not in pivots):
        return None
    # Every pivot row ends with the final d on its pivot column; a negative d
    # flips the signs of all numerators with it.
    sign = 1 if d > 0 else -1
    nums = [0] * ncols
    for r, c in pivots.items():
        nums[c] = sign * last[r]
    return (nums, sign * d), len(pivots) == ncols


def security_level_lp(
    matrix: Sequence[Sequence[int]] | np.ndarray,
) -> tuple[Fraction, tuple[list[int], int], tuple[list[int], int]]:
    """Exact optimum of: maximize v s.t. mu.col(j) >= v for all j, sum mu = 1, mu >= 0.

    `matrix` is the m x n payoff matrix, an integer numpy array or rows in
    which a non-integral entry raises ValueError.  Its entries must be
    nonnegative, which makes the optimal v nonnegative, so v needs no sign
    split.  Returns (v, (mu_nums, d), (nu_raw, total)): mu_i = mu_nums[i] / d
    attains the maximum, and nu_j = nu_raw[j] / total, the dual vector read off
    the optimal tableau, is a column mixture with max_i row(i).nu == v; d > 0
    and total > 0.
    """
    u = matrix
    if not (isinstance(u, np.ndarray) and u.dtype.kind in "biu"):
        u = np.array(_integer_rows(matrix), dtype=object)
    if u.ndim != 2 or 0 in u.shape or (u < 0).any():
        raise ValueError("this LP form requires a nonempty matrix of nonnegative entries")
    m, n = u.shape
    # Variable order (also the Bland order): mu_0..mu_{m-1}, v, s_0..s_{n-1}.
    v_idx, nvars, reduced = m, m + 1 + n, n + 1

    # Row j encodes -mu.col(j) + v + s_j = 0; row n encodes sum mu = 1.
    # Pivoting mu_0 into the sum row and adding u[0][j] times it to row j
    # yields a feasible starting basis {s_0..s_{n-1}, mu_0} with determinant
    # 1, so the common denominator starts at 1.  The last row holds the
    # reduced costs for maximizing v; all initial basic variables cost 0.
    # Every entry is at most max(u) in absolute value, and past the identity
    # columns every minor is one of the (n + 2) x (m + 2) block.
    u = u.astype(_dtype(max(int(u.max()), 1), min(m, n) + 2))
    tableau = np.zeros((n + 2, nvars + 1), dtype=u.dtype)
    tableau[:n, :m] = u[0, :, None] - u.T
    tableau[:n, nvars] = u[0]
    np.fill_diagonal(tableau[:n, v_idx + 1 : nvars], 1)
    tableau[:n, v_idx] = tableau[n, :m] = tableau[n, nvars] = tableau[reduced, v_idx] = 1
    basis = [v_idx + 1 + j for j in range(n)] + [0]
    d, degenerate = 1, 0  # degenerate: pivots in a row that left v unchanged
    while True:
        costs = tableau[reduced, :nvars].tolist()
        best = max(costs)
        if best <= 0:
            break
        dantzig = degenerate < _DEGENERATE_RUN
        entering = costs.index(best) if dantzig else next(j for j, x in enumerate(costs) if x > 0)
        # The ratios rhs/coef do not depend on d; compare them by
        # cross-multiplying (coef > 0); ties go to the smaller basis index.
        column, values = tableau[:reduced, entering].tolist(), tableau[:reduced, nvars].tolist()
        pivot_row = None
        for r, coef in enumerate(column):
            if coef > 0:
                if pivot_row is not None:
                    lhs, rhs = values[r] * column[pivot_row], values[pivot_row] * coef
                    if lhs > rhs or (lhs == rhs and basis[r] > basis[pivot_row]):
                        continue
                pivot_row = r
        if pivot_row is None:
            raise RuntimeError("security-level LP cannot be unbounded")
        degenerate = degenerate + 1 if values[pivot_row] == 0 else 0
        # Every pivot is positive, so d stays positive.
        d = _pivot(tableau, pivot_row, entering, d)
        basis[pivot_row] = entering

    # Basic values share the denominator d; nonbasic ones are 0.
    basic = dict(zip(basis, tableau[:reduced, nvars].tolist()))
    # Duals of the column constraints sit in the slack reduced costs; they
    # form an unnormalized column mixture whose normalization caps the value.
    raw = (-tableau[reduced, v_idx + 1 : nvars]).tolist()
    total = sum(raw)
    if total <= 0:
        raise RuntimeError("optimal tableau yielded no dual mixture")
    return Fraction(basic.get(v_idx, 0), d), ([basic.get(i, 0) for i in range(m)], d), (raw, total)
