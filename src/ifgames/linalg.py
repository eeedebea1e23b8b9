"""Exact linear programming on integer numpy tables: a tableau simplex for the game program.

It takes an integer numpy array (any other dtype raises ValueError) and
returns numerators over one positive common denominator, the pair a
`MixedStrategy` stores.  Its pivot is integer-preserving (Edmonds/Bareiss), an
in-place numpy update of the whole table.  Every entry it leaves is a minor of
the starting table, so a Hadamard bound on those minors picks the dtype once:
int64 when no pivot product can reach 2^62, else `object` (exact Python ints).
The simplex solves the textbook game program of a payoff matrix u, maximize
sum y s.t. u.y <= 1, y >= 0, whose value is 1 / sum y, with the columns
sorted by ascending sum and the rows by descending sum.  Its tableau has a row
per row of u, so a tall u (more rows than columns) is solved as the complement
game top - u^T, the short side as its rows, once a zero column is ruled out.
It enters the largest reduced cost (Dantzig, ties to the smallest index);
after `_DEGENERATE_RUN` pivots in a row that leave sum y unchanged it enters
the smallest improving index (Bland) until sum y rises.  Bland cannot cycle
and sum y never falls, so it terminates, with an exact optimum and dual
certificate.  Its minors have order at most min(m, n) + 1, so 0/1 games of up
to 14 strategies on the smaller side run in int64.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

_DEGENERATE_RUN = 4


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


def security_level_lp(u: np.ndarray) -> tuple[Fraction, list[int], list[int], int]:
    """The value of the game with payoff matrix `u` and an optimal pair, by
    the textbook program: maximize sum y s.t. u.y <= 1, y >= 0.

    `u` is an m x n integer numpy array of nonnegative entries.  A zero column
    holds every row to 0, so such a game, of any shape, has value 0 and the
    point masses on row 0 and the first zero column, with no tableau and
    before the orientation is chosen.  Otherwise the value v is positive and
    the program bounded: v = 1 / sum y, Abelard's mix is y / sum y, and
    Eloise's is x / sum x for the duals x of the rows, the slack reduced
    costs, where sum x = sum y.  Columns enter in order of ascending sum and
    rows sit in order of descending sum (both stable).  Returns
    (v, mu_nums, nu_nums, den) with mu_i = mu_nums[i] / den and
    nu_j = nu_nums[j] / den in the caller's order.  The mixes share den > 0:
    d * sum y for the final tableau's denominator d, or 1 without a tableau.

    A tall u is then solved as top - u^T, for `top` its largest entry:
    Abelard maximizes top minus Eloise's payoff there, so its value is
    top - v, its row mix is Abelard's and its column mix Eloise's.  An
    all-`top` row of u is a zero column there.
    """
    if not (isinstance(u, np.ndarray) and u.dtype.kind in "biu"):
        raise ValueError("coefficients must be an integer numpy array")
    if u.ndim != 2 or 0 in u.shape or u.min() < 0:
        raise ValueError("this LP form requires a nonempty matrix of nonnegative entries")
    m, n = u.shape
    # Summed exactly: a 64-bit total of 64-bit entries could wrap to 0.
    col_sums = u.sum(axis=0, dtype=np.int64 if u.dtype.itemsize < 8 else object).tolist()
    if 0 in col_sums:
        mu, nu = [0] * m, [0] * n
        mu[0] = nu[col_sums.index(0)] = 1
        return Fraction(0), mu, nu, 1
    if m > n:
        top = int(u.max())
        value, nu, mu, den = security_level_lp(top - u.T)
        return top - value, mu, nu, den
    # Past the identity columns every minor of [u | I | 1; 1 | 0 | 0] has
    # order min(m, n) + 1 or less, and every entry is at most max(u).
    u = u.astype(_dtype(int(u.max()), min(m, n) + 1))
    row_sums = u.sum(axis=1).tolist()
    rows = sorted(range(m), key=row_sums.__getitem__, reverse=True)
    cols = sorted(range(n), key=col_sums.__getitem__)
    # Variable order (also the Bland order): y_0..y_{n-1}, s_0..s_{m-1}.  The
    # slacks form a feasible starting basis with determinant 1, so the common
    # denominator starts at 1.  Row m holds the reduced costs of sum y.
    nvars = n + m
    tableau = np.zeros((m + 1, nvars + 1), dtype=u.dtype)
    tableau[:m, :n] = u.take(rows, 0).take(cols, 1)
    np.fill_diagonal(tableau[:m, n:nvars], 1)
    tableau[:m, nvars] = tableau[m, :n] = 1
    basis = list(range(n, nvars))
    d, degenerate = 1, 0  # degenerate: pivots in a row that left sum y unchanged
    while True:
        costs = tableau[m, :nvars].tolist()
        best = max(costs)
        if best <= 0:
            break
        dantzig = degenerate < _DEGENERATE_RUN
        entering = costs.index(best) if dantzig else next(j for j, x in enumerate(costs) if x > 0)
        # The ratios rhs/coef do not depend on d; compare them by
        # cross-multiplying (coef > 0); ties go to the smaller basis index.
        column, values = tableau[:m, entering].tolist(), tableau[:m, nvars].tolist()
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

    # Basic values share the denominator d and nonbasic ones are 0; the
    # objective's right-hand side is -d * sum y, and the slack reduced costs
    # are -d * x, so both mixes share the denominator d * sum y.
    total = -int(tableau[m, nvars])
    mu, nu = [0] * m, [0] * n
    for i, x, b, y in zip(rows, (-tableau[m, n:nvars]).tolist(), basis, tableau[:m, nvars].tolist()):
        mu[i] = x
        if b < n:
            nu[cols[b]] = y
    return Fraction(d, total), mu, nu, total
