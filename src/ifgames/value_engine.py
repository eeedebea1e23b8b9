"""Exact game values, equilibrium certificates, and every bound that implies them.

`solve_value` is the reference route: the security-level linear program over
exact rationals.  `solve_by_support_enumeration` is an independent oracle that
solves the equalizing linear system for every square support pair instead.
`solve_game` is the one solve policy: trivial detection, the balanced
shortcut, then, past 64 strategies on a side, reduce-and-lift (the shortcuts
or the LP on the `matrix_game.reduce`d game, lifted back), and else the LP.
The paper's row-submatrix lower bound and balanced-row-submatrix certificate
have no caller yet; the uniform bounds are `matrix_game.tallies`.  Every
report handed out is certified before it leaves this module: what Eloise's
strategy guarantees and what Abelard's caps both equal the reported value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from operator import itemgetter

import numpy as np

from .errors import SizeLimitError
from .linalg import security_level_lp, solve_linear_system
from .matrix_game import (
    GameMatrix,
    MixedStrategy,
    reduce,
    security_levels,
)

METHOD_LP = "lp"
METHOD_BALANCED = "balanced"
METHOD_BALANCED_SUBMATRIX = "balanced-submatrix"
METHOD_TRIVIAL_WIN = "trivial-win"
METHOD_TRIVIAL_LOSS = "trivial-loss"
METHOD_SUPPORT_ENUMERATION = "support-enumeration"

_GREEDY_RESTARTS = 100
_EXHAUSTIVE_ROW_LIMIT = 15
_SOLVE_DIRECTLY_LIMIT = 64
_SUPPORT_ENUMERATION_LIMIT = 7


@dataclass(frozen=True)
class ValueReport:
    """An exact value together with the equilibrium pair certifying it."""

    value: Fraction
    eloise: MixedStrategy
    abelard: MixedStrategy
    method: str


def _certified(u: GameMatrix, value: Fraction, mu: MixedStrategy, nu: MixedStrategy, method: str) -> ValueReport:
    """Build a report, refusing to emit one whose certificates do not check out."""
    guarantee, cap = security_levels(u, mu, nu)
    if (guarantee, cap) != (value, value):
        raise RuntimeError(f"{method}: guarantee {guarantee} and cap {cap} must both equal {value}")
    return ValueReport(value=value, eloise=mu, abelard=nu, method=method)


def verify_equilibrium(u: GameMatrix, mu: MixedStrategy, nu: MixedStrategy) -> bool:
    """True iff no pure deviation helps either player, that is iff what `mu`
    guarantees meets what `nu` caps: the expected utility lies between them,
    and a mixed reply is an average of pure ones."""
    guarantee, cap = security_levels(u, mu, nu)
    return guarantee == cap


def detect_trivial(u: GameMatrix) -> ValueReport | None:
    """Pure saddle points: an all-ones row wins against column 0 (value 1), an
    all-zeros column holds row 0 to nothing (value 0); absent otherwise."""
    row_sums = u.row_sums()
    for i, s in enumerate(row_sums):
        if s == u.n:
            mu = MixedStrategy.point_mass(u.m, i, "row")
            nu = MixedStrategy.point_mass(u.n, 0, "column")
            return _certified(u, Fraction(1), mu, nu, METHOD_TRIVIAL_WIN)
    col_sums = u.col_sums()
    for j, s in enumerate(col_sums):
        if s == 0:
            mu = MixedStrategy.point_mass(u.m, 0, "row")
            nu = MixedStrategy.point_mass(u.n, j, "column")
            return _certified(u, Fraction(0), mu, nu, METHOD_TRIVIAL_LOSS)
    return None


def balanced_value(u: GameMatrix) -> ValueReport | None:
    """For balanced games, whose rows share one sum and whose columns share
    one sum, the uniform pair is an equilibrium and floor = ceil."""
    if len(set(u.row_sums())) > 1 or len(set(u.col_sums())) > 1:
        return None
    value = Fraction(u.row_sums()[0], u.n)
    mu = MixedStrategy.uniform(u.m, "row")
    nu = MixedStrategy.uniform(u.n, "column")
    return _certified(u, value, mu, nu, METHOD_BALANCED)


def solve_value(u: GameMatrix) -> ValueReport:
    """The exact value by linear programming, with both optimal strategies
    built from the final tableau's integers."""
    value, (mu_nums, d), (nu_raw, total) = security_level_lp(u.array)
    return _certified(u, value, MixedStrategy(mu_nums, d, "row"), MixedStrategy(nu_raw, total, "column"), METHOD_LP)


def solve_by_support_enumeration(u: GameMatrix) -> ValueReport:
    """Independent oracle: solve the equalizing system for each square support pair.

    Trivial wins and losses are peeled off first; for any other value some
    square support pair admits a unique equalizing solution that passes the
    deviation checks, so the scan below always returns.
    """
    cap = _SUPPORT_ENUMERATION_LIMIT
    if u.m > cap or u.n > cap:
        raise SizeLimitError(f"support enumeration is capped at {cap}x{cap}, got {u.m}x{u.n}")
    trivial = detect_trivial(u)
    if trivial is not None:
        return replace(trivial, method=METHOD_SUPPORT_ENUMERATION)
    for k in range(1, min(u.m, u.n) + 1):
        for support_i in combinations(range(u.m), k):
            for support_j in combinations(range(u.n), k):
                report = _try_support_pair(u, support_i, support_j)
                if report is not None:
                    return report
    raise RuntimeError("no support pair admitted an equilibrium; matrix entries outside {0,1}?")


def _try_support_pair(u, support_i, support_j) -> ValueReport | None:
    k = len(support_i)
    sub = u.array[np.ix_(support_i, support_j)]
    # mu on support_i equalizes the support_j columns at v, [sub.T | -1], and
    # nu on support_j the support_i rows at w, [sub | -1].  Each mixture sums
    # to 1, row 1 - unit, so v and w both equal the pair's expected utility.
    unit = np.eye(k + 1, dtype=np.int64)[k]
    solutions = []
    for equalized in (sub.T, sub):
        system = np.vstack((np.column_stack((equalized, np.full(k, -1))), 1 - unit))
        solved = solve_linear_system(system, unit)
        if solved is None or not solved[1]:
            return None
        (nums, den), _ = solved
        if min(nums[:k]) < 0:
            return None
        solutions.append((nums, den))
    (mu_nums, mu_den), (nu_nums, nu_den) = solutions
    value = Fraction(mu_nums[k], mu_den)
    mu = _lift(MixedStrategy(mu_nums[:k], mu_den, "row"), support_i, u.m)
    nu = _lift(MixedStrategy(nu_nums[:k], nu_den, "column"), support_j, u.n)
    if security_levels(u, mu, nu) != (value, value):
        return None
    return ValueReport(value=value, eloise=mu, abelard=nu, method=METHOD_SUPPORT_ENUMERATION)


# ---------------------------------------------------------------------------
# Row-submatrix machinery


def submatrix_lower_bound(u: GameMatrix) -> tuple[Fraction, frozenset[int]]:
    """The best floor over nonempty row submatrices; always a lower bound on the value.

    Every subset is scanned when there are at most 15 rows; above that, a
    seeded local search with single-row adds and drops from random starts.
    """
    scored = _scored_subsets(range(u.m), lambda subset: _floor_of_rows(u, subset))
    return max(scored, key=itemgetter(0))  # the first of the best


def _scored_subsets(items, score):
    """(score, subset) pairs over nonempty subsets of `items`: every subset, by
    size and then in combination order, for at most 15 items; otherwise each
    seeded restart's local optimum."""
    items = list(items)
    if len(items) > _EXHAUSTIVE_ROW_LIMIT:
        yield from _local_optima(items, score)
        return
    for size in range(1, len(items) + 1):
        for subset in combinations(items, size):
            yield score(subset), frozenset(subset)


def _local_optima(items, score):
    """For each seeded random start, the (score, subset) of nonempty subsets of
    `items` that no single add or drop raises the score of."""
    items = list(items)
    rng = random.Random(0)
    for _ in range(_GREEDY_RESTARTS):
        current = frozenset(i for i in items if rng.random() < 0.5) or frozenset(
            {items[rng.randrange(len(items))]}
        )
        best = score(current)
        improved = True
        while improved:
            improved = False
            for i in items:
                candidate = current - {i} if i in current else current | {i}
                if candidate:
                    s = score(candidate)
                    if s > best:
                        current, best, improved = candidate, s, True
        yield best, current


def _col_sums(u: GameMatrix, subset):
    return u.array[list(subset), :].sum(axis=0, dtype=int)


def _floor_of_rows(u: GameMatrix, subset) -> Fraction:
    return Fraction(int(_col_sums(u, subset).min()), len(subset))


def _col_spread(u: GameMatrix, subset) -> int:
    cols = _col_sums(u, subset)
    return int(cols.max() - cols.min())


def balanced_submatrix_certificate(u: GameMatrix) -> ValueReport | None:
    """A certified equilibrium from a balanced row submatrix with the full row maximum.

    Row balance plus the row-maximum condition force every candidate row to be
    a maximum-sum row, so the search runs over subsets of those, toward equal
    column sums.  Returns None when no certified pair is found.
    """
    rowmax = max(u.row_sums())
    value = Fraction(rowmax, u.n)
    nu = MixedStrategy.uniform(u.n, "column")
    rowargmax = [i for i, s in enumerate(u.row_sums()) if s == rowmax]
    for spread, subset in _scored_subsets(rowargmax, lambda s: -_col_spread(u, s)):
        if spread == 0:
            mu = MixedStrategy.uniform_on(subset, u.m, "row")
            if security_levels(u, mu, nu) == (value, value):
                return ValueReport(value=value, eloise=mu, abelard=nu, method=METHOD_BALANCED_SUBMATRIX)
    return None


# ---------------------------------------------------------------------------
# The solve policy


def solve_game(u: GameMatrix) -> ValueReport:
    """Trivial wins, the balanced shortcut, then LP; big games are reduced
    first and the reduced equilibrium is lifted back (padding removed
    strategies with zero keeps it an equilibrium) and certified again."""
    report = _shortcut(u)
    if report is None and max(u.m, u.n) > _SOLVE_DIRECTLY_LIMIT:
        reduced, rows, cols = reduce(u)
        if (reduced.m, reduced.n) != (u.m, u.n):
            # `reduce` runs to a fixpoint, so the reduced game is not reduced again.
            inner = _shortcut(reduced) or solve_value(reduced)
            mu, nu = _lift(inner.eloise, rows, u.m), _lift(inner.abelard, cols, u.n)
            report = _certified(u, inner.value, mu, nu, inner.method)
    return report or solve_value(u)


def _shortcut(u: GameMatrix) -> ValueReport | None:
    return detect_trivial(u) or balanced_value(u)


def _lift(ms: MixedStrategy, kept: tuple[int, ...], k: int) -> MixedStrategy:
    """`ms` on the kept strategies, zero on the `k - len(kept)` removed ones."""
    lifted = [0] * k
    for q, i in zip(ms.nums, kept):
        lifted[i] = q
    return MixedStrategy(lifted, ms.den, ms.side)
