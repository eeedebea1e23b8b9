"""Exact game values, equilibrium certificates, and every bound that implies them.

`solve_value` is the reference route: the security-level linear program over
exact rationals.  `solve_by_support_enumeration` is an independent oracle that
solves the equalizing linear system for every square support pair instead.
The remaining operations are shortcuts: uniform-strategy bounds, the balanced
shortcut, the row-submatrix lower bound, and the balanced-row-submatrix
certificate.  `solve_game` is the one solve policy that chains them.  Every
report handed out is verified against pure deviations before it leaves this
module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from operator import itemgetter

from .errors import SizeLimitError
from .linalg import security_level_lp, solve_linear_system
from .matrix_game import (
    GameMatrix,
    MixedStrategy,
    best_pure_response_value,
    expected_utility,
    is_balanced,
    reduce,
    scaled_numerators,
    tallies,
    weighted_row_sums,
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


@dataclass(frozen=True)
class ValueReport:
    """An exact value together with the equilibrium pair certifying it."""

    value: Fraction
    eloise: MixedStrategy
    abelard: MixedStrategy
    method: str


def _certified(u: GameMatrix, value: Fraction, mu: MixedStrategy, nu: MixedStrategy, method: str) -> ValueReport:
    """Build a report, refusing to emit one whose certificates do not check out."""
    guarantee, _ = best_pure_response_value(u, mu)
    if guarantee != value:
        raise RuntimeError(f"{method}: row strategy guarantees {guarantee}, claimed {value}")
    cap = _max_row_payoff(u, nu)
    if cap != value:
        raise RuntimeError(f"{method}: column strategy caps at {cap}, claimed {value}")
    return ValueReport(value=value, eloise=mu, abelard=nu, method=method)


def _max_row_payoff(u: GameMatrix, nu: MixedStrategy) -> Fraction:
    nums, den = scaled_numerators(nu)
    return Fraction(max(weighted_row_sums(u, nums)), den)


def verify_equilibrium(u: GameMatrix, mu: MixedStrategy, nu: MixedStrategy) -> bool:
    """True iff no pure deviation helps either player: checking pure replies
    suffices because a mixed reply is an average of pure ones.  Each side is
    one integer total per pure reply, so only three Fractions are built."""
    value = expected_utility(u, mu, nu)
    return best_pure_response_value(u, mu)[0] >= value and _max_row_payoff(u, nu) <= value


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


def uniform_bounds(u: GameMatrix) -> tuple[Fraction, Fraction]:
    """(floor, ceil): what the uniform strategies guarantee for each player."""
    t = tallies(u)
    return t.floor, t.ceil


def balanced_value(u: GameMatrix) -> ValueReport | None:
    """For balanced games the uniform pair is an equilibrium and floor = ceil."""
    if not is_balanced(u):
        return None
    value = Fraction(u.row_sums()[0], u.n)
    mu = MixedStrategy.uniform(u.m, "row")
    nu = MixedStrategy.uniform(u.n, "column")
    return _certified(u, value, mu, nu, METHOD_BALANCED)


def solve_value(u: GameMatrix) -> ValueReport:
    """The exact value by linear programming, with both optimal strategies."""
    value, mu_list, nu_list = security_level_lp(u.rows())
    mu = MixedStrategy(tuple(mu_list), "row")
    nu = MixedStrategy(tuple(nu_list), "column")
    return _certified(u, value, mu, nu, METHOD_LP)


def solve_by_support_enumeration(u: GameMatrix, max_size: int = 7) -> ValueReport:
    """Independent oracle: solve the equalizing system for each square support pair.

    Trivial wins and losses are peeled off first; for any other value some
    square support pair admits a unique equalizing solution that passes the
    deviation checks, so the scan below always returns.
    """
    if u.m > max_size or u.n > max_size:
        raise SizeLimitError(
            f"support enumeration is capped at {max_size}x{max_size}, got {u.m}x{u.n}"
        )
    trivial = detect_trivial(u)
    if trivial is not None:
        return replace(trivial, method=METHOD_SUPPORT_ENUMERATION)
    rows = u.rows()
    for k in range(1, min(u.m, u.n) + 1):
        for support_i in combinations(range(u.m), k):
            for support_j in combinations(range(u.n), k):
                report = _try_support_pair(u, rows, support_i, support_j)
                if report is not None:
                    return report
    raise RuntimeError("no support pair admitted an equilibrium; matrix entries outside {0,1}?")


def _try_support_pair(u, rows, support_i, support_j) -> ValueReport | None:
    k = len(support_i)
    # mu restricted to support_i equalizes the support_j columns at v.
    a = [[Fraction(rows[i][j]) for i in support_i] + [Fraction(-1)] for j in support_j]
    a.append([Fraction(1)] * k + [Fraction(0)])
    solved = solve_linear_system(a, [0] * k + [1])
    if solved is None or not solved[1]:
        return None
    mu_part, value = solved[0][:k], solved[0][k]
    if any(p < 0 for p in mu_part):
        return None
    b = [[Fraction(rows[i][j]) for j in support_j] + [Fraction(-1)] for i in support_i]
    b.append([Fraction(1)] * k + [Fraction(0)])
    solved = solve_linear_system(b, [0] * k + [1])
    if solved is None or not solved[1]:
        return None
    nu_part, w = solved[0][:k], solved[0][k]
    if w != value or any(q < 0 for q in nu_part):
        return None
    mu = _lift(MixedStrategy(mu_part, "row"), support_i, u.m)
    nu = _lift(MixedStrategy(nu_part, "column"), support_j, u.n)
    guarantee, _ = best_pure_response_value(u, mu)
    if guarantee != value or _max_row_payoff(u, nu) != value:
        return None
    return ValueReport(value=value, eloise=mu, abelard=nu, method=METHOD_SUPPORT_ENUMERATION)


# ---------------------------------------------------------------------------
# Row-submatrix machinery


def submatrix_lower_bound(
    u: GameMatrix, mode: str = "exhaustive"
) -> tuple[Fraction, frozenset[int]]:
    """The best floor over nonempty row submatrices; always a lower bound on the value.

    `exhaustive` scans every subset (rows <= 15); `greedy` runs a seeded local
    search with single-row adds and drops from random starts.
    """
    if mode not in ("exhaustive", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exhaustive":
        if u.m > _EXHAUSTIVE_ROW_LIMIT:
            raise SizeLimitError(
                f"exhaustive submatrix search is capped at {_EXHAUSTIVE_ROW_LIMIT} rows, got {u.m}"
            )
        scored = ((_floor_of_rows(u, s), frozenset(s)) for s in _subsets(range(u.m)))
    else:
        scored = _local_optima(range(u.m), lambda subset: _floor_of_rows(u, subset))
    return max(scored, key=itemgetter(0))  # the first of the best


def _subsets(items):
    """Every nonempty subset of `items`, by size, then in combination order."""
    items = list(items)
    for size in range(1, len(items) + 1):
        yield from combinations(items, size)


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
    """A verified equilibrium from a balanced row submatrix with the full row maximum.

    Row balance plus the row-maximum condition force every candidate row to be
    a maximum-sum row, so the search runs over subsets of those: exhaustively
    when there are at most 15, otherwise by a seeded local search toward equal
    column sums.  Returns None when no verified certificate is found.
    """
    t = tallies(u)
    candidates = sorted(t.rowargmax)
    if len(candidates) <= _EXHAUSTIVE_ROW_LIMIT:
        balanced = (s for s in _subsets(candidates) if _col_spread(u, s) == 0)
    else:
        optima = _local_optima(candidates, lambda subset: -_col_spread(u, subset))
        balanced = (s for score, s in optima if score == 0)
    nu = MixedStrategy.uniform(u.n, "column")
    for subset in balanced:
        mu = MixedStrategy.uniform_on(subset, u.m, "row")
        if verify_equilibrium(u, mu, nu):
            return _certified(u, Fraction(t.rowmax, u.n), mu, nu, METHOD_BALANCED_SUBMATRIX)
    return None


# ---------------------------------------------------------------------------
# The solve policy


def solve_game(u: GameMatrix) -> ValueReport:
    """Trivial wins, the balanced shortcut, then LP; big games are reduced
    first and the reduced equilibrium is lifted back (padding removed
    strategies with zero keeps it an equilibrium) and certified again."""
    report = detect_trivial(u)
    if report is None:
        report = balanced_value(u)
    if report is None and max(u.m, u.n) > _SOLVE_DIRECTLY_LIMIT:
        reduced, rows, cols = reduce(u)
        if (reduced.m, reduced.n) != (u.m, u.n):
            inner = solve_game(reduced)
            mu, nu = _lift(inner.eloise, rows, u.m), _lift(inner.abelard, cols, u.n)
            report = _certified(u, inner.value, mu, nu, inner.method)
    if report is None:
        report = solve_value(u)
    return report


def _lift(ms: MixedStrategy, kept: tuple[int, ...], k: int) -> MixedStrategy:
    """`ms` on the kept strategies, zero on the `k - len(kept)` removed ones."""
    nums, den = scaled_numerators(ms)
    lifted = [0] * k
    for q, i in zip(nums, kept):
        lifted[i] = q
    return MixedStrategy.from_numerators(lifted, den, ms.side)
