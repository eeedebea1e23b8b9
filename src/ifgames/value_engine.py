"""Exact game values, equilibrium certificates, and every bound that implies them.

`solve_value` is the reference route: the security-level linear program over
exact rationals.  `solve_by_support_enumeration` is an independent oracle that
solves the equalizing linear system for every square support pair instead.
The remaining operations are shortcuts: uniform-strategy bounds, the balanced
shortcut, the row-submatrix lower bound, and the balanced-row-submatrix
certificate.  Every report handed out is verified against pure deviations
before it leaves this module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import SizeLimitError
from .linalg import security_level_lp, solve_linear_system
from .matrix_game import (
    GameMatrix,
    MixedStrategy,
    best_pure_response_value,
    expected_utility,
    is_balanced,
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
        return ValueReport(
            value=trivial.value,
            eloise=trivial.eloise,
            abelard=trivial.abelard,
            method=METHOD_SUPPORT_ENUMERATION,
        )
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
    mu_probs = [Fraction(0)] * u.m
    for t, i in enumerate(support_i):
        mu_probs[i] = mu_part[t]
    nu_probs = [Fraction(0)] * u.n
    for t, j in enumerate(support_j):
        nu_probs[j] = nu_part[t]
    mu = MixedStrategy(tuple(mu_probs), "row")
    nu = MixedStrategy(tuple(nu_probs), "column")
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
        best: tuple[Fraction, frozenset[int]] | None = None
        for size in range(1, u.m + 1):
            for subset in combinations(range(u.m), size):
                f = _floor_of_rows(u, subset)
                if best is None or f > best[0]:
                    best = (f, frozenset(subset))
        assert best is not None
        return best
    return _greedy_search(u, score=lambda subset: _floor_of_rows(u, subset))


def _floor_of_rows(u: GameMatrix, subset) -> Fraction:
    cols = u.array[list(subset), :].sum(axis=0, dtype=int)
    return Fraction(int(cols.min()), len(subset))


def _greedy_search(u: GameMatrix, score) -> tuple[Fraction, frozenset[int]]:
    rng = random.Random(0)
    best: tuple[Fraction, frozenset[int]] | None = None
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
    assert best is not None
    return best


def balanced_submatrix_certificate(u: GameMatrix) -> ValueReport | None:
    """A verified equilibrium from a balanced row submatrix with the full row maximum.

    Row balance plus the row-maximum condition force every candidate row to be
    a maximum-sum row, so the search runs over subsets of those: exhaustively
    when there are at most 15, otherwise by a seeded local search toward equal
    column sums.  Returns None when no verified certificate is found.
    """
    t = tallies(u)
    candidates = sorted(t.rowargmax)
    nu = MixedStrategy.uniform(u.n, "column")
    value = Fraction(t.rowmax, u.n)

    def attempt(subset) -> ValueReport | None:
        cols = u.array[list(subset), :].sum(axis=0, dtype=int)
        if cols.min() != cols.max():
            return None
        mu = MixedStrategy.uniform_on(subset, u.m, "row")
        if not verify_equilibrium(u, mu, nu):
            return None
        return _certified(u, value, mu, nu, METHOD_BALANCED_SUBMATRIX)

    if len(candidates) <= _EXHAUSTIVE_ROW_LIMIT:
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
        spread = _col_spread(u, subset)
        improved = True
        while improved and spread > 0:
            improved = False
            for i in candidates:
                candidate = subset - {i} if i in subset else subset | {i}
                if not candidate:
                    continue
                s = _col_spread(u, candidate)
                if s < spread:
                    subset, spread = frozenset(candidate), s
                    improved = True
        if spread == 0:
            report = attempt(sorted(subset))
            if report is not None:
                return report
    return None


def _col_spread(u: GameMatrix, subset) -> int:
    cols = u.array[list(subset), :].sum(axis=0, dtype=int)
    return int(cols.max() - cols.min())
