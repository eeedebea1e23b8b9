"""Exact game values and the equilibrium certificates that back them.

`solve_value` is the exact route: the security-level linear program of
`linalg.security_level_lp`, the package's one exact solver.  `solve_game` is
the one solve policy: trivial detection, the balanced shortcut, then, past 64
strategies on a side, reduce-and-lift (the balanced shortcut or the LP on the
`matrix_game.reduce`d game, lifted back), and else the LP.  Triviality is
tested on the input alone: on what `reduce` keeps, each removed row lies below
a kept row and each removed column above a kept one, so a nontrivial game
reduces to a nontrivial one.  The uniform bounds are `matrix_game.tallies`.
Every report handed out is certified before it leaves this module: what
Eloise's strategy guarantees and what Abelard's caps both equal the reported
value.  The support-enumeration oracle the LP is checked against lives with
the tests, in `tests/reference.py`, and shares no arithmetic with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import security_level_lp
from .matrix_game import GameMatrix, MixedStrategy, reduce, security_levels

METHOD_LP = "lp"
METHOD_BALANCED = "balanced"
METHOD_TRIVIAL_WIN = "trivial-win"
METHOD_TRIVIAL_LOSS = "trivial-loss"

# Games up to this many strategies a side skip `reduce`, which costs more than
# the small LP it would shrink.  Medians of 10 alternating in-process passes
# (2-vCPU Xeon, Python 3.11.7, numpy 2.4.6): the 180 lp_dense 12x12 games took
# 34 ms through `cli.main` at 64 and 104 ms at 0, and `value` on the tall
# fixture (R 19683x27) 0.24 s with reduce-and-lift and 0.30 s without.
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
    if u.n in row_sums:
        mu = MixedStrategy.point_mass(u.m, row_sums.index(u.n), "row")
        nu = MixedStrategy.point_mass(u.n, 0, "column")
        return _certified(u, Fraction(1), mu, nu, METHOD_TRIVIAL_WIN)
    col_sums = u.col_sums()
    if 0 in col_sums:
        mu = MixedStrategy.point_mass(u.m, 0, "row")
        nu = MixedStrategy.point_mass(u.n, col_sums.index(0), "column")
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
    value, mu_nums, nu_nums, den = security_level_lp(u.array)
    return _certified(u, value, MixedStrategy(mu_nums, den, "row"), MixedStrategy(nu_nums, den, "column"), METHOD_LP)


# ---------------------------------------------------------------------------
# The solve policy


def solve_game(u: GameMatrix) -> ValueReport:
    """Trivial wins, the balanced shortcut, then LP; big games are reduced
    first and the reduced equilibrium is lifted back (padding removed
    strategies with zero keeps it an equilibrium) and certified again."""
    report = detect_trivial(u) or balanced_value(u)
    if report is None and max(u.m, u.n) > _SOLVE_DIRECTLY_LIMIT:
        # `reduce` runs to a fixpoint, so the reduced game is not reduced again.
        reduced, rows, cols = reduce(u)
        inner = balanced_value(reduced) or solve_value(reduced)
        mu, nu = _lift(inner.eloise, rows, u.m), _lift(inner.abelard, cols, u.n)
        report = _certified(u, inner.value, mu, nu, inner.method)
    return report or solve_value(u)


def _lift(ms: MixedStrategy, kept: tuple[int, ...], k: int) -> MixedStrategy:
    """`ms` on the kept strategies, zero on the `k - len(kept)` removed ones."""
    lifted = [0] * k
    for q, i in zip(ms.nums, kept):
        lifted[i] = q
    return MixedStrategy(lifted, ms.den, ms.side)
