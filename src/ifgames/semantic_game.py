"""Turn an IF sentence on a finite structure into its strategic matrix game.

The extensive game tree is never materialized.  Decision points (information
sets) are read off the formula; each player's pure strategies are total choice
tables over the value combinations visible at their points (uniformity: a
choice may depend only on visible values); the payoff matrix is filled by
resolving every play.

A quantifier that slashes the choice variable of an enclosing branching
disjunction cannot tell the branches apart, so structurally corresponding
quantifier occurrences across those branches share a single decision point and
hence a single choice table.  That sharing is what keeps the branch index
genuinely hidden downstream.

With `collapse=True`, a connective whose subtree is quantifier-free is not a
decision point at all: its owner moves with full information and the rest of
the game is already determined, so the move is resolved classically during
play (the disjunction's owner takes a true branch when one exists, the
conjunction's owner a false one).  This removes payoff-equivalent and weakly
dominated strategy padding without changing the game's value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import BudgetExceededError, GameBuildError
from .formula import Connective, Formula, Quant, format_formula, is_quantifier_free, validate
from .matrix_game import GameMatrix
from .structure import Structure, holds_qf

ELOISE = "eloise"
ABELARD = "abelard"

DEFAULT_STRATEGY_BUDGET = 2**20
_MAX_MATRIX_CELLS = 2**28

Path = tuple[int, ...]


@dataclass(frozen=True)
class DecisionPoint:
    """One information set: where a player moves and what they see there."""

    locus: Path  # path of the first occurrence in the formula
    owner: str
    visible: tuple[str, ...]  # identifiers visible at the point, in binding order
    options: int  # universe size for quantifiers, branch count for connectives
    visible_ranges: tuple[int, ...]  # number of values of each visible identifier

    @property
    def table_size(self) -> int:
        return math.prod(self.visible_ranges)


@dataclass(frozen=True)
class PureStrategy:
    """Choice tables, one per decision point of the owner, in point order.

    Table `t` maps the mixed-radix code of the visible values at point `t`
    (earliest-bound identifier most significant) to an option index.
    """

    owner: str
    tables: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class GameBuildReport:
    matrix: GameMatrix
    eloise_strategy_count: int
    abelard_strategy_count: int
    collapsed_loci: tuple[Path, ...]


@dataclass
class _Plan:
    structure: Structure
    formula: Formula
    collapse: bool
    points: list[DecisionPoint] = field(default_factory=list)
    point_at: dict[Path, int] = field(default_factory=dict)  # every instance path
    canon_map: dict[tuple, int] = field(default_factory=dict)
    collapsed: list[Path] = field(default_factory=list)
    owner_points: dict[str, list[int]] = field(default_factory=lambda: {ELOISE: [], ABELARD: []})


def _owner_of(node: Quant | Connective) -> str:
    if isinstance(node, Quant):
        return ABELARD if node.kind == "forall" else ELOISE
    return ABELARD if node.kind == "and" else ELOISE


def _build_plan(s: Structure, f: Formula, collapse: bool) -> _Plan:
    violations = validate(f, s.vocabulary())
    if violations:
        details = "; ".join(str(v) for v in violations)
        raise GameBuildError(f"sentence is not well formed over this structure: {details}")
    plan = _Plan(structure=s, formula=f, collapse=collapse)
    _walk_plan(plan, f, (), (), ())
    return plan


def _walk_plan(plan, node, path: Path, stack, bound) -> None:
    """`stack` holds (component, enclosing choice var) per path step; `bound`
    holds (identifier, range) pairs in binding order."""
    if isinstance(node, Quant):
        if any(name == node.var for name, _ in bound):
            raise GameBuildError(
                f"variable {node.var!r} is rebound on one path; games need distinct names"
            )
        canon = tuple(
            "*" if cv is not None and cv in node.slash else idx for idx, cv in stack
        )
        visible = tuple((name, rng) for name, rng in bound if name not in node.slash)
        _register_point(
            plan,
            canon,
            path,
            owner=_owner_of(node),
            visible=tuple(n for n, _ in visible),
            options=plan.structure.size,
            visible_ranges=tuple(r for _, r in visible),
        )
        _walk_plan(plan, node.body, path + (0,), stack + ((0, None),), bound + ((node.var, plan.structure.size),))
        return
    if isinstance(node, Connective):
        if len(node.branches) == 1:
            _walk_plan(plan, node.branches[0], path + (0,), stack + ((0, None),), bound)
            return
        if plan.collapse and is_quantifier_free(node):
            plan.collapsed.append(path)
            return
        _register_point(
            plan,
            canon=tuple(idx for idx, _ in stack),
            path=path,
            owner=_owner_of(node),
            visible=tuple(n for n, _ in bound),
            options=len(node.branches),
            visible_ranges=tuple(r for _, r in bound),
        )
        inner_bound = bound
        if node.choice_var is not None:
            inner_bound = bound + ((node.choice_var, len(node.branches)),)
        for b, branch in enumerate(node.branches):
            _walk_plan(plan, branch, path + (b,), stack + ((b, node.choice_var),), inner_bound)
        return
    # Atoms and equalities generate no decision points.


def _register_point(plan: _Plan, canon, path: Path, owner, visible, options, visible_ranges):
    if canon in plan.canon_map:
        idx = plan.canon_map[canon]
        point = plan.points[idx]
        if (point.owner, point.visible, point.options, point.visible_ranges) != (
            owner,
            visible,
            options,
            visible_ranges,
        ):
            raise GameBuildError(
                f"indistinguishable positions at {path} disagree on owner or information"
            )
        plan.point_at[path] = idx
        return
    idx = len(plan.points)
    plan.points.append(
        DecisionPoint(
            locus=path,
            owner=owner,
            visible=visible,
            options=options,
            visible_ranges=visible_ranges,
        )
    )
    plan.canon_map[canon] = idx
    plan.point_at[path] = idx
    plan.owner_points[owner].append(idx)


def decision_points(f: Formula, s: Structure) -> list[DecisionPoint]:
    """All decision points of the game of `f` on `s`, in formula order
    (collapsing is a strategy-enumeration concern and does not apply here)."""
    return _build_plan(s, f, collapse=False).points


def _radix(values, ranges) -> int:
    idx = 0
    for v, r in zip(values, ranges):
        idx = idx * r + v
    return idx


def _check_budget(plan: _Plan, player: str, budget: int) -> int:
    """The player's pure-strategy count, which must be within `budget`.  A
    point with two or more options has at least 2 ** table_size tables, so a
    point that wide is refused without forming a count too long to print."""
    points = [plan.points[i] for i in plan.owner_points[player]]
    widest = max((p.table_size for p in points if p.options > 1), default=0)
    if widest > max(budget.bit_length(), BudgetExceededError.SHOWN_BITS):
        raise BudgetExceededError(player, None, budget, log2_floor=widest)
    count = math.prod(p.options ** p.table_size for p in points)
    if count > budget:
        raise BudgetExceededError(player, count, budget)
    return count


def iter_strategy_tables(plan_points, point_indices):
    """Yield table tuples for the given points, in lexicographic order of the
    concatenated tables (leftmost table cell most significant)."""
    cell_options = []
    table_sizes = []
    for idx in point_indices:
        p = plan_points[idx]
        table_sizes.append(p.table_size)
        cell_options.extend([p.options] * p.table_size)
    for combo in product(*(range(o) for o in cell_options)):
        tables = []
        at = 0
        for size in table_sizes:
            tables.append(combo[at : at + size])
            at += size
        yield tuple(tables)


def enumerate_strategies(
    s: Structure,
    f: Formula,
    player: str,
    collapse: bool = True,
    max_strategies: int = DEFAULT_STRATEGY_BUDGET,
) -> list[PureStrategy]:
    """All uniform pure strategies of `player`, lexicographic by choice table."""
    if player not in (ELOISE, ABELARD):
        raise ValueError(f"unknown player {player!r}")
    plan = _build_plan(s, f, collapse)
    _check_budget(plan, player, max_strategies)
    return [
        PureStrategy(owner=player, tables=tables)
        for tables in iter_strategy_tables(plan.points, plan.owner_points[player])
    ]


def play(
    s: Structure,
    f: Formula,
    sigma: PureStrategy,
    tau: PureStrategy,
    collapse: bool = True,
) -> int:
    """Eloise's payoff (0 or 1) when `sigma` meets `tau`; both strategies must
    come from the same collapse mode."""
    if sigma.owner != ELOISE or tau.owner != ABELARD:
        raise ValueError("play expects an Eloise strategy then an Abelard strategy")
    plan = _build_plan(s, f, collapse)
    fixed = {}
    for strategy in (sigma, tau):
        indices = plan.owner_points[strategy.owner]
        if [len(t) for t in strategy.tables] != [plan.points[i].table_size for i in indices]:
            raise ValueError(
                f"{strategy.owner} strategy tables do not fit this game's decision points; "
                "was it enumerated under the same collapse mode?"
            )
        fixed.update(zip(indices, strategy.tables))
    out = np.zeros((), dtype=np.uint8)
    _resolve(plan, fixed, out, {})
    return int(out)


def _resolve(plan: _Plan, fixed: dict, out: np.ndarray, cell_dim: dict) -> None:
    """Resolve every play that follows the choice tables in `fixed` (point
    index -> table) and write Eloise's payoff into `out`.  A point without a
    table branches over all its options; at cell c of point p, option k sets
    index k on axis `cell_dim[(p, c)]` of `out` (None: one option, no axis)."""
    points, point_at, structure = plan.points, plan.point_at, plan.structure
    collapsed = set(plan.collapsed)
    index: list = [slice(None)] * out.ndim

    def walk(node, path: Path, a) -> None:
        if isinstance(node, Quant):
            idx = point_at[path]
            point = points[idx]
            cell = _radix((a[name] for name in point.visible), point.visible_ranges)
            table = fixed.get(idx)
            if table is None:
                branch(node, path, a, idx, cell, point.options)
                return
            a[node.var] = table[cell]
            walk(node.body, path + (0,), a)
            del a[node.var]
            return
        if isinstance(node, Connective):
            if len(node.branches) == 1:
                walk(node.branches[0], path + (0,), a)
                return
            if path in collapsed:
                out[tuple(index)] = 1 if holds_qf(structure, a, node) else 0
                return
            idx = point_at[path]
            point = points[idx]
            cell = _radix((a[name] for name in point.visible), point.visible_ranges)
            table = fixed.get(idx)
            if table is None:
                branch(node, path, a, idx, cell, point.options)
                return
            option = table[cell]
            if node.choice_var is not None:
                a[node.choice_var] = option
            walk(node.branches[option], path + (option,), a)
            if node.choice_var is not None:
                del a[node.choice_var]
            return
        out[tuple(index)] = 1 if holds_qf(structure, a, node) else 0

    def branch(node, path: Path, a, idx: int, cell: int, options: int) -> None:
        # Only Abelard's points branch, and conjunctions bind no choice variable.
        dim = cell_dim[(idx, cell)]
        is_quant = isinstance(node, Quant)
        for option in range(options):
            if dim is not None:
                index[dim] = option
            if is_quant:
                a[node.var] = option
                walk(node.body, path + (0,), a)
                del a[node.var]
            else:
                walk(node.branches[option], path + (option,), a)
        if dim is not None:
            index[dim] = slice(None)

    walk(plan.formula, (), {})
    # The closures reach each other through their cells; clear them or each row's pair waits for gc.
    del walk, branch


def build_matrix(
    s: Structure,
    f: Formula,
    collapse: bool = True,
    max_strategies: int = DEFAULT_STRATEGY_BUDGET,
) -> GameBuildReport:
    """The strategic game: rows are Eloise's strategies, columns Abelard's,
    entry (i, j) Eloise's payoff, rows and columns in enumeration order."""
    plan = _build_plan(s, f, collapse)
    n_rows = _check_budget(plan, ELOISE, max_strategies)
    n_cols = _check_budget(plan, ABELARD, max_strategies)
    if n_rows * n_cols > _MAX_MATRIX_CELLS:
        raise GameBuildError(
            f"matrix would hold {n_rows * n_cols} cells "
            f"(over the {_MAX_MATRIX_CELLS} safety cap) for {format_formula(f)!r}"
        )

    # Column index = mixed radix over Abelard's table cells in order.  Cells
    # with a single option contribute nothing and stay out of the numpy shape
    # (which is capped at 32 dimensions).
    cell_dim: dict[tuple[int, int], int | None] = {}
    dims: list[int] = []
    for idx in plan.owner_points[ABELARD]:
        p = plan.points[idx]
        for cell in range(p.table_size):
            if p.options > 1:
                cell_dim[(idx, cell)] = len(dims)
                dims.append(p.options)
            else:
                cell_dim[(idx, cell)] = None

    matrix = np.zeros((n_rows, n_cols), dtype=np.uint8)
    eloise = plan.owner_points[ELOISE]
    for r, tables in enumerate(iter_strategy_tables(plan.points, eloise)):
        _resolve(plan, dict(zip(eloise, tables)), matrix[r].reshape(dims), cell_dim)

    report = GameBuildReport(
        matrix=GameMatrix(matrix),
        eloise_strategy_count=n_rows,
        abelard_strategy_count=n_cols,
        collapsed_loci=tuple(plan.collapsed),
    )
    assert (report.matrix.m, report.matrix.n) == (n_rows, n_cols)
    return report
