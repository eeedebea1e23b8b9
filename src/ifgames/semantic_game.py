"""Turn an IF sentence on a finite structure into its strategic matrix game.

The extensive game tree is never materialized.  Decision points (information
sets) are read off the formula; each player's pure strategies are total choice
tables over the value combinations visible at their points (uniformity: a
choice may depend only on visible values).

Most of a pure strategy is never consulted: a cell its owner's own earlier
choices never lead to (a y-table cell for an x the owner did not pick, a
branch the owner did not take) cannot change a payoff.  The reduced strategic
form R (Kuhn's reduced normal form) keeps one strategy per class of
payoff-identical copies: a partial table that assigns exactly the cells
reachable under it against every opponent play.  Each reduced strategy
carries its multiplicity, the number of full strategies in its class, and its
representative, the full strategy with every unassigned cell at 0, which is
the smallest full index in the class.  R's rows and columns are ordered by
representative, so R is the full game restricted to the representatives, and
every full row and column is a copy of one in R.  `build_reduced` builds R
directly; `build_matrix` builds R and expands it to the full game.

A quantifier that slashes the choice variable of an enclosing branching
disjunction cannot tell the branches apart, so structurally corresponding
quantifier occurrences across those branches share a single decision point and
hence a single choice table.  That sharing is what keeps the branch index
genuinely hidden downstream.

With `collapse=True`, a play ends at every quantifier, and every connective
of two or more branches, whose subtree has no slashed quantifier, and that
subformula is evaluated classically (Tarski) on the assignment so far.  Inside
it both players see every value bound before them, so it is a determined
perfect-information game whose winner is its classical truth value: each
player can add their classical winning strategy to an optimal strategy of the
collapsed game and keep its guarantee.  Such a subformula shares no decision
point with another (no quantifier in it slashes a choice variable, so its
points' canonical paths are its own), so no table shared through hidden
branches changes.  A slash-free sentence becomes a 1 x 1 game.  This removes
payoff-equivalent and weakly dominated strategy padding without changing the
game's value.  The classical evaluation is exhaustive: a collapsed subformula
with a chain of q nested quantifiers visits up to size ** q assignments per
play, so that count must fit the strategy budget too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .errors import BudgetExceededError, GameBuildError, SizeLimitError
from .formula import Connective, Formula, Quant, format_formula, validate
from .matrix_game import GameMatrix
from .structure import Structure, compile_qf

ELOISE = "eloise"
ABELARD = "abelard"
_PLAYERS = (ELOISE, ABELARD)

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


@dataclass(frozen=True, eq=False)
class ReducedStrategies:
    """One player's reduced strategies, in order of representative.

    `cells[s]` is strategy s's flat choice table (the owner's point tables
    concatenated in point order) with -1 at every cell it leaves
    unassigned; `reps[s]` is the full-form index of the strategy with those
    cells at 0, and `weights[s]` the number of full strategies in its class.
    A game given by its matrix has no choice tables, so no `cells`."""

    owner: str
    cells: tuple[tuple[int, ...], ...]
    reps: tuple[int, ...]
    weights: tuple[int, ...]

    @property
    def count(self) -> int:
        """The owner's full pure-strategy count."""
        return sum(self.weights)


@dataclass(frozen=True, eq=False)
class ReducedForm:
    """The reduced strategic form: `matrix` is R, Eloise's reduced strategies
    on the rows and Abelard's on the columns, equal to the full game at
    rows `eloise.reps` and columns `abelard.reps`."""

    matrix: GameMatrix
    eloise: ReducedStrategies
    abelard: ReducedStrategies
    collapsed_loci: tuple[Path, ...]

    @classmethod
    def of_matrix(cls, u: GameMatrix, collapsed_loci: tuple[Path, ...] = ()) -> ReducedForm:
        """The game `u` as it stands: every strategy a class of its own."""

        def singletons(owner: str, k: int) -> ReducedStrategies:
            return ReducedStrategies(owner=owner, cells=(), reps=tuple(range(k)), weights=(1,) * k)

        return cls(u, singletons(ELOISE, u.m), singletons(ABELARD, u.n), collapsed_loci)


class _Node:
    """A compiled position in a play, whose values sit in a list of slots:
    an identifier's slot is its binding depth.  An end of play has no
    `children`, and `holds`, its compiled formula, tells on that list whether
    Eloise wins; a collapsed quantifier in it writes the slots past the
    end's bindings.  Otherwise `side` (0 Eloise, 1 Abelard)
    moves at the flat table cell `base` + the mixed-radix code of the
    `visible` (slot, range) pairs, and option k is written to slot `var` and
    continues at `children[k]`.  A connective without a choice variable
    writes to the next free slot, which nothing reads before a deeper
    quantifier rebinds it."""

    __slots__ = ("holds", "side", "base", "visible", "var", "children")

    def __init__(self, holds, side=0, base=0, visible=(), var=0, children=()):
        self.holds = holds
        self.side = side
        self.base = base
        self.visible = visible
        self.var = var
        self.children = children


def _owner_of(node: Quant | Connective) -> str:
    if isinstance(node, Quant):
        return ABELARD if node.kind == "forall" else ELOISE
    return ABELARD if node.kind == "and" else ELOISE


class Game:
    """A sentence on a structure, validated, planned and compiled once.

    `points` lists the decision points in formula order and `owner_points`
    each player's point indices; a player's flat choice table concatenates
    their points' tables in that order, the layout `iter_strategy_tables`
    numbers full strategies in."""

    def __init__(self, structure: Structure, formula: Formula, collapse: bool = True):
        violations = validate(formula, structure.vocabulary())
        if violations:
            details = "; ".join(str(v) for v in violations)
            raise GameBuildError(f"sentence is not well formed over this structure: {details}")
        self.structure = structure
        self.formula = formula
        self.collapse = collapse
        self.points: list[DecisionPoint] = []
        self.point_at: dict[Path, int] = {}  # every instance path
        self.collapsed: list[Path] = []
        self.owner_points: dict[str, list[int]] = {ELOISE: [], ABELARD: []}
        self._canon: dict[tuple, int] = {}
        self._base: list[int] = []  # per point, its first cell in the owner's flat table
        self._cells = [0, 0]  # flat table length per side
        self._slots = 1  # length of the value list a play writes
        self._ends: list[tuple[_Node, Formula, tuple, int]] = []  # not compiled yet: bindings, chain
        self._chain = 0  # the longest quantifier chain in a collapsed subformula
        self._collapsible = _collapsible(formula) if collapse else set()
        self._root = self._compile(formula, (), (), ())

    # -- planning ------------------------------------------------------------

    def _compile(self, node, path: Path, stack, bound) -> _Node:
        """`stack` holds (component, enclosing choice var) per path step;
        `bound` holds (identifier, range) pairs in binding order, so an
        identifier's slot is its index there and a move's `var` is the next
        slot."""
        if id(node) in self._collapsible:  # perfect information: evaluated classically
            self.collapsed.append(path)
            return self._end(node, bound, _quantifier_chain(node, {name for name, _ in bound}))
        if isinstance(node, Quant):
            if any(name == node.var for name, _ in bound):
                raise _rebound(node.var)
            canon = tuple("*" if cv is not None and cv in node.slash else idx for idx, cv in stack)
            visible = tuple((name, rng) for name, rng in bound if name not in node.slash)
            size = self.structure.size
            idx = self._register(canon, path, _owner_of(node), visible, size)
            body = self._compile(node.body, path + (0,), stack + ((0, None),), bound + ((node.var, size),))
            slots = tuple((slot, rng) for slot, (name, rng) in enumerate(bound) if name not in node.slash)
            return self._move(idx, slots, len(bound), (body,) * size)
        if isinstance(node, Connective):
            if len(node.branches) == 1:
                return self._compile(node.branches[0], path + (0,), stack + ((0, None),), bound)
            idx = self._register(tuple(i for i, _ in stack), path, _owner_of(node), bound, len(node.branches))
            inner = bound
            if node.choice_var is not None:
                inner = bound + ((node.choice_var, len(node.branches)),)
            children = tuple(
                self._compile(branch, path + (b,), stack + ((b, node.choice_var),), inner)
                for b, branch in enumerate(node.branches)
            )
            slots = tuple((slot, rng) for slot, (_, rng) in enumerate(bound))
            return self._move(idx, slots, len(bound), children)
        # Atoms and equalities end the play.
        return self._end(node, bound)

    def _end(self, formula: Formula, bound, chain: int = 0) -> _Node:
        node = _Node(None)
        self._ends.append((node, formula, bound, chain))
        self._chain = max(self._chain, chain)
        return node

    def _compile_ends(self) -> None:
        """Compile each end of play once, before the first walk, so that a
        game the budget refuses compiles none.  Every move on the way to an
        end writes a slot no higher than the end's binding count, and the
        end's k-th nested quantifier the k-th slot past its bindings."""
        for node, formula, bound, chain in self._ends:
            slots = {name: slot for slot, (name, _) in enumerate(bound)}
            node.holds = compile_qf(self.structure, formula, slots)
            self._slots = max(self._slots, len(bound) + max(chain, 1))
        self._ends.clear()

    def _move(self, idx: int, visible, var: int, children) -> _Node:
        side = _PLAYERS.index(self.points[idx].owner)
        return _Node(None, side, self._base[idx], visible, var, children)

    def _register(self, canon, path: Path, owner: str, visible, options: int) -> int:
        names = tuple(n for n, _ in visible)
        ranges = tuple(r for _, r in visible)
        if canon in self._canon:
            idx = self._canon[canon]
            point = self.points[idx]
            if (point.owner, point.visible, point.options, point.visible_ranges) != (
                owner,
                names,
                options,
                ranges,
            ):
                raise GameBuildError(
                    f"indistinguishable positions at {path} disagree on owner or information"
                )
            self.point_at[path] = idx
            return idx
        idx = len(self.points)
        point = DecisionPoint(locus=path, owner=owner, visible=names, options=options, visible_ranges=ranges)
        self.points.append(point)
        self._canon[canon] = idx
        self.point_at[path] = idx
        self.owner_points[owner].append(idx)
        side = _PLAYERS.index(owner)
        self._base.append(self._cells[side])
        self._cells[side] += point.table_size
        return idx

    @cached_property
    def _layout(self) -> tuple[tuple[list[int], list[int]], ...]:
        """Per side: the options of each flat table cell and the place value
        of each cell in the mixed radix of full indices (leftmost cell most
        significant).  Only for games within a budget, whose tables are
        small."""
        layout = []
        for player in _PLAYERS:
            points = [self.points[i] for i in self.owner_points[player]]
            radices = [p.options for p in points for _ in range(p.table_size)]
            strides = [1] * len(radices)
            for q in range(len(radices) - 2, -1, -1):
                strides[q] = strides[q + 1] * radices[q + 1]
            layout.append((radices, strides))
        return tuple(layout)

    # -- strategy counts -----------------------------------------------------

    def strategy_count(self, player: str, budget: int) -> int:
        """The player's pure-strategy count, which must be within `budget`.  A
        point with two or more options has at least 2 ** table_size tables, so a
        point that wide is refused without forming a count too long to print."""
        points = [self.points[i] for i in self.owner_points[player]]
        widest = max((p.table_size for p in points if p.options > 1), default=0)
        if widest > max(budget.bit_length(), BudgetExceededError.SHOWN_BITS):
            raise BudgetExceededError(player, None, budget, log2_floor=widest)
        count = math.prod(p.options ** p.table_size for p in points)
        if count > budget:
            raise BudgetExceededError(player, count, budget)
        return count

    def _checked_shape(self, budget: int) -> tuple[int, int]:
        """The full game's shape, refused past the budget or the cell cap, or
        when a collapsed subformula's classical evaluation could visit more
        assignments than the budget.  Played out instead, the innermost
        quantifier of its longest chain, q deep, would give its owner at
        least size ** size ** (q - 1) >= size ** q strategies, so this never
        refuses a game that `collapse=False` accepts."""
        n_rows = self.strategy_count(ELOISE, budget)
        n_cols = self.strategy_count(ABELARD, budget)
        if n_rows * n_cols > _MAX_MATRIX_CELLS:
            raise GameBuildError(
                f"matrix would hold {n_rows * n_cols} cells "
                f"(over the {_MAX_MATRIX_CELLS} safety cap) for {format_formula(self.formula)!r}"
            )
        size, chain = self.structure.size, self._chain
        if size**chain > budget:
            raise SizeLimitError(
                f"classical evaluation of a perfect-information subformula would visit "
                f"{size}^{chain} assignments, over the budget of {budget}"
            )
        return n_rows, n_cols

    # -- the walker ----------------------------------------------------------

    def _resolve(self, tables, keys, won) -> tuple[tuple[list[int], list[int]], tuple[dict, dict]]:
        """Walk every play of the candidate strategies in `tables`.

        `tables[0]` and `tables[1]` hold Eloise's and Abelard's candidates,
        flat choice tables with -1 at unassigned cells, and `keys[side][i]`
        candidate i's (representative, multiplicity).  At a move, the
        mover's candidates split by their option at the cell reached; a
        candidate without one is first replaced by one copy per option,
        appended to its list with its key.  The opponent's candidates pass
        through each option's subtree in turn, so every candidate comes out
        assigned at each cell it can reach against some opponent play.  At an
        end of play that Eloise wins, `won((eloise, abelard))` gets the indices
        of the candidates playing it; a candidate replaced afterwards stands
        for its copies.  Returns both sides' final indices and, per side, each
        replaced index's copies."""
        self._compile_ends()
        replaced: tuple[dict, dict] = ({}, {})
        values = [0] * self._slots

        def walk(node: _Node, pair):
            while node.children:
                side = node.side
                code = 0
                for slot, r in node.visible:
                    code = code * r + values[slot]
                cell = node.base + code
                table = tables[side]
                mine = pair[side]
                if len(mine) == 1 and (k := table[mine[0]][cell]) >= 0:  # nothing to split
                    values[node.var] = k
                    node = node.children[k]
                    continue
                groups = [[] for _ in node.children]
                for i in mine:
                    k = table[i][cell]
                    if k >= 0:
                        groups[k].append(i)
                    else:
                        self._copy(side, table, keys[side], i, cell, groups, replaced[side])
                own, other = [], pair[1 - side]
                for k, group in enumerate(groups):
                    if group:
                        values[node.var] = k
                        sub = walk(node.children[k], (group, other) if side == 0 else (other, group))
                        own += sub[side]
                        other = sub[1 - side]
                return (own, other) if side == 0 else (other, own)
            if node.holds(values):
                won(pair)
            return pair

        final = walk(self._root, ([0], [0]))
        del walk  # it reaches itself through its closure; do not leave the cycle to gc
        return final, replaced

    def _copy(self, side: int, table, keys, i: int, cell: int, groups, replaced: dict) -> None:
        """Replace candidate i, unassigned at `cell`, by one copy per option,
        each added to its option's group.  The copy with option k has i's
        representative plus k times the cell's place value, and i's
        multiplicity over the cell's option count."""
        radices, strides = self._layout[side]
        rep, weight = keys[i]
        weight //= radices[cell]
        first = len(table)
        for k, group in enumerate(groups):
            copy = table[i].copy()
            copy[cell] = k
            table.append(copy)
            keys.append((rep + k * strides[cell], weight))
            group.append(first + k)
        replaced[i] = range(first, len(table))

    # -- strategic forms -----------------------------------------------------

    def reduced_form(self, max_strategies: int = DEFAULT_STRATEGY_BUDGET) -> ReducedForm:
        """R, refused exactly when the full game would be."""
        n_rows, n_cols = self._checked_shape(max_strategies)
        tables = tuple([[-1] * len(radices)] for radices, _ in self._layout)
        keys = ([(0, n_rows)], [(0, n_cols)])  # all cells unassigned: rep 0, every full strategy
        wins = []
        final, replaced = self._resolve(tables, keys, wins.append)
        eloise, row_order = self._sorted(0, tables[0], keys[0], final[0])
        abelard, col_order = self._sorted(1, tables[1], keys[1], final[1])
        row_at, row_of = _positions(row_order, replaced[0], len(tables[0]))
        col_at, col_of = _positions(col_order, replaced[1], len(tables[1]))
        width = len(col_order)
        out = np.zeros((len(row_order), width), dtype=np.uint8)
        single = []  # flat indices of the wins of one row against one column
        for rows, cols in wins:
            if len(rows) == 1 == len(cols) and row_at[rows[0]] >= 0 and col_at[cols[0]] >= 0:
                single.append(row_at[rows[0]] * width + col_at[cols[0]])
            else:
                out[np.ix_(row_of(rows), col_of(cols))] = 1
        out.flat[single] = 1
        return ReducedForm(
            matrix=GameMatrix._from_array(out),
            eloise=eloise,
            abelard=abelard,
            collapsed_loci=tuple(self.collapsed),
        )

    def _sorted(self, side: int, table: list[list[int]], keys: list[tuple[int, int]], final: list[int]):
        """The side's reduced strategies in order of representative, and the
        candidate indices in that order."""
        order = sorted(final, key=keys.__getitem__)
        reduced = ReducedStrategies(
            owner=_PLAYERS[side],
            cells=tuple(tuple(table[i]) for i in order),
            reps=tuple(keys[i][0] for i in order),
            weights=tuple(keys[i][1] for i in order),
        )
        return reduced, order

    def build_matrix(self, max_strategies: int = DEFAULT_STRATEGY_BUDGET) -> ReducedForm:
        """The full strategic game, R expanded: each full row and column is
        the one of its class."""
        form = self.reduced_form(max_strategies)
        rows, cols = self._classes(0, form.eloise), self._classes(1, form.abelard)
        full = GameMatrix._from_array(form.matrix.array[np.ix_(rows, cols)])
        return ReducedForm.of_matrix(full, form.collapsed_loci)

    def _classes(self, side: int, reduced: ReducedStrategies) -> np.ndarray:
        """The reduced strategy of every full strategy, by full index: a
        class is its representative plus every combination of options at the
        cells it leaves unassigned."""
        radices, strides = self._layout[side]
        cells = np.array(reduced.cells, dtype=np.int64).reshape(len(reduced.cells), len(radices))
        reps = np.array(reduced.reps, dtype=np.int64)
        patterns, members_of = np.unique(cells < 0, axis=0, return_inverse=True)
        out = np.full(reduced.count, -1, dtype=np.intp)
        for p, unassigned in enumerate(patterns):
            offsets = np.zeros(1, dtype=np.int64)
            for q in np.flatnonzero(unassigned).tolist():
                offsets = (offsets[:, None] + np.arange(radices[q], dtype=np.int64) * strides[q]).ravel()
            members = np.flatnonzero(members_of.ravel() == p)
            out[(reps[members, None] + offsets).ravel()] = np.repeat(members, len(offsets))
        assert out.min() >= 0, "the classes miss a full strategy"
        return out

    def play(self, sigma: PureStrategy, tau: PureStrategy) -> int:
        """Eloise's payoff (0 or 1) when `sigma` meets `tau`; both strategies
        must come from this game's collapse mode."""
        if sigma.owner != ELOISE or tau.owner != ABELARD:
            raise ValueError("play expects an Eloise strategy then an Abelard strategy")
        tables = []
        for strategy in (sigma, tau):
            sizes = [self.points[i].table_size for i in self.owner_points[strategy.owner]]
            if [len(t) for t in strategy.tables] != sizes:
                raise ValueError(
                    f"{strategy.owner} strategy tables do not fit this game's decision points; "
                    "was it enumerated under the same collapse mode?"
                )
            tables.append([[k for t in strategy.tables for k in t]])
        wins = []
        self._resolve(tables, ([None], [None]), wins.append)  # full tables are never copied
        return len(wins)


def _rebound(var: str) -> GameBuildError:
    return GameBuildError(f"variable {var!r} is rebound on one path; games need distinct names")


def _collapsible(f: Formula) -> set[int]:
    """The ids of the quantifiers and the connectives of two or more
    branches in `f` whose subtree has no quantifier with a nonempty slash
    set, found in one bottom-up pass."""
    found: set[int] = set()

    def slash_free(node) -> bool:
        if isinstance(node, Quant):
            free = slash_free(node.body) and not node.slash
        elif isinstance(node, Connective):
            free = all([slash_free(branch) for branch in node.branches])  # visit every branch
            if len(node.branches) < 2:
                return free  # a lone branch is no move
        else:
            return True
        if free:
            found.add(id(node))
        return free

    slash_free(f)
    return found


def _quantifier_chain(f: Formula, names: set[str]) -> int:
    """The longest chain of nested quantifiers in the collapsed subformula
    `f`, under the identifiers `names` bound above it; a rebinding is refused
    as it would be were `f` played out."""
    if isinstance(f, Quant):
        if f.var in names:
            raise _rebound(f.var)
        return 1 + _quantifier_chain(f.body, names | {f.var})
    if isinstance(f, Connective):
        return max(_quantifier_chain(branch, names) for branch in f.branches)
    return 0


def _positions(order: list[int], replaced: dict[int, range], count: int):
    """Each of the `count` candidates' R index, -1 for a replaced one, and a
    map from the candidates a play saw to the R indices they stand for: a
    final candidate's own, or those of the copies that replaced it."""
    at = [-1] * count
    for r, i in enumerate(order):
        at[i] = r

    def of(candidates: list[int]) -> list[int]:
        out, stack = [], list(candidates)
        while stack:
            i = stack.pop()
            if at[i] >= 0:
                out.append(at[i])
            else:
                stack.extend(replaced[i])
        return out

    return at, of


def decision_points(f: Formula, s: Structure) -> list[DecisionPoint]:
    """All decision points of the game of `f` on `s`, in formula order
    (collapsing is a strategy-enumeration concern and does not apply here)."""
    return Game(s, f, collapse=False).points


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
    if player not in _PLAYERS:
        raise ValueError(f"unknown player {player!r}")
    game = Game(s, f, collapse)
    game.strategy_count(player, max_strategies)
    return [
        PureStrategy(owner=player, tables=tables)
        for tables in iter_strategy_tables(game.points, game.owner_points[player])
    ]


def play(
    s: Structure,
    f: Formula,
    sigma: PureStrategy,
    tau: PureStrategy,
    collapse: bool = True,
) -> int:
    """`Game(s, f, collapse).play(sigma, tau)`; compile the game once to play many."""
    return Game(s, f, collapse).play(sigma, tau)


def build_reduced(
    s: Structure,
    f: Formula,
    collapse: bool = True,
    max_strategies: int = DEFAULT_STRATEGY_BUDGET,
) -> ReducedForm:
    """The reduced strategic form R; the budget and the cell cap apply to the
    full strategy counts, as in `build_matrix`."""
    return Game(s, f, collapse).reduced_form(max_strategies)


def build_matrix(
    s: Structure,
    f: Formula,
    collapse: bool = True,
    max_strategies: int = DEFAULT_STRATEGY_BUDGET,
) -> ReducedForm:
    """The full strategic game as a form of singleton classes: rows are
    Eloise's strategies, columns Abelard's, entry (i, j) Eloise's payoff,
    rows and columns in enumeration order."""
    return Game(s, f, collapse).build_matrix(max_strategies)
