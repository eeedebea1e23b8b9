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

One walk enumerates R's strategies and scores no play; it walks once the
body of a quantifier that no later move sees.  R is then scored by its shape:
below 256 cells by a walk of R's strategies that tests each end once for all
the pairs reaching it, and from there with numpy, every pair of a block of
rows at once.

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

import numpy as np

from .errors import BudgetExceededError, GameBuildError, SizeLimitError
from .formula import Connective, Formula, Quant, format_formula, validate
from .matrix_game import GameMatrix
from .structure import MAX_ARRAY_ELEMENTS, Structure, compile_qf

ELOISE = "eloise"
ABELARD = "abelard"
_PLAYERS = (ELOISE, ABELARD)

DEFAULT_STRATEGY_BUDGET = 2**20
_MAX_MATRIX_CELLS = 2**28
# R's cell count from which `Game._grid` scores it rather than `Game._play`.
# Timed alone, `_play` was as fast or faster on every benchmark game below 256
# cells (1.5x at 128-255, 1.4x on hashing 3/2's 8x25), the grid 3x faster on
# birthday 4 2 (16x16) and 27x on birthday 5 3 (125x125).
_GRID_CELLS = 256

Path = tuple[int, ...]


@dataclass(frozen=True)
class DecisionPoint:
    """One information set: where a player moves and what they see there."""

    owner: str
    visible: tuple[str, ...]  # identifiers visible at the point, in binding order
    options: int  # universe size for quantifiers, branch count for connectives
    visible_ranges: tuple[int, ...]  # number of values of each visible identifier

    @property
    def table_size(self) -> int:
        return math.prod(self.visible_ranges)


@dataclass(frozen=True, eq=False)
class ReducedStrategies:
    """One player's reduced strategies, in order of representative.

    `cells[s]` is strategy s's flat choice table (the owner's point tables
    concatenated in point order) with -1 at every cell it leaves
    unassigned; `reps[s]` is the full-form index of the strategy with those
    cells at 0, and `weights[s]` the number of full strategies in its class.
    A game given by its matrix has no choice tables, so no `cells`."""

    cells: tuple[tuple[int, ...], ...]
    reps: tuple[int, ...] | range
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
        eloise, abelard = (ReducedStrategies(cells=(), reps=range(k), weights=(1,) * k) for k in (u.m, u.n))
        return cls(u, eloise, abelard, collapsed_loci)


class _Node:
    """A compiled position in a play, whose values sit in a list of slots:
    an identifier's slot is its binding depth.  An end of play has no
    `children`; its test from `_compile_ends` tells on that list whether
    Eloise wins, and a collapsed quantifier in it writes the slots past the
    end's bindings.  Otherwise `side` (0 Eloise, 1 Abelard)
    moves at the flat table cell `base` + the mixed-radix code of the
    `visible` (slot, range) pairs, and option k is written to slot `var` and
    continues at `children[k]`.  A connective without a choice variable
    writes to the next free slot, which nothing reads before a deeper
    quantifier rebinds it.  Bit i of `seen` tells whether a move from the
    node down reads slot i; a quantifier, built with its one body, is
    `merged` when no move below it sees its variable, as every option's walk
    is then the same."""

    __slots__ = ("side", "base", "visible", "var", "children", "seen", "merged")

    def __init__(self, side=0, base=0, visible=(), var=0, children=()):
        self.side = side
        self.base = base
        self.visible = visible
        self.var = var
        self.children = children
        self.seen = sum(1 << slot for slot, _ in visible)  # distinct slots
        for child in children:
            self.seen |= child.seen
        self.merged = len(children) == 1 and not self.seen >> var & 1


def _owner_of(node: Quant | Connective) -> str:
    if isinstance(node, Quant):
        return ABELARD if node.kind == "forall" else ELOISE
    return ABELARD if node.kind == "and" else ELOISE


class Game:
    """A sentence on a structure, validated, planned and compiled once.

    `points` lists the decision points in formula order and `owner_points`
    each player's point indices; a player's flat choice table concatenates
    their points' tables in that order, and a full strategy's index is its
    flat table read as a mixed-radix number, leftmost cell most significant."""

    def __init__(self, structure: Structure, formula: Formula, collapse: bool = True):
        violations = validate(formula, structure.vocabulary())
        if violations:
            details = "; ".join(str(v) for v in violations)
            raise GameBuildError(f"sentence is not well formed over this structure: {details}")
        self.structure = structure
        self.formula = formula
        self.points: list[DecisionPoint] = []
        self.collapsed: list[Path] = []
        self.owner_points: dict[str, list[int]] = {ELOISE: [], ABELARD: []}
        self._canon: dict[tuple, int] = {}
        self._base: list[int] = []  # per point, its first cell in the owner's flat table
        self._cells = [0, 0]  # flat table length per side
        self._slots = 1  # length of the value list a play writes
        self._ends: list[tuple[_Node, Formula, tuple, int]] = []  # each end, its bindings and chain
        self._quantifiers: list[_Node] = []  # one child each until the budget check
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
            self._quantifiers.append(self._move(idx, slots, len(bound), (body,)))
            return self._quantifiers[-1]
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
        """An end of play, compiled by `_compile_ends`.  A move writes a slot
        no higher than the binding count of each end after it, and the end's
        k-th nested quantifier the k-th slot past that count."""
        node = _Node()
        self._ends.append((node, formula, bound, chain))
        self._chain = max(self._chain, chain)
        self._slots = max(self._slots, len(bound) + max(chain, 1))
        return node

    def _compile_ends(self, arrays: bool = False) -> dict[_Node, object]:
        """Each end of play's test, scalar or on arrays, compiled after the
        budget check so that a refused game compiles none."""
        tests = {}
        for node, formula, bound, _ in self._ends:
            slots = {name: slot for slot, (name, _) in enumerate(bound)}
            tests[node] = compile_qf(self.structure, formula, slots, arrays)
        return tests

    def _move(self, idx: int, visible, var: int, children) -> _Node:
        side = _PLAYERS.index(self.points[idx].owner)
        return _Node(side, self._base[idx], visible, var, children)

    def _register(self, canon, path: Path, owner: str, visible, options: int) -> int:
        point = DecisionPoint(owner, tuple(n for n, _ in visible), options, tuple(r for _, r in visible))
        if canon in self._canon:
            idx = self._canon[canon]
            if self.points[idx] != point:
                raise GameBuildError(f"indistinguishable positions at {path} disagree on owner or information")
            return idx
        idx = len(self.points)
        self.points.append(point)
        self._canon[canon] = idx
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
        check_cells(n_rows, n_cols, self.formula)
        size, chain = self.structure.size, self._chain
        if size**chain > budget:
            raise SizeLimitError(
                f"classical evaluation of a perfect-information subformula would visit "
                f"{size}^{chain} assignments, over the budget of {budget}"
            )
        return n_rows, n_cols

    # -- the walker ----------------------------------------------------------

    def _resolve(self, n_rows: int, n_cols: int):
        """Enumerate R's strategies in one walk of the candidate strategies,
        from one a side.

        `tables[side]` holds a side's candidates, flat choice tables with -1
        at unassigned cells, and `keys[side][i]` candidate i's
        (representative, multiplicity).  At a move, the mover's candidates
        split by their option at the cell reached; one without an option is
        first split into one copy per option, each appended with its key.  The
        opponent's candidates pass through each option's subtree in turn, so
        every candidate comes out assigned at each cell it can reach against
        some opponent play.  No end is evaluated, and a `merged` quantifier
        walks its body once with every option's candidates.
        Returns the tables, the keys and both sides' final indices."""
        tables = tuple([[-1] * len(radices)] for radices, _ in self._layout)
        keys = ([(0, n_rows)], [(0, n_cols)])  # all cells unassigned: rep 0, every full strategy
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
                        copy(side, i, cell, groups)
                if node.merged:
                    groups = [[i for group in groups for i in group]]
                own, other = [], pair[1 - side]
                for k, group in enumerate(groups):
                    if group:
                        values[node.var] = k
                        sub = walk(node.children[k], (group, other) if side == 0 else (other, group))
                        own += sub[side]
                        other = sub[1 - side]
                return (own, other) if side == 0 else (other, own)
            return pair

        def copy(side: int, i: int, cell: int, groups) -> None:
            """Replace candidate i, unassigned at `cell`, by one copy per
            option, each added to its option's group.  The copy with option k
            has i's representative plus k times the cell's place value, and
            i's multiplicity over the cell's option count."""
            radices, strides = self._layout[side]
            table, key = tables[side], keys[side]
            rep, weight = key[i]
            weight //= radices[cell]
            for k, group in enumerate(groups):
                cells = table[i].copy()
                cells[cell] = k
                group.append(len(table))
                table.append(cells)
                key.append((rep + k * strides[cell], weight))

        final = walk(self._root, ([0], [0]))
        del walk  # it reaches itself through its closure; do not leave the cycle to gc
        return tables, keys, final

    def _play(self, eloise: ReducedStrategies, abelard: ReducedStrategies) -> np.ndarray:
        """R's payoffs by one walk of its strategies: at a move the mover's
        strategies split by their option at the cell reached, and an end's
        scalar test scores at once every pair that reaches it, as all of them
        bind the same values."""
        tests = self._compile_ends()
        tables = (eloise.cells, abelard.cells)
        values = [0] * self._slots
        out = [bytearray(len(abelard.cells)) for _ in eloise.cells]

        def visit(node: _Node, pair) -> None:
            if not node.children:
                if tests[node](values):
                    for i in pair[0]:
                        for j in pair[1]:
                            out[i][j] = 1
                return
            code = 0
            for slot, r in node.visible:
                code = code * r + values[slot]
            groups = [[] for _ in node.children]
            for i in pair[node.side]:
                groups[tables[node.side][i][node.base + code]].append(i)
            for k, group in enumerate(groups):
                if group:
                    values[node.var] = k
                    visit(node.children[k], (group, pair[1]) if node.side == 0 else (pair[0], group))

        visit(self._root, (range(len(eloise.cells)), range(len(abelard.cells))))
        del visit  # a cycle through its closure, as in `_resolve`
        return np.frombuffer(b"".join(out), dtype=np.uint8).reshape(len(out), -1)

    def _grid(self, eloise: ReducedStrategies, abelard: ReducedStrategies) -> np.ndarray:
        """R's payoffs, all pairs of a block of rows at once: a move reads each
        pair's option off the mover's table, a connective passes each branch
        the mask of pairs that chose it, an end scores those pairs.  R's
        strategies assign every cell they reach, so an unassigned cell, read
        as 0 to stay in range, is read only off the mask."""
        tests = self._compile_ends(arrays=True)
        tables = [np.maximum(np.array(s.cells, dtype=np.intp), 0) for s in (eloise, abelard)]
        out = np.zeros((len(eloise.reps), len(abelard.reps)), dtype=np.uint8)
        picks = [None, np.arange(out.shape[1])[None, :]]  # per side, the pairs' strategies

        def visit(node: _Node, mask: np.ndarray) -> None:
            while node.children:
                code = 0
                for slot, r in node.visible:
                    code = code * r + values[slot]
                option = tables[node.side][picks[node.side], node.base + code]
                values[node.var] = option
                if node.children[0] is node.children[-1]:  # a quantifier: one body for every option
                    node = node.children[0]
                    continue
                for k, child in enumerate(node.children):
                    chose = mask & (option == k)
                    if chose.any():
                        visit(child, chose)
                return
            block[mask] = tests[node]([np.broadcast_to(v, mask.shape)[mask] for v in values])

        step = max(1, MAX_ARRAY_ELEMENTS // out.shape[1])
        for start in range(0, out.shape[0], step):
            block = out[start : start + step]
            picks[0] = np.arange(start, start + len(block))[:, None]
            values = [0] * self._slots
            visit(self._root, np.ones(block.shape, dtype=bool))
        del visit  # a cycle through its closure, as in `_resolve`
        return out

    # -- strategic forms -----------------------------------------------------

    def reduced_form(self, max_strategies: int = DEFAULT_STRATEGY_BUDGET) -> ReducedForm:
        """R, refused exactly when the full game would be: one walk finds its
        strategies, then `_play` scores it below _GRID_CELLS cells and
        `_grid` from there.  A quantifier's move gets its body once per
        universe element only after the budget check, so a refused game
        allocates nothing per element, however large the universe."""
        n_rows, n_cols = self._checked_shape(max_strategies)
        while self._quantifiers:
            self._quantifiers.pop().children *= self.structure.size
        tables, keys, final = self._resolve(n_rows, n_cols)
        eloise = self._sorted(tables[0], keys[0], final[0])
        abelard = self._sorted(tables[1], keys[1], final[1])
        score = self._grid if len(eloise.reps) * len(abelard.reps) >= _GRID_CELLS else self._play
        return ReducedForm(
            matrix=GameMatrix._from_array(score(eloise, abelard)),
            eloise=eloise,
            abelard=abelard,
            collapsed_loci=tuple(self.collapsed),
        )

    def _sorted(self, table: list[list[int]], keys: list[tuple[int, int]], final: list[int]) -> ReducedStrategies:
        """A side's reduced strategies in order of representative."""
        order = sorted(final, key=keys.__getitem__)
        return ReducedStrategies(
            cells=tuple(tuple(table[i]) for i in order),
            reps=tuple(keys[i][0] for i in order),
            weights=tuple(keys[i][1] for i in order),
        )

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


def check_cells(n_rows: int, n_cols: int, formula: Formula) -> None:
    """Refuse a full game of `formula` with more cells than the safety cap."""
    if n_rows * n_cols > _MAX_MATRIX_CELLS:
        raise GameBuildError(
            f"matrix would hold {n_rows * n_cols} cells "
            f"(over the {_MAX_MATRIX_CELLS} safety cap) for {format_formula(formula)!r}"
        )


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


def decision_points(f: Formula, s: Structure) -> list[DecisionPoint]:
    """All decision points of the game of `f` on `s`, in formula order
    (collapsing is a strategy-enumeration concern and does not apply here)."""
    return Game(s, f, collapse=False).points


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
