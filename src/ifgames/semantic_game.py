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
every full row and column is a copy of one in R.  `build_reduced` builds R;
`build_matrix` plays every full pair, apart from R's walker and `_play`.

One walk per player enumerates that player's reduced strategies and scores
no play.  At an opponent's move whose variable none of the player's later
moves sees, it walks one child of each shape (moves of one shape consult the
same cells under the same values): a quantifier's body once, and once the
branches of a choice that every later quantifier slashes.  R is then scored
by its size: below 256 cells by a walk of R's strategies that tests each end
once for all the pairs reaching it, and from there with numpy, every pair of
a block of rows at once.

A quantifier that slashes the choice variable of an enclosing branching
disjunction cannot tell the branches apart, so structurally corresponding
quantifier occurrences across those branches share a single decision point and
hence a single choice table.  That sharing is what keeps the branch index
genuinely hidden downstream.

The builders take validated sentences only, so every connective is a move
of two or more options.  With `collapse=True`, a play ends at every
quantifier and connective whose subtree has no slashed quantifier, and that
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

from .errors import BudgetExceededError, GameBuildError, SizeLimitError, shown
from .formula import Connective, Formula, Quant, validate
from .matrix_game import DEFAULT_STRATEGY_BUDGET, GameMatrix, ReducedForm, ReducedStrategies
from .structure import MAX_ARRAY_ELEMENTS, Structure, compile_qf

ELOISE = "eloise"
ABELARD = "abelard"
_PLAYERS = (ELOISE, ABELARD)

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
    quantifier rebinds it.  Bit i of `seen[s]` tells whether a move of side
    s at the node or below it reads slot i.  Nodes of one `shape` make the
    same moves at the same cells under the same values: every end has shape
    0, and `distinct` holds one child of each shape."""

    __slots__ = ("side", "base", "visible", "var", "children", "seen", "shape", "distinct")

    def __init__(self, side=0, base=0, visible=(), var=0, children=(), shape=0):
        self.side = side
        self.base = base
        self.visible = visible
        self.var = var
        self.children = children
        self.shape = shape
        self.distinct = tuple({child.shape: child for child in children}.values())
        seen = [0, 0]
        if children:
            seen[side] = sum(1 << slot for slot, _ in visible)  # distinct slots
        for child in children:
            seen[0] |= child.seen[0]
            seen[1] |= child.seen[1]
        self.seen = tuple(seen)


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
        self._ends: list[tuple[_Node, Formula, tuple]] = []  # each end and its bindings
        self._quantifiers: list[_Node] = []  # one child each until the budget check
        self._shapes: dict[tuple, int] = {}  # a move's parts and its children's shapes -> its shape
        chains = _collapsible(formula)  # which also refuses a rebinding when nothing collapses
        self._collapsible = chains if collapse else {}  # collapsed node id -> its quantifier chain
        self._root = self._compile(formula, (), ())

    # -- planning ------------------------------------------------------------

    def _compile(self, node, stack, bound) -> _Node:
        """`stack` holds (component, enclosing choice var) per path step, the
        components being the path reported; `bound` holds (identifier, range)
        pairs in binding order, so an identifier's slot is its index there and
        a move's `var` is the next slot."""
        chain = self._collapsible.get(id(node))
        if chain is not None:  # perfect information: evaluated classically
            self.collapsed.append(tuple(i for i, _ in stack))
            return self._end(node, bound, chain)
        if isinstance(node, Quant):
            canon = tuple("*" if cv is not None and cv in node.slash else idx for idx, cv in stack)
            visible = tuple((name, rng) for name, rng in bound if name not in node.slash)
            size = self.structure.size
            idx = self._register(canon, stack, _owner_of(node), visible, size)
            body = self._compile(node.body, stack + ((0, None),), bound + ((node.var, size),))
            slots = tuple((slot, rng) for slot, (name, rng) in enumerate(bound) if name not in node.slash)
            self._quantifiers.append(self._move(idx, slots, len(bound), (body,)))
            return self._quantifiers[-1]
        if isinstance(node, Connective):
            idx = self._register(tuple(i for i, _ in stack), stack, _owner_of(node), bound, len(node.branches))
            inner = bound
            if node.choice_var is not None:
                inner = bound + ((node.choice_var, len(node.branches)),)
            children = tuple(
                self._compile(branch, stack + ((b, node.choice_var),), inner)
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
        self._ends.append((node, formula, bound))
        self._slots = max(self._slots, len(bound) + max(chain, 1))
        return node

    def _compile_ends(self, arrays: bool = False) -> dict[_Node, object]:
        """Each end of play's test, scalar or on arrays, compiled after the
        budget check so that a refused game compiles none."""
        tests = {}
        for node, formula, bound in self._ends:
            slots = {name: slot for slot, (name, _) in enumerate(bound)}
            tests[node] = compile_qf(self.structure, formula, slots, arrays)
        return tests

    def _move(self, idx: int, visible, var: int, children) -> _Node:
        """A move at point `idx`; a quantifier's `children` is its body alone."""
        side = _PLAYERS.index(self.points[idx].owner)
        key = (side, self._base[idx], visible, var, self.points[idx].options, *(c.shape for c in children))
        shape = self._shapes.setdefault(key, len(self._shapes) + 1)
        return _Node(side, self._base[idx], visible, var, children, shape)

    def _register(self, canon, stack, owner: str, visible, options: int) -> int:
        point = DecisionPoint(owner, tuple(n for n, _ in visible), options, tuple(r for _, r in visible))
        if canon in self._canon:
            idx = self._canon[canon]
            if self.points[idx] != point:
                path = tuple(i for i, _ in stack)
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
        refuses a game that `collapse=False` accepts.  Only then does a
        quantifier get its body once per element: a refused game allocates
        nothing per element, however large the universe."""
        n_rows = self.strategy_count(ELOISE, budget)
        n_cols = self.strategy_count(ABELARD, budget)
        check_matrix_size(n_rows, n_cols)
        size, chain = self.structure.size, max(self._collapsible.values(), default=0)
        if size**chain > budget:
            raise SizeLimitError(
                f"classical evaluation of a perfect-information subformula would visit "
                f"{size}^{chain} assignments, over the budget of {shown(budget)}"
            )
        while self._quantifiers:
            self._quantifiers.pop().children *= size
        return n_rows, n_cols

    # -- the walker ----------------------------------------------------------

    def _strategies(self, side: int, count: int) -> ReducedStrategies:
        """Enumerate one side's reduced strategies in one walk of its
        candidates, flat choice tables with -1 at unassigned cells, from one
        that assigns nothing and stands for all `count` full strategies.

        At the side's own move the candidates split by their option at the
        cell reached; one without an option is first split into one copy per
        option, with its representative plus the option times the cell's
        place value and its multiplicity over the cell's option count.  At an
        opponent's move the candidates pass through each option's subtree in
        turn, as some opponent play takes each option, so every candidate
        comes out assigned at each cell it can reach against some opponent
        play.  No end is evaluated, so at an opponent's move whose variable
        none of the side's moves below it sees, one child of each shape is
        walked: once the first child of a shape is passed, every candidate is
        assigned wherever a second one reaches, under the same values."""
        radices, strides = self._layout[side]
        tables = [[-1] * len(radices)]
        keys = [(0, count)]  # per candidate, (representative, multiplicity)
        values = [0] * self._slots

        def walk(node: _Node, mine: list[int]) -> list[int]:
            while node.children:
                if node.side != side:
                    children = node.children if node.seen[side] >> node.var & 1 else node.distinct
                    if len(children) > 1:
                        for k, child in enumerate(children):
                            values[node.var] = k
                            mine = walk(child, mine)
                        return mine
                    values[node.var] = 0
                    node = children[0]
                    continue
                code = 0
                for slot, r in node.visible:
                    code = code * r + values[slot]
                cell = node.base + code
                groups = [[] for _ in node.children]
                for i in mine:
                    k = tables[i][cell]
                    if k >= 0:
                        groups[k].append(i)
                        continue
                    rep, weight = keys[i]
                    for k, group in enumerate(groups):
                        group.append(len(tables))
                        tables.append(tables[i].copy())
                        tables[-1][cell] = k
                        keys.append((rep + k * strides[cell], weight // radices[cell]))
                mine = []
                for k, group in enumerate(groups):
                    if group:
                        values[node.var] = k
                        mine += walk(node.children[k], group)
                return mine
            return mine

        order = sorted(walk(self._root, [0]), key=keys.__getitem__)
        del walk  # it reaches itself through its closure; do not leave the cycle to gc
        return ReducedStrategies(
            cells=tuple(tuple(tables[i]) for i in order),
            reps=tuple(keys[i][0] for i in order),
            weights=tuple(keys[i][1] for i in order),
        )

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
        del visit  # a cycle through its closure, as in `_strategies`
        return np.frombuffer(b"".join(out), dtype=np.uint8).reshape(len(out), -1)

    def _grid(self, tables: list[np.ndarray]) -> np.ndarray:
        """The payoffs of Eloise's flat tables `tables[0]` against Abelard's
        `tables[1]`, all pairs of a block of rows at once: a move reads each
        pair's option off the mover's table, a connective passes each branch
        the mask of pairs that chose it, an end scores those pairs.  R's
        strategies assign every cell they reach, so an unassigned cell, read
        as 0 to stay in range, is read only off the mask."""
        tests = self._compile_ends(arrays=True)
        out = np.zeros((len(tables[0]), len(tables[1])), dtype=np.uint8)
        picks = [None, np.arange(out.shape[1])[None, :]]  # per side, the pairs' tables

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
        del visit  # a cycle through its closure, as in `_strategies`
        return out

    # -- strategic forms -----------------------------------------------------

    def reduced_form(self, max_strategies: int = DEFAULT_STRATEGY_BUDGET) -> ReducedForm:
        """R, refused exactly when the full game would be: one walk per side
        finds its strategies, then `_play` scores it below _GRID_CELLS cells
        and `_grid` from there."""
        n_rows, n_cols = self._checked_shape(max_strategies)
        eloise, abelard = self._strategies(0, n_rows), self._strategies(1, n_cols)
        for player, reduced, count in ((ELOISE, eloise, n_rows), (ABELARD, abelard, n_cols)):
            if reduced.count != count:
                raise RuntimeError(f"{player}: reduced strategies cover {reduced.count} full ones, not {count}")
        if len(eloise.reps) * len(abelard.reps) < _GRID_CELLS:
            payoffs = self._play(eloise, abelard)
        else:
            payoffs = self._grid([np.maximum(np.array(s.cells, dtype=np.intp), 0) for s in (eloise, abelard)])
        return ReducedForm(GameMatrix._from_array(payoffs), eloise, abelard, tuple(self.collapsed))

    def build_matrix(self, max_strategies: int = DEFAULT_STRATEGY_BUDGET) -> ReducedForm:
        """The full strategic game, every pair of full strategies played on
        the grid: a full index's table is its digits in the mixed radix of
        `_layout`."""
        tables = []
        for side, count in enumerate(self._checked_shape(max_strategies)):
            radices, strides = np.array(self._layout[side], dtype=np.int64)
            tables.append(np.arange(count, dtype=np.int64)[:, None] // strides % radices)
        return ReducedForm.of_matrix(GameMatrix._from_array(self._grid(tables)), tuple(self.collapsed))


def check_matrix_size(n_rows: int, n_cols: int) -> None:
    """Refuse a full game with more cells than the safety cap."""
    if n_rows * n_cols > _MAX_MATRIX_CELLS:
        raise GameBuildError(
            f"matrix would hold {shown(n_rows * n_cols)} cells (over the {_MAX_MATRIX_CELLS} safety cap)"
        )


def _collapsible(f: Formula) -> dict[int, int]:
    """The ids of the quantifiers and the connectives in `f` whose subtree
    has no quantifier with a nonempty slash set, each with its subtree's
    longest chain of nested quantifiers, found in one pass that refuses a
    quantifier rebinding a quantifier or choice variable above it, whether
    the quantifier is played or collapsed.  `f` is validated, so every
    connective is a move of two or more options."""
    found: dict[int, int] = {}

    def chain(node, names: tuple[str, ...]) -> int | None:  # None with a slash below
        if isinstance(node, Quant):
            if node.var in names:
                raise GameBuildError(f"variable {node.var!r} is rebound on one path; games need distinct names")
            below = chain(node.body, names + (node.var,))
            longest = None if below is None or node.slash else below + 1
        elif isinstance(node, Connective):
            if node.choice_var is not None:
                names += (node.choice_var,)
            below = [chain(branch, names) for branch in node.branches]  # visit every branch
            longest = None if None in below else max(below)
        else:
            return 0
        if longest is not None:
            found[id(node)] = longest
        return longest

    chain(f, ())
    return found


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
