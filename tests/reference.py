"""References the package is tested against, kept out of the package.

A full-table strategy enumerator and a walker-free play resolver, which
resolve each play on its own, one path through the formula with every move
read off a choice table; the hashing lambda-step behind
`minimal_degree_indices`; and the canonical structure writer the tests use to
make fixture files.
"""

import json
from dataclasses import dataclass
from itertools import product

from ifgames.applications import function_degree
from ifgames.formula import Connective, Quant
from ifgames.matrix_game import GameMatrix
from ifgames.semantic_game import ABELARD, DEFAULT_STRATEGY_BUDGET, ELOISE, Game

from conftest import _naive_eval

# ---------------------------------------------------------------------------
# Full strategies and their plays


@dataclass(frozen=True)
class PureStrategy:
    """Choice tables, one per decision point of the owner, in point order.

    Table `t` maps the mixed-radix code of the visible values at point `t`
    (earliest-bound identifier most significant) to an option index.
    """

    owner: str
    tables: tuple[tuple[int, ...], ...]


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


def enumerate_strategies(s, f, player, collapse=True, max_strategies=DEFAULT_STRATEGY_BUDGET):
    """All uniform pure strategies of `player`, lexicographic by choice table,
    which is the order of the full game's rows or columns."""
    game = Game(s, f, collapse)
    game.strategy_count(player, max_strategies)
    return [
        PureStrategy(owner=player, tables=tables)
        for tables in iter_strategy_tables(game.points, game.owner_points[player])
    ]


def _reference_matrix(s, f, collapse) -> GameMatrix:
    """The full game, every cell by `_reference_play`."""
    plan = Game(s, f, collapse)
    eloise = enumerate_strategies(s, f, ELOISE, collapse=collapse)
    abelard = enumerate_strategies(s, f, ABELARD, collapse=collapse)
    return GameMatrix(
        [[_reference_play(plan, {ELOISE: sigma, ABELARD: tau}) for tau in abelard] for sigma in eloise]
    )


def _reference_play(plan, strategies) -> int:
    """Eloise's payoff when the owner -> PureStrategy map `strategies` meets
    on the planned game `plan`: one path through the formula, a collapsed
    subformula settled by backward induction."""
    collapsed = set(plan.collapsed)

    def lookup(path, a) -> int:
        idx = plan.point_at[path]
        point = plan.points[idx]
        table = strategies[point.owner].tables[plan.owner_points[point.owner].index(idx)]
        cell = 0
        for name, size in zip(point.visible, point.visible_ranges):
            cell = cell * size + a[name]
        return table[cell]

    def walk(node, path, a) -> int:
        if path in collapsed:
            return 1 if _eloise_wins(plan.structure, node, a) else 0
        if isinstance(node, Quant):
            a[node.var] = lookup(path, a)
            return walk(node.body, path + (0,), a)
        if isinstance(node, Connective):
            if len(node.branches) == 1:
                return walk(node.branches[0], path + (0,), a)
            option = lookup(path, a)
            if node.choice_var is not None:
                a[node.choice_var] = option
            return walk(node.branches[option], path + (option,), a)
        return 1 if _naive_eval(plan.structure, a, node) else 0

    return walk(plan.formula, (), {})


def _eloise_wins(s, f, assignment):
    """Backward induction for perfect-information (slash-free) sentences."""
    if isinstance(f, Quant):
        assert not f.slash
        values = range(s.size)
        if f.kind == "exists":
            return any(_eloise_wins(s, f.body, {**assignment, f.var: v}) for v in values)
        return all(_eloise_wins(s, f.body, {**assignment, f.var: v}) for v in values)
    if isinstance(f, Connective):
        assert f.choice_var is None
        if f.kind == "or":
            return any(_eloise_wins(s, b, assignment) for b in f.branches)
        return all(_eloise_wins(s, b, assignment) for b in f.branches)
    return _naive_eval(s, assignment, f)


# ---------------------------------------------------------------------------
# The hashing lambda-step


def lambda_step(table: tuple[int, ...], value_count: int) -> tuple[int, ...]:
    """Move one key from a largest pre-image to a smallest; identity at degree <= 1.

    Ties break to the smallest index everywhere: the first value with the
    largest pre-image, its first key, the first value with the smallest."""
    if function_degree(table, value_count) <= 1:
        return tuple(table)
    sizes = [0] * value_count
    for v in table:
        sizes[v] += 1
    v_max = sizes.index(max(sizes))
    v_min = sizes.index(min(sizes))
    k_star = table.index(v_max)
    moved = list(table)
    moved[k_star] = v_min
    return tuple(moved)


def colliding_pair_count(table: tuple[int, ...], value_count: int) -> int:
    """Ordered pairs of distinct keys the table sends to one value."""
    return sum(z * (z - 1) for z in map(table.count, range(value_count)))


# ---------------------------------------------------------------------------
# Fixture files


def save_structure(s) -> str:
    """Serialize canonically (sorted symbols and rows) so saves are reproducible."""
    doc = {
        "size": s.size,
        "relations": {sym: sorted(map(list, rows)) for sym, rows in sorted(s.relations.items())},
        "functions": {
            sym: [list(args) + [value] for args, value in sorted(table.items())]
            for sym, table in sorted(s.functions.items())
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
