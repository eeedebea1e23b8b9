"""References the package is tested against, kept out of the package.

A full-table strategy enumerator and a walker-free play resolver, which
resolve each play on its own, one path through the formula with every move
read off a choice table; the hashing lambda-step behind
`minimal_degree_indices` and the table reading behind
`adversary_pair_columns`; the canonical structure writer the tests use to
make fixture files; the named-group tokenizer the formula tokenizer is
checked against; the all-pairs dominance test the reduction's scan is
checked against; and the support-enumeration oracle the LP is checked
against, which solves its equalizing systems by `Fraction` Gauss-Jordan
elimination and so shares no arithmetic with `ifgames.linalg`.
"""

import json
import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from ifgames.applications import function_degree
from ifgames.errors import ParseError, SizeLimitError
from ifgames.formula import Connective, Quant
from ifgames.matrix_game import GameMatrix, MixedStrategy, security_levels
from ifgames.semantic_game import ABELARD, DEFAULT_STRATEGY_BUDGET, ELOISE, Game, ReducedStrategies
from ifgames.value_engine import ValueReport, detect_trivial

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
    play = _reference_player(Game(s, f, collapse))
    eloise = enumerate_strategies(s, f, ELOISE, collapse=collapse)
    abelard = enumerate_strategies(s, f, ABELARD, collapse=collapse)
    return GameMatrix([[play({ELOISE: sigma, ABELARD: tau}) for tau in abelard] for sigma in eloise])


def reference_reduced(s, f, collapse=True) -> tuple[GameMatrix, ReducedStrategies, ReducedStrategies]:
    """R and both players' reduced strategies, read off the full form: a
    full strategy's class is its choices at the cells it reads against some
    opponent strategy, with -1 elsewhere; a class's representative is its
    smallest member, its weight its member count; R is the full game at the
    representatives, in their order."""
    plan = Game(s, f, collapse)
    play = _reference_player(plan)
    players = (ELOISE, ABELARD)
    strategies = [enumerate_strategies(s, f, p, collapse=collapse) for p in players]
    reads = [[set() for _ in side] for side in strategies]
    full = []
    for i, sigma in enumerate(strategies[0]):
        full.append([])
        for j, tau in enumerate(strategies[1]):
            reached = {ELOISE: reads[0][i], ABELARD: reads[1][j]}
            full[-1].append(play({ELOISE: sigma, ABELARD: tau}, reached))
    forms = []
    for p, side, side_reads in zip(players, strategies, reads):
        offsets, at = {}, 0  # each point's first cell in the flat table
        for idx in plan.owner_points[p]:
            offsets[idx], at = at, at + plan.points[idx].table_size
        classes = {}
        for k, (strategy, read) in enumerate(zip(side, side_reads)):
            flat = [c for table in strategy.tables for c in table]
            cells = set(offsets[idx] + cell for idx, cell in read)
            classes.setdefault(tuple(c if q in cells else -1 for q, c in enumerate(flat)), []).append(k)
        forms.append(
            ReducedStrategies(
                cells=tuple(classes),
                reps=tuple(members[0] for members in classes.values()),
                weights=tuple(len(members) for members in classes.values()),
            )
        )
    eloise, abelard = forms
    return GameMatrix([[full[i][j] for j in abelard.reps] for i in eloise.reps]), eloise, abelard


def _reference_play(plan, strategies) -> int:
    """Eloise's payoff when the owner -> PureStrategy map `strategies` meets
    on the planned game `plan`."""
    return _reference_player(plan)(strategies)


def _reference_player(plan):
    """`play(strategies, reached=None)`: one path through the formula of the
    planned game `plan`, a collapsed subformula settled by backward
    induction, adding each (point, cell) a move reads to its owner's set in
    `reached`."""
    collapsed = set(plan.collapsed)
    point_of = _points_by_path(plan.formula, collapsed)

    def play(strategies, reached=None) -> int:
        def lookup(path, a) -> int:
            idx = point_of[path]
            point = plan.points[idx]
            table = strategies[point.owner].tables[plan.owner_points[point.owner].index(idx)]
            cell = 0
            for name, size in zip(point.visible, point.visible_ranges):
                cell = cell * size + a[name]
            if reached is not None:
                reached[point.owner].add((idx, cell))
            return table[cell]

        def walk(node, path, a) -> int:
            if path in collapsed:
                return 1 if _eloise_wins(plan.structure, node, a) else 0
            if isinstance(node, Quant):
                a[node.var] = lookup(path, a)
                return walk(node.body, path + (0,), a)
            if isinstance(node, Connective):
                option = lookup(path, a)
                if node.choice_var is not None:
                    a[node.choice_var] = option
                return walk(node.branches[option], path + (option,), a)
            return 1 if _naive_eval(plan.structure, a, node) else 0

        return walk(plan.formula, (), {})

    return play


def _points_by_path(formula, collapsed) -> dict:
    """Each move's decision point index, by its path, read off the formula.
    A move's canonical path lists the branch taken at every step, except
    that a quantifier writes `*` for a branch of a choice variable it
    slashes, as it cannot tell those branches apart; moves with one
    canonical path share a point, and points are numbered in formula order."""
    index, point_of = {}, {}

    def visit(node, path, steps):
        if path in collapsed:
            return
        if isinstance(node, Quant):
            canon = tuple("*" if var in node.slash else b for b, var in steps)
            point_of[path] = index.setdefault(canon, len(index))
            visit(node.body, path + (0,), steps + ((0, None),))
        elif isinstance(node, Connective):
            point_of[path] = index.setdefault(tuple(b for b, _ in steps), len(index))
            for b, branch in enumerate(node.branches):
                visit(branch, path + (b,), steps + ((b, node.choice_var),))

    visit(formula, (), ())
    return point_of


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
# Hashing: the lambda-step and the adversary's distinct-key columns


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


def reference_adversary_pairs(spec, form) -> frozenset[int]:
    """Reduced columns whose adversary picks two distinct keys, read off
    Abelard's flat choice tables: the merged first universal is cell 0, and
    the second universal's table entry at first pick c is cell 1 + c.  With a
    single table the game collapses and the adversary has no cells."""
    chosen = []
    for j, cells in enumerate(form.abelard.cells):
        if not cells:
            continue
        first = cells[0]
        second = cells[1 + first]
        if first < spec.key_count and second < spec.key_count and first != second:
            chosen.append(j)
    return frozenset(chosen)


# ---------------------------------------------------------------------------
# Dominance


def dominance_keep_all_pairs(vectors: np.ndarray, larger_survives: bool) -> list[int]:
    """`matrix_game._dominance_keep` by testing every live vector against
    every live one: the indices (ascending) of the first of each set of
    copies that no other live vector weakly dominates."""
    # Bit-packed, each vector is one fixed-width byte key; the stable sort
    # behind return_index makes the smallest index its copies' representative.
    packed = np.ascontiguousarray(np.packbits(vectors, axis=1))
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    alive = np.sort(np.unique(keys, return_index=True)[1])
    live = packed[alive]
    # v <= w iff v & ~w has no bit set, and packbits pads with zeros, which
    # never count: mine[i] & others[j] is zero iff j dominates i or is i.
    mine, others = (live, ~live) if larger_survives else (~live, live)
    return [i for i, v in zip(alive.tolist(), mine) if np.count_nonzero((v & others).any(axis=1)) == len(live) - 1]


# ---------------------------------------------------------------------------
# The support-enumeration oracle

METHOD_SUPPORT_ENUMERATION = "support-enumeration"
_SUPPORT_ENUMERATION_LIMIT = 7


def reference_linear_system(rows, rhs):
    """Gauss-Jordan elimination with one `Fraction` per cell.

    Returns None when the system is inconsistent; otherwise (x, unique), with
    free variables, if any, set to 0 and `unique` saying whether x is the
    only solution."""
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    ncols = len(aug[0]) - 1
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        factor = aug[r][c]
        aug[r] = [x / factor for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(aug):
            break
    if any(aug[i][ncols] != 0 for i in range(r, len(aug))):
        return None
    solution = [Fraction(0)] * ncols
    for i, c in enumerate(pivot_cols):
        solution[c] = aug[i][ncols]
    return solution, len(pivot_cols) == ncols


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
    table = u.array.tolist()
    for k in range(1, min(u.m, u.n) + 1):
        for support_i in combinations(range(u.m), k):
            for support_j in combinations(range(u.n), k):
                report = _try_support_pair(u, table, support_i, support_j)
                if report is not None:
                    return report
    raise RuntimeError("no support pair admitted an equilibrium; matrix entries outside {0,1}?")


def _try_support_pair(u, table, support_i, support_j) -> ValueReport | None:
    k = len(support_i)
    sub = [[table[i][j] for j in support_j] for i in support_i]
    # mu on support_i equalizes the support_j columns at v, [sub.T | -1], and
    # nu on support_j the support_i rows at w, [sub | -1].  Each mixture sums
    # to 1, the last row, so v and w both equal the pair's expected utility.
    solutions = []
    for equalized in (list(zip(*sub)), sub):
        system = [[*row, -1] for row in equalized] + [[1] * k + [0]]
        solved = reference_linear_system(system, [0] * k + [1])
        if solved is None or not solved[1]:
            return None
        x, _ = solved
        if min(x[:k]) < 0:
            return None
        solutions.append(x)
    mu_x, nu_x = solutions
    value = mu_x[k]
    mu = _on_support(mu_x[:k], support_i, u.m, "row")
    nu = _on_support(nu_x[:k], support_j, u.n, "column")
    if security_levels(u, mu, nu) != (value, value):
        return None
    return ValueReport(value=value, eloise=mu, abelard=nu, method=METHOD_SUPPORT_ENUMERATION)


def _on_support(probs, support, k, side) -> MixedStrategy:
    """`probs` on `support`, zero on the other `k - len(support)` strategies."""
    den = math.lcm(*(q.denominator for q in probs))
    nums = [0] * k
    for i, q in zip(support, probs):
        nums[i] = q.numerator * (den // q.denominator)
    return MixedStrategy(nums, den, side)


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


# ---------------------------------------------------------------------------
# Tokens

_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<choice>\\/_)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<sym>[()&|~=,{}/])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    """`formula._tokenize`'s kinds and texts, each with its position from
    `formula._token_start`, by named groups: `bad` matches any single
    character, so the matches tile the text."""
    tokens = []
    for m in _REFERENCE_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((m.group() if kind == "sym" else kind, m.group(), m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens
