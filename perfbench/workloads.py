"""Seeded generators for the three benchmark workloads.

Each workload is a fixed list of operations, every one an argv for
``ifgames.cli.main`` plus the input files it reads.  Everything comes from
``random.Random(seed)`` and from nothing else, so one seed always gives the
same files and argv.  The program under test only ever sees those files and
argv; the expectations kept beside each op are for the output checker.

Why these workloads (see README.md for the layer map):

- ``lp_dense`` feeds random dense 0/1 square games straight to the exact LP
  (the CLI sends every game up to 64x64 to ``solve_value``), so the LP core is
  nearly all of the work and the sentence layers are bypassed.
- ``hashing_wide`` is the universal-hashing game on five-element structures
  (3 keys into 2 values, 2 keys into 3, and sub-families of the first), whose
  games are 15625 columns wide: reduction, wide mixed strategies, equilibrium
  verification and rendering do the work, the LP is negligible.
- ``sentence_corpus`` is several hundred small sentences on small structures,
  where per-call overhead (parse, validate, plan, walk, argparse, render)
  dominates and every solve route appears.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import factorial
from pathlib import Path

# Per-player pure-strategy cap for the sentence ops.  It admits every
# template game (the widest has 512 rows) and refuses, with exit 4 counted as
# refused, the ``--no-collapse`` games that would be larger.  Random
# sentences get a lower cap: the few of them whose games reach 512
# strategies hold most of the process's memory, and how many a seed draws
# would move ``peak_rss_mb`` and the slow tail from seed to seed.
CORPUS_MAX_STRATEGIES = 512
RANDOM_MAX_STRATEGIES = 128


@dataclass(frozen=True)
class Op:
    """One timed call: ``argv`` for ``cli.main`` and what the checker knows.

    ``argv`` may name input files as ``{dir}/name``; ``files`` maps those
    names to their contents.  ``expect`` holds checker hints:

    - ``matrix``: the game's rows when the benchmark built the game itself;
    - ``closed``: the exact value a closed form gives, as ``"p/q"``;
    - ``same_value_as``: id of the collapsed op a ``--no-collapse`` op pairs with;
    - ``game_of`` and ``row_of`` for ``hashing`` ops: the id of the ``value``
      op on the same game, and the row of hash function ``c`` in that game
      as ``row_of[c]``.
    """

    id: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)
    refusable: bool = False  # the game may exceed the strategy cap (exit 4)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    files: dict[str, str]

    def write_files(self, directory: Path) -> None:
        for name, text in self.files.items():
            (directory / name).write_text(text)

    def resolve(self, op: Op, directory: Path) -> list[str]:
        return [a.replace("{dir}", str(directory)) for a in op.argv]


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _structure_json(size: int, relations=None, functions=None) -> str:
    doc = {
        "size": size,
        "relations": {s: [list(t) for t in sorted(rows)] for s, rows in (relations or {}).items()},
        "functions": {
            s: [list(args) + [v] for args, v in sorted(table.items())]
            for s, table in (functions or {}).items()
        },
    }
    return json.dumps(doc, sort_keys=True) + "\n"


def _value(structure: str, formula: str, *extra: str, cap: int = CORPUS_MAX_STRATEGIES) -> tuple[str, ...]:
    return (
        "value",
        "--structure",
        "{dir}/" + structure,
        "--formula",
        formula,
        "--max-strategies",
        str(cap),
        *extra,
        "--format",
        "machine",
    )


# ---------------------------------------------------------------------------
# lp_dense

# 180 games of size 12, a third each at densities 0.35, 0.5 and 0.65; only
# the entries vary with the seed.  The simplex's pivot count, and so the time
# of one game, varies by a factor of three or more between games of one size
# (more at larger sizes: one k=36 game can take as long as eleven others), so
# the pass time is steady from seed to seed only as a sum of many similar
# games, and each game is short so that every run times it many times.
LP_SIZE = 12
LP_DENSITIES = (0.35, 0.5, 0.65)
LP_GAMES = 180


def _dense_game(rng: random.Random, k: int, density: float) -> list[list[int]]:
    """A k x k 0/1 game with no all-ones row and no all-zeros column, so no
    trivial shortcut applies, and not balanced, so the LP decides it."""
    while True:
        rows = [[1 if rng.random() < density else 0 for _ in range(k)] for _ in range(k)]
        if any(all(r) for r in rows) or any(not any(col) for col in zip(*rows)):
            continue
        if len({sum(r) for r in rows}) == 1 and len({sum(c) for c in zip(*rows)}) == 1:
            continue
        return rows


def lp_dense(seed: int) -> Workload:
    rng = random.Random(seed)
    ops, files = [], {}
    for g in range(LP_GAMES):
        k, density = LP_SIZE, LP_DENSITIES[g % len(LP_DENSITIES)]
        rows = _dense_game(rng, k, density)
        name = f"lp_{g}_d{int(density * 100)}.txt"
        files[name] = f"{k} {k}\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n"
        ops.append(
            Op(
                id=name[:-4],
                argv=("value", "--matrix", "{dir}/" + name, "--format", "machine"),
                expect={"matrix": rows},
            )
        )
    return Workload("lp_dense", ops, files)


# ---------------------------------------------------------------------------
# hashing_wide

# (keys, values): the full families, each run through ``value`` and
# ``hashing``.  3 keys into 2 values is an 8 x 15625 game that ``reduce``
# shrinks and the balanced shortcut then solves, after which the equilibrium
# is lifted back and verified on the full game; 2 keys into 3 values is
# 9 x 15625 and an injective function wins outright.  Both structures have five elements, the most for which one
# op takes well under a second (six give 279936 columns and several seconds
# an op, too few timed passes for a steady figure).
HASH_SPECS = ((3, 2), (2, 3))
# Sizes of the sub-families of the 3-into-2 family run through ``value``:
# which functions, and their order, come from the seed.  A sub-family in
# which every function maps some two keys together is redrawn: Abelard would
# win it outright, a route far cheaper than the others, so whether a seed drew
# one would move the workload's figures.
HASH_SUBFAMILY_SIZES = (3, 4, 5, 6, 7) * 2


def hash_tables(keys: int, values: int) -> list[tuple[int, ...]]:
    """Every function from keys to values, in lexicographic order (the order
    the ``hashing`` command numbers them in)."""
    return list(product(range(values), repeat=keys))


def hashing_closed_form(keys: int, values: int) -> Fraction:
    """1 - sum z(z-1) / (k(k-1)) over the pre-image sizes z of a balanced
    function: the chance two distinct keys avoid a collision."""
    q, r = divmod(keys, values)
    sizes = [q + 1] * r + [q] * (values - r)
    return 1 - Fraction(sum(z * (z - 1) for z in sizes), keys * (keys - 1))


def _hash_files(keys: int, values: int, order: list[int]) -> tuple[str, str]:
    """Structure JSON and sentence text of the hashing game.  Keys are
    0..keys-1 (marked by U), values follow, and ``f<c>`` is the c-th table
    (identity off the key block, which the U guard makes irrelevant).  The
    choice disjunction lists the functions in ``order``."""
    size = keys + values
    functions = {
        f"f{c}": {(x,): keys + t[x] if x < keys else x for x in range(size)}
        for c, t in enumerate(hash_tables(keys, values))
    }
    structure = _structure_json(size, {"U": {(k,) for k in range(keys)}}, functions)
    branches = [
        f"(Ax/i) (Ay/i) ~U(x) | ~U(y) | x = y | ~f{c}(x) = f{c}(y)" for c in order
    ]
    return structure, "\\/_i{" + ", ".join(branches) + "}"


def hashing_wide(seed: int) -> Workload:
    """``value`` on the general pipeline and ``hashing`` (the certificate
    route) for each full family, then ``value`` on sub-families, whose games
    the checker certifies against the printed matrix.  The seed shuffles the
    order of the hash functions in every sentence, which permutes the rows of
    the game, and picks the sub-families."""
    rng = random.Random(seed)
    ops, files = [], {}
    for keys, values in HASH_SPECS:
        order = list(range(values**keys))
        rng.shuffle(order)
        structure, sentence = _hash_files(keys, values, order)
        name = f"hash_{keys}_{values}.json"
        files[name] = structure
        closed = _frac(hashing_closed_form(keys, values))
        value_id = f"value_{keys}_{values}"
        ops.append(
            Op(
                id=value_id,
                argv=("value", "--structure", "{dir}/" + name, "--formula", sentence, "--format", "machine"),
                expect={"closed": closed},
            )
        )
        row_of = [0] * len(order)
        for row, c in enumerate(order):
            row_of[c] = row
        ops.append(
            Op(
                id=f"hashing_{keys}_{values}",
                argv=("hashing", str(keys), str(values), "--format", "machine"),
                expect={"closed": closed, "game_of": value_id, "row_of": row_of},
            )
        )
    keys, values = HASH_SPECS[0]
    tables = hash_tables(keys, values)
    pairs = [(x, y) for x in range(keys) for y in range(x + 1, keys)]
    for k, size in enumerate(HASH_SUBFAMILY_SIZES):
        family = rng.sample(range(values**keys), size)
        while any(all(tables[c][x] == tables[c][y] for c in family) for x, y in pairs):
            family = rng.sample(range(values**keys), size)
        _, sentence = _hash_files(keys, values, family)
        ops.append(
            Op(
                id=f"sub_{k}_{size}",
                argv=("value", "--structure", f"{{dir}}/hash_{keys}_{values}.json", "--formula", sentence,
                      "--format", "machine"),
            )
        )
    return Workload("hashing_wide", ops, files)


# ---------------------------------------------------------------------------
# sentence_corpus


def birthday_text(m: int) -> str:
    """2m quantifiers, each hiding every earlier one; Abelard's m draws are
    offset by Eloise's m blind choices and some pair of sums must coincide."""
    names = [f"x{k}" for k in range(2 * m)]
    head = []
    for k, name in enumerate(names):
        letter = "A" if k < m else "E"
        head.append(f"({letter}{name}/{' '.join(names[:k])})" if k else f"{letter}{name}")
    sums = [f"add({names[k]}, {names[k + m]})" for k in range(m)]
    body = " | ".join(f"{sums[i]} = {sums[j]}" for i in range(m) for j in range(i + 1, m))
    return " ".join(head) + " " + body


def birthday_closed_form(n: int, m: int) -> Fraction:
    """Probability that m <= n uniform draws from n values repeat one."""
    return 1 - Fraction(factorial(n), n**m * factorial(n - m))


def _cyclic_json(n: int) -> str:
    return _structure_json(
        n, functions={"add": {(a, b): (a + b) % n for a in range(n) for b in range(n)}}
    )


def _random_relation(rng: random.Random, size: int, arity: int, density: float) -> set:
    return {t for t in product(range(size), repeat=arity) if rng.random() < density}


# Hidden-information templates over binary relations P and Q, with how many
# random structures of each size they run on.  The first hides x from y.  The
# second adds a z that Abelard picks after seeing x and Eloise sees, which on
# three elements gives a 27 x 81 game, past the direct-LP limit, so it takes
# reduce-then-LP.  The third hides from Abelard which relation Eloise chose;
# its 512 x 4 games on four elements are the corpus's slow tail, and there
# are more of them than the 5% of ops beyond op_p95_ms, so that percentile
# falls among games of one kind whatever the seed.  The last two have
# perfect information, so they are won or lost outright.
TEMPLATES = (
    ("hide", "Ax (Ey/x) P(x,y)", {2: 12, 3: 12, 4: 12}),
    ("hidez", "Ax Az (Ey/x) (x = y | P(z,y) & Q(x,y))", {2: 12, 3: 12}),
    ("choice", "\\/_i{(Ax/i) (Ey/x) P(x,y), (Ax/i) (Ey/x) Q(x,y)}", {2: 12, 3: 12, 4: 24}),
    ("ae", "Ax Ey P(x,y)", {2: 12, 3: 12, 4: 12}),
    ("ea", "Ex Ay (P(x,y) | Q(y,x))", {2: 12, 3: 12, 4: 12}),
)


def _random_term(rng: random.Random, bound: list[str], depth: int) -> str:
    if depth > 0 and rng.random() < 0.3:
        return f"add({_random_term(rng, bound, depth - 1)}, {_random_term(rng, bound, depth - 1)})"
    if rng.random() < 0.85:
        return rng.choice(bound)
    return "c"


def _random_atom(rng: random.Random, bound: list[str]) -> str:
    neg = "~" if rng.random() < 0.4 else ""
    roll = rng.random()
    if roll < 0.35:
        return f"{neg}R({_random_term(rng, bound, 1)})"
    if roll < 0.7:
        return f"{neg}P({_random_term(rng, bound, 1)}, {_random_term(rng, bound, 1)})"
    return f"{neg}{_random_term(rng, bound, 1)} = {_random_term(rng, bound, 1)}"


def _random_qf(rng: random.Random, bound: list[str], depth: int) -> str:
    if depth == 0 or rng.random() < 0.5:
        return _random_atom(rng, bound)
    op = " | " if rng.random() < 0.5 else " & "
    parts = [_random_qf(rng, bound, depth - 1) for _ in range(rng.randint(2, 3))]
    return "(" + op.join(parts) + ")"


def _quant(letter: str, var: str, slash: list[str]) -> str:
    return f"({letter}{var}/{' '.join(slash)})" if slash else f"{letter}{var}"


def random_sentence(rng: random.Random) -> str:
    """A buildable random sentence: a prefix of one to three quantifiers with
    random slash sets, then either a quantifier-free body or a choice
    disjunction whose branches hide the choice.  Corresponding quantifiers in
    the branches share kind and variable name, as one information set must."""
    bound: list[str] = []
    parts = []
    for k in range(rng.randint(1, 3)):
        var = f"v{k}"
        slash = [b for b in bound if rng.random() < 0.35]
        parts.append(_quant(rng.choice("AE"), var, slash))
        bound.append(var)
    if rng.random() < 0.3:
        letter = rng.choice("AE")
        slash = ["i"] + [b for b in bound if rng.random() < 0.35]
        branches = [
            f"{_quant(letter, 'w', slash)} {_random_qf(rng, bound + ['w'], 1)}"
            for _ in range(rng.randint(2, 3))
        ]
        parts.append("\\/_i{" + ", ".join(branches) + "}")
    else:
        parts.append(_random_qf(rng, bound, 2))
    return " ".join(parts)


def _random_structure(rng: random.Random, size: int) -> str:
    relations = {
        "R": _random_relation(rng, size, 1, rng.uniform(0.2, 0.8)),
        "P": _random_relation(rng, size, 2, rng.uniform(0.2, 0.8)),
    }
    functions = {
        "add": {(a, b): rng.randrange(size) for a in range(size) for b in range(size)},
        "c": {(): rng.randrange(size)},
    }
    return _structure_json(size, relations, functions)


def sentence_corpus(seed: int) -> Workload:
    rng = random.Random(seed)
    ops: list[Op] = []
    files: dict[str, str] = {}

    # Case studies with closed forms.
    for n in range(2, 10):
        files[f"bare{n}.json"] = _structure_json(n)
        ops.append(Op(f"mp_{n}", _value(f"bare{n}.json", "Ax (Ey/x) x = y"), {"closed": f"1/{n}"}))
        ops.append(
            Op(f"imp_{n}", _value(f"bare{n}.json", "Ax (Ey/x) ~x = y"), {"closed": f"{n - 1}/{n}"})
        )
    for n, m in ((2, 2), (3, 2), (4, 2), (5, 2), (3, 3), (4, 3), (5, 3)):
        files.setdefault(f"cyclic{n}.json", _cyclic_json(n))
        closed = _frac(birthday_closed_form(n, m))
        ops.append(Op(f"birthday_{n}_{m}", _value(f"cyclic{n}.json", birthday_text(m)), {"closed": closed}))

    # Templates over random relations.
    for name, text, sizes in TEMPLATES:
        for size, reps in sizes.items():
            for rep in range(reps):
                sname = f"{name}_{size}_{rep}.json"
                density = rng.uniform(0.2, 0.8)
                relations = {
                    "P": _random_relation(rng, size, 2, density),
                    "Q": _random_relation(rng, size, 2, density),
                }
                files[sname] = _structure_json(size, relations)
                ops.append(Op(sname[:-5], _value(sname, text)))

    # Random sentences on random structures.
    for rep in range(120):
        sname = f"rand_{rep}.json"
        files[sname] = _random_structure(rng, rng.choice((2, 3)))
        ops.append(Op(sname[:-5], _value(sname, random_sentence(rng), cap=RANDOM_MAX_STRATEGIES), refusable=True))

    # A slice again with fully informed connectives kept as moves: the value
    # must not change.  Taken from ops whose sentences have such connectives.
    slice_ops = [op for op in ops if op.id.startswith(("hidez_2", "ea_2", "rand_"))]
    for op in slice_ops[::2]:
        argv = op.argv[:-2] + ("--no-collapse",) + op.argv[-2:]
        ops.append(Op(op.id + "_nc", argv, {"same_value_as": op.id}, refusable=True))
    return Workload("sentence_corpus", ops, files)


WORKLOADS = {"lp_dense": lp_dense, "hashing_wide": hashing_wide, "sentence_corpus": sentence_corpus}
