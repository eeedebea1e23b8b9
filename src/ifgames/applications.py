"""Generators and closed forms for the three case studies.

Matching Pennies, the birthday game (random draws simulated by sums of
mutually hidden choices over a cyclic group), and universal hashing (a hidden
choice among all hash functions against an adversary picking two keys).  The
hashing game is built through the general pipeline, not hand-coded, so the
equilibrium claims are exercised end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial

from .errors import BudgetExceededError, SizeLimitError
from .formula import MAX_NESTING, App, Atom, Connective, Equals, Formula, Quant, Var
from .matrix_game import MixedStrategy, expected_utility, security_levels
from .semantic_game import ABELARD, DEFAULT_STRATEGY_BUDGET, ELOISE, ReducedForm, build_reduced, check_matrix_size
from .structure import Structure, total_function_table

# ---------------------------------------------------------------------------
# Matching Pennies


def matching_pennies(n: int) -> tuple[Formula, Structure]:
    """The sentence 'Ax (Ey/x) x = y' with a bare n-element structure."""
    if n < 1:
        raise ValueError("structure size must be at least 1")
    sentence = Quant(
        "forall", "x", frozenset(), Quant("exists", "y", frozenset({"x"}), Equals(Var("x"), Var("y")))
    )
    return sentence, Structure(size=n)


# ---------------------------------------------------------------------------
# Birthday game


def cyclic_structure(n: int) -> Structure:
    """Universe 0..n-1 with one binary function `add`, addition modulo n."""
    if n < 1:
        raise ValueError("structure size must be at least 1")
    return Structure(
        size=n, functions={"add": total_function_table(n, 2, lambda a, b: (a + b) % n)}
    )


def birthday_sentence(m: int) -> Formula:
    """2m quantifiers, each hiding every earlier choice, then one flat
    disjunction asserting that some pair of the m blind sums coincides."""
    if m < 2:
        raise ValueError("the birthday game needs at least 2 draws")
    names = [f"x{k}" for k in range(2 * m)]

    def summed(k: int) -> App:
        return App("add", (Var(names[k]), Var(names[k + m])))

    disjuncts = [
        Equals(summed(i), summed(j)) for i in range(m) for j in range(i + 1, m)
    ]
    body: Formula = disjuncts[0] if len(disjuncts) == 1 else Connective("or", None, tuple(disjuncts))
    sentence = body
    for k in range(2 * m - 1, -1, -1):
        kind = "forall" if k < m else "exists"
        sentence = Quant(kind, names[k], frozenset(names[:k]), sentence)
    return sentence


def birthday_game(n: int, m: int) -> tuple[Formula, Structure]:
    """`birthday_sentence(m)` on `cyclic_structure(n)`, refused before the
    sentence or the n x n table is built: past the default budget on n ** m
    strategies (not formed when too long to print), past the nesting cap of
    parsed formulas on 2m quantifiers, and then past the cell cap."""
    if m < 2 or n < 1:  # the builders' to refuse
        return birthday_sentence(m), cyclic_structure(n)
    log2_floor = m * (n.bit_length() - 1)  # n ** m >= 2 ** log2_floor
    count = n**m if log2_floor <= BudgetExceededError.SHOWN_BITS else None
    if count is None or count > DEFAULT_STRATEGY_BUDGET:
        raise BudgetExceededError(ELOISE, count, DEFAULT_STRATEGY_BUDGET, log2_floor)
    if 2 * m > MAX_NESTING:
        raise ValueError(
            f"the birthday game nests 2M quantifiers, so M must be at most {MAX_NESTING // 2} "
            f"under the formula nesting cap of {MAX_NESTING}"
        )
    check_matrix_size(count, count)
    return birthday_sentence(m), cyclic_structure(n)


def birthday_closed_form(n: int, m: int) -> tuple[Fraction, Fraction]:
    """(probability all m draws distinct, probability of at least one duplicate)."""
    if n < 1 or m < 1:
        raise ValueError("need a positive urn and sample size")
    if m > n:
        return Fraction(0), Fraction(1)
    all_distinct = Fraction(factorial(n), n**m * factorial(n - m))
    return all_distinct, 1 - all_distinct


# ---------------------------------------------------------------------------
# Universal hashing


@dataclass(frozen=True)
class HashStructureSpec:
    """Every function from `key_count` keys to `value_count` values, indexed
    lexicographically; tables map key index -> value index."""

    key_count: int
    value_count: int
    functions: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class HashingEquilibrium:
    """The claimed pair on the reduced strategic form `build`: `eloise` on its
    rows (one per hash function), `abelard` on its columns."""

    eloise: MixedStrategy
    abelard: MixedStrategy
    verified: bool
    value: Fraction
    build: ReducedForm
    minimal_degree: frozenset[int]
    adversary_pairs: frozenset[int]  # reduced columns realizing distinct key pairs

    @property
    def adversary_pair_count(self) -> int:
        """Full adversary strategies realizing distinct key pairs."""
        return sum(self.build.abelard.weights[j] for j in self.adversary_pairs)


_MAX_UNIVERSE = 64
_MAX_FUNCTIONS = 4096


def hash_structure(key_count: int, value_count: int) -> tuple[Structure, HashStructureSpec]:
    """Keys 0..k-1 marked by the unary relation U, values after them, and one
    unary function symbol per table (identity off the key block, which never
    matters because the sentence guards with U).  Refused before any table
    is built when Abelard's strategies in the hashing game pass the default
    budget: he picks x blind and y seeing x, so a universe of size s gives
    him s^(s + 1), unless a single table collapses the game."""
    if key_count < 1 or value_count < 1:
        raise ValueError("need at least one key and one value")
    size = key_count + value_count
    if size > _MAX_UNIVERSE:
        raise SizeLimitError(f"universe of {size} exceeds the {_MAX_UNIVERSE} cap")
    total = value_count**key_count
    if total > _MAX_FUNCTIONS:
        raise SizeLimitError(f"{total} hash functions exceed the {_MAX_FUNCTIONS} cap")
    if total > 1 and size ** (size + 1) > DEFAULT_STRATEGY_BUDGET:
        raise BudgetExceededError(ABELARD, size ** (size + 1), DEFAULT_STRATEGY_BUDGET)
    tables = tuple(product(range(value_count), repeat=key_count))
    spec = HashStructureSpec(key_count=key_count, value_count=value_count, functions=tables)
    functions = {}
    for i, table in enumerate(tables):
        functions[f"f{i}"] = {
            (x,): key_count + table[x] if x < key_count else x for x in range(size)
        }
    structure = Structure(
        size=size,
        relations={"U": frozenset((k,) for k in range(key_count))},
        functions=functions,
    )
    return structure, spec


def hashing_sentence(spec: HashStructureSpec) -> Formula:
    """A choice disjunction over all function indices; both universals hide the
    index; the guarded collision claim is expanded into NNF.

    With a single function there is no choice to hide, so the lone branch is
    emitted directly with empty slash sets."""

    def branch(i: int, slash: frozenset[str]) -> Formula:
        fx = App(f"f{i}", (Var("x"),))
        fy = App(f"f{i}", (Var("y"),))
        body = Connective(
            "or",
            None,
            (
                Atom("U", (Var("x"),), negated=True),
                Atom("U", (Var("y"),), negated=True),
                Equals(Var("x"), Var("y")),
                Equals(fx, fy, negated=True),
            ),
        )
        return Quant("forall", "x", slash, Quant("forall", "y", slash, body))

    count = len(spec.functions)
    if count == 1:
        return branch(0, frozenset())
    return Connective("or", "i", tuple(branch(i, frozenset({"i"})) for i in range(count)))


def function_degree(table: tuple[int, ...], value_count: int) -> int:
    """The spread of the pre-image sizes over all values (a missed value's is 0)."""
    sizes = [0] * value_count
    for v in table:
        sizes[v] += 1
    return max(sizes) - min(sizes)


def minimal_degree_indices(spec: HashStructureSpec) -> frozenset[int]:
    """Indices of tables at the least achievable degree, min(1, keys mod values)."""
    d = min(1, spec.key_count % spec.value_count)
    return frozenset(
        i
        for i, table in enumerate(spec.functions)
        if function_degree(table, spec.value_count) == d
    )


def adversary_pair_columns(spec: HashStructureSpec, form: ReducedForm) -> frozenset[int]:
    """Reduced columns of the hashing game whose adversary realizes two distinct keys.

    Table 0 is the constant function, which sends every key to one value: it
    collides on exactly the distinct-key pairs, so Eloise's row for it
    (representative 0) is 0 in exactly those columns.  A single table leaves
    no choice to hide: the sentence has perfect information and collapses to
    a 1x1 game with no pair column."""
    if len(spec.functions) == 1:
        return frozenset()
    row = form.matrix.array[form.eloise.reps.index(0)].tolist()
    return frozenset(j for j, win in enumerate(row) if not win)


def hashing_equilibrium(structure: Structure, spec: HashStructureSpec) -> HashingEquilibrium:
    """The claimed equilibrium on the pipeline-built game: uniform over the
    minimal-degree indices against uniform over the distinct-key adversary
    strategies, checked against every pure deviation.  Both are built on the
    reduced strategic form, where the adversary's mix weighs each reduced
    column by the full strategies it stands for.  `structure` and `spec`
    are the pair `hash_structure` returns."""
    form = build_reduced(structure, hashing_sentence(spec))
    u = form.matrix
    row_of = {rep: i for i, rep in enumerate(form.eloise.reps)}
    chosen_rows = minimal_degree_indices(spec)
    mu = MixedStrategy.uniform_on((row_of[c] for c in chosen_rows), u.m, "row")
    pair_cols = adversary_pair_columns(spec, form)
    # A single key admits no distinct pair: every adversary strategy is
    # losing and payoff-equivalent, so mix over all of them.
    mixed = pair_cols or range(u.n)
    nums = [w if j in mixed else 0 for j, w in enumerate(form.abelard.weights)]
    nu = MixedStrategy(nums, sum(nums), "column")
    guarantee, cap = security_levels(u, mu, nu)
    verified = guarantee == cap
    return HashingEquilibrium(
        eloise=mu,
        abelard=nu,
        verified=verified,
        value=guarantee if verified else expected_utility(u, mu, nu),
        build=form,
        minimal_degree=chosen_rows,
        adversary_pairs=pair_cols,
    )
