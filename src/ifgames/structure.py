"""Finite first-order structures and classical evaluation of quantifier-free formulas.

Universe elements are the canonical integers 0..size-1.  The on-disk format is
JSON: ``{"size": n, "relations": {sym: [[...], ...]}, "functions": {sym:
[[arg..., value], ...]}}`` with every function table total on the universe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product

from .errors import EvaluationError, StructureFormatError
from .formula import App, Atom, Connective, Equals, Formula, Quant, Term, Var, Vocabulary

# Maps both object variables and choice variables to values; the two
# namespaces are disjoint by the formula invariants.
Assignment = dict[str, int]


@dataclass
class Structure:
    size: int
    relations: dict[str, frozenset[tuple[int, ...]]] = field(default_factory=dict)
    functions: dict[str, dict[tuple[int, ...], int]] = field(default_factory=dict)

    def __post_init__(self):
        if self.size < 1:
            raise StructureFormatError(f"universe size must be positive, got {self.size}")
        self.relations = {sym: frozenset(map(tuple, rows)) for sym, rows in self.relations.items()}
        self.functions = {sym: dict(table) for sym, table in self.functions.items()}
        for sym, rows in self.relations.items():
            arities = {len(t) for t in rows}
            if len(arities) > 1:
                raise StructureFormatError(f"relation {sym!r} mixes tuple lengths {sorted(arities)}")
            for t in rows:
                self._check_range(sym, t)
        for sym, table in self.functions.items():
            arities = {len(args) for args in table}
            if len(arities) != 1:
                raise StructureFormatError(f"function {sym!r} needs rows of one arity")
            (arity,) = arities
            if len(table) != self.size**arity:
                raise StructureFormatError(
                    f"function {sym!r} is partial: {len(table)} rows, expected {self.size**arity}"
                )
            for args, value in table.items():
                self._check_range(sym, args + (value,))

    def _check_range(self, sym: str, elems: tuple[int, ...]) -> None:
        for e in elems:
            if not isinstance(e, int) or not 0 <= e < self.size:
                raise StructureFormatError(
                    f"element {e!r} of {sym!r} is outside the universe 0..{self.size - 1}"
                )

    def relation_arity(self, sym: str) -> int | None:
        rows = self.relations[sym]
        return len(next(iter(rows))) if rows else None

    def function_arity(self, sym: str) -> int:
        return len(next(iter(self.functions[sym])))

    def vocabulary(self) -> Vocabulary:
        return Vocabulary(
            relations={sym: self.relation_arity(sym) for sym in self.relations},
            functions={sym: self.function_arity(sym) for sym in self.functions},
        )


def eval_term(s: Structure, a: Assignment, t: Term) -> int:
    """Value of `t` in `s` under `a`; raises EvaluationError on missing pieces."""
    if isinstance(t, Var):
        try:
            return a[t.name]
        except KeyError:
            raise EvaluationError(f"variable {t.name!r} has no assigned value") from None
    if isinstance(t, App):
        try:
            table = s.functions[t.fn]
        except KeyError:
            raise EvaluationError(f"function {t.fn!r} is not interpreted") from None
        args = tuple(eval_term(s, a, x) for x in t.args)
        try:
            return table[args]
        except KeyError:
            raise EvaluationError(f"function {t.fn!r} has no row for {args}") from None
    raise EvaluationError(f"not a term: {t!r}")


def holds_qf(s: Structure, a: Assignment, f: Formula) -> bool:
    """Classical truth of a quantifier-free formula under a total assignment."""
    if isinstance(f, Atom):
        try:
            rows = s.relations[f.rel]
        except KeyError:
            raise EvaluationError(f"relation {f.rel!r} is not interpreted") from None
        args = tuple(eval_term(s, a, t) for t in f.args)
        return (args in rows) != f.negated
    if isinstance(f, Equals):
        same = eval_term(s, a, f.lhs) == eval_term(s, a, f.rhs)
        return same != f.negated
    if isinstance(f, Connective):
        if f.kind == "or":
            return any(holds_qf(s, a, b) for b in f.branches)
        return all(holds_qf(s, a, b) for b in f.branches)
    if isinstance(f, Quant):
        raise EvaluationError("holds_qf applied to a quantified formula")
    raise EvaluationError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# On-disk format


def load_structure(text: str) -> Structure:
    """Parse the JSON structure format; raises StructureFormatError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise StructureFormatError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise StructureFormatError("top level must be an object")
    unknown = set(doc) - {"size", "relations", "functions"}
    if unknown:
        raise StructureFormatError(f"unknown fields {sorted(unknown)}")
    size = doc.get("size")
    if type(size) is not int:  # a JSON true or false is no size
        raise StructureFormatError("field 'size' must be an integer")
    relations = {sym: frozenset(map(tuple, rows)) for sym, rows in _tables(doc, "relations", 0).items()}
    functions = {}
    for sym, rows in _tables(doc, "functions", 1).items():
        table = {}
        for row in rows:
            args, value = tuple(row[:-1]), row[-1]
            if args in table:
                raise StructureFormatError(f"function {sym!r} has duplicate row for {args}")
            table[args] = value
        functions[sym] = table
    return Structure(size=size, relations=relations, functions=functions)


def _tables(doc: dict, key: str, min_len: int) -> dict[str, list[list[int]]]:
    """doc[key], empty when absent or null, checked to map every symbol to a
    list of rows of at least `min_len` integers (booleans excluded)."""
    tables = doc.get(key)
    if tables is None:
        return {}
    if not isinstance(tables, dict):
        raise StructureFormatError(f"field {key!r} must be an object")
    for sym, rows in tables.items():
        if not isinstance(rows, list) or not all(
            isinstance(r, list) and len(r) >= min_len and all(type(x) is int for x in r) for r in rows
        ):
            shape = "[args..., value] rows" if min_len else "integer tuples"
            raise StructureFormatError(f"{key[:-1]} {sym!r} must be a list of {shape}")
    return tables


def save_structure(s: Structure) -> str:
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


def total_function_table(size: int, arity: int, fn) -> dict[tuple[int, ...], int]:
    """Tabulate `fn` over every arity-tuple of the universe."""
    return {args: fn(*args) for args in product(range(size), repeat=arity)}
