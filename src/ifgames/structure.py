"""Finite first-order structures and classical (Tarski) evaluation of formulas.

Universe elements are the canonical integers 0..size-1.  The on-disk format is
JSON: ``{"size": n, "relations": {sym: [[...], ...]}, "functions": {sym:
[[arg..., value], ...]}}`` with every function table total on the universe.

Formulas are evaluated by compiling them once: `compile_qf` resolves every node
kind, symbol and variable, folds ground terms to constants and returns a test
on a list of values, in which each identifier has a fixed slot.  A quantifier
writes the next free slot, looping over the universe until its body settles
it.  A game compiles each end of play once and runs the test on every play
that reaches it; `holds_qf` compiles for one assignment of a quantifier-free
formula and evaluates once.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Mapping, MutableSequence
from dataclasses import dataclass, field
from itertools import product
from operator import itemgetter
from typing import NamedTuple

from .errors import EvaluationError, StructureFormatError
from .formula import App, Atom, Connective, Equals, Formula, Quant, Term, Var, Vocabulary, subformulas

# Maps both object variables and choice variables to values; the two
# namespaces are disjoint by the formula invariants.
Assignment = dict[str, int]
# A compiled formula reads identifier values by position (`compile_qf`'s slots),
# and its quantifiers write theirs.
Values = MutableSequence[int]


@dataclass
class Structure:
    """Relations are kept as given when they are frozensets and function
    tables when they are dicts; other containers are converted."""

    size: int
    relations: dict[str, frozenset[tuple[int, ...]]] = field(default_factory=dict)
    functions: dict[str, dict[tuple[int, ...], int]] = field(default_factory=dict)

    def __post_init__(self):
        if self.size < 1:
            raise StructureFormatError(f"universe size must be positive, got {self.size}")
        clash = self.relations.keys() & self.functions.keys()
        if clash:
            raise StructureFormatError(f"symbols used as both relation and function: {sorted(clash)}")
        self.relations = {
            sym: rows if type(rows) is frozenset else frozenset(map(tuple, rows))
            for sym, rows in self.relations.items()
        }
        self.functions = {
            sym: table if type(table) is dict else dict(table) for sym, table in self.functions.items()
        }
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

    def vocabulary(self) -> Vocabulary:
        """Each symbol's arity, read off a row; an empty relation's is None."""
        return Vocabulary(
            relations={sym: len(next(iter(rows))) if rows else None for sym, rows in self.relations.items()},
            functions={sym: len(next(iter(table))) for sym, table in self.functions.items()},
        )


def compile_qf(s: Structure, f: Formula, slots: Mapping[str, int]) -> Callable[[Values], bool]:
    """`f` as a test on value lists: `values[slots[name]]` is the value of
    identifier `name`.  A quantifier nested k deep in `f` writes slot
    max(slots) + k, so the list must reach the deepest one.  Node kinds,
    symbols and variables are resolved and ground terms folded here, so every
    EvaluationError but a missing function row is raised before any value is
    seen."""
    test = _Compiler(s, slots).formula(f)
    if callable(test):
        return test
    return (lambda values: True) if test else (lambda values: False)


def holds_qf(s: Structure, a: Assignment, f: Formula) -> bool:
    """Classical truth of a quantifier-free formula under a total assignment."""
    if any(isinstance(node, Quant) for _, node in subformulas(f)):
        raise EvaluationError("holds_qf applied to a quantified formula")
    return compile_qf(s, f, {name: i for i, name in enumerate(a)})(list(a.values()))


class _Rows(dict):
    """A function table whose missing rows raise EvaluationError."""

    __slots__ = ("fn",)

    def __missing__(self, args):
        raise EvaluationError(f"function {self.fn!r} has no row for {args}")


class _Lookup(NamedTuple):
    """A function application: its value is `rows[key(values)]`."""

    rows: _Rows
    key: Callable[[Values], tuple[int, ...]]


# A compiled term: its value when ground, a lookup, or a function of values.
_Term = int | _Lookup | Callable[[Values], int]


class _Compiler:
    """Compiles the formulas and terms of one structure over one slot map."""

    def __init__(self, s: Structure, slots: Mapping[str, int]):
        self.s = s
        self.slots = slots
        self.tables: dict[str, _Rows] = {}

    def formula(self, f: Formula) -> Callable[[Values], bool] | bool:
        """A test on value lists, or the formula's truth value when it is constant."""
        if isinstance(f, Atom):
            try:
                rows = self.s.relations[f.rel]
            except KeyError:
                raise EvaluationError(f"relation {f.rel!r} is not interpreted") from None
            key = self.key(f.args)
            if isinstance(key, tuple):
                return (key in rows) != f.negated
            if f.negated:
                return lambda values: key(values) not in rows
            return lambda values: key(values) in rows
        if isinstance(f, Equals):
            lhs, rhs = self.term(f.lhs), self.term(f.rhs)
            if isinstance(lhs, int) and isinstance(rhs, int):
                return (lhs == rhs) != f.negated
            if isinstance(lhs, _Lookup) and isinstance(rhs, _Lookup):  # f(...) = g(...) in one call
                (left, left_key), (right, right_key) = lhs, rhs
                if f.negated:
                    return lambda values: left[left_key(values)] != right[right_key(values)]
                return lambda values: left[left_key(values)] == right[right_key(values)]
            lhs, rhs = self.reader(lhs), self.reader(rhs)
            if f.negated:
                return lambda values: lhs(values) != rhs(values)
            return lambda values: lhs(values) == rhs(values)
        if isinstance(f, Connective):
            return self.connective(f)
        if isinstance(f, Quant):
            return self.quantifier(f)
        raise EvaluationError(f"not a formula: {f!r}")

    def connective(self, f: Connective) -> Callable[[Values], bool] | bool:
        settles = f.kind == "or"  # one true branch settles a disjunction, one false a conjunction
        tests = []
        for branch in f.branches:
            test = self.formula(branch)
            if callable(test):
                tests.append(test)
            elif test == settles:
                return settles
        if len(tests) < 2:
            return tests[0] if tests else not settles
        if len(tests) == 2:
            first, second = tests
            if settles:
                return lambda values: first(values) or second(values)
            return lambda values: first(values) and second(values)
        if len(tests) == 3:
            first, second, third = tests
            if settles:
                return lambda values: first(values) or second(values) or third(values)
            return lambda values: first(values) and second(values) and third(values)

        def test(values) -> bool:
            for branch in tests:
                if branch(values) == settles:
                    return settles
            return not settles

        return test

    def quantifier(self, f: Quant) -> Callable[[Values], bool] | bool:
        """Write the next free slot with each element in turn until one
        settles the quantifier: a true body an existential, a false one a
        universal.  A constant body is the quantifier's value, as the
        universe is never empty."""
        slot = max(self.slots.values(), default=-1) + 1
        inner = _Compiler(self.s, {**self.slots, f.var: slot})
        inner.tables = self.tables
        body = inner.formula(f.body)
        if not callable(body):
            return body
        universe = range(self.s.size)
        if f.kind == "exists":

            def some(values) -> bool:
                for value in universe:
                    values[slot] = value
                    if body(values):
                        return True
                return False

            return some

        def every(values) -> bool:
            for value in universe:
                values[slot] = value
                if not body(values):
                    return False
            return True

        return every

    def slot(self, t: Var) -> int:
        try:
            return self.slots[t.name]
        except KeyError:
            raise EvaluationError(f"variable {t.name!r} has no assigned value") from None

    def term(self, t: Term) -> _Term:
        if isinstance(t, Var):
            return itemgetter(self.slot(t))
        if isinstance(t, App):
            rows = self.tables.get(t.fn)
            if rows is None:
                try:
                    rows = self.tables[t.fn] = _Rows(self.s.functions[t.fn])
                except KeyError:
                    raise EvaluationError(f"function {t.fn!r} is not interpreted") from None
                rows.fn = t.fn
            key = self.key(t.args)
            return rows[key] if isinstance(key, tuple) else _Lookup(rows, key)
        raise EvaluationError(f"not a term: {t!r}")

    def key(self, args: tuple[Term, ...]) -> Callable[[Values], tuple[int, ...]] | tuple[int, ...]:
        """The tuple of the `args`' values as a function of value lists, or
        as a constant when every argument is ground."""
        if len(args) > 1 and all(isinstance(t, Var) for t in args):
            return itemgetter(*[self.slot(t) for t in args])  # builds the tuple in C
        parts = [self.term(t) for t in args]
        if all(isinstance(part, int) for part in parts):
            return tuple(parts)
        readers = [self.reader(part) for part in parts]
        if len(readers) == 1:
            (only,) = readers
            return lambda values: (only(values),)
        return lambda values: tuple([read(values) for read in readers])

    @staticmethod
    def reader(term: _Term) -> Callable[[Values], int]:
        if isinstance(term, _Lookup):
            rows, key = term
            return lambda values: rows[key(values)]
        if isinstance(term, int):
            return lambda values: term
        return term


# ---------------------------------------------------------------------------
# On-disk format


def load_structure(text: str) -> Structure:
    """Parse the JSON structure format; raises StructureFormatError."""
    try:
        doc = json.loads(text)
    except ValueError as e:  # a JSONDecodeError, or an integer past int()'s digit limit
        raise StructureFormatError(f"not valid JSON: {e}") from None
    except RecursionError:
        raise StructureFormatError("JSON nested too deeply to parse") from None
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
        table = functions[sym] = {tuple(row[:-1]): row[-1] for row in rows}
        if len(table) < len(rows):
            seen = set()
            for row in rows:
                args = tuple(row[:-1])
                if args in seen:
                    raise StructureFormatError(f"function {sym!r} has duplicate row for {args}")
                seen.add(args)
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


def total_function_table(size: int, arity: int, fn) -> dict[tuple[int, ...], int]:
    """Tabulate `fn` over every arity-tuple of the universe."""
    return {args: fn(*args) for args in product(range(size), repeat=arity)}
