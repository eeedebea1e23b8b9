import random
import re
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifgames import structure
from ifgames.applications import cyclic_structure
from ifgames.errors import EvaluationError, StructureFormatError
from ifgames.formula import App, Atom, Connective, Equals, Quant, Var
from ifgames.structure import (
    Structure,
    compile_qf,
    holds_qf,
    load_structure,
    total_function_table,
)

from conftest import FIXTURES, _naive_eval, _naive_term, random_qf
from reference import save_structure


def psi_two():
    # (x0 + x2) = (x1 + x3) over the `add` function
    return Equals(
        App("add", (Var("x0"), Var("x2"))), App("add", (Var("x1"), Var("x3")))
    )


def _term_value(s, a, t) -> int:
    """The value of term `t` under `a`: the one element v for which
    `holds_qf` finds `t = v` true."""
    (value,) = [v for v in range(s.size) if holds_qf(s, {**a, "v*": v}, Equals(t, Var("v*")))]
    return value


class TestEvalTerm:
    def test_cyclic_addition_wraps(self):
        s = cyclic_structure(3)
        t = App("add", (Var("x0"), Var("x2")))
        assert _term_value(s, {"x0": 1, "x2": 2}, t) == 0

    def test_variable_lookup(self):
        s = Structure(size=5)
        assert _term_value(s, {"x": 4}, Var("x")) == 4

    def test_cyclic_addition_n5(self):
        s = cyclic_structure(5)
        t = App("add", (Var("x"), Var("y")))
        assert _term_value(s, {"x": 2, "y": 3}, t) == 0

    def test_missing_variable(self):
        with pytest.raises(EvaluationError, match="variable"):
            _term_value(Structure(size=2), {}, Var("x"))

    def test_missing_symbol(self):
        with pytest.raises(EvaluationError, match="function"):
            _term_value(Structure(size=2), {"x": 0}, App("f", (Var("x"),)))

    def test_cyclic_addition_exhaustive(self):
        for n in range(1, 13):
            s = cyclic_structure(n)
            t = App("add", (Var("x"), Var("y")))
            for x in range(n):
                for y in range(n):
                    assert _term_value(s, {"x": x, "y": y}, t) == (x + y) % n


class TestHoldsQF:
    def test_psi_two_true(self):
        s = cyclic_structure(3)
        assert holds_qf(s, {"x0": 0, "x1": 1, "x2": 2, "x3": 1}, psi_two())

    def test_reflexive_equality(self):
        for value in range(3):
            assert holds_qf(Structure(size=3), {"x": value}, Equals(Var("x"), Var("x")))

    def test_psi_two_false(self):
        s = cyclic_structure(3)
        assert not holds_qf(s, {"x0": 0, "x1": 1, "x2": 2, "x3": 2}, psi_two())

    def test_negated_atom(self):
        s = Structure(size=2, relations={"R": frozenset({(0,)})})
        assert holds_qf(s, {"x": 1}, Atom("R", (Var("x"),), negated=True))
        assert not holds_qf(s, {"x": 0}, Atom("R", (Var("x"),), negated=True))

    def test_rejects_quantifiers(self):
        f = Quant("forall", "x", frozenset(), Equals(Var("x"), Var("x")))
        with pytest.raises(EvaluationError):
            holds_qf(Structure(size=2), {}, f)

    def test_agrees_with_naive_evaluator(self):
        rng = random.Random(555)
        s = Structure(
            size=4,
            relations={"R": frozenset({(0,), (2,)}), "P": frozenset({(0, 1), (3, 3), (2, 0)})},
            functions={
                "add": total_function_table(4, 2, lambda a, b: (a + b) % 4),
                "c": {(): 1},
            },
        )
        bound = ["x", "y", "z"]
        for _ in range(1000):
            f = random_qf(rng, bound, 3)
            a = {name: rng.randrange(4) for name in bound}
            assert holds_qf(s, a, f) == _naive_eval(s, a, f)


# ---------------------------------------------------------------------------
# The compiled evaluator against the independent one, on every assignment

FIXED = settings(derandomize=True, deadline=None, database=None, max_examples=200)
NAMES = ("x", "y", "z")


@st.composite
def structures(draw):
    """One to three elements; `E` is empty, so its arity is None and it takes
    any argument count, and `R` and `P` may be empty too."""
    n = draw(st.integers(1, 3))
    element = st.integers(0, n - 1)

    def relation(arity):
        return draw(st.frozensets(st.tuples(*[element] * arity), max_size=n**arity))

    def function(arity):
        return {args: draw(element) for args in product(range(n), repeat=arity)}

    return Structure(
        size=n,
        relations={"R": relation(1), "P": relation(2), "E": frozenset()},
        functions={"add": function(2), "s": function(1), "c": function(0)},
    )


def _terms(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda args: App("add", args)),
            inner.map(lambda arg: App("s", (arg,))),
        ),
        max_leaves=5,
    )


def _formulas(terms):
    """Negation normal forms over `terms`, with quantifiers over the names of
    NAMES, which rebind the assigned ones."""
    atoms = st.one_of(
        st.builds(lambda t, neg: Atom("R", (t,), neg), terms, st.booleans()),
        st.builds(lambda a, b, neg: Atom("P", (a, b), neg), terms, terms, st.booleans()),
        st.builds(lambda args, neg: Atom("E", tuple(args), neg), st.lists(terms, min_size=1, max_size=2), st.booleans()),
        st.builds(lambda a, b, neg: Equals(a, b, neg), terms, terms, st.booleans()),
    )

    def extend(inner):
        connectives = st.builds(
            lambda kind, branches: Connective(kind, None, tuple(branches)),
            st.sampled_from(["and", "or"]),
            st.lists(inner, min_size=1, max_size=4),
        )
        quantifiers = st.builds(
            lambda kind, var, body: Quant(kind, var, frozenset(), body),
            st.sampled_from(["forall", "exists"]),
            st.sampled_from(NAMES),
            inner,
        )
        return st.one_of(connectives, quantifiers)

    return st.recursive(atoms, extend, max_leaves=12)


GROUND_TERMS = _terms(st.just(App("c", ())))
TERMS = _terms(st.sampled_from([Var(name) for name in NAMES] + [App("c", ())]))


def _quantifier_depth(f) -> int:
    if isinstance(f, Quant):
        return 1 + _quantifier_depth(f.body)
    if isinstance(f, Connective):
        return max(map(_quantifier_depth, f.branches))
    return 0


def _assignments(s):
    for combo in product(range(s.size), repeat=len(NAMES)):
        yield dict(zip(NAMES, combo))


class TestCompiledEvaluator:
    @settings(FIXED, max_examples=300)
    @given(structures(), _formulas(TERMS), st.permutations(range(5)))
    def test_agrees_with_naive_evaluator_on_every_assignment(self, s, f, order):
        # Three of five slots hold the identifiers; the other two hold values
        # outside the universe, which no lookup may read.  A quantifier writes
        # the slots past the highest the identifiers hold, which must exist.
        slots = dict(zip(NAMES, order))
        test = compile_qf(s, f, slots)
        depth = _quantifier_depth(f)
        for a in _assignments(s):
            values = [s.size + 5] * (5 + depth)
            for name, value in a.items():
                values[slots[name]] = value
            expected = _naive_eval(s, a, f)
            assert test(values) is expected
            assert all(values[slots[name]] == value for name, value in a.items())
            if depth:
                with pytest.raises(EvaluationError, match="holds_qf applied to a quantified formula"):
                    holds_qf(s, a, f)
            else:
                assert holds_qf(s, a, f) is expected

    @settings(FIXED, max_examples=300)
    @given(structures(), _formulas(TERMS), st.permutations(range(5)), st.booleans())
    def test_array_form_agrees_with_the_scalar_form(self, s, f, order, narrow):
        """Every assignment at once, one entry each, against the scalar test
        one at a time.  Narrow, the array limit is 1: every relation is
        looked up tuple by tuple and every quantifier repeats one assignment
        at a time."""
        slots = dict(zip(NAMES, order))
        assignments = list(_assignments(s))
        values = [np.full(len(assignments), s.size + 5) for _ in range(5)]
        for i, a in enumerate(assignments):
            for name, value in a.items():
                values[slots[name]][i] = value
        limit = 1 if narrow else structure.MAX_ARRAY_ELEMENTS
        with mock.patch.object(structure, "MAX_ARRAY_ELEMENTS", limit):
            got = compile_qf(s, f, slots, arrays=True)(values)
        scalar = compile_qf(s, f, slots)
        want = [scalar([int(v[i]) for v in values] + [0] * _quantifier_depth(f)) for i in range(len(assignments))]
        assert got.dtype == bool and got.tolist() == want

    @settings(FIXED, max_examples=100)
    @given(structures(), TERMS)
    def test_terms_agree_with_naive_evaluator(self, s, t):
        for a in _assignments(s):
            assert _term_value(s, a, t) == _naive_term(s, a, t)

    @settings(FIXED, max_examples=50)
    @given(structures(), _formulas(GROUND_TERMS))
    def test_ground_formulas_read_no_value(self, s, f):
        assert compile_qf(s, f, {})([]) is _naive_eval(s, {}, f)

    def test_errors_are_raised_at_compile_time(self):
        s = Structure(size=2, relations={"R": frozenset({(0,)})}, functions={"c": {(): 1}})
        x = Var("x")
        cases = [
            (Equals(x, x), "variable 'x' has no assigned value"),
            (Atom("Q", (x,)), "relation 'Q' is not interpreted"),
            (Equals(App("g", ()), x), "function 'g' is not interpreted"),
            (x, "not a formula: Var(name='x')"),
            (Equals(App("c", (App("c", ()),)), x), "function 'c' has no row for (1,)"),
        ]
        for f, message in cases:
            with pytest.raises(EvaluationError, match=re.escape(message)):
                compile_qf(s, f, {"y": 0} if "variable" in message else {"x": 0})
        with pytest.raises(EvaluationError, match="not a term"):
            _term_value(s, {}, Atom("R", ()))
        # compile_qf evaluates quantifiers; holds_qf takes quantifier-free formulas only.
        quantified = Connective("or", None, (Atom("R", (x,)), Quant("forall", "x", frozenset(), Equals(x, x))))
        assert compile_qf(s, quantified, {"x": 0})([1, None]) is True
        with pytest.raises(EvaluationError, match="holds_qf applied to a quantified formula"):
            holds_qf(s, {"x": 1}, quantified)

    def test_missing_row_is_reported_when_evaluated(self):
        s = cyclic_structure(2)
        t = App("add", (Var("x"), Var("x")))
        test = compile_qf(s, Equals(t, Var("x")), {"x": 0})
        assert test([1]) is False
        with pytest.raises(EvaluationError, match=r"function 'add' has no row for \(5, 5\)"):
            test([5])
        with pytest.raises(EvaluationError, match=r"function 'add' has no row for \(2, 2\)"):
            _term_value(s, {"x": 2}, t)


class TestFileFormat:
    def test_load_simple(self):
        text = '{"size": 2, "functions": {"add": [[0,0,0],[0,1,1],[1,0,1],[1,1,0]]}}'
        s = load_structure(text)
        assert s == cyclic_structure(2)

    def test_load_save_identity(self):
        for s in (cyclic_structure(4), Structure(size=3, relations={"U": frozenset({(0,), (2,)})})):
            assert load_structure(save_structure(s)) == s

    def test_save_load_text_round_trip_on_fixture(self):
        text = (FIXTURES / "cyclic3.json").read_text()
        assert save_structure(load_structure(text)) == text

    def test_out_of_range_value(self):
        with pytest.raises(StructureFormatError, match="outside the universe"):
            load_structure('{"size": 3, "functions": {"f": [[0,7],[1,0],[2,0]]}}')

    def test_partial_function_table(self):
        with pytest.raises(StructureFormatError, match="partial"):
            load_structure('{"size": 3, "functions": {"f": [[0,0],[1,0]]}}')

    def test_duplicate_function_row(self):
        text = '{"size": %d, "functions": {"f": [[0, 0], [1, 1], [0, 1]]}}'
        with pytest.raises(StructureFormatError, match=re.escape("function 'f' has duplicate row for (0,)")):
            load_structure(text % 2)
        with pytest.raises(StructureFormatError, match="duplicate row"):  # reported before the size
            load_structure(text % 0)

    def test_containers_are_converted_once(self):
        relation = frozenset({(0,), (1,)})
        table = {(0,): 1, (1,): 0}
        s = Structure(size=2, relations={"R": relation}, functions={"f": table})
        assert s.relations["R"] is relation and s.functions["f"] is table
        t = Structure(size=2, relations={"R": [[0], [1]]}, functions={"f": [((0,), 1), ((1,), 0)]})
        assert t == s and type(t.relations["R"]) is frozenset and type(t.functions["f"]) is dict

    def test_malformed_json(self):
        with pytest.raises(StructureFormatError, match="JSON"):
            load_structure("{size: nope")

    def test_unknown_field(self):
        with pytest.raises(StructureFormatError, match="unknown"):
            load_structure('{"size": 2, "stuff": 1}')

    def test_vocabulary_from_structure(self):
        s = Structure(
            size=3,
            relations={"U": frozenset({(1,)})},
            functions={"add": total_function_table(3, 2, lambda a, b: (a + b) % 3)},
        )
        vocab = s.vocabulary()
        assert vocab.relations == {"U": 1}
        assert vocab.functions == {"add": 2}
