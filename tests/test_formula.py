import hashlib
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifgames.errors import ParseError
from ifgames.formula import (
    MAX_NESTING,
    _token_start,
    _tokenize,
    App,
    Atom,
    Connective,
    Equals,
    Quant,
    Var,
    Vocabulary,
    format_formula,
    parse,
    validate,
)
from ifgames.semantic_game import build_matrix
from ifgames.structure import Structure, load_structure

from conftest import FIXTURES, TEST_VOCAB, perfbench_workloads, random_sentence
from reference import reference_tokenize
from test_cli import _formula_texts

EMPTY = Vocabulary()

MATCHING_PENNIES = Quant(
    "forall", "x", frozenset(), Quant("exists", "y", frozenset({"x"}), Equals(Var("x"), Var("y")))
)


class TestParse:
    def test_matching_pennies(self):
        assert parse("Ax (Ey/x) x = y", EMPTY) == MATCHING_PENNIES

    def test_single_quantifier_no_slash(self):
        assert parse("Ax x = x", EMPTY) == Quant(
            "forall", "x", frozenset(), Equals(Var("x"), Var("x"))
        )

    def test_negated_atom_nnf(self):
        assert parse("Ax Ey ~x = y", EMPTY) == Quant(
            "forall",
            "x",
            frozenset(),
            Quant("exists", "y", frozenset(), Equals(Var("x"), Var("y"), negated=True)),
        )

    def test_spaced_quantifier_and_commas_in_slash(self):
        assert parse("A x E y (E z / x, y) P(x, z)", TEST_VOCAB) == parse(
            "Ax Ey (Ez/x y) P(x,z)", TEST_VOCAB
        )

    def test_choice_disjunction_binds_index(self):
        f = parse("\\/_i{(Ax/i) R(x), (Ey/i) R(y)}", TEST_VOCAB)
        assert isinstance(f, Connective) and f.choice_var == "i" and len(f.branches) == 2
        assert f.branches[0] == Quant("forall", "x", frozenset({"i"}), Atom("R", (Var("x"),)))

    def test_connective_precedence(self):
        f = parse("Ax R(x) & R(x) | P(x, x) & R(x)", TEST_VOCAB)
        assert isinstance(f, Quant)
        body = f.body
        assert isinstance(body, Connective) and body.kind == "or" and len(body.branches) == 2
        assert all(b.kind == "and" for b in body.branches)

    def test_parenthesized_groups(self):
        f = parse("Ax (R(x) | P(x, x)) & R(x)", TEST_VOCAB)
        assert isinstance(f.body, Connective) and f.body.kind == "and"
        assert f.body.branches[0].kind == "or"

    def test_function_terms(self):
        f = parse("Ax add(x, c) = x", TEST_VOCAB)
        assert f.body == Equals(App("add", (Var("x"), App("c", ()))), Var("x"))

    def test_relation_name_starting_with_quantifier_letter(self):
        vocab = Vocabulary(relations={"Adj": 2})
        f = parse("Ax Ay Adj(x, y)", vocab)
        assert isinstance(f.body.body, Atom) and f.body.body.rel == "Adj"

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("Ax x = ", "expected"),
            ("Ax x = y", "unbound"),
            ("Ax Q(x)", "unbound variable or unknown symbol"),
            ("Ax (Ey/z) x = y", "not in scope"),
            ("Ax ~(x = x | x = x)", "expected"),
            ("Ax R(x, x)", "arguments"),
            ("\\/_i{R(i), R(c)}", "term"),
            ("Ax (Ey/x) zz", "unbound"),  # an error under a slashed quantifier
        ],
    )
    def test_errors(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse(text, TEST_VOCAB)
        assert fragment in str(err.value)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("Ax x = #", EMPTY)
        assert err.value.position == 7


# Relations and functions spelled like the heads `Ay`, `Ex`, `Ax`, `Ef` and
# `Az`, and a relation `P` that may also be bound as a variable.
ROUND_TRIP_VOCAB = Vocabulary(relations={"Ay": 1, "Ex": 2, "Ax": 0, "P": 1}, functions={"Ef": 1, "Az": 0})


def _head_terms(bound):
    leaves = st.sampled_from([Var(v) for v in bound] + [App("Az", ())])
    return st.recursive(leaves, lambda t: t.map(lambda a: App("Ef", (a,))), max_leaves=3)


@st.composite
def _head_sentences(draw, bound=(), depth=4):
    """Sentences over ROUND_TRIP_VOCAB whose quantifiers bind x, y, z, f or P."""
    shape = draw(st.sampled_from(("quant", "atom", "and", "or") if depth else ("atom",)))
    if shape == "quant":
        var = draw(st.sampled_from("xyzfP"))
        slash = draw(st.frozensets(st.sampled_from(bound), max_size=2)) if bound else frozenset()
        body = draw(_head_sentences(tuple(sorted({*bound, var})), depth - 1))
        return Quant(draw(st.sampled_from(("forall", "exists"))), var, slash, body)
    if shape == "atom":
        rel, negated = draw(st.sampled_from(("=", "Ay", "Ex", "Ax", "P"))), draw(st.booleans())
        if rel == "=":
            return Equals(draw(_head_terms(bound)), draw(_head_terms(bound)), negated)
        args = tuple(draw(_head_terms(bound)) for _ in range(ROUND_TRIP_VOCAB.relations[rel]))
        return Atom(rel, args, negated)
    return Connective(shape, None, tuple(draw(_head_sentences(bound, depth - 1)) for _ in range(2)))


# Symbols spelled like quantifier heads: `Ay` is a relation and a head
# binding `y`, `Ef` a function and a head binding `f`.
HEAD_VOCAB = Vocabulary(relations={"Ay": 1}, functions={"Ef": 1})


class TestQuantifierHeads:
    """`Ax` and `A x` are heads when a formula starts after them, but a
    vocabulary symbol directly followed by an argument list is applied."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("Ay (y = y)", Quant("forall", "y", frozenset(), Equals(Var("y"), Var("y")))),
            (
                "Ay (Ez/y) Ay(z)",
                Quant("forall", "y", frozenset(), Quant("exists", "z", frozenset({"y"}), Atom("Ay", (Var("z"),)))),
            ),
            ("Ay (Ay(y))", Quant("forall", "y", frozenset(), Atom("Ay", (Var("y"),)))),
            ("Ef (f = f)", Quant("exists", "f", frozenset(), Equals(Var("f"), Var("f")))),
            ("Ex Ay(x)", Quant("exists", "x", frozenset(), Atom("Ay", (Var("x"),)))),
            ("Ax Ef(x) = x", Quant("forall", "x", frozenset(), Equals(App("Ef", (Var("x"),)), Var("x")))),
            ("A y Ay(y)", Quant("forall", "y", frozenset(), Atom("Ay", (Var("y"),)))),
        ],
    )
    def test_head_or_application(self, text, expected):
        assert parse(text, HEAD_VOCAB) == expected

    def test_relation_bound_as_a_variable_is_an_argument(self):
        # `P` is a relation, but `AP` binds it, so `Ay(P)` is an argument list.
        vocab = Vocabulary(relations={"Ay": 1, "P": 1})
        P = Var("P")
        assert parse("AP Ay(P)", vocab) == Quant("forall", "P", frozenset(), Atom("Ay", (P,)))
        assert parse("AP Ay (P(P))", vocab) == Quant(
            "forall", "P", frozenset(), Quant("forall", "y", frozenset(), Atom("P", (P,)))
        )

    @settings(derandomize=True, deadline=None, database=None, max_examples=400)
    @given(_head_sentences())
    def test_round_trip_with_heads_spelling_symbols(self, sentence):
        assert parse(format_formula(sentence), ROUND_TRIP_VOCAB) == sentence


class TestZeroAryRelations:
    VOCAB = load_structure('{"size": 2, "relations": {"R": [[]], "P": [[0]]}}').vocabulary()

    def test_round_trip(self):
        sentence = parse("Ax R() | ~R() & P(x)", self.VOCAB)
        assert sentence.body.branches[0] == Atom("R", ())
        assert format_formula(sentence) == "Ax R() | ~R() & P(x)"
        assert parse(format_formula(sentence), self.VOCAB) == sentence
        assert validate(sentence, self.VOCAB) == []

    @pytest.mark.parametrize(
        "text, message",
        [("P()", "relation 'P' expects 1 arguments, got 0"), ("R(x)", "unbound"), ("R", "relation 'R' used as a term")],
    )
    def test_refusals(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse(text, self.VOCAB)


def _nested_sentences(depth: int) -> list[str]:
    """Sentences whose formulas and terms nest exactly `depth` levels deep:
    parenthesized groups, a quantifier chain, and a function-term tower."""
    groups, chain, tower = depth - 3, depth - 2, depth - 3
    return [
        "Ax " + "(" * groups + "x = x" + ")" * groups,
        "".join(f"Ax{k} " for k in range(chain)) + "x0 = x0",
        "Ax " + "f(" * tower + "x" + ")" * tower + " = x",
    ]


class TestNestingCap:
    ONE = Structure(size=1, functions={"f": {(0,): 0}})

    @pytest.mark.parametrize("text", _nested_sentences(MAX_NESTING))
    def test_at_the_cap_every_stage_runs(self, text):
        vocab = self.ONE.vocabulary()
        sentence = parse(text, vocab)
        assert validate(sentence, vocab) == []
        assert parse(format_formula(sentence), vocab) == sentence
        assert build_matrix(self.ONE, sentence).matrix.array.tolist() == [[1]]

    @pytest.mark.parametrize("text", _nested_sentences(MAX_NESTING + 1))
    def test_one_past_the_cap_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="nested deeper"):
            parse(text, self.ONE.vocabulary())

    def test_three_thousand_parentheses(self):
        with pytest.raises(ParseError, match="nested deeper"):
            parse("Ax " + "(" * 3000 + "x = x" + ")" * 3000, EMPTY)


class TestPrint:
    def test_matching_pennies(self):
        assert format_formula(MATCHING_PENNIES) == "Ax (Ey/x) x = y"

    def test_plain_quantifier(self):
        assert format_formula(parse("Ax x = x", EMPTY)) == "Ax x = x"

    def test_round_trip_corpus(self):
        rng = random.Random(97)
        for _ in range(1000):
            f = random_sentence(rng)
            assert parse(format_formula(f), TEST_VOCAB) == f

    def test_round_trip_applications(self):
        from ifgames.applications import (
            birthday_sentence,
            hash_structure,
            hashing_sentence,
            matching_pennies,
        )

        mp, s = matching_pennies(2)
        assert parse(format_formula(mp), s.vocabulary()) == mp
        for m in (2, 3, 4):
            f = birthday_sentence(m)
            vocab = Vocabulary(functions={"add": 2})
            assert parse(format_formula(f), vocab) == f
        structure, spec = hash_structure(2, 2)
        f = hashing_sentence(spec)
        assert parse(format_formula(f), structure.vocabulary()) == f


class TestValidate:
    def test_matching_pennies_clean(self):
        assert validate(MATCHING_PENNIES, EMPTY) == []

    def test_unbound_slash_variable(self):
        f = Quant("exists", "y", frozenset({"z"}), Equals(Var("y"), Var("y")))
        codes = [v.code for v in validate(f, EMPTY)]
        assert codes == ["unbound-slash-variable"]

    def test_arity_mismatch(self):
        f = Quant("forall", "x", frozenset(), Atom("R", (Var("x"), Var("x"))))
        assert [v.code for v in validate(f, TEST_VOCAB)] == ["arity-mismatch"]

    def test_unknown_symbols(self):
        f = Atom("Nope", (App("nofn", ()),))
        assert sorted(v.code for v in validate(f, TEST_VOCAB)) == ["unknown-symbol", "unknown-symbol"]

    def test_unbound_variable_means_not_a_sentence(self):
        f = Equals(Var("x"), Var("x"))
        assert {v.code for v in validate(f, EMPTY)} == {"unbound-variable"}

    def test_unused_choice_var(self):
        f = Connective(
            "or",
            "i",
            (
                Quant("forall", "x", frozenset(), Atom("R", (Var("x"),))),
                Quant("forall", "y", frozenset(), Atom("R", (Var("y"),))),
            ),
        )
        assert "unused-choice-var" in [v.code for v in validate(f, TEST_VOCAB)]

    def test_choice_var_inside_term(self):
        f = Connective(
            "or",
            "i",
            (
                Quant("forall", "x", frozenset({"i"}), Equals(Var("x"), Var("i"))),
                Quant("forall", "y", frozenset({"i"}), Atom("R", (Var("y"),))),
            ),
        )
        assert "choice-var-in-term" in [v.code for v in validate(f, TEST_VOCAB)]

    def test_random_corpus_is_valid(self):
        rng = random.Random(131)
        for _ in range(300):
            assert validate(random_sentence(rng), TEST_VOCAB) == []

    def test_generator_formulas_are_valid(self):
        from ifgames.applications import (
            birthday_sentence,
            hash_structure,
            hashing_sentence,
            matching_pennies,
        )

        mp, s = matching_pennies(3)
        assert validate(mp, s.vocabulary()) == []
        vocab = Vocabulary(functions={"add": 2})
        for m in (2, 3, 4, 5):
            assert validate(birthday_sentence(m), vocab) == []
        for keys, values in ((1, 1), (2, 2), (3, 2)):
            structure, spec = hash_structure(keys, values)
            assert validate(hashing_sentence(spec), structure.vocabulary()) == []


# One `match` per token in a Python loop: the tokenizer's reference.
_LOOP_TOKEN_RE = re.compile(r"(?P<ws>\s+)|(?P<choice>\\/_)|(?P<ident>[A-Za-z_][A-Za-z0-9_']*)|(?P<sym>[()&|~=,{}/])")


def loop_tokens(text):
    """The token list, or the message of the ParseError for the first
    character no token starts with."""
    tokens, pos = [], 0
    while pos < len(text):
        m = _LOOP_TOKEN_RE.match(text, pos)
        if m is None:
            return f"unexpected character {text[pos]!r} (at position {pos})", pos
        if m.lastgroup != "ws":
            tokens.append((m.group() if m.lastgroup == "sym" else m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens + [("eof", "", len(text))]


def tokens_or_error(text):
    """`_tokenize`'s (kind, text) pairs, each with its `_token_start`, or
    the ParseError's message and position."""
    try:
        kinds, texts = _tokenize(text)
    except ParseError as e:
        return str(e), e.position
    return [(kind, token, _token_start(text, i)) for i, (kind, token) in enumerate(zip(kinds, texts))]


def reference_or_error(text):
    try:
        return reference_tokenize(text)
    except ParseError as e:
        return str(e), e.position


def _sentence_corpus_formulas(seeds):
    """Every `--formula` of the benchmark's sentence_corpus workload, with
    the vocabulary of the structure its op names."""
    workloads = perfbench_workloads()
    for seed in seeds:
        workload = workloads.sentence_corpus(seed)
        vocabs = {}
        for op in workload.ops:
            name = op.argv[op.argv.index("--structure") + 1].removeprefix("{dir}/")
            if name not in vocabs:
                vocabs[name] = load_structure(workload.files[name]).vocabulary()
            yield op.argv[op.argv.index("--formula") + 1], vocabs[name]


class TestTokenize:
    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(_formula_texts())
    def test_matches_loop_on_fuzz_texts(self, text):
        assert tokens_or_error(text) == loop_tokens(text) == reference_or_error(text)

    def test_matches_loop_on_sentence_corpus(self):
        formulas = [text for text, _ in _sentence_corpus_formulas((1, 4242, 9090))]
        assert len(formulas) > 1000
        for text in formulas:
            assert tokens_or_error(text) == loop_tokens(text), text

    @pytest.mark.parametrize("text", ["", "  ", "Ax \n Ey x = y", "x # y", "\u00e9", "Ax\tP(x)\r\n!", "\\/_i{P, Q}"])
    def test_matches_loop_on_edge_cases(self, text):
        assert tokens_or_error(text) == loop_tokens(text) == reference_or_error(text)

    # Whitespace of every kind the regex knows, the choice's backslash, and
    # characters outside every token: non-ASCII letters and digits, `#`, NUL.
    @settings(derandomize=True, deadline=None, database=None, max_examples=500)
    @given(st.text(alphabet=" \t\r\n\x0b\u2028\\/_xAE'1(),{}=&|~#\x00\u00e9\u00b2\u0663", max_size=16))
    def test_matches_reference_on_random_strings(self, text):
        assert tokens_or_error(text) == loop_tokens(text) == reference_or_error(text)


# Characters a mutation inserts: every symbol, the quantifier letters, three
# variables, the choice's backslash, a space, and `#`, which starts no token.
_MUTATION_CHARS = "()&|~=,{}/#AExyz\\ "
PARSE_FIXTURE = FIXTURES / "parse_mutations.json"


def parse_mutations(count=2000, seed=5):
    """`count` seeded edits of sentence_corpus formulas: a prefix, a deleted
    character, or a character of _MUTATION_CHARS inserted."""
    rng = random.Random(seed)
    sentences = list(_sentence_corpus_formulas((1,)))
    for _ in range(count):
        text, vocab = rng.choice(sentences)
        at = rng.randrange(len(text) + 1)
        edit = rng.choice(("prefix", "delete", "insert"))
        if edit == "prefix":
            text = text[:at]
        elif edit == "delete":
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + rng.choice(_MUTATION_CHARS) + text[at:]
        yield text, vocab


def parse_outcome(text, vocab):
    """The printed sentence, or the ParseError's message and position."""
    try:
        return format_formula(parse(text, vocab))
    except ParseError as e:
        return [str(e), e.position]


def test_parse_mutations_match_the_recorded_outcomes():
    """`parse_mutations.json` holds each mutation's outcome as recorded
    before the tokenizer took its tokens in one `findall`: every printed
    sentence, message and position must stay as it was."""
    recorded = json.loads(PARSE_FIXTURE.read_text())
    mutations = list(parse_mutations())
    digest = hashlib.sha256("\0".join(text for text, _ in mutations).encode()).hexdigest()
    assert digest == recorded["inputs_sha256"], "the benchmark's generator changed the inputs"
    outcomes = [parse_outcome(text, vocab) for text, vocab in mutations]
    errors = sum(isinstance(o, list) for o in outcomes)
    assert 0 < errors < len(outcomes)
    for (text, _), got, want in zip(mutations, outcomes, recorded["outcomes"]):
        assert got == want, text
