import math
import random
import time

import pytest

from ifgames.applications import (
    birthday_sentence,
    cyclic_structure,
    hash_structure,
    hashing_sentence,
    matching_pennies,
)
from ifgames.errors import BudgetExceededError, GameBuildError, SizeLimitError
from ifgames.formula import Connective, Quant, Vocabulary, format_formula, parse
from ifgames.matrix_game import GameMatrix
from ifgames.semantic_game import (
    ABELARD,
    ELOISE,
    Game,
    ReducedForm,
    build_matrix,
    build_reduced,
    decision_points,
)
from ifgames.structure import Structure, total_function_table
from ifgames.value_engine import solve_value

from conftest import TEST_VOCAB, identity_matrix, random_qf, random_sentence
from reference import _eloise_wins, _reference_matrix, _reference_play, enumerate_strategies, reference_reduced

EMPTY = Vocabulary()


class TestDecisionPoints:
    def test_matching_pennies(self):
        f, s = matching_pennies(2)
        points = decision_points(f, s)
        assert [(p.owner, p.visible, p.options) for p in points] == [
            (ABELARD, (), 2),
            (ELOISE, (), 2),
        ]

    def test_informed_exists_sees_x(self):
        f = parse("Ax Ey x = y", EMPTY)
        points = decision_points(f, Structure(size=2))
        assert points[1].owner == ELOISE
        assert points[1].visible == ("x",)
        assert points[1].visible_ranges == (2,)

    def test_hashing_merges_universals_across_branches(self):
        structure, spec = hash_structure(2, 2)
        f = hashing_sentence(spec)
        points = decision_points(f, structure)
        summary = [(p.owner, p.visible, p.options) for p in points]
        # One hidden function choice and one merged point per universal; the
        # quantifier occurrences across the four branches are indistinguishable
        # once the index is slashed, so they share tables.
        assert summary[:3] == [
            (ELOISE, (), 4),
            (ABELARD, (), 4),
            (ABELARD, ("x",), 4),
        ]
        # The rest are the fully informed guard disjunctions, one per branch;
        # they stop being moves under collapsing.
        assert all(owner == ELOISE and visible == ("i", "x", "y") for owner, visible, _ in summary[3:])
        assert len(enumerate_strategies(structure, f, ELOISE, collapse=True)) == 4

    def test_points_in_formula_order(self):
        f = parse("Ax Ey (Az/x) x = y", EMPTY)
        points = decision_points(f, Structure(size=2))
        assert [p.owner for p in points] == [ABELARD, ELOISE, ABELARD]
        assert points[2].visible == ("y",)  # x slashed away, y still seen


class TestEnumerate:
    def test_matching_pennies_eloise_constants(self):
        f, s = matching_pennies(2)
        strategies = enumerate_strategies(s, f, ELOISE)
        assert [st.tables for st in strategies] == [((0,),), ((1,),)]

    def test_informed_exists_has_function_tables(self):
        f = parse("Ax Ey x = y", EMPTY)
        strategies = enumerate_strategies(Structure(size=2), f, ELOISE, collapse=False)
        assert [st.tables for st in strategies] == [
            ((0, 0),),
            ((0, 1),),
            ((1, 0),),
            ((1, 1),),
        ]

    def test_birthday_eloise_count(self):
        f = birthday_sentence(2)
        s = cyclic_structure(3)
        assert len(enumerate_strategies(s, f, ELOISE, collapse=True)) == 9

    def test_budget_error_reports_count(self):
        f = parse("Ax Ey x = y", EMPTY)
        with pytest.raises(BudgetExceededError) as err:
            enumerate_strategies(Structure(size=4), f, ELOISE, collapse=False, max_strategies=100)
        assert err.value.count == 4**4
        assert err.value.budget == 100

    def test_budget_refuses_a_wide_point_without_forming_its_count(self):
        f = parse("Ax1 Ax2 Ax3 Ax4 Ax5 Ey y = x1", EMPTY)
        with pytest.raises(BudgetExceededError) as err:
            build_matrix(Structure(size=16), f, collapse=False)
        # One table of 16**5 cells gives at least 2**(16**5) strategies.
        assert err.value.count is None
        assert "eloise would have at least 2^1048576 pure strategies" in str(err.value)
        # Collapsed, the sentence is one classical evaluation of 16**6 assignments.
        with pytest.raises(SizeLimitError, match=r"would visit 16\^6 assignments, over the budget of 1048576"):
            build_matrix(Structure(size=16), f)

    def test_budget_error_past_the_digit_limit(self):
        err = BudgetExceededError("eloise", None, 10**5000, 12)
        assert str(err) == "eloise would have at least 2^12 pure strategies, over the budget of at least 2^16609"
        assert err.budget == 10**5000
        # So is an exponent too long to print: 2^16609 <= 10**5000.
        err = BudgetExceededError("eloise", None, 2**20, 10**5000)
        assert str(err) == "eloise would have at least 2^(2^16609) pure strategies, over the budget of 1048576"
        # Below 2 ** SHOWN_BITS a number is shown in full.
        limit = 2**BudgetExceededError.SHOWN_BITS
        assert str(BudgetExceededError("abelard", limit, limit - 1)) == (
            f"abelard would have at least 2^1024 pure strategies, over the budget of {limit - 1}"
        )

    def test_count_formula_on_fixtures(self):
        cases = [
            (parse("Ax Ey x = y", EMPTY), Structure(size=3)),
            (parse("Ax (Ey/x) Az (x = y | ~z = y)", EMPTY), Structure(size=2)),
            (birthday_sentence(2), cyclic_structure(2)),
        ]
        for f, s in cases:
            points = decision_points(f, s)
            for player in (ELOISE, ABELARD):
                expected = math.prod(
                    p.options ** math.prod(p.visible_ranges)
                    for p in points
                    if p.owner == player
                )
                got = len(enumerate_strategies(s, f, player, collapse=False))
                assert got == expected

    def test_rebinding_is_rejected(self):
        from ifgames.formula import Equals, Var

        inner = Quant("forall", "x", frozenset(), Equals(Var("x"), Var("x")))
        f = Quant("forall", "x", frozenset(), inner)
        with pytest.raises(GameBuildError, match="rebound"):
            decision_points(f, Structure(size=2))


class TestPlay:
    def test_matching_pennies_match(self):
        f, s = matching_pennies(2)
        eloise = enumerate_strategies(s, f, ELOISE)
        abelard = enumerate_strategies(s, f, ABELARD)
        game = Game(s, f)
        assert _reference_play(game, {ELOISE: eloise[0], ABELARD: abelard[0]}) == 1
        assert _reference_play(game, {ELOISE: eloise[0], ABELARD: abelard[1]}) == 0

    def test_birthday_all_zero_choices_win(self):
        f = birthday_sentence(2)
        s = cyclic_structure(3)
        eloise = enumerate_strategies(s, f, ELOISE)
        abelard = enumerate_strategies(s, f, ABELARD)
        # first strategies are all-zero choices: b0 = b1 = 0, a duplicate
        assert _reference_play(Game(s, f), {ELOISE: eloise[0], ABELARD: abelard[0]}) == 1


class TestBuildMatrix:
    def test_matching_pennies_identity(self):
        for n in (1, 2, 3, 4):
            f, s = matching_pennies(n)
            report = build_matrix(s, f)
            assert report.matrix == identity_matrix(n)
            assert report.eloise.count == n
            assert report.abelard.count == n

    def test_full_form_is_a_form_of_singletons(self):
        f = parse("Ax Ay (Ez/x) (x = z | ~y = z)", EMPTY)
        s = Structure(size=2)
        full = build_matrix(s, f, max_strategies=64)
        form = build_reduced(s, f, max_strategies=64)
        for side, k in ((full.eloise, full.matrix.m), (full.abelard, full.matrix.n)):
            assert (side.cells, side.reps, side.weights) == ((), range(k), (1,) * k)
        assert (full.eloise.count, full.abelard.count) == (form.eloise.count, form.abelard.count) == (4, 8)
        assert full.collapsed_loci == form.collapsed_loci != ()
        u = GameMatrix([[0, 1, 1], [1, 0, 0]])
        assert ReducedForm.of_matrix(u).matrix is u
        assert ReducedForm.of_matrix(u).collapsed_loci == ()

    def test_tautology_single_cell(self):
        f = parse("Ax x = x", EMPTY)
        assert build_matrix(Structure(size=1), f).matrix == GameMatrix([[1]])
        assert build_matrix(Structure(size=3), f).matrix == GameMatrix([[1]])
        # Played out, the universal has one strategy per element.
        assert build_matrix(Structure(size=3), f, collapse=False).matrix == GameMatrix([[1, 1, 1]])

    def test_birthday_two_elements_value_half(self):
        f = birthday_sentence(2)
        s = cyclic_structure(2)
        report = build_matrix(s, f)
        assert (report.matrix.m, report.matrix.n) == (4, 4)
        assert solve_value(report.matrix).value.as_integer_ratio() == (1, 2)

    def test_matrix_agrees_with_reference_play(self):
        """Every cell against the walker-free reference, with and without
        collapse, on the fixtures and on seeded random sentences."""
        games = _fixture_games()
        assert RANDOM_STRUCTURE.vocabulary() == TEST_VOCAB  # the symbols random_sentence draws
        rng = random.Random(4242)
        games += [(random_sentence(rng), RANDOM_STRUCTURE) for _ in range(50)]
        started = time.perf_counter()
        compared = 0
        for f, s in games:
            for collapse in (True, False):
                try:
                    u = build_matrix(s, f, collapse=collapse, max_strategies=64).matrix
                except GameBuildError:  # over budget, or positions that no game can merge
                    continue
                assert u == _reference_matrix(s, f, collapse)
                compared += 1
        assert compared >= 80
        assert time.perf_counter() - started < 3

    def test_collapse_reported_and_value_preserved(self):
        cases = [
            (parse("Ax Ey (x = y | ~x = y)", EMPTY), Structure(size=2)),
            (parse("Ax (Ey/x) (x = y | ~x = y & x = x)", EMPTY), Structure(size=2)),
            (parse("Ax Ey (~x = y | x = y & y = y)", EMPTY), Structure(size=2)),
            (birthday_sentence(2), cyclic_structure(3)),
        ]
        for f, s in cases:
            collapsed = build_matrix(s, f, collapse=True)
            full = build_matrix(s, f, collapse=False)
            assert solve_value(collapsed.matrix).value == solve_value(full.matrix).value
            has_connective = any(
                isinstance(node, Connective) and len(node.branches) > 1
                for _, node in _walk(f)
            )
            assert bool(collapsed.collapsed_loci) == has_connective

    def test_choice_disjunction_not_collapsed(self):
        structure, spec = hash_structure(2, 2)
        f = hashing_sentence(spec)
        report = build_matrix(structure, f, collapse=True)
        # the inner guarded bodies collapse, the hidden function choice never does
        assert report.matrix.m == 4
        assert all(len(path) > 0 for path in report.collapsed_loci)

    def test_conservative_extension_on_perfect_information(self):
        vocab = Vocabulary(relations={"R": 1, "P": 2})
        fixtures = [
            ("Ax Ey x = y", Structure(size=3)),
            ("Ex Ay x = y", Structure(size=1)),
            ("Ex Ay x = y", Structure(size=2)),
            ("Ax Ey P(x, y)", Structure(size=2, relations={"P": frozenset({(0, 1), (1, 0)})})),
            ("Ax Ey P(x, y)", Structure(size=2, relations={"P": frozenset({(0, 1)})})),
            ("Ex (R(x) & (Ay P(x, y)))", Structure(
                size=2, relations={"R": frozenset({(0,)}), "P": frozenset({(0, 0), (0, 1)})}
            )),
            ("Ax (R(x) | (Ey ~P(x, y)))", Structure(
                size=2, relations={"R": frozenset({(1,)}), "P": frozenset({(0, 0)})}
            )),
        ]
        for text, s in fixtures:
            f = parse(text, vocab)
            u = build_matrix(s, f, collapse=False).matrix
            has_winning_row = bool(u.array.all(axis=1).any())
            assert has_winning_row == _eloise_wins(s, f, {})


def _fixture_games():
    return [
        matching_pennies(3),
        (parse("Ax Ey x = y", EMPTY), Structure(size=2)),
        (parse("Ax Ey (x = y | ~x = y)", EMPTY), Structure(size=2)),
        (
            parse("Ax (Ey/x) (R(x) & x = y)", Vocabulary(relations={"R": 1})),
            Structure(size=2, relations={"R": frozenset({(1,)})}),
        ),
        (birthday_sentence(2), cyclic_structure(2)),
        (birthday_sentence(2), cyclic_structure(3)),
        (hashing_sentence(hash_structure(2, 2)[1]), hash_structure(2, 2)[0]),
    ]


def _slash_free_tail_sentence(rng: random.Random, slashed_prefix: bool = True):
    """One or two quantifiers, slashed at random when `slashed_prefix`, over
    a body that holds a slash-free quantified tail of one or two quantifiers,
    sometimes beside a quantifier-free branch; at most three quantifiers on a
    path, over TEST_VOCAB."""
    names = iter(f"v{i}" for i in range(10))
    prefix = []
    for _ in range(rng.randint(1, 2)):
        slash = frozenset(name for _, name, _ in prefix if slashed_prefix and rng.random() < 0.6)
        prefix.append((rng.choice(("forall", "exists")), next(names), slash))
    bound = [name for _, name, _ in prefix]
    tail_names = ["t0", "t1"][: rng.randint(1, 3 - len(prefix))]
    tail = random_qf(rng, bound + tail_names, 1)
    for var in reversed(tail_names):
        tail = Quant(rng.choice(("forall", "exists")), var, frozenset(), tail)
    if rng.random() < 0.3:
        tail = Connective(rng.choice(("and", "or")), None, (tail, random_qf(rng, bound, 1)))
    for kind, var, slash in reversed(prefix):
        tail = Quant(kind, var, slash, tail)
    return tail


class TestPerfectInformationCollapse:
    """Collapsing slash-free subformulas into classical evaluation keeps the
    value, and a slash-free sentence becomes a 1 x 1 game."""

    def test_collapse_keeps_the_value(self):
        games = _fixture_games()
        rng = random.Random(1010)
        tails = [_slash_free_tail_sentence(rng) for _ in range(50)]
        games += [(f, RANDOM_STRUCTURE) for f in tails]
        compared = collapsed_quantifiers = 0
        for f, s in games:
            try:
                full = build_reduced(s, f, collapse=False, max_strategies=2**16)
            except GameBuildError:
                continue
            collapsed = build_reduced(s, f, max_strategies=2**16)
            assert solve_value(collapsed.matrix).value == solve_value(full.matrix).value, format_formula(f)
            assert collapsed.eloise.count <= full.eloise.count and collapsed.abelard.count <= full.abelard.count
            compared += 1
            collapsed_quantifiers += any(isinstance(_node_at(f, path), Quant) for path in collapsed.collapsed_loci)
        assert compared >= 45
        assert collapsed_quantifiers >= 35

    def test_slash_free_sentences_are_one_by_one(self):
        rng = random.Random(2020)
        for _ in range(50):
            f = _slash_free_tail_sentence(rng, slashed_prefix=False)
            form = build_reduced(RANDOM_STRUCTURE, f)
            assert (form.matrix.m, form.matrix.n) == (1, 1)
            assert form.collapsed_loci == ((),)
            assert solve_value(form.matrix).value == (1 if _eloise_wins(RANDOM_STRUCTURE, f, {}) else 0)

    def test_ae_is_one_by_one(self):
        f = parse("Ax Ey P(x, y)", Vocabulary(relations={"P": 2}))
        s = Structure(size=4, relations={"P": frozenset({(0, 1), (1, 2), (2, 3), (3, 0)})})
        form = build_reduced(s, f)
        assert form.matrix == GameMatrix([[1]])
        assert (form.eloise.count, form.abelard.count) == (1, 1)
        assert Game(s, f).points == []
        assert build_reduced(s, f, collapse=False).eloise.count == 4**4

    def test_evaluation_bound_never_refuses_what_no_collapse_accepts(self):
        """A collapsed chain of q quantifiers is refused when size ** q passes
        the budget; played out, its innermost quantifier alone would pass it."""
        games = []  # (sentence, structure, longest collapsed chain)
        for size in (1, 2, 3, 4):
            for q in (1, 2, 3, 4):
                text = " ".join(f"Ax{k}" for k in range(1, q)) + " Ey y = x1" if q > 1 else "Ey y = y"
                games.append((parse(text, EMPTY), Structure(size=size), q))
        rng = random.Random(3030)
        for _ in range(50):
            f = _slash_free_tail_sentence(rng)
            games.append((f, RANDOM_STRUCTURE, None))
        refused = 0
        for f, s, q in games:
            for budget in (1, 2, 3, 4, 8, 9, 16, 27, 64, 81, 256, 4096, 2**16):
                try:
                    build_reduced(s, f, max_strategies=budget)
                except SizeLimitError as err:
                    refused += 1
                    assert q is None or f"{s.size}^{q} assignments" in str(err)
                    with pytest.raises(GameBuildError):
                        build_reduced(s, f, collapse=False, max_strategies=budget)
                except GameBuildError:
                    pass
                else:
                    assert q is None or s.size**q <= budget
        assert refused >= 60

    def test_rebinding_is_rejected_in_a_collapsed_subformula(self):
        f = parse("Ax Ex x = x", EMPTY)  # the parser lets the inner x shadow the outer
        for collapse in (True, False):
            with pytest.raises(GameBuildError, match="rebound"):
                build_reduced(Structure(size=2), f, collapse=collapse)

    def test_rebinding_a_choice_variable_is_rejected(self):
        # The first branch is collapsed by default, the second is played.
        for text in ("\\/_i{Ai i = i, (Ex/i) x = x}", "\\/_i{(Ai/i) i = i, (Ex/i) x = x}"):
            f = parse(text, EMPTY)
            for collapse in (True, False):
                with pytest.raises(GameBuildError, match="^variable 'i' is rebound on one path"):
                    build_reduced(Structure(size=2), f, collapse=collapse)


def _node_at(f, path):
    for step in path:
        f = f.body if isinstance(f, Quant) else f.branches[step]
    return f


def _walk(f):
    stack = [((), f)]
    while stack:
        path, node = stack.pop()
        yield path, node
        if isinstance(node, Quant):
            stack.append((path + (0,), node.body))
        elif isinstance(node, Connective):
            for i, b in enumerate(node.branches):
                stack.append((path + (i,), b))


RANDOM_STRUCTURE = Structure(
    size=2,
    relations={"R": frozenset({(1,)}), "P": frozenset({(0, 1), (1, 1)})},
    functions={"add": total_function_table(2, 2, lambda a, b: (a + b) % 2), "c": {(): 1}},
)


def _nodes(node):
    """Every compiled node at or below `node`, once each."""
    seen, stack = {}, [node]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.children)
    return seen.values()


def _assert_reduced_is_the_reference(s, f, collapse):
    form = build_reduced(s, f, collapse)
    matrix, eloise, abelard = reference_reduced(s, f, collapse)
    assert form.matrix == matrix
    for got, want in ((form.eloise, eloise), (form.abelard, abelard)):
        assert (got.cells, tuple(got.reps), got.weights) == (want.cells, want.reps, want.weights)


class TestShapes:
    """At an opponent's move whose variable none of the side's moves below
    reads, the walk takes one child of each shape: children of one shape
    reach the same cells under the same values."""

    def test_hashing_branches_share_one_shape(self):
        structure, spec = hash_structure(3, 2)
        root = Game(structure, hashing_sentence(spec))._root
        assert len(root.children) == 8 and len(root.distinct) == 1
        assert len({child.shape for child in root.children}) == 1
        assert len({id(child) for child in root.children}) == 8

    @pytest.mark.parametrize(
        "text",
        [
            # Branches whose first moves agree but whose subtrees differ.
            "\\/_i{(Ax/i) (Ay/i) x = y, (Ax/i) x = x}",
            # One point for (Az/i y) in both branches, reading x at slot 1 in
            # the first and at slot 2 in the second.
            "\\/_i{(Ax/i) (Ay/i x) (Az/i y) z = x, (Ay/i) (Ax/i y) (Az/i y) z = x}",
        ],
    )
    def test_branches_of_one_point_but_not_one_shape(self, text):
        f = parse(text, EMPTY)
        assert len(Game(Structure(size=2), f)._root.distinct) == 2
        _assert_reduced_is_the_reference(Structure(size=2), f, True)

    @pytest.mark.parametrize("keys, values", [(2, 2), (3, 2), (2, 3)])
    def test_hashing_matches_the_full_form(self, keys, values):
        structure, spec = hash_structure(keys, values)
        _assert_reduced_is_the_reference(structure, hashing_sentence(spec), True)

    def test_random_choice_sentences_match_the_full_form(self):
        rng = random.Random(2026)
        checked = merged = 0
        while checked < 60:
            f = random_sentence(rng)
            if not any(isinstance(node, Connective) and node.choice_var for _, node in _walk(f)):
                continue
            for collapse in (True, False):
                try:
                    game = Game(RANDOM_STRUCTURE, f, collapse)
                    game.strategy_count(ELOISE, 64), game.strategy_count(ABELARD, 64)
                except GameBuildError:  # positions no game can merge, or over the budget
                    continue
                game.reduced_form()
                # Distinct children of one shape, which the quantifier rule did not merge.
                merged += any(len(n.distinct) < len({id(c) for c in n.children}) for n in _nodes(game._root))
                _assert_reduced_is_the_reference(RANDOM_STRUCTURE, f, collapse)
                checked += 1
        assert merged >= 10
