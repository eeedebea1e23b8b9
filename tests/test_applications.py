from fractions import Fraction
from itertools import product

import pytest

from ifgames.applications import (
    HashStructureSpec,
    adversary_pair_columns,
    birthday_closed_form,
    birthday_sentence,
    cyclic_structure,
    function_degree,
    hash_structure,
    hashing_equilibrium,
    hashing_sentence,
    matching_pennies,
    minimal_degree_indices,
)
from ifgames.errors import BudgetExceededError, SizeLimitError
from ifgames.formula import Connective, Equals, Quant, format_formula, parse, validate
from ifgames.matrix_game import GameMatrix, MixedStrategy, reduce as mg_reduce
from ifgames.semantic_game import ABELARD, DEFAULT_STRATEGY_BUDGET, Game, build_matrix, build_reduced
from ifgames.value_engine import solve_value, verify_equilibrium

from conftest import identity_matrix
from reference import colliding_pair_count, lambda_step, reference_adversary_pairs


def birthday_oracle_matrix(n: int, m: int) -> GameMatrix:
    """Directly tabulated birthday game: both sides pick m elements blind, the
    row player wins when two of the elementwise mod-n sums coincide."""
    choices = list(product(range(n), repeat=m))
    rows = []
    for mine in choices:
        row = []
        for theirs in choices:
            sums = [(mine[k] + theirs[k]) % n for k in range(m)]
            row.append(1 if len(set(sums)) < m else 0)
        rows.append(row)
    return GameMatrix(rows)


def hashing_oracle_matrix(spec: HashStructureSpec) -> GameMatrix:
    """Directly tabulated hashing game over realized pairs: one column per
    ordered universe pair; the row player loses only on a colliding distinct
    key pair."""
    size = spec.key_count + spec.value_count
    columns = list(product(range(size), repeat=2))
    rows = []
    for table in spec.functions:
        row = []
        for x, y in columns:
            both_keys = x < spec.key_count and y < spec.key_count
            collide = both_keys and x != y and table[x] == table[y]
            row.append(0 if collide else 1)
        rows.append(row)
    return GameMatrix(rows)


class TestMatchingPennies:
    def test_pipeline_value_one_over_n(self):
        for n in range(1, 9):
            f, s = matching_pennies(n)
            u = build_matrix(s, f).matrix
            assert solve_value(u).value == Fraction(1, n)

    def test_rejects_empty_structure(self):
        with pytest.raises(ValueError):
            matching_pennies(0)


class TestBirthdaySentence:
    def test_two_draws_single_disjunct(self):
        f = birthday_sentence(2)
        inner = f
        for _ in range(4):
            assert isinstance(inner, Quant)
            inner = inner.body
        assert isinstance(inner, Equals)

    def test_three_draws_three_disjuncts(self):
        inner = birthday_sentence(3)
        for _ in range(6):
            inner = inner.body
        assert isinstance(inner, Connective) and len(inner.branches) == 3

    def test_slash_sets_hide_every_earlier_choice(self):
        f = birthday_sentence(3)
        seen = []
        node = f
        while isinstance(node, Quant):
            seen.append((node.kind, node.var, set(node.slash)))
            node = node.body
        assert seen == [
            ("forall", "x0", set()),
            ("forall", "x1", {"x0"}),
            ("forall", "x2", {"x0", "x1"}),
            ("exists", "x3", {"x0", "x1", "x2"}),
            ("exists", "x4", {"x0", "x1", "x2", "x3"}),
            ("exists", "x5", {"x0", "x1", "x2", "x3", "x4"}),
        ]

    def test_validates_and_needs_two_draws(self):
        from conftest import TEST_VOCAB  # carries add/2

        assert validate(birthday_sentence(4), TEST_VOCAB) == []
        with pytest.raises(ValueError):
            birthday_sentence(1)


class TestCyclicStructure:
    @pytest.mark.parametrize("n, a, b, total", [(3, 1, 2, 0), (1, 0, 0, 0), (4, 2, 2, 0), (5, 2, 3, 0)])
    def test_addition_wraps(self, n, a, b, total):
        s = cyclic_structure(n)
        assert s.functions["add"][(a, b)] == total


class TestClosedForm:
    def test_three_days_two_people(self):
        assert birthday_closed_form(3, 2) == (Fraction(2, 3), Fraction(1, 3))

    def test_single_person_never_collides(self):
        assert birthday_closed_form(365, 1) == (1, 0)

    def test_two_days_two_people(self):
        assert birthday_closed_form(2, 2) == (Fraction(1, 2), Fraction(1, 2))

    def test_pigeonhole(self):
        assert birthday_closed_form(3, 4) == (0, 1)


class TestBirthdayPipeline:
    @pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (4, 2)])
    def test_value_is_duplicate_probability(self, n, m):
        # The game value lands on the duplicate-probability field of the
        # closed form, matching the independently tabulated game.
        pipeline = build_matrix(cyclic_structure(n), birthday_sentence(m)).matrix
        oracle = birthday_oracle_matrix(n, m)
        assert pipeline == oracle
        value = solve_value(pipeline).value
        all_distinct, duplicate = birthday_closed_form(n, m)
        assert value == duplicate
        if n > 2:  # at n = 2 the two fields coincide and cannot discriminate
            assert value != all_distinct


class TestHashStructure:
    def test_table_counts(self):
        assert len(hash_structure(3, 2)[1].functions) == 8
        assert len(hash_structure(1, 1)[1].functions) == 1

    def test_two_by_two_has_two_balanced_tables(self):
        _, spec = hash_structure(2, 2)
        assert len(spec.functions) == 4
        degrees = [function_degree(t, 2) for t in spec.functions]
        assert degrees.count(0) == 2

    def test_structure_marks_keys(self):
        structure, spec = hash_structure(3, 2)
        assert structure.relations["U"] == frozenset({(0,), (1,), (2,)})
        assert structure.size == 5
        # function tables land in the value block on keys
        for i, table in enumerate(spec.functions):
            for k, v in enumerate(table):
                assert structure.functions[f"f{i}"][(k,)] == spec.key_count + v

    def test_budgets(self):
        with pytest.raises(SizeLimitError):
            hash_structure(40, 40)
        with pytest.raises(SizeLimitError):
            hash_structure(13, 2)  # 8192 tables

    def test_abelard_count_refused_before_building(self):
        # Abelard's count in the hashing game is s^(s + 1) on a universe of
        # s whenever there are two or more tables: checked against the built
        # game wherever it fits the budget, and refused with it elsewhere.
        # R is then V^K x (K + V)^2: one row per table, one column per (x, y).
        built = 0
        for keys, values in list(product(range(1, 9), repeat=2)) + [(12, 2), (1, 63), (2, 62)]:
            size, tables = keys + values, values**keys
            if tables == 1 or tables > 4096:
                continue
            if size ** (size + 1) > DEFAULT_STRATEGY_BUDGET:
                with pytest.raises(BudgetExceededError) as refused:
                    hash_structure(keys, values)
                assert (refused.value.player, refused.value.count) == (ABELARD, size ** (size + 1))
                continue
            structure, spec = hash_structure(keys, values)
            game = Game(structure, hashing_sentence(spec))
            assert game.strategy_count(ABELARD, DEFAULT_STRATEGY_BUDGET) == size ** (size + 1)
            matrix = game.reduced_form().matrix
            assert (matrix.m, matrix.n) == (tables, size**2)
            built += 1
        assert built == 10  # every spec with K + V <= 6 and V >= 2


class TestHashingSentence:
    def test_branch_count(self):
        _, spec = hash_structure(2, 2)
        f = hashing_sentence(spec)
        assert isinstance(f, Connective) and f.choice_var == "i"
        assert len(f.branches) == 4

    def test_validates(self):
        structure, spec = hash_structure(2, 2)
        assert validate(hashing_sentence(spec), structure.vocabulary()) == []

    def test_single_function_drops_the_choice(self):
        structure, spec = hash_structure(1, 1)
        f = hashing_sentence(spec)
        assert isinstance(f, Quant)
        assert validate(f, structure.vocabulary()) == []

    def test_pipeline_value_three_keys_two_values(self):
        structure, spec = hash_structure(3, 2)
        u = build_matrix(structure, hashing_sentence(spec)).matrix
        reduced, _, _ = mg_reduce(u)
        assert solve_value(reduced).value == Fraction(2, 3)


class TestFunctionDegree:
    def test_constant_function(self):
        assert function_degree((0, 0, 0), 2) == 3

    def test_round_robin_is_degree_zero_when_divisible(self):
        table = tuple(i % 2 for i in range(4))
        assert function_degree(table, 2) == 0

    def test_round_robin_is_degree_one_otherwise(self):
        table = tuple(i % 2 for i in range(3))
        assert function_degree(table, 2) == 1


class TestLambdaStep:
    def test_constant_loses_a_key(self):
        stepped = lambda_step((0, 0, 0), 2)
        assert function_degree(stepped, 2) == 1
        assert stepped == (1, 0, 0)  # first key of the heavy value moves first

    def test_degree_zero_fixed(self):
        table = (0, 1, 0, 1)
        assert lambda_step(table, 2) == table

    def test_every_16_table_reaches_degree_zero_quickly(self):
        for table in product(range(2), repeat=4):
            current = table
            for _ in range(4):
                current = lambda_step(current, 2)
            assert function_degree(current, 2) == 0

    def test_strictly_fewer_collisions_while_degree_high(self):
        for keys, values in _specs_within(256):
            for table in product(range(values), repeat=keys):
                if function_degree(table, values) > 1:
                    stepped = lambda_step(table, values)
                    assert colliding_pair_count(stepped, values) < colliding_pair_count(
                        table, values
                    )

    def test_iteration_reaches_minimal_degree(self):
        for keys, values in _specs_within(256):
            target = min(1, keys % values)
            for table in product(range(values), repeat=keys):
                current = table
                while function_degree(current, values) > 1:
                    current = lambda_step(current, values)
                assert function_degree(current, values) == target


def _on_full_form(result, full):
    """The pair of `result`, built on the reduced form, with each strategy's
    weight on its full-form representative."""
    lifted = []
    for ms, reps, k in ((result.eloise, result.build.eloise.reps, full.m), (result.abelard, result.build.abelard.reps, full.n)):
        nums = [0] * k
        for q, rep in zip(ms.nums, reps):
            nums[rep] = q
        lifted.append(MixedStrategy(nums, ms.den, ms.side))
    return lifted


def _specs_within(limit):
    for keys in range(1, 9):
        for values in range(1, limit + 1):
            if values**keys <= limit:
                yield keys, values


class TestMinimalDegreeIndices:
    def test_three_keys_two_values(self):
        _, spec = hash_structure(3, 2)
        assert len(minimal_degree_indices(spec)) == 6

    def test_four_keys_two_values(self):
        _, spec = hash_structure(4, 2)
        chosen = minimal_degree_indices(spec)
        assert len(chosen) == 6
        assert all(function_degree(spec.functions[i], 2) == 0 for i in chosen)

    def test_single_function(self):
        _, spec = hash_structure(1, 1)
        assert minimal_degree_indices(spec) == frozenset({0})

    def test_equal_collision_count_at_minimal_degree(self):
        for keys, values in _specs_within(256):
            spec = HashStructureSpec(
                key_count=keys,
                value_count=values,
                functions=tuple(product(range(values), repeat=keys)),
            )
            counts = {
                colliding_pair_count(spec.functions[i], values)
                for i in minimal_degree_indices(spec)
            }
            assert len(counts) == 1


class TestHashingEquilibrium:
    @pytest.mark.parametrize(
        "keys, values, expected",
        [(2, 2, Fraction(1)), (3, 2, Fraction(2, 3)), (4, 2, Fraction(2, 3))],
    )
    def test_uniform_pair_is_verified_equilibrium(self, keys, values, expected):
        structure, spec = hash_structure(keys, values)
        result = hashing_equilibrium(structure, spec)
        assert result.verified
        assert result.value == expected
        full = build_matrix(structure, hashing_sentence(spec)).matrix
        reduced, _, _ = mg_reduce(full)
        assert solve_value(reduced).value == expected
        assert verify_equilibrium(full, *_on_full_form(result, full))

    def test_matches_directly_tabulated_game(self):
        for keys, values in ((2, 2), (3, 2)):
            structure, spec = hash_structure(keys, values)
            result = hashing_equilibrium(structure, spec)
            oracle = hashing_oracle_matrix(spec)
            assert solve_value(mg_reduce(oracle)[0]).value == result.value

    def test_sweep_all_small_specs(self):
        # Every spec with at most 64 functions whose strategic game fits the
        # default budget (universe of 7+ overflows it).
        sweep = [
            (1, 1), (1, 2), (1, 3), (1, 4), (1, 5),
            (2, 1), (2, 2), (2, 3), (2, 4),
            (3, 1), (3, 2), (3, 3),
            (4, 1), (4, 2),
            (5, 1),
        ]
        for keys, values in sweep:
            structure, spec = hash_structure(keys, values)
            result = hashing_equilibrium(structure, spec)
            assert result.verified, (keys, values)
            full = build_matrix(structure, hashing_sentence(spec)).matrix
            reduced, _, _ = mg_reduce(full)
            assert solve_value(reduced).value == result.value, (keys, values)
            assert verify_equilibrium(full, *_on_full_form(result, full)), (keys, values)

    def test_adversary_pair_columns_count(self):
        structure, spec = hash_structure(3, 2)
        form = build_reduced(structure, hashing_sentence(spec))
        pairs = adversary_pair_columns(spec, form)
        # 3 choices for the first key and 2 for a distinct second are 6
        # reduced columns, each standing for the 5^4 unconstrained second-pick
        # table entries.
        assert len(pairs) == 3 * 2
        assert {form.abelard.weights[j] for j in pairs} == {5**4}
        assert hashing_equilibrium(structure, spec).adversary_pair_count == 3 * 2 * 5**4

    def test_adversary_pair_columns_match_the_table_reading(self):
        # Every spec with at most 6 keys and 6 values: the 16 that build
        # within the default budget agree with the reading of Abelard's
        # choice tables; the rest are refused before either rule runs.
        built = []
        for keys, values in product(range(1, 7), repeat=2):
            try:
                structure, spec = hash_structure(keys, values)
                form = build_reduced(structure, hashing_sentence(spec))
            except (BudgetExceededError, SizeLimitError):
                continue
            assert adversary_pair_columns(spec, form) == reference_adversary_pairs(spec, form), (keys, values)
            built.append((keys, values))
        assert built == [
            (1, 1), (1, 2), (1, 3), (1, 4), (1, 5),
            (2, 1), (2, 2), (2, 3), (2, 4),
            (3, 1), (3, 2), (3, 3),
            (4, 1), (4, 2),
            (5, 1),
            (6, 1),
        ]
