"""Acceptance gate: one test per criterion, each printing its own PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All comparisons are exact rational equality.
"""

import random
from fractions import Fraction
from itertools import product

import numpy as np

from ifgames.applications import (
    birthday_closed_form,
    birthday_sentence,
    cyclic_structure,
    function_degree,
    hash_structure,
    hashing_equilibrium,
    matching_pennies,
)
from ifgames.formula import format_formula, parse
from ifgames.linalg import solve_linear_system
from ifgames.matrix_game import GameMatrix
from ifgames.matrix_game import reduce as mg_reduce
from ifgames.matrix_game import tallies
from ifgames.semantic_game import build_matrix
from ifgames.value_engine import (
    balanced_value,
    solve_by_support_enumeration,
    solve_value,
    verify_equilibrium,
)

from conftest import (
    M4_LOSS,
    M4_MIXED,
    M4_WIN,
    M5X6_A,
    M5X6_B,
    circulant_matrix,
    random_matrix,
)
from reference import colliding_pair_count, lambda_step
from test_applications import birthday_oracle_matrix


def _criterion(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_worked_fixture_values():
    results = {
        "4x4 losing": solve_value(M4_LOSS).value == 0,
        "4x4 winning": solve_value(M4_WIN).value == 1,
    }
    mixed = solve_value(M4_MIXED)
    results["4x4 mixed value"] = mixed.value == Fraction(2, 5)
    results["4x4 mixed unique mix"] = mixed.eloise.probs == (
        Fraction(2, 5),
        Fraction(1, 5),
        Fraction(1, 5),
        Fraction(1, 5),
    )
    # Variant B is the 5x6 fixture consistent with the equalizing-mix
    # analysis; its value is exactly 3/7.
    results["5x6 value"] = solve_value(M5X6_B).value == Fraction(3, 7)
    _criterion(
        "1 worked fixtures solve exactly",
        all(results.values()),
        ", ".join(k for k, v in results.items() if not v) or "all exact",
    )


def test_criterion_02_worked_5x6_bounds():
    t = tallies(M5X6_A)
    _criterion(
        "2 uniform bounds on the displayed 5x6",
        (t.floor, t.ceil) == (Fraction(1, 5), Fraction(1, 2)),
        f"floor={t.floor} ceil={t.ceil}",
    )


def test_criterion_03_equalizing_system_infeasible():
    rows = [
        [1, 1, 0, 1, 0, -1],
        [0, 0, 1, 1, 0, -1],
        [0, 0, 1, 0, 1, -1],
        [0, 1, 1, 0, 0, -1],
        [0, 0, 0, 1, 1, -1],
        [1, 0, 0, 0, 1, -1],
        [1, 1, 1, 1, 1, 0],
    ]
    solved = solve_linear_system(np.array(rows), np.array([0] * 6 + [1]))
    _criterion("3 equality-form column system has no solution", solved is None)


def test_criterion_04_matching_pennies_end_to_end():
    ok = True
    for n in range(1, 9):
        _, structure = matching_pennies(n)
        sentence = parse("Ax (Ey/x) x = y", structure.vocabulary())
        value = solve_value(build_matrix(structure, sentence).matrix).value
        ok = ok and value == Fraction(1, n)
    _criterion("4 matching pennies value 1/n for n=1..8", ok)


def test_criterion_05_minimax_duality_suite():
    rng = random.Random(510)
    ok = True
    for _ in range(500):
        u = random_matrix(rng, 10, 12)
        report = solve_value(u)
        dual = solve_value(GameMatrix(1 - u.array.T))
        t = tallies(u)
        ok = ok and report.value + dual.value == 1
        ok = ok and t.floor <= report.value <= t.ceil
        ok = ok and verify_equilibrium(u, report.eloise, report.abelard)
        ok = ok and (report.value == 1) == (u.n in set(u.row_sums()))
        ok = ok and (report.value == 0) == (0 in u.col_sums())
        if not ok:
            break
    _criterion("5 duality, sandwich, certificates, 0/1 laws on 500 games", ok)


def test_criterion_06_oracle_equivalence():
    rng = random.Random(606)
    ok = all(
        solve_value(u).value == solve_by_support_enumeration(u).value
        for u in (random_matrix(rng, 6, 6) for _ in range(200))
    )
    _criterion("6 lp equals support enumeration on 200 games", ok)


def test_criterion_07_balanced_shortcut():
    rng = random.Random(707)
    ok = True
    for _ in range(100):
        u = circulant_matrix(rng, 10)
        report = balanced_value(u)
        ok = ok and report is not None
        ok = ok and report.value == solve_value(u).value
        ok = ok and verify_equilibrium(u, report.eloise, report.abelard)
        if not ok:
            break
    _criterion("7 balanced games solved by the uniform pair on 100 circulants", ok)


def test_criterion_08_reduction_preserves_value():
    rng = random.Random(808)
    ok = True
    for _ in range(200):
        u = random_matrix(rng, 8, 8)
        reduced, _, _ = mg_reduce(u)
        ok = ok and solve_value(u).value == solve_value(reduced).value
        if not ok:
            break
    _criterion("8 dominance reduction preserves the value on 200 games", ok)


def test_criterion_09_birthday_value_is_the_duplicate_probability():
    # The closed form has two complementary fields; the exhaustive oracle at
    # urn size 3 selects the duplicate-probability reading (1/3, not 2/3).
    ok = True
    details = []
    for n in (2, 3):
        pipeline = build_matrix(cyclic_structure(n), birthday_sentence(2)).matrix
        value = solve_value(pipeline).value
        oracle_value = solve_value(birthday_oracle_matrix(n, 2)).value
        all_distinct, duplicate = birthday_closed_form(n, 2)
        ok = ok and value == oracle_value == duplicate
        ok = ok and (n == 2 or value != all_distinct)
        details.append(f"n={n}: {value}")
    _criterion("9 birthday pipeline equals oracle and duplicate probability", ok, ", ".join(details))


def test_criterion_10_hashing_equilibrium_certificates():
    expected = {(2, 2): Fraction(1), (3, 2): Fraction(2, 3), (4, 2): Fraction(2, 3)}
    ok = True
    details = []
    for (keys, values), target in expected.items():
        result = hashing_equilibrium(*hash_structure(keys, values))
        u = result.build.matrix
        reduced, _, _ = mg_reduce(u)
        solver_value = solve_value(reduced).value
        ok = ok and result.verified
        ok = ok and result.value == target == solver_value
        details.append(f"({keys},{values})={result.value}")
    _criterion("10 uniform hashing pair verifies and matches the solver", ok, ", ".join(details))


def test_criterion_11_rebalancing_step_properties():
    ok = True
    for keys in (3, 4):
        target = min(1, keys % 2)
        for table in product(range(2), repeat=keys):
            degree = function_degree(table, 2)
            stepped = lambda_step(table, 2)
            if degree > 1:
                ok = ok and colliding_pair_count(stepped, 2) < colliding_pair_count(table, 2)
            else:
                ok = ok and stepped == table
            current = table
            while function_degree(current, 2) > 1:
                nxt = lambda_step(current, 2)
                ok = ok and nxt != current
                current = nxt
            ok = ok and function_degree(current, 2) == target
    _criterion("11 rebalancing strictly cuts collisions and lands at minimal degree", ok)
