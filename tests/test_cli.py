import dataclasses
import functools
import hashlib
import io
import json
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifgames import applications, cli, semantic_game
from ifgames.cli import EXIT_BUDGET, EXIT_OK, EXIT_PARSE, EXIT_USAGE, EXIT_VALIDATION, main
from ifgames.formula import format_formula
from ifgames.structure import Structure
from ifgames.matrix_game import MixedStrategy, expected_utility
from ifgames.semantic_game import Game
from ifgames.value_engine import solve_game

from conftest import FIXTURES
from reference import save_structure


def run_cli(*argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


def run_cli_stderr(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


class TestValueCommand:
    def test_worked_5x6_value(self):
        code, out = run_cli("value", "--matrix", str(FIXTURES / "m5x6_b.txt"), "--format", "machine")
        assert code == 0
        assert "value=3/7" in out

    def test_zero_matrix(self):
        code, out = run_cli("value", "--matrix", str(FIXTURES / "zeros1x1.txt"), "--format", "machine")
        assert code == 0
        assert "value=0/1" in out
        assert "method=trivial-loss" in out

    def test_from_structure_and_formula(self, tmp_path):
        code, out = run_cli(
            "value",
            "--structure", str(FIXTURES / "cyclic3.json"),
            "--formula", "Ax0 (Ax1/x0) (Ex2/x0 x1) (Ex3/x0 x1 x2) add(x0, x2) = add(x1, x3)",
            "--format", "machine",
        )
        assert code == 0
        assert "value=1/3" in out
        assert "rows=9" in out and "cols=9" in out

    def test_zero_ary_relation(self, tmp_path):
        structure = tmp_path / "r.json"
        structure.write_text('{"size": 2, "relations": {"R": [[]]}}')
        code, out = run_cli("value", "--structure", str(structure), "--formula", "Ax (Ey/x) R() | x = y", "--format", "machine")
        assert code == EXIT_OK
        assert "value=1/1" in out

    def test_trivial_loss_matrix(self):
        code, out = run_cli("value", "--matrix", str(FIXTURES / "m4_loss.txt"), "--format", "machine")
        assert code == EXIT_OK
        for line in ("value=0/1", "method=trivial-loss", "eloise=0:1/1", "abelard=3:1/1"):
            assert line in out.splitlines()

    def test_tall_game_reduces_in_seconds(self):
        # R is 19683 x 27, past the direct-LP limit, so it is reduced first:
        # testing every live row against every live one took 7 s there.
        started = time.perf_counter()
        code, out = run_cli(
            "value",
            "--structure", str(FIXTURES / "tall_game.json"),
            "--formula-file", str(FIXTURES / "tall_game.formula"),
            "--format", "machine",
        )
        assert time.perf_counter() - started < 3
        assert code == EXIT_OK
        assert "rows=19683\ncols=2187\n" in out and "value=1/3\nmethod=lp\n" in out

    def test_text_format_carries_decimal(self):
        code, out = run_cli("value", "--matrix", str(FIXTURES / "m4_mixed.txt"))
        assert code == 0
        assert "2/5" in out and "0.4" in out


class TestOtherCommands:
    def test_bounds(self):
        code, out = run_cli("bounds", "--matrix", str(FIXTURES / "m5x6_a.txt"), "--format", "machine")
        assert code == 0
        assert "floor=1/5" in out and "ceil=1/2" in out

    def test_equilibrium_verifies(self):
        code, out = run_cli("equilibrium", "--matrix", str(FIXTURES / "m4_mixed.txt"), "--format", "machine")
        assert code == 0
        assert "verified=true" in out
        assert "eloise=0:2/5 1:1/5 2:1/5 3:1/5" in out

    def test_reduce(self):
        code, out = run_cli("reduce", "--matrix", str(FIXTURES / "m4_win.txt"), "--format", "machine")
        assert code == 0
        assert "kept_rows=3" in out
        assert out.rstrip().endswith("1 1\n1")

    def test_matrix_command(self, tmp_path):
        structure = tmp_path / "two.json"
        structure.write_text('{"size": 2}')
        code, out = run_cli(
            "matrix", "--structure", str(structure), "--formula", "Ax (Ey/x) x = y"
        )
        assert code == 0
        assert out == "2 2\n1 0\n0 1\n"

    def test_mp(self):
        code, out = run_cli("mp", "4", "--format", "machine")
        assert code == 0
        assert "value=1/4" in out

    def test_birthday(self):
        code, out = run_cli("birthday", "3", "2", "--format", "machine")
        assert code == 0
        assert "value=1/3" in out and "duplicate_prob=1/3" in out

    def test_hashing(self):
        code, out = run_cli("hashing", "2", "2", "--format", "machine")
        assert code == 0
        assert "value=1/1" in out
        assert "verified=true" in out
        assert "minimal_degree_indices=1,2" in out

    @pytest.mark.parametrize(
        "keys, values, expected",
        [
            # One table leaves no choice to hide: the sentence has perfect
            # information, collapses to one cell, and has no pair column.
            (2, 1, "rows=1\ncols=1\nfloor=0/1\nceil=0/1\nvalue=0/1\nmethod=hashing-certificate\nverified=true\n"
                   "minimal_degree_indices=0\neloise=0:1/1\nadversary_pair_count=0\n"),
            # Two tables but one key: no distinct pair exists, and every column wins for Eloise.
            (1, 2, "rows=2\ncols=81\nfloor=1/1\nceil=1/1\nvalue=1/1\nmethod=hashing-certificate\nverified=true\n"
                   "minimal_degree_indices=0,1\neloise=0:1/2 1:1/2\nadversary_pair_count=0\n"),
        ],
        ids=["one-table", "one-key"],
    )
    def test_hashing_output_pinned(self, keys, values, expected):
        assert run_cli_all("hashing", keys, values, "--format", "machine") == (0, "command=hashing\n" + expected, "")

    def test_hashing_unverified_pair_reports_the_solved_value(self, monkeypatch):
        real = applications.hashing_equilibrium
        built = []

        def unverified(spec, *args, **kwargs):
            eq = real(spec, *args, **kwargs)
            u = eq.build.matrix
            built.append(u)
            mu = MixedStrategy.point_mass(u.m, 0, "row")
            value = expected_utility(u, mu, eq.abelard)
            return dataclasses.replace(eq, eloise=mu, verified=False, value=value)

        monkeypatch.setattr(applications, "hashing_equilibrium", unverified)
        code, out = run_cli("hashing", "2", "2", "--format", "machine")
        assert code == 0
        solved = solve_game(built[0])
        assert f"value={solved.value.numerator}/{solved.value.denominator}\n" in out
        assert f"method={solved.method}\n" in out
        assert "method=hashing-certificate" not in out
        assert "verified=false" in out


class TestDeterminism:
    def test_three_runs_byte_identical(self):
        outputs = {
            run_cli("value", "--matrix", str(FIXTURES / "m5x6_b.txt"), "--format", "machine")[1]
            for _ in range(3)
        }
        assert len(outputs) == 1

    def test_machine_format_has_no_decimals(self):
        _, out = run_cli("birthday", "3", "2", "--format", "machine")
        assert "." not in out


class TestExitCodes:
    def test_usage_error_without_inputs(self):
        code, _ = run_cli("value")
        assert code == EXIT_USAGE

    def test_usage_error_with_both_inputs(self):
        code, _ = run_cli(
            "value", "--matrix", str(FIXTURES / "zeros1x1.txt"),
            "--structure", str(FIXTURES / "cyclic3.json"), "--formula", "Ax x = x",
        )
        assert code == EXIT_USAGE

    def test_parse_error(self):
        code, _ = run_cli(
            "value", "--structure", str(FIXTURES / "cyclic3.json"), "--formula", "Ax x ="
        )
        assert code == EXIT_PARSE

    def test_bad_matrix_file_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("nope\n")
        code, _ = run_cli("value", "--matrix", str(bad))
        assert code == EXIT_PARSE

    def test_validation_error(self, tmp_path):
        structure = tmp_path / "bad.json"
        structure.write_text('{"size": 3, "functions": {"f": [[0, 7], [1, 0], [2, 0]]}}')
        code, _ = run_cli("value", "--structure", str(structure), "--formula", "Ax x = x")
        assert code == EXIT_VALIDATION

    def test_budget_below_one_is_usage_error(self):
        sentence = ("--structure", str(FIXTURES / "cyclic3.json"), "--formula", "Ax x = x")
        matrix = ("--matrix", str(FIXTURES / "m5x6_b.txt"))
        for game in (sentence, matrix):
            for budget in ("0", "-3"):
                code, _ = run_cli("value", *game, "--max-strategies", budget)
                assert code == EXIT_USAGE

    def test_budget_error(self, tmp_path):
        structure = tmp_path / "four.json"
        structure.write_text('{"size": 4}')
        code, _ = run_cli(
            "value",
            "--structure", str(structure),
            "--formula", "Ax Ey x = y",
            "--no-collapse",
            "--max-strategies", "3",
        )
        assert code == EXIT_BUDGET


class TestProbes:
    @pytest.mark.parametrize(
        "argv",
        [("mp", "0"), ("hashing", "0", "2"), ("birthday", "2", "1"), ("birthday", "0", "2")],
    )
    def test_out_of_range_arguments_are_usage_errors(self, argv):
        code, err = run_cli_stderr(*argv)
        assert code == EXIT_USAGE
        assert "Traceback" not in err

    def test_matrix_path_is_a_directory(self, tmp_path):
        code, err = run_cli_stderr("value", "--matrix", str(tmp_path))
        assert code == EXIT_USAGE
        assert "Traceback" not in err

    def test_missing_structure_file(self, tmp_path):
        code, err = run_cli_stderr(
            "value", "--structure", str(tmp_path / "none.json"), "--formula", "Ax x = x"
        )
        assert code == EXIT_USAGE
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["0 0\n", "0 3\n"])
    def test_empty_matrix_is_parse_error(self, tmp_path, text):
        empty = tmp_path / "empty.txt"
        empty.write_text(text)
        code, err = run_cli_stderr("value", "--matrix", str(empty))
        assert code == EXIT_PARSE
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--matrix", "--structure", "--formula-file"])
    def test_input_path_with_a_nul_byte(self, flag):
        inputs = [flag, "a\x00b"]
        if flag != "--matrix":
            inputs += ["--formula", "Ax x = x"] if flag == "--structure" else ["--structure", str(FIXTURES / "cyclic3.json")]
        code, err = run_cli_stderr("value", *inputs)
        assert (code, err) == (EXIT_USAGE, "usage error: embedded null byte: 'a\\x00b'\n")

    @pytest.mark.parametrize("flag", ["--matrix", "--formula-file"])
    def test_input_file_that_is_not_utf8(self, tmp_path, flag):
        bad = tmp_path / "utf16.txt"
        bad.write_bytes(b"\xff\xfe" + "1 1\n1\n".encode("utf-16-le"))
        inputs = [flag, str(bad)]
        if flag == "--formula-file":
            inputs = ["--structure", str(FIXTURES / "cyclic3.json"), *inputs]
        code, err = run_cli_stderr("value", *inputs)
        assert code == EXIT_PARSE
        assert "Traceback" not in err and "not UTF-8" in err

    @pytest.mark.parametrize("flag", ["--matrix", "--structure", "--formula-file"])
    def test_input_file_with_a_utf8_byte_order_mark(self, tmp_path, flag):
        # The mark is dropped: the run matches the one on the same file without it.
        plain = {
            "--matrix": FIXTURES / "m5x6_b.txt",
            "--structure": FIXTURES / "cyclic3.json",
            "--formula-file": tmp_path / "formula.txt",
        }
        plain["--formula-file"].write_text("Ax (Ey/x) x = y", encoding="utf-8")
        marked = tmp_path / "marked.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + plain[flag].read_bytes())

        def argv(paths):
            if flag == "--matrix":
                return ["value", "--matrix", paths["--matrix"], "--format", "machine"]
            return ["value", "--structure", paths["--structure"], "--formula-file", paths["--formula-file"],
                    "--format", "machine"]

        expected = run_cli_all(*argv(plain))
        assert expected[0] == EXIT_OK and expected[1].startswith("command=value\n")
        assert run_cli_all(*argv({**plain, flag: marked})) == expected

    @pytest.mark.parametrize(
        "size, formula, flags, refusal",
        [
            (16, "Ax1 Ax2 Ax3 Ax4 Ax5 Ey y = x1", ["--no-collapse"], "eloise would have at least 2^"),
            (16, "Ax1 Ax2 Ax3 Ax4 Ax5 Ax6 Ax7 Ax8 Ax9 Ax10 Ey y = x1", ["--no-collapse"], "eloise would have at least 2^"),
            (1, "Ax " + "".join(f"\\/_i{k}{{(Ey{k}/i{k}) y{k} = x, " for k in range(30)) + "x = x" + "}" * 30, [],
             "eloise would have at least 2^"),
            (16, "Ax1 Ax2 Ax3 Ax4 Ax5 Ey y = x1", [], "would visit 16^6 assignments"),
            (16, "Ax1 Ax2 Ax3 Ax4 Ax5 Ax6 Ax7 Ax8 Ax9 Ax10 Ey y = x1", [], "would visit 16^11 assignments"),
        ],
        ids=["five-universals", "ten-universals", "thirty-nested-choices", "five-universals-collapsed",
             "ten-universals-collapsed"],
    )
    def test_strategy_count_too_large_to_form(self, tmp_path, size, formula, flags, refusal):
        structure = tmp_path / "s.json"
        structure.write_text(f'{{"size": {size}}}')
        started = time.perf_counter()
        code, err = run_cli_stderr("value", "--structure", str(structure), "--formula", formula, *flags)
        assert time.perf_counter() - started < 1
        assert code == EXIT_BUDGET
        assert "Traceback" not in err and refusal in err

    @pytest.mark.parametrize(
        "argv, refusal",
        [
            (("mp", str(10**21)), f"eloise would have {10**21} pure strategies"),
            (("mp", "3000000"), "eloise would have 3000000 pure strategies"),
            (("value", "--formula", "Ax (Ey/x) x = y"), f"eloise would have {10**21} pure strategies"),
            (
                ("value", "--formula", "Ax Ey x = y", "--no-collapse"),
                f"eloise would have at least 2^{10**21} pure strategies",
            ),
            (("birthday", "1100", "2"), "eloise would have 1210000 pure strategies"),
            (("birthday", str(10**21), str(10**6)), "eloise would have at least 2^69000000 pure strategies"),
        ],
        ids=["mp-10^21", "mp-3000000", "slashed-10^21", "played-10^21", "birthday-1100-2", "birthday-10^21-10^6"],
    )
    def test_oversized_game_refused_before_it_is_built(self, tmp_path, argv, refusal):
        if argv[0] == "value":
            structure = tmp_path / "s.json"
            structure.write_text(f'{{"size": {10**21}}}')
            argv = (*argv, "--structure", str(structure))
        tracemalloc.start()
        started = time.perf_counter()
        try:
            code, err = run_cli_stderr(*argv)
            elapsed, peak = time.perf_counter() - started, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (EXIT_BUDGET, f"budget error: {refusal}, over the budget of 1048576\n")
        assert elapsed < 0.5 and peak < 5 * 2**20

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ("birthday", "1024", "2"),
                (
                    EXIT_VALIDATION,
                    "validation error: matrix would hold 1099511627776 cells (over the 268435456 safety cap)\n",
                ),
            ),
            *[
                (
                    ("birthday", "1", m),
                    (
                        EXIT_USAGE,
                        "usage error: the birthday game nests 2M quantifiers, so M must be at most 50 "
                        "under the formula nesting cap of 100\n",
                    ),
                )
                for m in ("51", "600")
            ],
            (
                ("birthday", "3", "51"),
                (
                    EXIT_BUDGET,
                    "budget error: eloise would have 2153693963075557766310747 pure strategies, "
                    "over the budget of 1048576\n",
                ),
            ),
        ],
        ids=["birthday-1024-2", "birthday-1-51", "birthday-1-600", "birthday-3-51"],
    )
    def test_birthday_refused_before_its_table_and_disjuncts_are_built(self, argv, expected):
        tracemalloc.start()
        started = time.perf_counter()
        try:
            code, err = run_cli_stderr(*argv)
            elapsed, peak = time.perf_counter() - started, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == expected
        assert elapsed < 0.5 and peak < 5 * 2**20

    @pytest.mark.parametrize(
        "text",
        [
            '{"size": 2, "relations": {"R": [1, 2]}}',
            '{"size": 2, "relations": {"R": [[[0]]]}}',
            '{"size": 2, "functions": {"f": [[[0], 1], [[1], 0]]}}',
            '{"size": 2, "relations": [["R"]]}',
            '{"size": true}',
            '{"size":2,"relations":{"f":[[0]]},"functions":{"f":[[0,0],[1,1]]}}',
            '{"size":2,"relations":{"R":' + "[" * 50000 + "]" * 50000 + "}}",
            '{"size": ' + "1" * 5000 + "}",
        ],
        ids=["rows-not-lists", "nested-row", "nested-function-args", "relations-not-object", "bool-size",
             "relation-and-function", "nested-50000-deep", "integer-past-the-digit-limit"],
    )
    def test_malformed_structure_is_validation_error(self, tmp_path, text):
        structure = tmp_path / "s.json"
        structure.write_text(text)
        code, err = run_cli_stderr("value", "--structure", str(structure), "--formula", "Ax Ey x = y")
        assert code == EXIT_VALIDATION
        assert "Traceback" not in err and "validation error" in err

    def test_formula_nested_three_thousand_deep(self, tmp_path):
        deep = tmp_path / "deep.txt"
        deep.write_text("Ax " + "(" * 3000 + "x = x" + ")" * 3000)
        code, err = run_cli_stderr(
            "value", "--structure", str(FIXTURES / "cyclic3.json"), "--formula-file", str(deep)
        )
        assert code == EXIT_PARSE
        assert "Traceback" not in err and "nested deeper" in err

    @pytest.mark.parametrize(
        "header", ["\u00b2 2", "2 \u0662", "1" * 5000 + " 2"], ids=["superscript-two", "arabic-two", "5000-digits"]
    )
    def test_matrix_header_takes_ascii_digits_only(self, tmp_path, header):
        matrix = tmp_path / "m.txt"
        matrix.write_text(f"{header}\n0 1\n1 0\n", encoding="utf-8")
        code, err = run_cli_stderr("value", "--matrix", str(matrix))
        assert code == EXIT_PARSE
        assert "Traceback" not in err and "matrix header must be 'm n'" in err


# ---------------------------------------------------------------------------
# Sentence games are solved on the reduced strategic form; what the CLI prints
# about the full form is a contract.  The figures below were recorded from the
# builder of the full form alone, before the reduced form existed, except the
# collapsed `ae2` and `ae_or`: their sentences have perfect information, so
# they collapse to one cell; their `/nc` twins keep the played-out game.

CONTRACT_GAMES = {
    "mp3": ("Ax (Ey/x) x = y", lambda: Structure(size=3)),
    "ae2": ("Ax Ey x = y", lambda: Structure(size=2)),
    "ae_or": ("Ax Ey (x = y | ~x = y)", lambda: Structure(size=2)),
    "hidden_r": ("Ax (Ey/x) (R(x) & x = y)", lambda: Structure(size=2, relations={"R": frozenset({(1,)})})),
    "birthday": (format_formula(applications.birthday_sentence(2)), lambda: applications.cyclic_structure(2)),
    "hashing22": (
        format_formula(applications.hashing_sentence(applications.hash_structure(2, 2)[1])),
        lambda: applications.hash_structure(2, 2)[0],
    ),
    "hash32": (
        format_formula(applications.hashing_sentence(applications.hash_structure(3, 2)[1])),
        lambda: applications.hash_structure(3, 2)[0],
    ),
    "hash42": (
        format_formula(applications.hashing_sentence(applications.hash_structure(4, 2)[1])),
        lambda: applications.hash_structure(4, 2)[0],
    ),
}

# sha256 of the `matrix` output and of the `reduce --format machine` output.
FULL_FORM_DIGESTS = {
    "mp3": (
        "6e119be3425fd0e38152c8c6ef714a4a3033d37e32e856002e1d9f053f6ba985",
        "98cd707ef66b762ab306376509ab415d9bcffd99d83fa03b1c65a98de9c328f6",
    ),
    "mp3/nc": (
        "6e119be3425fd0e38152c8c6ef714a4a3033d37e32e856002e1d9f053f6ba985",
        "98cd707ef66b762ab306376509ab415d9bcffd99d83fa03b1c65a98de9c328f6",
    ),
    "ae2": (
        "e10af96334f37d83e52216771db7343778fe8e8c49802a319595df3734903c32",
        "89bb460bf2d117c56c1df326d98379bb7b3164e812e842950ade1db354483bf0",
    ),
    "ae2/nc": (
        "fa454bf24c15752b27ea1b727d35be9cf982c420b70262101a129732d165429d",
        "e891c8b9b614c066c3d0de5fc23aef297abd0f7454602bd0499545a7b996af90",
    ),
    "ae_or": (
        "e10af96334f37d83e52216771db7343778fe8e8c49802a319595df3734903c32",
        "89bb460bf2d117c56c1df326d98379bb7b3164e812e842950ade1db354483bf0",
    ),
    "ae_or/nc": (
        "2764374debda2b1ccf9c2bdaf5c9edf77ad40dcae7c08f13d946cf90f20b618e",
        "bbb3ece1e60831898ece09bfd6804d06d39c4c8c67dc17a09369dee1accee0e6",
    ),
    "hidden_r": (
        "1ae95006c2485c45b453b2a4909d69230f4111309aa5699e71e60f13fcc08a64",
        "8ae9dc129a177602b6a46d4c06f0366f1c4f519814624984225812206b2104e1",
    ),
    "hidden_r/nc": (
        "0ae9d0229379ec025a3fa5080281050e7864246a66048ceefa0dcaf69b5dc241",
        "4006b7c5a838f3bd6b61c757d3431997b7241c1171e6ac63c5d169810b433124",
    ),
    "birthday": (
        "87379e68b248b8595befaf3f815fe0c109d54a7bb347f3f34ec2d078d452f50a",
        "a4863811bf968c25e68514aa65a38a7334158f45eda275408dfddc820ccc24a0",
    ),
    "birthday/nc": (
        "87379e68b248b8595befaf3f815fe0c109d54a7bb347f3f34ec2d078d452f50a",
        "a4863811bf968c25e68514aa65a38a7334158f45eda275408dfddc820ccc24a0",
    ),
    "hashing22": (
        "23ba79de3b71ceaf5610ffbfe0d4abef9dc43eadf9d590b21c1065570307c2ea",
        "24e68712b376596a02d8ed1e44cfee3b3eeb44e765000fde61ddb1a5fc4af5ac",
    ),
}

# rows cols floor ceil colmin rowmax, as `bounds` prints them.
FULL_FORM_BOUNDS = {
    "mp3": "3 3 1/3 1/3 1 1",
    "mp3/nc": "3 3 1/3 1/3 1 1",
    "ae2": "1 1 1/1 1/1 1 1",
    "ae2/nc": "4 2 1/2 1/1 2 2",
    "ae_or": "1 1 1/1 1/1 1 1",
    "ae_or/nc": "64 2 1/2 1/1 32 2",
    "hidden_r": "2 2 0/1 1/2 0 1",
    "hidden_r/nc": "2 32 0/1 1/2 0 16",
    "birthday": "4 4 1/2 1/2 2 2",
    "birthday/nc": "4 4 1/2 1/2 2 2",
    "hash32": "8 15625 1/2 23/25 4 14375",
    "hash42": "16 279936 1/2 8/9 8 248832",
}


def _contract_argv(tmp_path, key: str) -> list[str]:
    name, _, mode = key.partition("/")
    text, structure = CONTRACT_GAMES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(save_structure(structure()))
    return ["--structure", str(path), "--formula", text] + (["--no-collapse"] if mode == "nc" else [])


def run_cli_all(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


class TestFullFormContract:
    @pytest.mark.parametrize("key", sorted(FULL_FORM_DIGESTS))
    def test_matrix_and_reduce_bytes_unchanged(self, tmp_path, key):
        argv = _contract_argv(tmp_path, key)
        _, matrix, _ = run_cli_all("matrix", *argv)
        _, reduced, _ = run_cli_all("reduce", *argv, "--format", "machine")
        digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (matrix, reduced))
        assert digests == FULL_FORM_DIGESTS[key]

    @pytest.mark.parametrize("key", sorted(FULL_FORM_BOUNDS))
    def test_reduce_never_builds_the_full_form(self, tmp_path, monkeypatch, key):
        def refuse(*args, **kwargs):
            raise AssertionError("reduce built the full strategic form")

        monkeypatch.setattr(semantic_game, "build_matrix", refuse)
        monkeypatch.setattr(Game, "build_matrix", refuse)
        code, out, err = run_cli_all("reduce", *_contract_argv(tmp_path, key), "--format", "machine")
        assert (code, err) == (EXIT_OK, "")
        rows, cols = FULL_FORM_BOUNDS[key].split()[:2]
        assert out.startswith(f"command=reduce\nrows={rows}\ncols={cols}\nkept_rows=")

    @pytest.mark.parametrize("key", sorted(FULL_FORM_BOUNDS))
    def test_shape_and_bounds_are_the_full_forms(self, tmp_path, key):
        argv = _contract_argv(tmp_path, key)
        code, out, _ = run_cli_all("bounds", *argv, "--format", "machine")
        assert code == 0
        fields = dict(line.split("=") for line in out.splitlines())
        assert " ".join(fields[k] for k in ("rows", "cols", "floor", "ceil", "colmin", "rowmax")) == FULL_FORM_BOUNDS[key]
        # value prints the same shape and uniform bounds from the reduced form.
        code, out, _ = run_cli_all("value", *argv, "--format", "machine")
        assert code == 0
        assert out.split("value=")[0] == "command=value\n" + "".join(
            f"{k}={v}\n" for k, v in zip(("rows", "cols", "floor", "ceil"), FULL_FORM_BOUNDS[key].split())
        )

    @pytest.mark.parametrize(
        "keys, values, header",
        [(3, 2, "rows=8\ncols=15625\nfloor=1/2\nceil=23/25\n"), (4, 2, "rows=16\ncols=279936\nfloor=1/2\nceil=8/9\n")],
    )
    def test_hashing_header_is_the_full_forms(self, keys, values, header):
        code, out, _ = run_cli_all("hashing", keys, values, "--format", "machine")
        assert code == 0
        assert out.startswith("command=hashing\n" + header)
        assert "verified=true\n" in out

    @pytest.mark.parametrize("command", ["value", "bounds", "equilibrium", "matrix", "reduce"])
    def test_budget_refusal_unchanged(self, tmp_path, command):
        four = tmp_path / "four.json"
        four.write_text('{"size": 4}')
        argv = [command, "--structure", four, "--formula", "Ax Ey x = y", "--no-collapse", "--max-strategies", "3"]
        assert run_cli_all(*argv) == (
            EXIT_BUDGET, "", "budget error: eloise would have 256 pure strategies, over the budget of 3\n"
        )

    @pytest.mark.parametrize("argv", [("hashing", "5", "2"), ("hashing", "3", "4", "--format", "machine")])
    def test_hashing_refusal_unchanged(self, argv):
        assert run_cli_all(*argv) == (
            EXIT_BUDGET, "", "budget error: abelard would have 5764801 pure strategies, over the budget of 1048576\n"
        )

    def test_wide_refusal_unchanged(self, tmp_path):
        s16 = tmp_path / "s16.json"
        s16.write_text('{"size": 16}')
        argv = ["value", "--structure", s16, "--formula", "Ax1 Ax2 Ax3 Ax4 Ax5 Ey y = x1"]
        assert run_cli_all(*argv, "--no-collapse") == (
            EXIT_BUDGET, "", "budget error: eloise would have at least 2^1048576 pure strategies, over the budget of 1048576\n"
        )
        # Collapsed, the sentence is one classical evaluation, bounded by the same budget.
        assert run_cli_all(*argv) == (
            EXIT_BUDGET,
            "",
            "budget error: classical evaluation of a perfect-information subformula would visit 16^6 assignments, "
            "over the budget of 1048576\n",
        )

    def test_numbers_past_the_digit_limit_shown_by_bit_length(self, tmp_path):
        # Both the cell count and the budget have more than the 4300 digits
        # Python prints by default; each is shown as a power of two instead.
        ten = tmp_path / "ten.json"
        ten.write_text('{"size": 10}')
        formula = (
            "Ax Ay Az Ew1 (Ew2/w1) (Ew3/w1 w2) (Av1/x y z) (Av2/x y z v1) (Av3/x y z v1 v2) "
            "(Ew4/x y z w1 w2 w3 v1 v2) v3 = w4"
        )
        argv = ["value", "--structure", ten, "--formula", formula, "--max-strategies"]
        code, out, err = run_cli_all(*argv, 10**4200)
        assert (code, out) == (EXIT_VALIDATION, "")
        # The refusal names the cell count, not the formula.
        assert err == "validation error: matrix would hold at least 2^20333 cells (over the 268435456 safety cap)\n"
        assert run_cli_all(*argv, 10**1500) == (
            EXIT_BUDGET, "", "budget error: eloise would have at least 2^9999 pure strategies, over the budget of at least 2^4982\n"
        )

    @pytest.mark.parametrize(
        "argv, exponent",
        [
            (("birthday", str(10**4299), str(10**4299)), 14294),
            (("value", "--structure", "HUGE", "--formula", "Ax Ay Az (Ew/x) x = w"), 14616),
        ],
        ids=["birthday", "value"],
    )
    def test_exponent_past_the_digit_limit_shown_by_bit_length(self, tmp_path, argv, exponent):
        # Eloise's count is at least 2 ** k for a k of more than 4300 digits:
        # 14280 * 10**4299 for the birthday game, one table of 10**4400 cells for `value`.
        huge = tmp_path / "huge.json"
        huge.write_text(f'{{"size": {10**2200}}}')
        argv = [huge if word == "HUGE" else word for word in argv]
        assert run_cli_all(*argv) == (
            EXIT_BUDGET, "", f"budget error: eloise would have at least 2^(2^{exponent}) pure strategies, over the budget of 1048576\n"
        )

    @pytest.mark.parametrize(
        "text, size, flags, expected",
        [
            ('Ax Ey x = y', 3, ["--no-collapse"], 'command=value\nrows=27\ncols=3\nfloor=1/3\nceil=1/1\nvalue=1/1\nmethod=trivial-win\neloise=5:1/1\nabelard=0:1/1\n'),
            ('Ex Ay x = y', 2, ["--no-collapse"], 'command=value\nrows=2\ncols=4\nfloor=0/1\nceil=1/2\nvalue=0/1\nmethod=trivial-loss\neloise=0:1/1\nabelard=2:1/1\n'),
            ('Ex Ay (x = y | ~x = y)', 3, [], 'command=value\nrows=1\ncols=1\nfloor=1/1\nceil=1/1\nvalue=1/1\nmethod=trivial-win\neloise=0:1/1\nabelard=0:1/1\n'),
            ('Ax Ey x = y', 3, [], 'command=value\nrows=1\ncols=1\nfloor=1/1\nceil=1/1\nvalue=1/1\nmethod=trivial-win\neloise=0:1/1\nabelard=0:1/1\n'),
            ('Ex Ay x = y', 2, [], 'command=value\nrows=1\ncols=1\nfloor=0/1\nceil=0/1\nvalue=0/1\nmethod=trivial-loss\neloise=0:1/1\nabelard=0:1/1\n'),
        ],
        ids=["trivial-win", "trivial-loss", "trivial-win-wide", "trivial-win-collapsed", "trivial-loss-collapsed"],
    )
    def test_trivial_outputs_unchanged(self, tmp_path, text, size, flags, expected):
        structure = tmp_path / "s.json"
        structure.write_text(f'{{"size": {size}}}')
        argv = ["--structure", structure, "--formula", text, *flags]
        assert run_cli_all("value", *argv, "--format", "machine") == (0, expected, "")
        equilibrium = expected.replace("command=value", "command=equilibrium") + "verified=true\n"
        assert run_cli_all("equilibrium", *argv, "--format", "machine") == (0, equilibrium, "")
        text_format = run_cli_all("value", *argv)[1]
        assert [line.split(" ")[:2] for line in text_format.splitlines() if "method" in line or ":" in line] == [
            line.split("=") for line in expected.splitlines() if line.startswith(("method", "eloise", "abelard"))
        ]


class TestParserBuiltOnce:
    CALLS = [
        ("value", "--matrix", FIXTURES / "m5x6_b.txt", "--format", "machine"),
        ("bounds", "--matrix", FIXTURES / "m5x6_a.txt"),
        ("equilibrium", "--matrix", FIXTURES / "m4_mixed.txt", "--format", "machine"),
        ("reduce", "--matrix", FIXTURES / "m4_win.txt"),
        ("mp", "3", "--format", "machine"),
        ("birthday", "3", "2"),
        ("hashing", "2", "2", "--format", "machine"),
        ("value",),  # usage error: no game
        ("value", "--matrix"),  # usage error from the argument parser
        ("frobnicate", "1"),  # usage error: no such command
        ("value", "--structure", FIXTURES / "cyclic3.json", "--formula", "Ax x ="),  # parse error
        ("value", "--structure", FIXTURES / "cyclic3.json", "--formula", "Ax (Ey/x) x = y", "--format", "machine"),
    ]

    def test_every_call_matches_a_first_call(self):
        expected = []
        for argv in self.CALLS:
            cli._parser.cache_clear()
            expected.append(run_cli_all(*argv))
        assert {code for code, _, _ in expected} == {EXIT_OK, EXIT_USAGE, EXIT_PARSE}
        cli._parser.cache_clear()
        again = [run_cli_all(*argv) for _ in range(3) for argv in self.CALLS]
        assert again == expected * 3
        assert cli._parser.cache_info().misses == 1


# Formula texts from the sentence grammar's tokens: sentences built from its
# productions, perhaps cut or spliced with a token, and plain token strings.
_TOKENS = ("A", "E", "x", "y", "w", "(", ")", "/", "&", "|", "~", "=", ",", "{", "}", "\\/_", "i", "f", "S", " ")


@functools.cache
def _bodies(names: tuple[str, ...]):
    name = st.sampled_from(names)
    term = st.one_of(
        name, name.map("f({})".format), st.tuples(name, name).map(lambda ab: "add({}, {})".format(*ab))
    )
    atom = st.one_of(
        st.tuples(term, term).map(lambda ab: "P({}, {})".format(*ab)),
        st.tuples(st.sampled_from(["R", "Q"]), term).map(lambda rt: "{}({})".format(*rt)),
        st.tuples(term, term).map(lambda ab: "{} = {}".format(*ab)),
    )
    literal = st.tuples(st.sampled_from(["", "~"]), atom).map("".join)
    joined = st.tuples(literal, st.sampled_from([" & ", " | "]), literal).map(lambda t: "({}{}{})".format(*t))
    return st.one_of(literal, joined, st.tuples(joined, st.sampled_from([" & ", " | "]), literal).map("".join))


@st.composite
def _sentences(draw):
    """A quantifier prefix with slash sets over x, y and z, then a body or a
    choice disjunction whose branches hide the branch index from `w`."""
    names = draw(st.permutations(["x", "y", "z"]))[: draw(st.integers(1, 3))]
    text = ""
    for k, name in enumerate(names):
        slash = draw(st.lists(st.sampled_from(names[:k]), unique=True)) if k else []
        head = draw(st.sampled_from("AE")) + name
        text += f"({head}/{' '.join(slash)}) " if slash else head + " "
    if draw(st.booleans()):
        return text + draw(_bodies((*names, "c")))
    first, second = draw(st.sampled_from(["AA", "EE", "AE"]))  # differing kinds cannot share a point
    bodies = _bodies((*names, "w", "c"))
    return text + f"\\/_i{{({first}w/i) {draw(bodies)}, ({second}w/i) {draw(bodies)}}}"


@st.composite
def _formula_texts(draw):
    text = draw(st.one_of(_sentences(), _sentences(), st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join)))
    edit = draw(st.sampled_from(["keep", "keep", "keep", "cut", "splice"]))
    if edit != "keep" and text:
        at = draw(st.integers(0, len(text) - 1))
        middle = draw(st.sampled_from(_TOKENS)) if edit == "splice" else ""
        text = text[:at] + middle + text[at + 1 :]
    return text


_FUZZ_STRUCTURES = {
    "one": {"size": 1, "relations": {"P": [], "R": [[0]], "Q": []},
            "functions": {"f": [[0, 0]], "c": [[0]], "add": [[0, 0, 0]]}},
    "two": {"size": 2, "relations": {"P": [[0, 1], [1, 1]], "R": [[1]], "Q": []},
            "functions": {"f": [[0, 1], [1, 1]], "c": [[1]], "add": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]}},
    "two_small": {"size": 2, "relations": {"P": [[0, 0]], "Q": [[1]]}, "functions": {"c": [[0]]}},
    "three": {"size": 3, "relations": {"P": [[0, 0], [2, 1]], "R": [], "Q": [[1]]},
              "functions": {"f": [[0, 2], [1, 0], [2, 2]], "c": [[2]],
                            "add": [[a, b, (a + b) % 3] for a in range(3) for b in range(3)]}},
}
_EXIT_CODES = (EXIT_OK, EXIT_USAGE, EXIT_PARSE, EXIT_VALIDATION, EXIT_BUDGET)


@pytest.fixture(scope="module")
def fuzz_structures(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, doc in _FUZZ_STRUCTURES.items():
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return paths


class TestFormulaFuzz:
    """Drawn formula texts on small structures exit with a documented code and
    never print a traceback; every sentence that validates is also compiled."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(
        text=_formula_texts(),
        command=st.sampled_from(["value", "equilibrium", "bounds", "reduce", "matrix"]),
        structure=st.sampled_from(sorted(_FUZZ_STRUCTURES)),
        collapse=st.booleans(),
    )
    def test_exit_codes_are_documented(self, fuzz_structures, text, command, structure, collapse):
        argv = [command, "--structure", str(fuzz_structures[structure]), "--formula", text]
        argv += ["--max-strategies", "64", "--format", "machine"]
        if not collapse:
            argv.append("--no-collapse")
        code, err = run_cli_stderr(*argv)
        assert code in _EXIT_CODES
        assert "Traceback" not in err


# An argv that works for each command, the unknown command alone or the empty
# argv, with up to three pieces inserted: the flags, their abbreviations,
# `--flag=value` and `--`, and values that name a file, a missing file or a
# directory, or hold a NUL byte or an odd number.
_ARGV_COMMANDS = ("value", "bounds", "equilibrium", "reduce", "matrix", "mp", "birthday", "hashing", "frobnicate")
_ARGV_GAMES = (
    ("--matrix", "<matrix>"),
    ("--structure", "<structure>", "--formula", "Ax (Ey/x) x = y"),
    ("--structure", "<structure>", "--formula-file", "<formula-file>"),
)
_ARGV_NUMBERS = ("2", "3", "\u0663", "1_000", "-5", "99999999999999999999")
_ARGV_VALUES = ("<matrix>", "<structure>", "<formula-file>", "<missing>", "<directory>", "a\x00b", "Ax (Ey/x) x = y",
                "machine", *_ARGV_NUMBERS)
# Each flag with the values that fit it; any value may still be drawn.
_ARGV_FLAGS = {
    "--matrix": ("<matrix>", "<missing>", "<directory>", "a\x00b"),
    "--structure": ("<structure>", "<missing>", "a\x00b"),
    "--formula": ("Ax (Ey/x) x = y", "Ax x ="),
    "--formula-file": ("<formula-file>", "<directory>", "a\x00b"),
    "--max-strategies": _ARGV_NUMBERS,
    "--max": _ARGV_NUMBERS,
    "--form": ("machine",),
    "--format": ("machine", "text"),
    "--no-collapse": (),
    "--help": (),
    "-h": (),
    "--": (),
    "--bogus": (),
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(_ARGV_COMMANDS))
    if command in ("mp", "birthday", "hashing"):
        argv = [command, *(draw(st.sampled_from(_ARGV_NUMBERS)) for _ in range(1 if command == "mp" else 2))]
    else:
        argv = [command, *draw(st.sampled_from(_ARGV_GAMES))] if command != "frobnicate" else [command]
    if draw(st.integers(0, 9)) == 9:
        argv = []
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        flag = draw(st.sampled_from(sorted(_ARGV_FLAGS)))
        fitting = _ARGV_FLAGS[flag] if draw(st.integers(0, 3)) < 3 else ()
        value = draw(st.sampled_from(fitting or _ARGV_VALUES))
        shape = draw(st.sampled_from(["flag value", "flag value", "flag=value", "flag", "value"]))
        at = draw(st.integers(1 if argv and draw(st.integers(0, 9)) < 9 else 0, len(argv)))
        argv[at:at] = {"flag value": [flag, value], "flag=value": [f"{flag}={value}"], "flag": [flag],
                       "value": [value]}[shape]
    return argv


@pytest.fixture(scope="module")
def argv_paths(tmp_path_factory):
    directory = tmp_path_factory.mktemp("argv")
    (directory / "formula.txt").write_text("Ax (Ey/x) x = y")
    return {
        "<matrix>": str(FIXTURES / "m5x6_b.txt"),
        "<structure>": str(FIXTURES / "cyclic3.json"),
        "<formula-file>": str(directory / "formula.txt"),
        "<missing>": str(directory / "missing.txt"),
        "<directory>": str(directory),
    }


def _parse_outcome(parse, argv):
    """The namespace, usage message or help exit of one parse, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            outcome = ("args", vars(parse(argv)))
    except cli._UsageError as e:
        outcome = ("usage", str(e))
    except SystemExit as e:
        outcome = ("exit", e.code)
    return outcome, out.getvalue(), err.getvalue()


class TestArgvFuzz:
    """Drawn argvs exit with a documented code, or end in help, and never
    print a traceback; an argv that names a command parses the same through
    that command's parser as through the top-level parser."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(argv=_argvs())
    @example(argv=["value", "--matrix", "a\x00b"])  # once a traceback
    def test_exit_codes_are_documented(self, argv_paths, argv):
        for placeholder, path in argv_paths.items():
            argv = [arg.replace(placeholder, path) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        except SystemExit as e:  # help
            assert e.code == 0 and out.getvalue().startswith("usage: ifgames")
        else:
            assert code in _EXIT_CODES
        assert "Traceback" not in err.getvalue()
        if argv and argv[0] in cli._parser().commands:
            assert _parse_outcome(cli._parse_args, argv) == _parse_outcome(cli._parser().parse_args, argv)


# Structure files and matrix files cut, swapped and spliced byte by byte.
_MUTATION_SOURCES = {
    "--matrix": sorted(p.read_bytes() for p in FIXTURES.glob("*.txt")),
    "--structure": [(FIXTURES / "cyclic3.json").read_bytes(), json.dumps(_FUZZ_STRUCTURES["three"]).encode()],
}
_SPLICES = [b"0", b"1", b"7", b"42", b"-1", b"[", b"]", b"{", b"}", b",", b'"', "\u00b2".encode(),
            "\u0661".encode(), "\u00e9".encode(), b"\xff", "\u2028".encode()]
_KEYS = [b"size", b"relations", b"functions", b"add", b"R", b"f", b"sizes", b""]
_STRUCTURE_FORMULAS = ["Ax (Ey/x) add(x, y) = x", "Ax Ey x = y", "Ex R(x)", "Ax f(x) = x"]


@st.composite
def _mutated_inputs(draw):
    """(input flag, file bytes): a fixture file with one to three edits, each
    a truncation, a swap of two bytes, an inserted splice or a renamed key."""
    flag = draw(st.sampled_from(sorted(_MUTATION_SOURCES)))
    data = bytearray(draw(st.sampled_from(_MUTATION_SOURCES[flag])))
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["truncate", "swap", "splice", "splice", "rename"]))
        at = draw(st.integers(0, len(data)))
        if edit == "truncate":
            del data[at:]
        elif edit == "swap" and len(data) > 1:
            other = draw(st.integers(0, len(data) - 1))
            at = min(at, len(data) - 1)
            data[at], data[other] = data[other], data[at]
        elif edit == "splice":
            data[at:at] = draw(st.sampled_from(_SPLICES))
        elif edit == "rename":
            keys = [k for k in _KEYS if k and b'"' + k + b'"' in data]
            if keys:
                old, new = draw(st.sampled_from(keys)), draw(st.sampled_from(_KEYS))
                data = bytearray(bytes(data).replace(b'"' + old + b'"', b'"' + new + b'"', 1))
    return flag, bytes(data)


_KNOWN_CRASHES = [
    ("--matrix", "\u00b2 2\n0 1\n1 0\n".encode()),
    ("--structure", b'{"size":2,"relations":{"f":[[0]]},"functions":{"f":[[0,0],[1,1]]}}'),
    ("--structure", b'{"size":2,"relations":{"R":' + b"[" * 50000 + b"]" * 50000 + b"}}"),
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


class TestInputFileFuzz:
    """Mutated structure and matrix files exit with a documented code and
    never print a traceback; the examples are inputs that once did."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(
        source=_mutated_inputs(),
        command=st.sampled_from(["value", "equilibrium", "bounds", "reduce", "matrix"]),
        formula=st.sampled_from(_STRUCTURE_FORMULAS),
    )
    @example(source=_KNOWN_CRASHES[0], command="value", formula=_STRUCTURE_FORMULAS[0])
    @example(source=_KNOWN_CRASHES[1], command="value", formula=_STRUCTURE_FORMULAS[0])
    @example(source=_KNOWN_CRASHES[2], command="value", formula=_STRUCTURE_FORMULAS[0])
    def test_exit_codes_are_documented(self, fuzz_dir, source, command, formula):
        flag, data = source
        path = fuzz_dir / "input"
        path.write_bytes(data)
        argv = [command, flag, str(path), "--max-strategies", "64", "--format", "machine"]
        if flag == "--structure":
            argv += ["--formula", formula]
        code, err = run_cli_stderr(*argv)
        assert code in _EXIT_CODES
        assert "Traceback" not in err
