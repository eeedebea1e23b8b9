import dataclasses
import io
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from ifgames import applications
from ifgames.cli import EXIT_BUDGET, EXIT_PARSE, EXIT_USAGE, EXIT_VALIDATION, main
from ifgames.matrix_game import MixedStrategy, expected_utility
from ifgames.value_engine import solve_game

from conftest import FIXTURES


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

    @pytest.mark.parametrize(
        "size, formula",
        [
            (16, "Ax1 Ax2 Ax3 Ax4 Ax5 Ey y = x1"),
            (16, "Ax1 Ax2 Ax3 Ax4 Ax5 Ax6 Ax7 Ax8 Ax9 Ax10 Ey y = x1"),
            (1, "Ax " + "".join(f"\\/_i{k}{{(Ey{k}/i{k}) y{k} = x, " for k in range(30)) + "x = x" + "}" * 30),
        ],
        ids=["five-universals", "ten-universals", "thirty-nested-choices"],
    )
    def test_strategy_count_too_large_to_form(self, tmp_path, size, formula):
        structure = tmp_path / "s.json"
        structure.write_text(f'{{"size": {size}}}')
        started = time.perf_counter()
        code, err = run_cli_stderr("value", "--structure", str(structure), "--formula", formula)
        assert time.perf_counter() - started < 1
        assert code == EXIT_BUDGET
        assert "Traceback" not in err and "eloise would have at least 2^" in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"size": 2, "relations": {"R": [1, 2]}}',
            '{"size": 2, "relations": {"R": [[[0]]]}}',
            '{"size": 2, "functions": {"f": [[[0], 1], [[1], 0]]}}',
            '{"size": 2, "relations": [["R"]]}',
            '{"size": true}',
        ],
        ids=["rows-not-lists", "nested-row", "nested-function-args", "relations-not-object", "bool-size"],
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
