"""Command-line front end: reproducible runs from matrices, sentences, or the
built-in case studies.

Machine-format output is line-oriented ``key=value`` with every rational as
``p/q`` and never a decimal, so identical inputs give byte-identical output.
Exit codes: 1 usage, 2 parse, 3 validation, 4 budget.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache
from math import gcd

from . import applications
from .errors import (
    BudgetExceededError,
    EvaluationError,
    GameBuildError,
    IfGamesError,
    ParseError,
    SizeLimitError,
    StructureFormatError,
)
from .formula import parse as parse_formula
from .matrix_game import Bounds, MixedStrategy, format_matrix, parse_matrix, reduce
from .matrix_game import scaled_numerators, tallies
from .semantic_game import DEFAULT_STRATEGY_BUDGET, ReducedForm, build_matrix, build_reduced
from .structure import load_structure
from .value_engine import solve_game, verify_equilibrium
from .value_engine import solve_value  # noqa: F401  (the benchmark's tracer reads cli.solve_value)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_BUDGET = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that for parse errors
        raise _UsageError(message)


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _strategy(ms: MixedStrategy, reps: tuple[int, ...]) -> str:
    """The support as `index:p/q` pairs, each reduced strategy numbered by
    its full-form representative."""
    nums, den = scaled_numerators(ms)
    parts = []
    for i in ms.support():
        g = gcd(nums[i], den)
        parts.append(f"{reps[i]}:{nums[i] // g}/{den // g}")
    return " ".join(parts)


class _Report:
    """Ordered key/value lines rendered per output format."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        self.pairs: list[tuple[str, str]] = []

    def add(self, key: str, value) -> None:
        self.pairs.append((key, str(value)))

    def add_frac(self, key: str, x: Fraction) -> None:
        if self.fmt == "machine":
            self.pairs.append((key, _frac(x)))
        else:
            self.pairs.append((key, f"{_frac(x)} (~{float(x):.6f})"))

    def print(self) -> None:
        sep = "=" if self.fmt == "machine" else " "
        sys.stdout.write("".join(f"{key}{sep}{value}\n" for key, value in self.pairs))


def _add_game_inputs(p: _Parser) -> None:
    p.add_argument("--matrix", metavar="PATH", help="matrix text file ('m n' header, 0/1 rows)")
    p.add_argument("--structure", metavar="PATH", help="structure file (JSON)")
    p.add_argument("--formula", metavar="TEXT", help="sentence text")
    p.add_argument("--formula-file", metavar="PATH", help="file holding the sentence text")
    p.add_argument("--no-collapse", action="store_true", help="keep perfect-information subformulas as moves")
    p.add_argument(
        "--max-strategies",
        type=int,
        default=DEFAULT_STRATEGY_BUDGET,
        metavar="N",
        help="per-player pure strategy budget (default 2^20)",
    )


def _add_format(p: _Parser) -> None:
    p.add_argument("--format", choices=("text", "machine"), default="text")


def build_parser() -> _Parser:
    parser = _Parser(prog="ifgames", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, doc in (
        ("value", "exact value of a game"),
        ("bounds", "uniform-strategy floor and ceiling"),
        ("equilibrium", "exact value with verified equilibrium strategies"),
        ("reduce", "iterated removal of duplicate and weakly dominated strategies"),
        ("matrix", "print the built strategic game in matrix text format"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_game_inputs(p)
        _add_format(p)

    p = sub.add_parser("mp", help="Matching Pennies on an n-element structure")
    p.add_argument("n", type=int)
    _add_format(p)

    p = sub.add_parser("birthday", help="birthday game: N urn size, M draws")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    _add_format(p)

    p = sub.add_parser("hashing", help="universal hashing game: NKEYS NVALUES")
    p.add_argument("keys", type=int)
    p.add_argument("values", type=int)
    _add_format(p)

    parser.commands = sub.choices
    return parser


@cache
def _parser() -> _Parser:
    """The one parser of the process, built on first use."""
    return build_parser()


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """`argv` read in one pass by the parser of the command it names; any
    other argv goes to the top-level parser, for its help or usage error."""
    parser = _parser()
    if argv and argv[0] in parser.commands:
        return parser.commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    return parser.parse_args(argv)


def _read_input(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise _UsageError(str(e)) from None
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8 text: {e.reason}", e.start) from None
    except ValueError as e:  # a NUL byte in the path
        raise _UsageError(f"{e}: {path!r}") from None


def _case_study(make, *args):
    """The case-study constructors reject out-of-range arguments with
    ValueError, which on the command line is a usage error."""
    try:
        return make(*args)
    except ValueError as e:
        raise _UsageError(str(e)) from None


def _load_game(args, build) -> ReducedForm:
    """The game the input flags name: a --matrix file as it stands, or a
    sentence as `build` (`build_reduced` or `build_matrix`) makes it."""
    from_matrix = args.matrix is not None
    from_sentence = args.structure is not None or args.formula is not None or args.formula_file is not None
    if from_matrix == from_sentence:
        raise _UsageError("provide either --matrix or a --structure with a formula")
    if from_matrix:
        return ReducedForm.of_matrix(parse_matrix(_read_input(args.matrix)))
    if args.structure is None:
        raise _UsageError("--formula needs --structure")
    if (args.formula is None) == (args.formula_file is None):
        raise _UsageError("provide exactly one of --formula / --formula-file")
    if args.max_strategies < 1:
        raise _UsageError(f"--max-strategies must be at least 1, not {args.max_strategies}")
    structure = load_structure(_read_input(args.structure))
    text = args.formula if args.formula is not None else _read_input(args.formula_file)
    sentence = parse_formula(text, structure.vocabulary())
    return build(structure, sentence, collapse=not args.no_collapse, max_strategies=args.max_strategies)


def _header(form: ReducedForm, fmt: str, command: str) -> tuple[_Report, Bounds]:
    """A report opened with the command, the shape and the uniform bounds,
    all of the full game that `form` reduces."""
    out = _Report(fmt)
    out.add("command", command)
    out.add("rows", form.eloise.count)
    out.add("cols", form.abelard.count)
    t = tallies(form.matrix, form.eloise.weights, form.abelard.weights)
    out.add_frac("floor", t.floor)
    out.add_frac("ceil", t.ceil)
    return out, t


def _report_game(form: ReducedForm, fmt: str, command: str, verified_line: bool) -> None:
    out, _ = _header(form, fmt, command)
    # Every full row and column copies one of R's, so R's value and
    # certificates are the full game's, with each strategy on its representative.
    u = form.matrix
    solved = solve_game(u)
    out.add_frac("value", solved.value)
    out.add("method", solved.method)
    out.add("eloise", _strategy(solved.eloise, form.eloise.reps))
    out.add("abelard", _strategy(solved.abelard, form.abelard.reps))
    if verified_line:
        out.add("verified", str(verify_equilibrium(u, solved.eloise, solved.abelard)).lower())
    out.print()


def _run(args) -> int:
    fmt = getattr(args, "format", "text")
    if args.command in ("value", "equilibrium"):
        form = _load_game(args, build_reduced)
        _report_game(form, fmt, args.command, verified_line=args.command == "equilibrium")
        return EXIT_OK
    if args.command == "bounds":
        out, t = _header(_load_game(args, build_reduced), fmt, "bounds")
        out.add("colmin", t.colmin)
        out.add("rowmax", t.rowmax)
        out.print()
        return EXIT_OK
    if args.command == "reduce":
        # R is the full game at increasing representatives, so reducing R
        # keeps the representatives of what reducing the full game keeps.
        form = _load_game(args, build_reduced)
        reduced, rows, cols = reduce(form.matrix)
        out = _Report(fmt)
        out.add("command", "reduce")
        out.add("rows", form.eloise.count)
        out.add("cols", form.abelard.count)
        out.add("kept_rows", ",".join(str(form.eloise.reps[i]) for i in rows))
        out.add("kept_cols", ",".join(str(form.abelard.reps[j]) for j in cols))
        out.print()
        sys.stdout.write(format_matrix(reduced))
        return EXIT_OK
    if args.command == "matrix":
        sys.stdout.write(format_matrix(_load_game(args, build_matrix).matrix))
        return EXIT_OK
    if args.command == "mp":
        sentence, structure = _case_study(applications.matching_pennies, args.n)
        _report_game(build_reduced(structure, sentence), fmt, "mp", verified_line=False)
        return EXIT_OK
    if args.command == "birthday":
        sentence, structure = _case_study(applications.birthday_game, args.n, args.m)
        form = build_reduced(structure, sentence)
        all_distinct, duplicate = applications.birthday_closed_form(args.n, args.m)
        _report_game(form, fmt, "birthday", verified_line=False)
        out = _Report(fmt)
        out.add_frac("all_distinct", all_distinct)
        out.add_frac("duplicate_prob", duplicate)
        out.print()
        return EXIT_OK
    if args.command == "hashing":
        structure, spec = _case_study(applications.hash_structure, args.keys, args.values)
        eq = applications.hashing_equilibrium(structure, spec)
        form = eq.build
        out, _ = _header(form, fmt, "hashing")
        # An unverified pair certifies nothing, so the value then comes from
        # the general solver and is labelled with the route that produced it.
        if eq.verified:
            value, method, eloise = eq.value, "hashing-certificate", eq.eloise
        else:
            solved = solve_game(form.matrix)
            value, method, eloise = solved.value, solved.method, solved.eloise
        out.add_frac("value", value)
        out.add("method", method)
        out.add("verified", str(eq.verified).lower())
        out.add("minimal_degree_indices", ",".join(map(str, sorted(eq.minimal_degree))))
        out.add("eloise", _strategy(eloise, form.eloise.reps))
        out.add("adversary_pair_count", eq.adversary_pair_count)
        out.print()
        return EXIT_OK
    raise _UsageError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    try:
        return _run(_parse_args(sys.argv[1:] if argv is None else argv))
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (BudgetExceededError, SizeLimitError) as e:
        print(f"budget error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (StructureFormatError, GameBuildError, EvaluationError) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except IfGamesError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
