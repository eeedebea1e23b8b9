"""Exact equilibrium values of independence-friendly sentences on finite structures.

The pipeline: parse a sentence, pair it with a structure, enumerate each
player's uniform pure strategies into a win-loss matrix game (or its reduced
strategic form, one strategy per class of payoff-identical copies), and solve
that game exactly with rational linear programming, bounds, and equilibrium
certificates.

Every public name is imported from its module on first access (PEP 562), so
`import ifgames` loads none of the package's modules and a matrix-only run
never loads the sentence side.
"""

from importlib import import_module

_HOMES = {
    "errors": "BudgetExceededError EvaluationError GameBuildError IfGamesError ParseError SizeLimitError "
    "StructureFormatError",
    "formula": "App Atom Connective Equals Formula Quant Term Var Violation Vocabulary format_formula parse validate",
    "matrix_game": "Bounds DEFAULT_STRATEGY_BUDGET GameMatrix MixedStrategy ReducedForm ReducedStrategies "
    "expected_utility format_matrix parse_matrix reduce security_levels tallies",
    "semantic_game": "ABELARD ELOISE DecisionPoint Game build_matrix build_reduced decision_points",
    "structure": "Assignment Structure compile_qf holds_qf load_structure",
    "value_engine": "ValueReport balanced_value detect_trivial solve_game solve_value verify_equilibrium",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}
_MODULES = (*_HOMES, "linalg")
__all__ = sorted([*_HOME, *_MODULES])


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
