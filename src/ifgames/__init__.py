"""Exact equilibrium values of independence-friendly sentences on finite structures.

The pipeline: parse a sentence, pair it with a structure, enumerate each
player's uniform pure strategies into a win-loss matrix game (or its reduced
strategic form, one strategy per class of payoff-identical copies), and solve
that game exactly with rational linear programming, bounds, and equilibrium
certificates.
"""

from .errors import (
    BudgetExceededError,
    EvaluationError,
    GameBuildError,
    IfGamesError,
    ParseError,
    SizeLimitError,
    StructureFormatError,
)
from .formula import (
    App,
    Atom,
    Connective,
    Equals,
    Formula,
    Quant,
    Term,
    Var,
    Violation,
    Vocabulary,
    format_formula,
    parse,
    validate,
)
from .matrix_game import (
    Bounds,
    GameMatrix,
    MixedStrategy,
    expected_utility,
    format_matrix,
    parse_matrix,
    reduce,
    security_levels,
    tallies,
)
from .semantic_game import (
    ABELARD,
    DEFAULT_STRATEGY_BUDGET,
    ELOISE,
    DecisionPoint,
    Game,
    ReducedForm,
    ReducedStrategies,
    build_matrix,
    build_reduced,
    decision_points,
)
from .structure import (
    Assignment,
    Structure,
    compile_qf,
    holds_qf,
    load_structure,
)
from .value_engine import (
    ValueReport,
    balanced_submatrix_certificate,
    balanced_value,
    detect_trivial,
    solve_by_support_enumeration,
    solve_game,
    solve_value,
    submatrix_lower_bound,
    verify_equilibrium,
)

__all__ = [name for name in dir() if not name.startswith("_")]
