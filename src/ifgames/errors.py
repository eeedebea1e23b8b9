"""Exception types shared across the package."""


class IfGamesError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(IfGamesError):
    """Raised on malformed sentence text; carries the offset of the bad token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class StructureFormatError(IfGamesError):
    """Raised when a structure file is malformed or violates structure invariants."""


class EvaluationError(IfGamesError):
    """Raised when a term or formula cannot be evaluated (missing variable or symbol)."""


class GameBuildError(IfGamesError):
    """Raised when a semantic game cannot be turned into a strategic game."""


class BudgetExceededError(GameBuildError):
    """Raised when a player's pure-strategy count exceeds the configured budget.

    `count` is exact, or None when it is at least 2 ** `log2_floor` and was
    never formed.  A count of 2 ** SHOWN_BITS or more is shown by its bit length,
    since printing it in full can exceed Python's integer-to-string limit."""

    SHOWN_BITS = 1024

    def __init__(self, player: str, count: int | None, budget: int, log2_floor: int = 0):
        if count is not None:
            log2_floor = count.bit_length() - 1
        huge = count is None or log2_floor >= self.SHOWN_BITS
        shown = f"at least 2^{log2_floor}" if huge else count
        super().__init__(
            f"{player} would have {shown} pure strategies, over the budget of {budget}"
        )
        self.player = player
        self.count = count
        self.budget = budget


class SizeLimitError(IfGamesError):
    """Raised when an exhaustive method is asked to run beyond its size cutoff."""
