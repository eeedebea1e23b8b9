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
    never formed.  A number of 2 ** SHOWN_BITS or more is shown by its bit
    length, since printing it in full can exceed Python's integer-to-string
    limit; so is a `log2_floor` that long, as at least 2^(2^k) with 2^k <= log2_floor."""

    SHOWN_BITS = 1024

    def __init__(self, player: str, count: int | None, budget: int, log2_floor: int = 0):
        bits = log2_floor.bit_length()
        exponent = f"(2^{bits - 1})" if bits > self.SHOWN_BITS else log2_floor
        shown_count = f"at least 2^{exponent}" if count is None else shown(count)
        super().__init__(
            f"{player} would have {shown_count} pure strategies, over the budget of {shown(budget)}"
        )
        self.player = player
        self.count = count
        self.budget = budget


def shown(n: int) -> str:
    """`n` in full, or as `at least 2^k` from 2 ** BudgetExceededError.SHOWN_BITS on."""
    if n.bit_length() > BudgetExceededError.SHOWN_BITS:
        return f"at least 2^{n.bit_length() - 1}"
    return str(n)


class SizeLimitError(IfGamesError):
    """Raised when an exhaustive method is asked to run beyond its size cutoff."""
