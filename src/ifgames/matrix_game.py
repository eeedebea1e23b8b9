"""Win-loss zero-sum matrix games: tallies, balance, expected utility, dominance.

Entries are restricted to {0, 1}.  A mixed strategy is carried as nonnegative
integer numerators over one common denominator, in lowest terms; its `probs`
tuple of `Fraction`s is a view built on request.  Utilities come out as exact
`Fraction`s, the numpy array behind a `GameMatrix` only ever holds integers,
and integer arithmetic on it is exact, so no floating point enters the value
path.  Matrices built from strategic games can be wide (hundreds of thousands
of columns), so the bulk operations below work on the integer numerators and
build no Fraction per entry.  `ReducedForm`, the one game object every
command solves, lives here too, so a game read from a matrix file needs
nothing from the sentence side.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import IfGamesError

_INT64_SAFE = 2**62
# The per-player pure-strategy budget of every game builder and of the CLI.
DEFAULT_STRATEGY_BUDGET = 2**20


class GameMatrix:
    """An m x n payoff matrix for the row player, entries in {0, 1}."""

    def __init__(self, rows):
        arr = np.asarray(rows)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("a game matrix needs at least one row and one column")
        # Only integer or bool entries: a cast would truncate 0.5 to 0 and parse '1'.
        if arr.dtype.kind not in "biu" or arr.min() < 0 or arr.max() > 1:
            raise ValueError("game matrix entries must be 0 or 1")
        self._set(arr.astype(np.uint8))

    @classmethod
    def _from_array(cls, arr: np.ndarray) -> "GameMatrix":
        self = object.__new__(cls)
        self._set(arr.astype(np.uint8, copy=False))
        return self

    def _set(self, a: np.ndarray) -> None:
        a.setflags(write=False)
        self._a = a
        self.m, self.n = a.shape
        self._row_sums: list[int] | None = None
        self._col_sums: list[int] | None = None

    @property
    def array(self) -> np.ndarray:
        """Read-only uint8 view of the entries."""
        return self._a

    def row_sums(self) -> list[int]:
        if self._row_sums is None:
            self._row_sums = self._a.sum(axis=1, dtype=np.int64).tolist()
        return self._row_sums

    def col_sums(self) -> list[int]:
        if self._col_sums is None:
            self._col_sums = self._a.sum(axis=0, dtype=np.int64).tolist()
        return self._col_sums

    def __eq__(self, other) -> bool:
        return isinstance(other, GameMatrix) and np.array_equal(self._a, other._a)

    def __hash__(self):
        return hash((self.m, self.n, self._a.tobytes()))

    def __repr__(self) -> str:
        if self.m * self.n <= 64:
            body = "; ".join(" ".join(map(str, row)) for row in self._a.tolist())
            return f"GameMatrix({self.m}x{self.n}: {body})"
        return f"GameMatrix({self.m}x{self.n})"


@dataclass(frozen=True, eq=False)
class ReducedStrategies:
    """One player's reduced strategies, in order of representative.

    `cells[s]` is strategy s's flat choice table (the owner's point tables
    concatenated in point order) with -1 at every cell it leaves
    unassigned; `reps[s]` is the full-form index of the strategy with those
    cells at 0, and `weights[s]` the number of full strategies in its class.
    A game given by its matrix has no choice tables, so no `cells`."""

    cells: tuple[tuple[int, ...], ...]
    reps: tuple[int, ...] | range
    weights: tuple[int, ...]

    @property
    def count(self) -> int:
        """The owner's full pure-strategy count."""
        return sum(self.weights)


@dataclass(frozen=True, eq=False)
class ReducedForm:
    """The reduced strategic form: `matrix` is R, Eloise's reduced strategies
    on the rows and Abelard's on the columns, equal to the full game at
    rows `eloise.reps` and columns `abelard.reps`."""

    matrix: GameMatrix
    eloise: ReducedStrategies
    abelard: ReducedStrategies
    collapsed_loci: tuple[tuple[int, ...], ...]  # formula paths evaluated classically

    @classmethod
    def of_matrix(cls, u: GameMatrix, collapsed_loci: tuple[tuple[int, ...], ...] = ()) -> ReducedForm:
        """The game `u` as it stands: every strategy a class of its own."""
        eloise, abelard = (ReducedStrategies(cells=(), reps=range(k), weights=(1,) * k) for k in (u.m, u.n))
        return cls(u, eloise, abelard, collapsed_loci)


@dataclass(frozen=True)
class MixedStrategy:
    """Exact probability vector over one player's pure strategies: numerators
    `nums` over `den` in lowest terms, so equal strategies compare equal."""

    nums: tuple[int, ...]
    den: int
    side: str  # "row" | "column"

    def __post_init__(self):
        nums, den = tuple(map(operator.index, self.nums)), operator.index(self.den)
        if self.side not in ("row", "column"):
            raise ValueError(f"bad side {self.side!r}")
        if den <= 0 or min(nums, default=0) < 0:
            raise ValueError("probabilities must be nonnegative")
        if sum(nums) != den:
            raise ValueError("probabilities must sum to exactly 1")
        g = math.gcd(den, *nums)
        if g > 1:
            nums, den = tuple(q // g for q in nums), den // g
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @cached_property
    def probs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(q, self.den) for q in self.nums)

    def __len__(self) -> int:
        return len(self.nums)

    def support(self) -> list[int]:
        return [i for i, q in enumerate(self.nums) if q]

    @staticmethod
    def uniform(k: int, side: str) -> "MixedStrategy":
        return MixedStrategy((1,) * k, k, side)

    @staticmethod
    def point_mass(k: int, index: int, side: str) -> "MixedStrategy":
        nums = [0] * k
        nums[index] = 1
        return MixedStrategy(nums, 1, side)

    @staticmethod
    def uniform_on(indices: Iterable[int], k: int, side: str) -> "MixedStrategy":
        chosen = sorted(set(indices))
        if not chosen:
            raise ValueError("support must be nonempty")
        nums = [0] * k
        for i in chosen:
            nums[i] = 1
        return MixedStrategy(nums, len(chosen), side)


@dataclass(frozen=True)
class Bounds:
    """Row/column tallies and the uniform-strategy bounds they induce."""

    floor: Fraction
    ceil: Fraction
    colmin: int
    rowmax: int


def tallies(
    u: GameMatrix, row_weights: Sequence[int] | None = None, col_weights: Sequence[int] | None = None
) -> Bounds:
    """Column minimum, row maximum and the uniform bounds they give.  With
    weights, row i stands for `row_weights[i]` copies of itself and column j
    for `col_weights[j]`, as in a reduced strategic form, and the tallies are
    those of the game with the copies: column sums weigh rows, the floor
    divides by the total row weight, and likewise for rows.  Unit weights
    are no weights, and take the sums `u` caches."""
    row_unit, col_unit = _unit(row_weights, u.m), _unit(col_weights, u.n)
    col = u.col_sums() if row_unit else weighted_col_sums(u, row_weights)
    row = u.row_sums() if col_unit else weighted_row_sums(u, col_weights)
    colmin = min(col)
    rowmax = max(row)
    return Bounds(
        floor=Fraction(colmin, u.m if row_unit else sum(row_weights)),
        ceil=Fraction(rowmax, u.n if col_unit else sum(col_weights)),
        colmin=colmin,
        rowmax=rowmax,
    )


def _unit(weights: Sequence[int] | None, k: int) -> bool:
    return weights is None or len(weights) == k == weights.count(1)


# ---------------------------------------------------------------------------
# Exact weighted sums over a strategy's integer numerators; the int64 fast
# path is guarded against overflow.


def scaled_numerators(ms: MixedStrategy) -> tuple[tuple[int, ...], int]:
    """(numerators, common denominator) with numerators summing to the denominator."""
    return ms.nums, ms.den


def weighted_col_sums(u: GameMatrix, weights: Sequence[int]) -> list[int]:
    """For each column j, the integer sum over rows i of weights[i] * u[i][j]."""
    if len(weights) != u.m:
        raise ValueError("weight vector does not match the row count")
    return _weighted_sums(u.array.T, weights)


def weighted_row_sums(u: GameMatrix, weights: Sequence[int]) -> list[int]:
    """For each row i, the integer sum over columns j of weights[j] * u[i][j]."""
    if len(weights) != u.n:
        raise ValueError("weight vector does not match the column count")
    return _weighted_sums(u.array, weights)


def _weighted_sums(arr: np.ndarray, weights: Sequence[int]) -> list[int]:
    """arr @ weights for a 0/1 array, in int64 when no sum can overflow and on
    Python ints otherwise (exact LP denominators can pass 2^62 on 64x64 games)."""
    top = max(map(abs, weights), default=0)
    dtype = np.int64 if top * len(weights) < _INT64_SAFE else object
    return (arr.astype(dtype) @ np.asarray(weights, dtype=dtype)).tolist()


def _check_sides(u: GameMatrix, mu: MixedStrategy, nu: MixedStrategy) -> None:
    if mu.side != "row":
        raise ValueError("first strategy must be the row player's")
    if len(mu) != u.m:
        raise ValueError(f"row strategy has {len(mu)} entries for {u.m} rows")
    if nu.side != "column":
        raise ValueError("second strategy must be the column player's")
    if len(nu) != u.n:
        raise ValueError(f"column strategy has {len(nu)} entries for {u.n} columns")


def expected_utility(u: GameMatrix, mu: MixedStrategy, nu: MixedStrategy) -> Fraction:
    """Row player's expected payoff sum_i sum_j mu_i nu_j u[i][j], exactly."""
    _check_sides(u, mu, nu)
    total = sum(p * r for p, r in zip(mu.nums, weighted_row_sums(u, nu.nums)) if p)
    return Fraction(total, mu.den * nu.den)


def security_levels(u: GameMatrix, mu: MixedStrategy, nu: MixedStrategy) -> tuple[Fraction, Fraction]:
    """(guarantee, cap): the least payoff `mu` secures against any column and
    the most any row earns against `nu`.  Every pair has guarantee <=
    expected_utility <= cap, so the two meet exactly at an equilibrium, and
    then at the value."""
    _check_sides(u, mu, nu)
    guarantee = Fraction(min(weighted_col_sums(u, mu.nums)), mu.den)
    cap = Fraction(max(weighted_row_sums(u, nu.nums)), nu.den)
    return guarantee, cap


# ---------------------------------------------------------------------------
# Dominance reduction


def reduce(u: GameMatrix) -> tuple[GameMatrix, tuple[int, ...], tuple[int, ...]]:
    """Iterated removal of duplicate and weakly dominated rows and columns.

    Rows are weakly dominated when pointwise <= a surviving row, columns when
    pointwise >= a surviving column (the column player minimizes).  Passes run
    rows first, then columns, to a fixpoint; on ties the smallest original
    index survives.  Returns the reduced matrix plus the kept original row and
    column indices, in order.
    """
    arr = u.array
    rows, cols = np.arange(u.m), np.arange(u.n)
    while True:  # a row pass on the columns it last saw removes nothing
        rows = rows[_dominance_keep(arr[np.ix_(rows, cols)], larger_survives=True)]
        kept = cols[_dominance_keep(arr[np.ix_(rows, cols)].T, larger_survives=False)]
        if len(kept) == len(cols):
            return GameMatrix._from_array(arr[np.ix_(rows, cols)]), tuple(rows.tolist()), tuple(cols.tolist())
        cols = kept


def _dominance_keep(vectors: np.ndarray, larger_survives: bool) -> list[int]:
    """Indices (ascending) of vectors not weakly dominated by another live vector.

    Live vectors, the first of each set of copies, are pairwise distinct, so
    dominance is a strict order on them: each dominated one lies below an
    undominated one.  Oriented so that the larger survives (columns are
    complemented), a vector lies below only vectors with more ones, so in
    order of falling count of ones, ties by index, each live vector is
    tested only against the undominated ones kept before it."""
    if not larger_survives:
        vectors = 1 - vectors
    # Bit-packed, each vector is one fixed-width byte key; the stable sort
    # behind return_index makes the smallest index its copies' representative.
    packed = np.ascontiguousarray(np.packbits(vectors, axis=1))
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    alive = np.unique(keys, return_index=True)[1]
    # v <= w iff v & ~w has no bit set, and packbits pads with zeros, which
    # never count: v & above[k] is zero iff the k-th kept vector dominates v.
    above, kept = np.empty_like(packed), []
    for i in alive[np.lexsort((alive, -vectors.sum(axis=1, dtype=np.int64)[alive]))].tolist():
        if (packed[i] & above[: len(kept)]).any(axis=1).all():
            above[len(kept)] = ~packed[i]
            kept.append(i)
    return sorted(kept)


# ---------------------------------------------------------------------------
# Text format: first line "m n", then m rows of space-separated 0/1 digits.


def parse_matrix(text: str) -> GameMatrix:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise IfGamesError("empty matrix file")
    head = lines[0].split()
    # ASCII digits only, as str.isdigit also takes '²', which int() refuses;
    # and at most 18, as no file lists 10^18 rows and int() refuses 4301.
    if len(head) != 2 or not all(w.isascii() and w.isdigit() and len(w) < 19 for w in head):
        raise IfGamesError(f"matrix header must be 'm n', got {lines[0]!r}")
    m, n = int(head[0]), int(head[1])
    if m < 1 or n < 1:
        raise IfGamesError(f"a game matrix needs at least one row and one column, got {m} x {n}")
    if len(lines) - 1 != m:
        raise IfGamesError(f"expected {m} matrix rows, found {len(lines) - 1}")
    digits = []
    for line in lines[1:]:
        entries = line.split()
        if len(entries) != n or not {"0", "1"}.issuperset(entries):
            raise IfGamesError(f"bad matrix row {line!r}")
        digits.append("".join(entries))
    # Every entry is checked above, so the fresh array is taken without a rescan or a copy.
    entries = np.frombuffer("".join(digits).encode("ascii"), dtype=np.uint8) - ord("0")
    return GameMatrix._from_array(entries.reshape(m, n))


def format_matrix(u: GameMatrix) -> str:
    # Each row is 2n bytes: a digit then a space per entry, the last space a newline.
    text = np.full((u.m, 2 * u.n), ord(" "), dtype=np.uint8)
    text[:, 0::2] = u.array + ord("0")
    text[:, -1] = ord("\n")
    return f"{u.m} {u.n}\n" + text.tobytes().decode("ascii")
