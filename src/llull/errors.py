"""Exception types shared across the package."""

from __future__ import annotations


class LlullError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LlullError):
    """Malformed input document (ballot file or matrix file)."""


class BallotSyntaxError(ParseError):
    """Ballot document violates the ballot grammar."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnknownOptionError(ParseError):
    """A label does not belong to the option set."""

    def __init__(self, label: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"unknown option {label!r}{where}")
        self.label = label
        self.line = line


class EmptyProfileError(ParseError):
    """Ballot document contains no ballots."""


class WeightOverflowError(ParseError):
    """Ballot weights too large to count exactly in int64 units."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class MatrixFormatError(ParseError):
    """Matrix document does not match the JSON or CSV schema."""


class MatrixValidationError(LlullError):
    """Matrix entries violate the Llull constraints beyond tolerance."""


class EmptySubsetError(LlullError):
    """A subset argument is empty."""


class NotAutonomousError(LlullError):
    """The given option subset is not treated as a block by every ballot."""


class BadRepresentativeError(LlullError):
    """Contraction representative clashes with an option outside the block."""


class ZeroTurnoutError(LlullError):
    """A pair of options was compared by no voter."""

    def __init__(self, x: str, y: str):
        super().__init__(f"no voter compared {x!r} and {y!r} (zero turnout)")
        self.pair = (x, y)


class UndefinedRatioError(LlullError):
    """Score ratio v[x, y] / v[y, x] with a zero denominator."""


class NotAPermutationError(LlullError):
    """Order argument is not a permutation of the option set."""


class TieGroupTooLargeError(LlullError):
    """A group of options tied in mean score is too large to search."""

    def __init__(self, size: int, cap: int):
        super().__init__(f"tie group of {size} options exceeds the search cap {cap}")
        self.size = size
        self.cap = cap


class NotCLCError(LlullError):
    """Matrix does not have CLC structure under any admissible order."""


class NotIrreducibleError(LlullError):
    """Matrix has more than one irreducible component."""


class NoTopDominantComponentError(LlullError):
    """No irreducible component dominates all the others."""


class NonPositiveStrengthError(LlullError):
    """Likelihood evaluation needs strictly positive strengths."""


class MaxIterExceededError(LlullError):
    """Solver hit the iteration cap; carries the best iterate found."""

    def __init__(self, residual: float, strengths, diagnostics):
        super().__init__(
            f"stationarity residual {residual:.3e} after {diagnostics.iterations} iterations"
        )
        self.residual = residual
        self.strengths = strengths
        self.diagnostics = diagnostics


class ProjectionPostconditionViolatedError(LlullError):
    """Constructed projection failed its structural checks (an internal bug)."""

    def __init__(self, witness):
        super().__init__(f"projection postcondition violated: {witness}")
        self.witness = witness


class InternalError(LlullError):
    """An invariant the implementation relies on failed at runtime."""


class HypothesisNotSatisfiedError(LlullError):
    """Input does not satisfy the hypothesis of the requested check."""


class NotAnImprovementError(LlullError):
    """Second matrix is not a single-option improvement of the first."""


class PowerIterationDivergedError(LlullError):
    """Power iteration did not settle within its iteration cap."""


class SingleOptionWarning(UserWarning):
    """Mean scores over a single option are a convention, not an average."""
