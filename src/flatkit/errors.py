"""Exception types shared across the toolkit."""

from __future__ import annotations


class FlatkitError(Exception):
    """Base class for all toolkit errors."""


class ParseError(FlatkitError):
    """Raised on malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(FlatkitError):
    """Raised when an identifier is not a chart symbol or known function."""

    def __init__(self, name: str, position: int = -1) -> None:
        where = f" (at position {position})" if position >= 0 else ""
        super().__init__(f"unknown symbol '{name}'{where}")
        self.name = name


class UnsupportedFunctionError(FlatkitError):
    """A function application outside the expression field (see `expr`)."""

    def __init__(self, application: str, reason: str) -> None:
        super().__init__(f"{application} is not supported: {reason}")
        self.reason = reason


class MonomialLimitError(FlatkitError):
    """A monomial needs more generators or a larger exponent than the packed
    format of `sympoly` holds (SLOTS, MAX_EXP)."""


class ChartMismatchError(FlatkitError):
    """Raised when expressions from different charts are combined."""


class ZeroDenominatorError(FlatkitError):
    """Raised when a denominator normalizes to the zero polynomial."""


class PoleError(FlatkitError):
    """Raised when evaluation hits a vanishing denominator."""

    def __init__(self, denominator: str) -> None:
        super().__init__(f"evaluation pole: denominator '{denominator}' vanishes")
        self.denominator = denominator


class StaleSamplePointError(FlatkitError):
    """Raised when a sample point predates a generator it is asked to value."""


class SampleExhaustedError(FlatkitError):
    """Raised when no admissible sample point is found within the try budget."""


class PrimeDenominatorError(FlatkitError):
    """A coefficient has no residue modulo the sampling prime."""

    def __init__(self, coefficient) -> None:
        super().__init__(
            f"coefficient {coefficient} has a denominator divisible by 2^61 - 1"
        )


class RankDisagreementError(FlatkitError):
    """Sampled rank and exact elimination disagree; the analysis must abort."""


class NotIntegrableError(FlatkitError):
    """Raised when first integrals are requested for a non-integrable span."""


class UnboundedRelativeDegreeError(FlatkitError):
    """No input dependence appeared within n Lie derivatives."""

    def __init__(self, component: int, bound: int) -> None:
        super().__init__(
            f"component {component}: no input dependence within {bound} derivatives"
        )


class InvalidIndicesError(FlatkitError):
    """Relative degrees incompatible with the state dimension."""


class DependentDifferentialsError(FlatkitError):
    """The two candidate output differentials are linearly dependent."""


# Each of these rejects a candidate output pair before any rank test; callers
# report it as a negative verdict on that pair, not as a fault.
CANDIDATE_ERRORS = (
    UnboundedRelativeDegreeError,
    InvalidIndicesError,
    DependentDifferentialsError,
)


class InputTransformError(FlatkitError):
    """A static-feedback matrix is singular."""


class AssumptionViolationError(FlatkitError):
    """A named precondition of a lemma or algorithm step fails."""

    def __init__(self, name: str, detail: str = "") -> None:
        extra = f": {detail}" if detail else ""
        super().__init__(f"assumption '{name}' violated{extra}")
        self.assumption = name


class ModelFileError(FlatkitError):
    """Raised on malformed or inconsistent model files."""
