"""Exception hierarchy shared by all modules."""


class SymbidiscError(Exception):
    """Base class for all domain errors raised by this package."""


class NonFiniteInput(SymbidiscError, ValueError):
    """Input matrix has a NaN or infinite entry."""


class NotHermitian(SymbidiscError):
    pass


class IndefiniteInput(SymbidiscError):
    pass


class DimensionMismatch(SymbidiscError):
    pass


class TruncationTooSmall(SymbidiscError):
    pass


class NotAContraction(SymbidiscError):
    pass


class NotCnu(SymbidiscError):
    """Input has a unitary reducing part (unimodular eigenvalue)."""


class ResolventSingular(SymbidiscError):
    pass


class NotCommuting(SymbidiscError):
    pass


class NotUnitary(SymbidiscError):
    pass


class ClassificationFailed(SymbidiscError):
    pass


class NotPureModelForm(SymbidiscError):
    pass


class NotADilation(SymbidiscError):
    pass


class ResidualTooLarge(SymbidiscError):
    pass


class ProblemTooLarge(SymbidiscError):
    """A dense system would exceed its fixed memory budget, or a bound the float range."""
