"""Exception types shared across the package.

The CLI maps these onto exit codes: infeasibility (RangeInfeasible,
CompatibilityViolated) exits 2, solver breakdowns (SolverDiverged,
NumericalFailure) exit 3, and everything else that is the
caller's fault exits 1.
"""


class NldiffError(Exception):
    """Base class for all package errors."""


# ---- construction / input errors -------------------------------------------

class InvalidParameter(NldiffError, ValueError):
    """A parameter is outside its documented range or malformed."""


class IsolatedNode(InvalidParameter):
    """A graph node has zero weighted degree."""


class AsymmetricWeights(InvalidParameter):
    """A weight matrix expected to be symmetric is not."""


class EmptyStencil(InvalidParameter):
    """A grid point sees zero total kernel mass."""


class InvalidExponent(InvalidParameter):
    """Flux exponent p must satisfy p > 1."""


class WeightOutOfRange(InvalidParameter):
    """Flux weight vector violates 0 < c <= phi <= C."""


class MissingValues(InvalidParameter):
    """A node vector lacks entries required by the operation."""


class EmptyZ(InvalidParameter):
    """The mean-anchor set Z is empty or has zero measure."""


class NotConnected(InvalidParameter):
    """The node set is not m-connected where connectivity is required."""


class TooLarge(InvalidParameter):
    """Instance exceeds the size limit of a brute-force reference."""


class NonlinearCase(InvalidParameter):
    """The closed-form linear reference only covers p=2 with identity graphs."""


# ---- feasibility ------------------------------------------------------------

class RangeInfeasible(NldiffError):
    """The data mass lies outside the open interval the ranges allow."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class CompatibilityViolated(NldiffError):
    """Time-dependent data violates the mass-compatibility conditions."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


# ---- numerics ----------------------------------------------------------------

class SolverDiverged(NldiffError):
    """A Newton solve stalled, or its result failed verification."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NumericalFailure(NldiffError):
    """A root-finding bracket or other numeric precondition failed."""
