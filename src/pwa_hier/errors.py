"""Exception taxonomy shared by every module in the package.

All package errors derive from :class:`PwaHierError` so callers can catch
broadly; each also derives from the closest builtin (``ValueError`` for bad
inputs, ``RuntimeError`` for failures that arise mid-computation,
``LookupError`` for missing cells) so untargeted code behaves sensibly.
"""

from __future__ import annotations


class PwaHierError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(PwaHierError, ValueError):
    """Operands have incompatible shapes."""


class NonFiniteInputError(PwaHierError, ValueError):
    """An input array has NaN or infinite entries."""


# -- polytope --------------------------------------------------------------

class NoCellError(PwaHierError, LookupError):
    """No partition cell contains the queried state (within slack)."""


class UnboundedError(PwaHierError, ValueError):
    """Polyhedron has a nontrivial recession direction."""


class EmptyError(PwaHierError, ValueError):
    """Polyhedron has no feasible point."""


class NotTwoDError(PwaHierError, ValueError):
    """Operation requires a two-dimensional polyhedron."""


# -- systems ---------------------------------------------------------------

class NotHurwitzError(PwaHierError, ValueError):
    """Matrix has an eigenvalue with real part above the stability margin."""


# -- relation --------------------------------------------------------------

class NoFeasiblePairingError(PwaHierError, ValueError):
    """No abstraction mode admits a relation for some concrete mode."""


class SingularBBtError(PwaHierError, ValueError):
    """Input matrix is (numerically) zero, no feedthrough can be derived."""


class UncertifiedRelationError(PwaHierError, ValueError):
    """Relation residual exceeds the certification tolerance."""


# -- certificate -----------------------------------------------------------

class NotSymmetricError(PwaHierError, ValueError):
    """Matrix is asymmetric beyond the accepted relative tolerance."""


class NegativeQuadFormError(PwaHierError, ValueError):
    """Quadratic form evaluated negative beyond numerical tolerance."""


class SynthesisFailedError(PwaHierError, RuntimeError):
    """No grid point produced a feasible certificate."""


class InfeasibleCertificateError(PwaHierError, ValueError):
    """Certificate data are out of range or fail their matrix-inequality margins."""


class DegenerateStateError(PwaHierError, ValueError):
    """Simulation-function value too small for a directional derivative."""


# -- simulator -------------------------------------------------------------

class NonFiniteStateError(PwaHierError, RuntimeError):
    """Integration produced NaN or infinity."""


class EmptyScheduleError(PwaHierError, ValueError):
    """Reference schedule has no waypoints."""


class NonMonotoneTimesError(PwaHierError, ValueError):
    """Reference waypoint times are not strictly increasing from zero."""


class UncertifiedModeError(PwaHierError, RuntimeError):
    """Trajectory entered a mode/pair without a certificate."""


class EmptyTrajectoryError(PwaHierError, ValueError):
    """Requested horizon or step width produces no trajectory, or one with
    more samples than can be allocated."""


# -- model files / CLI -----------------------------------------------------

class ParseError(PwaHierError, ValueError):
    """Model file is not syntactically valid (message carries line/column)."""


class ModelError(PwaHierError, ValueError):
    """Model data fail validation: a syntactically valid model file, or a
    model object built in code, with a value outside its allowed range."""
