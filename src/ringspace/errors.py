"""Exception hierarchy shared by all ringspace modules.

Every failure mode raised by the library derives from :class:`RingspaceError`
so callers (notably the CLI) can map errors to exit codes without inspecting
messages.
"""


class RingspaceError(Exception):
    """Base class for all ringspace errors."""


class GeometryError(RingspaceError):
    """Domain data is invalid: radius outside (0, 1), point off the open
    annulus, or pole too close to the boundary."""


class ArgumentError(RingspaceError):
    """An argument violates an operation's precondition (too few quadrature
    nodes, non-conjugate-symmetric boundary data, unknown component index)."""


class SingularGramError(RingspaceError):
    """A weighted Gram matrix is numerically singular after diagonal
    equilibration (scaled condition number above 1e14)."""


class SingularConstraintsError(RingspaceError):
    """Interpolation constraints of a least-norm problem are linearly
    dependent (for example a repeated zero beyond window capacity)."""


class ZeroOnContourError(RingspaceError):
    """Argument-principle counting was attempted along a circle on which the
    function nearly vanishes (min modulus below 1e-10)."""


class ConvergenceError(RingspaceError):
    """An iterative refinement (Newton polish of a zero) stalled, or a series
    truncation would pass its cap.

    Carries ``best_residual`` when available so callers can report the
    partial result.
    """

    def __init__(self, msg, best_residual=None):
        super().__init__(msg)
        self.best_residual = best_residual


class PeriodError(RingspaceError):
    """The closed-form period check of ``inner._close_period`` left a residual
    above tolerance for an inner-function exponent."""


class SolverError(RingspaceError):
    """The biharmonic probe's radial systems are singular or give no finite solution."""
