"""Exception types shared across the package.

Split so the CLI can map argument problems to exit code 2 and genuine
numerical failures to exit code 3.
"""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class PreconditionError(ValueError):
    """Structurally valid input that violates an operation's precondition."""


class IntegrationError(RuntimeError):
    """ODE integration failed; ``last_r`` is the last good abscissa."""

    def __init__(self, message, last_r=None):
        super().__init__(message)
        self.last_r = last_r


class SingularityError(ArithmeticError):
    """A Riccati profile was evaluated at (or too close to) its blow-up.

    ``r_singularity`` carries the located blow-up radius.
    """

    def __init__(self, message, r_singularity=None):
        super().__init__(message)
        self.r_singularity = r_singularity


class NoSingularityError(RuntimeError):
    """``singularity_radius`` found no blow-up radius: its ``G`` is not
    positive at the top of the closed-form bracket, or the root misses the
    residual test."""


class SearchError(RuntimeError):
    """An eigenvalue or root search failed; ``diagnostics`` is a dict."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not reach the requested tolerance."""


class GeometryError(ValueError):
    """A chart is degenerate where a geometric quantity was requested."""


NUMERICAL_ERRORS = (
    IntegrationError,
    SingularityError,
    NoSingularityError,
    SearchError,
    QuadratureError,
    GeometryError,
)
