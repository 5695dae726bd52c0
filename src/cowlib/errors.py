"""Exception types shared across the package."""


class CowlibError(Exception):
    """Base class for all errors raised by cowlib."""


class IntegrationError(CowlibError):
    """Quadrature did not resolve an integral to the requested tolerance.

    Carries the estimate in ``estimate`` and its estimated absolute error
    (what halving every panel moved it by) in ``error``.
    """

    def __init__(self, message, estimate, error):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


class ConstructionError(CowlibError):
    """Invalid parameters when building a density or model."""


class SingularModelError(CowlibError):
    """The component densities are (numerically) linearly dependent, or a W unusable."""


class IllConditionedBasisError(SingularModelError):
    """A W matrix, classic or cow, is not positive definite or past ``cows.CONDITION_LIMIT``."""


class EvaluationError(CowlibError):
    """A weight or density evaluation hit an invalid point."""


class NonConvergenceError(CowlibError):
    """An iterative procedure failed to converge.

    ``trace`` holds the iteration history when available.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
