"""Exception types shared across the package."""


class KerrlinkError(Exception):
    """Base class for all package-specific errors."""


class TailTooHeavy(KerrlinkError):
    """A coherent amplitude does not fit in the requested truncation."""


class UnknownMode(KerrlinkError):
    """A requested mode label is not part of the state."""


class ShapeMismatch(KerrlinkError):
    """Two states/operators do not share modes or truncation."""


class DegenerateLeadingCoefficient(KerrlinkError):
    """The leading target coefficient vanishes; the design polynomial degenerates."""


class NoSolution(KerrlinkError):
    """A network synthesis step has no solution for the given inputs."""


class NonConvergence(KerrlinkError):
    """An iterative search failed to converge.

    The best value found so far, if any, is attached as ``best``.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class DomainError(KerrlinkError):
    """An argument lies outside the mathematical domain of the function."""


class MemoryBudgetExceeded(KerrlinkError):
    """A dense simulation would allocate more than the package's memory budget."""
