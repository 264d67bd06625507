"""Exception types shared across the solver modules."""


class AcylSolitonError(Exception):
    """Base class for all library errors."""


class DomainError(AcylSolitonError):
    """A precondition on the input data is violated."""


class PositivityLost(AcylSolitonError):
    """The deformed Kahler coefficient a + phi''/2 is not positive.

    Carries the worst node, the argmin of (a + phi''/2)/a, for reproducible failures.
    """

    def __init__(self, node, t, value):
        self.node = int(node)
        self.t = float(t)
        self.value = float(value)
        super().__init__(
            f"metric positivity lost at node {self.node} (t={self.t:.6g}, "
            f"a + phi''/2 = {self.value:.6g})"
        )


class SingularSystem(AcylSolitonError):
    """The assembled linear system could not be solved.

    Usually indicates a boundary-policy or weight violation."""


class NewtonDiverged(AcylSolitonError):
    """Newton iteration failed to reach the residual tolerance."""

    def __init__(self, message, iterations=None, residual=None):
        self.iterations = iterations
        self.residual = residual
        super().__init__(message)


class ContinuityStalled(AcylSolitonError):
    """The continuation step size was halved below the configured minimum."""

    def __init__(self, message, s_reached, records):
        self.s_reached = float(s_reached)
        self.records = records
        super().__init__(message)


class ConfigError(AcylSolitonError):
    """A run configuration file is malformed."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
