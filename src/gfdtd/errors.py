"""Exception types shared across the package."""


class GfdtdError(Exception):
    """Base class for all package errors."""


class ConfigurationError(GfdtdError):
    """Invalid grid/scheme/run configuration or mismatched array shapes."""


class DegenerateFieldError(GfdtdError):
    """Operation requested on a field that carries no probability mass."""


class DivergenceError(GfdtdError):
    """Numerical blow-up detected during time stepping.

    Carries the step index at which the solution exceeded the divergence
    threshold (or turned non-finite).
    """

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"solution diverged at step {step}")


class NonHermitianError(GfdtdError):
    """An expectation value of the Hamiltonian came out with an imaginary
    part: the discrete operator is not symmetric."""


class RunIOError(GfdtdError):
    """Failure writing snapshot or log files during a run."""
