"""Exception types shared across the package."""


class GfdtdError(Exception):
    """Base class for all package errors."""


class ConfigurationError(GfdtdError):
    """Invalid grid/scheme/run configuration or mismatched array shapes."""


class DegenerateFieldError(GfdtdError):
    """Operation requested on a field that carries no probability mass."""


class NonHermitianError(GfdtdError):
    """An expectation value of the Hamiltonian came out with an imaginary
    part: the discrete operator is not symmetric."""


class RunIOError(GfdtdError):
    """Failure writing snapshot or log files during a run."""
