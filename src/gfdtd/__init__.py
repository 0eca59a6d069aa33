"""Generalized FDTD solver for the 1-D/2-D time-dependent Schrodinger
equation, with Von Neumann stability analysis and a barrier-scattering
scenario driver."""

from .errors import (ConfigurationError, DegenerateFieldError, GfdtdError,
                     NonHermitianError, RunIOError)
from .fields import (ANGSTROM, ELECTRON_MASS, EV, HBAR, GridSpec, PhysicalParams,
                     PotentialField, WaveField, norm, normalize)
from .stencils import StencilOrder, apply_b, apply_b_power, apply_laplacian
from .scheme import Propagator, SchemeConfig, step
from .stability import (StabilityReport, Verdict, amplification_roots,
                        endpoint_condition, endpoint_x, truncated_sine, wavenumber_scan)
from .scenarios import (BarrierSpec, GaussianPacketSpec, RunLog, RunRecord,
                        barrier_potential, energy_expectation, free_packet_1d,
                        gaussian_packet_1d, gaussian_packet_2d, potential_bounds, run)
from .config import RunConfig, parse_config
from .snapshots import (read_diagonal_snapshot, read_field_dump,
                        write_diagonal_snapshot, write_field_dump, write_runlog)

__version__ = "0.1.0"

__all__ = [
    "ANGSTROM", "ELECTRON_MASS", "EV", "HBAR",
    "GridSpec", "PhysicalParams", "PotentialField", "WaveField",
    "norm", "normalize",
    "StencilOrder", "apply_b", "apply_b_power", "apply_laplacian",
    "Propagator", "SchemeConfig", "step",
    "StabilityReport", "Verdict", "amplification_roots",
    "endpoint_condition", "endpoint_x", "truncated_sine", "wavenumber_scan",
    "BarrierSpec", "GaussianPacketSpec", "RunLog", "RunRecord",
    "barrier_potential", "energy_expectation", "free_packet_1d",
    "gaussian_packet_1d", "gaussian_packet_2d", "potential_bounds", "run",
    "RunConfig", "parse_config",
    "read_diagonal_snapshot", "read_field_dump", "write_diagonal_snapshot",
    "write_field_dump", "write_runlog",
    "ConfigurationError", "DegenerateFieldError", "GfdtdError",
    "NonHermitianError", "RunIOError",
]
