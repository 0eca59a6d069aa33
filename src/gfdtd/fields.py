"""Grids, wavefunctions, potentials and physical constants.

Everything downstream (stencils, time stepping, stability analysis,
scenarios) works in SI units: meters, seconds, Joules, kilograms.
Configuration layers convert from angstrom / eV at parse time.

The wavefunction is stored as two separate real arrays rather than one
complex array: the leapfrog scheme updates the real part at integer time
steps and the imaginary part at half steps, so the two planes never live
at the same instant.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DegenerateFieldError

# Physical constants (SI)
HBAR = 1.054e-34            # J*s, reduced Planck constant
ELECTRON_MASS = 9.10938e-31  # kg
EV = 1.602176634e-19         # J per electron volt
ANGSTROM = 1.0e-10           # m


@dataclass(frozen=True)
class GridSpec:
    """Uniform spatial grid, 1-D or 2-D.

    Grid points are addressed with 1-based indices j = 1..nx (and
    k = 1..ny in 2-D), matching the usual mesh-point numbering of the
    underlying scheme.  Arrays are plain 0-based numpy arrays; the offset
    only matters where indices appear in configuration (packet centers,
    barrier corners).
    """

    dims: int
    nx: int
    dx: float
    ny: int | None = None
    dy: float | None = None

    def __post_init__(self):
        if self.dims not in (1, 2):
            raise ConfigurationError(f"dims must be 1 or 2, got {self.dims}")
        if self.nx < 5:
            raise ConfigurationError("nx must be >= 5 (fourth-order stencil halo)")
        if not self.dx > 0:
            raise ConfigurationError("dx must be positive")
        if self.dims == 2:
            if self.ny is None or self.ny < 5:
                raise ConfigurationError("ny must be >= 5 in 2-D")
            if self.dy is None or not self.dy > 0:
                raise ConfigurationError("dy must be positive in 2-D")
        elif self.ny is not None or self.dy is not None:
            raise ConfigurationError("ny/dy are not allowed in 1-D")

    @property
    def shape(self):
        return (self.nx,) if self.dims == 1 else (self.nx, self.ny)

    @property
    def spacing(self):
        """Cell length along each axis of shape: (dx,) or (dx, dy)."""
        return (self.dx,) if self.dims == 1 else (self.dx, self.dy)

    @property
    def cell_volume(self):
        """Cell length dx in 1-D, cell area dx*dy in 2-D."""
        return float(np.prod(self.spacing))


@dataclass(frozen=True)
class PhysicalParams:
    """Particle mass and reduced Planck constant."""

    mass: float = ELECTRON_MASS
    hbar: float = HBAR

    def __post_init__(self):
        if not self.mass > 0:
            raise ConfigurationError("mass must be positive")
        if not self.hbar > 0:
            raise ConfigurationError("hbar must be positive")
        if not math.isfinite(1.0 / float(self.hbar)):   # B scales V by -1/hbar
            raise ConfigurationError(f"1/hbar overflows for hbar = {self.hbar!r}")


def _check_shape(arr, grid, what):
    if arr.shape != grid.shape:
        raise ConfigurationError(
            f"{what} shape {arr.shape} does not match grid shape {grid.shape}"
        )


@dataclass(frozen=True)
class WaveField:
    """Split wavefunction on a grid.

    real_part samples psi_real at an integer time step; imag_part samples
    psi_imag staggered half a step later once a full step has been applied.
    """

    real_part: np.ndarray
    imag_part: np.ndarray

    def __post_init__(self):
        if self.real_part.shape != self.imag_part.shape:
            raise ConfigurationError("real_part and imag_part shapes differ")
        if np.iscomplexobj(self.real_part) or np.iscomplexobj(self.imag_part):
            raise ConfigurationError("real_part and imag_part must be real planes")

    @classmethod
    def zeros(cls, grid):
        return cls(np.zeros(grid.shape), np.zeros(grid.shape))

    def max_abs(self):
        """Largest |value| over both planes, as max and -min; NaN if either holds one."""
        r, i = self.real_part, self.imag_part
        return float(np.maximum(np.maximum(r.max(), -r.min()), np.maximum(i.max(), -i.min())))


@dataclass(frozen=True)
class PotentialField:
    """Time-independent potential energy per grid point, in Joules.  values is
    a read-only view of the given array, not a copy: a bound B reads V once."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values).view()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if np.iscomplexobj(values):   # B would cut V to its real part
            raise ConfigurationError("potential must be real: V is an energy per grid point")
        if not np.isfinite(values).all():
            raise ConfigurationError("potential contains non-finite values")

    @classmethod
    def zeros(cls, grid):
        return cls(np.zeros(grid.shape))

    def bounds(self):
        """(lowest, highest) potential level, in Joules."""
        return float(self.values.min()), float(self.values.max())


def density(wf):
    """Probability density real^2 + imag^2 per grid point, as a new plane."""
    d = np.square(wf.real_part)
    d += np.square(wf.imag_part)
    return d


def norm(wf, grid, density_plane=None):
    """Total probability: the sum of density(wf), or of ``density_plane`` when
    the caller has built it already, times cell volume."""
    _check_shape(wf.real_part, grid, "field")
    d = density(wf) if density_plane is None else density_plane
    return float(d.sum()) * grid.cell_volume


def normalize(wf, grid):
    """Scale both components by the same factor so the norm becomes 1."""
    n = norm(wf, grid)
    if not 0.0 < n < math.inf:   # NaN fails both
        raise DegenerateFieldError(f"cannot normalize a field of norm {n}")
    scale = 1.0 / np.sqrt(n)
    return replace(wf, real_part=wf.real_part * scale, imag_part=wf.imag_part * scale)
