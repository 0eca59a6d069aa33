"""Staggered leapfrog time steppers.

One step advances the real part from t_{n-1} to t_n using the imaginary
part at t_{n-1/2}, then the imaginary part to t_{n+1/2} using the new
real part, by a truncated Taylor series in odd powers of the generator B:

    real -= H imag,  then  imag += H real,  with
    H = 2 * sum_{p=0..N} (dt/2)^(2p+1) * (-1)^p/(2p+1)! * B^(2p+1)

N = 0 is the classic explicit FDTD update.  dt = mu * 2 m dx^2 / hbar.

A half step writes old ± H source straight into the new field's plane, with
H source in nested-sine form, dt B(f - r_0 B^2(f - r_1 B^2(f - ...))) and
r_p = (dt/2)^2/((2p+2)(2p+3)): 2N+1 calls of the bound B (stencils.bind_b),
alternating between the new plane and, for N >= 1, one scratch plane shared
by both half steps.  Each call folds its scalar (-r_p, or ±dt last) into B's
weights and adds its f term, or at last the old plane, inside B's slab loop,
so no pass scales or adds a whole plane; at N = 0 a step allocates only the
new field's two planes.  A Propagator binds B once and checks each step's
field; step() is one step through a Propagator of its own.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .fields import PhysicalParams, WaveField, _check_shape
from .stencils import StencilOrder, bind_b

MAX_TRUNCATION_INDEX = 8  # keeps (2N+1)! exactly representable


@dataclass(frozen=True)
class SchemeConfig:
    """Truncation index, stencil order and time step for one run; dt must
    equal mu * 2 m dx^2 / hbar for the grid, so build instances via from_mu."""

    N: int
    order: StencilOrder
    mu: float
    dt: float
    physics: PhysicalParams

    def __post_init__(self):
        if self.N < 0 or self.N > MAX_TRUNCATION_INDEX:
            raise ConfigurationError(
                f"truncation index must be in [0, {MAX_TRUNCATION_INDEX}], got {self.N}")
        if not self.mu > 0:
            raise ConfigurationError("mu must be positive")
        if not 0 < self.dt < math.inf:
            raise ConfigurationError(f"dt must be positive and finite, got {self.dt}")

    @classmethod
    def from_mu(cls, N, order, mu, physics, grid):
        dt = mu * 2.0 * physics.mass * (grid.dx * grid.dx) / physics.hbar
        return cls(N=N, order=order, mu=mu, dt=dt, physics=physics)

    def horner_ratios(self):
        """The nested-sine form's r_p = (dt/2)^2 / ((2p+2)(2p+3)), p < N; inf past
        the float range (numpy's float64 does not raise), so such a run diverges."""
        half = np.float64(0.5 * self.dt)
        return [float(half * half / ((2 * p + 2) * (2 * p + 3))) for p in range(self.N)]


class Propagator:
    """Steps fields of one grid under one potential and SchemeConfig, one at a
    time: B is bound once (b, which the run's observations share; one slab
    scratch), and dt and the Horner ratios are kept.  V is read when B is
    bound, so the potential must not change while the Propagator steps.  A
    misshapen potential or field raises ConfigurationError."""

    __slots__ = ("_grid", "b", "_dt", "_ratios")

    def __init__(self, grid, potential, cfg):
        self._grid, self.b = grid, bind_b(grid, potential, cfg.physics, cfg.order)
        self._dt, self._ratios = cfg.dt, cfg.horner_ratios()

    def _half(self, source, old, dt, u):
        """old + dt * B(f - r_0 B^2(f - ...)) for f = source, as a new plane."""
        b, new, g = self.b, np.empty(old.shape), source
        for r in reversed(self._ratios):
            b(g, new)
            g = b(new, u, -r, source)
        return b(g, new, dt, old)

    def step(self, field):
        """Advance one full step into new planes; no divergence check."""
        _check_shape(field.real_part, self._grid, "field")   # imag's shape is real's
        u = np.empty(field.real_part.shape) if self._ratios else None
        new_real = self._half(field.imag_part, field.real_part, -self._dt, u)
        return WaveField(new_real, self._half(new_real, field.imag_part, self._dt, u))


def step(field, potential, grid, cfg):
    """One full step: Propagator(grid, potential, cfg).step(field)."""
    return Propagator(grid, potential, cfg).step(field)
