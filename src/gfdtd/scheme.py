"""Staggered leapfrog time steppers.

One step advances the real part from t_{n-1} to t_n using the imaginary
part at t_{n-1/2}, then the imaginary part to t_{n+1/2} using the new
real part, by a truncated Taylor series in odd powers of the generator B:

    real -= H imag,  then  imag += H real,  with
    H = 2 * sum_{p=0..N} (dt/2)^(2p+1) * (-1)^p/(2p+1)! * B^(2p+1)

N = 0 is the classic explicit FDTD update.  dt = mu * 2 m dx^2 / hbar.

A half step writes old ± H source straight into the new field's plane.  H
source is evaluated in Horner form, B(c_0 f - B^2(c_1 f - B^2(c_2 f ...))),
as 2N+1 applications of B that alternate between the new plane and one
scratch plane shared by both half steps; each c_p f term, and at the end
the old plane, is added inside B's slab loop (the bound B's a, src).  The real
update runs on negated coefficients: B is odd in its input and
a - x is a + (-x) in IEEE arithmetic, so both updates share one code path.
A Propagator binds B once (stencils.bind_b) and checks each step's field;
step() is one step through a Propagator of its own.
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

    def series_coefficients(self):
        """2 * (dt/2)^(2p+1) / (2p+1)! for p = 0..N, as exact doubles; inf past
        the float range (numpy's pow does not raise), so such a run diverges."""
        half = np.float64(0.5 * self.dt)
        return [float(2.0 * half ** (2 * p + 1) / math.factorial(2 * p + 1))
                for p in range(self.N + 1)]


class Propagator:
    """Steps fields of one grid under one potential and SchemeConfig, one at a
    time: B is bound once (stencils.bind_b, one slab scratch) and both half
    steps' signed coefficients kept.  V is read when B is bound, so the
    potential must not change while the Propagator steps.  A misshapen
    potential or field raises ConfigurationError."""

    __slots__ = ("_grid", "_b", "_real", "_imag")

    def __init__(self, grid, potential, cfg):
        self._grid, self._b = grid, bind_b(grid, potential, cfg.physics, cfg.order)
        self._imag = [(-1) ** p * c for p, c in enumerate(cfg.series_coefficients())]
        self._real = [-c for c in self._imag]

    def _half(self, source, old, coeffs, u):
        """old + H source as a new plane, for H's signed coefficients (-1)^p c_p."""
        b, new = self._b, np.empty(old.shape)
        np.multiply(source, coeffs[-1], out=u)
        for c in reversed(coeffs[:-1]):
            b(u, new)
            b(new, u, c, source)
        return b(u, new, 1.0, old)

    def step(self, field):
        """Advance one full step into new planes; no divergence check."""
        _check_shape(field.real_part, self._grid, "field")   # imag's shape is real's
        u = np.empty(field.real_part.shape)
        new_real = self._half(field.imag_part, field.real_part, self._real, u)
        return WaveField(new_real, self._half(new_real, field.imag_part, self._imag, u))


def step(field, potential, grid, cfg):
    """One full step: Propagator(grid, potential, cfg).step(field)."""
    return Propagator(grid, potential, cfg).step(field)
