"""Staggered leapfrog time steppers.

One step advances the real part from t_{n-1} to t_n using the imaginary
part at t_{n-1/2}, then the imaginary part to t_{n+1/2} using the new
real part, by a truncated Taylor series in odd powers of the generator B:

    real -= H imag,  then  imag += H real,  with
    H = 2 * sum_{p=0..N} (dt/2)^(2p+1) * (-1)^p/(2p+1)! * B^(2p+1)

N = 0 is the classic explicit FDTD update.  dt = mu * 2 m dx^2 / hbar.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .fields import PhysicalParams, WaveField
from .stencils import StencilOrder, apply_b

# |value| exceeding this multiple of the initial max aborts the run
DIVERGENCE_FACTOR = 1.0e10

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
        if not self.dt > 0:
            raise ConfigurationError("dt must be positive")

    @classmethod
    def from_mu(cls, N, order, mu, physics, grid):
        dt = mu * 2.0 * physics.mass * grid.dx ** 2 / physics.hbar
        return cls(N=N, order=order, mu=mu, dt=dt, physics=physics)

    def validate_against(self, grid):
        expected = self.mu * 2.0 * self.physics.mass * grid.dx ** 2 / self.physics.hbar
        if abs(self.dt - expected) > 1e-14 * expected:
            raise ConfigurationError(
                f"dt={self.dt} inconsistent with mu={self.mu} and dx={grid.dx}")

    def mesh_ratios(self, grid):
        """(r_x, r_y) = (dt/dx^2, dt/dy^2); r_y is None in 1-D."""
        rx = self.dt / grid.dx ** 2
        ry = self.dt / grid.dy ** 2 if grid.dims == 2 else None
        return rx, ry

    def series_coefficients(self):
        """2 * (dt/2)^(2p+1) / (2p+1)! for p = 0..N, as exact doubles."""
        half = 0.5 * self.dt
        return [2.0 * half ** (2 * p + 1) / math.factorial(2 * p + 1)
                for p in range(self.N + 1)]


def _horner(source, grid, potential, cfg):
    """H source as B(c_0 f - B^2(c_1 f - B^2(c_2 f ...))), c_p from
    series_coefficients: 2N+1 applications of B alternating between two
    buffers.  Returns the buffer holding the result."""
    coeffs = [-c if p % 2 else c for p, c in enumerate(cfg.series_coefficients())]
    u = np.multiply(source, coeffs[-1])
    v = np.empty_like(u)
    for a in reversed(coeffs[:-1]):
        apply_b(u, grid, potential, cfg.physics, cfg.order, out=v)
        apply_b(v, grid, potential, cfg.physics, cfg.order, out=u)
        np.multiply(source, a, out=v)
        u += v
    return apply_b(u, grid, potential, cfg.physics, cfg.order, out=v)


def step_real(field, potential, grid, cfg):
    """Updated real_part array (real advances t_{n-1} -> t_n)."""
    h = _horner(field.imag_part, grid, potential, cfg)
    return np.subtract(field.real_part, h, out=h)


def step_imag(field, potential, grid, cfg):
    """Updated imag_part array; real_part must already be at t_n."""
    h = _horner(field.real_part, grid, potential, cfg)
    return np.add(field.imag_part, h, out=h)


def step(field, potential, grid, cfg, max_abs_limit=None):
    """Advance one full step into new planes, real first, then imag from the
    new real.  Non-finite values, or any |value| above max_abs_limit (usually
    DIVERGENCE_FACTOR times the initial max), raise DivergenceError."""
    new_real = step_real(field, potential, grid, cfg)
    h = _horner(new_real, grid, potential, cfg)
    advanced = WaveField(new_real, np.add(field.imag_part, h, out=h),
                         field.real_time_index + 1)
    m = advanced.max_abs()
    if not np.isfinite(m) or (max_abs_limit is not None and m > max_abs_limit):
        raise DivergenceError(advanced.real_time_index)
    return advanced
