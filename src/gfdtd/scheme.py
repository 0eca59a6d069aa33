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
the old plane, is added inside B's slab loop (apply_b's add=).  The real
update runs on negated coefficients: B is odd in its input and
a - x is a + (-x) in IEEE arithmetic, so both updates share one code path.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .fields import PhysicalParams, WaveField
from .stencils import StencilOrder, apply_b

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


def _half(source, old, coeffs, u, grid, potential, cfg):
    """old + H source as a new plane, for H's signed Horner coefficients
    (-1)^p c_p; the scratch plane u and the new plane take turns as B's
    output."""
    new = np.empty(old.shape)
    np.multiply(source, coeffs[-1], out=u)
    for c in reversed(coeffs[:-1]):
        apply_b(u, grid, potential, cfg.physics, cfg.order, out=new)
        apply_b(new, grid, potential, cfg.physics, cfg.order, out=u, add=(c, source))
    return apply_b(u, grid, potential, cfg.physics, cfg.order, out=new, add=(1.0, old))


def step(field, potential, grid, cfg):
    """Advance one full step into new planes, real first, then imag from the
    new real, both half steps sharing one scratch plane; returned unchecked."""
    coeffs = [(-1) ** p * c for p, c in enumerate(cfg.series_coefficients())]
    u = np.empty(field.real_part.shape)
    new_real = _half(field.imag_part, field.real_part, [-c for c in coeffs], u,
                     grid, potential, cfg)
    return WaveField(new_real, _half(new_real, field.imag_part, coeffs, u,
                                     grid, potential, cfg))
