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
new field's two planes, as one (2, *shape) block.  A Propagator binds B once
and checks each step's field; step() is one step through a Propagator of its own.
Flushing: the first step fixes a level, max(stencils.FLOOR, 2^-100 of the field's max
|value|) or FLOOR if that is not finite, below which a cell (a tiny second packet too) reads
0.  Each half step's last call flushes the new plane; the first new plane with no cell below
the level, 0 included, ends flushing (zeros past a packet's cut tails keep making such
cells).  While it flushes, step() finds the rows of each input plane that are not all +0.0,
and each call of a half step computes only the slabs within 2N+1 halos of them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .fields import PhysicalParams, WaveField, _check_shape
from .stencils import FLOOR, StencilOrder, _weights, bind_b

MAX_TRUNCATION_INDEX = 8  # keeps (2N+1)! exactly representable


def _check_truncation_index(N):
    """ConfigurationError unless N is an integer, numpy's too, in [0, MAX_TRUNCATION_INDEX]."""
    if not isinstance(N, (int, np.integer)) or not 0 <= N <= MAX_TRUNCATION_INDEX:
        raise ConfigurationError(
            f"truncation index must be an integer in [0, {MAX_TRUNCATION_INDEX}], got {N!r}")


def _nonzero_rows(plane):
    """(first, stop) of the rows of plane (cells in 1-D) that hold a cell other than +0.0,
    -0.0 and NaN included; all rows if none.  argmax on the row mask makes no index array."""
    bits = np.ascontiguousarray(plane, float).view(np.int64).reshape(len(plane), -1)
    held = np.bitwise_or.reduce(bits, axis=1) != 0   # any() would cast through an 8 KB buffer
    return int(held.argmax()), held.size - int(held[::-1].argmax())


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
        _check_truncation_index(self.N)
        _weights(self.order)   # a StencilOrder, else ConfigurationError
        if not self.mu > 0:
            raise ConfigurationError("mu must be positive")
        if not 0 < self.dt < math.inf:
            raise ConfigurationError(f"dt must be positive and finite, got {self.dt}")

    @staticmethod
    def dt_from_mu(mu, physics, grid):   # a mu or, element by element, an array of them
        return mu * 2.0 * physics.mass * (grid.dx * grid.dx) / physics.hbar

    @classmethod
    def from_mu(cls, N, order, mu, physics, grid):
        return cls(N=N, order=order, mu=mu, dt=cls.dt_from_mu(mu, physics, grid), physics=physics)

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

    __slots__ = ("_grid", "b", "_dt", "_ratios", "_floor", "_halos")

    def __init__(self, grid, potential, cfg):
        self._grid, self.b = grid, bind_b(grid, potential, cfg.physics, cfg.order)
        # the flush level: 0.0 until the first step fixes it, None once off
        self._dt, self._ratios, self._floor = cfg.dt, cfg.horner_ratios(), 0.0
        self._halos = (2 * cfg.N + 1) * cfg.order.halo

    def _half(self, source, old, dt, u, new, reach):
        """new = old + dt * B(f - r_0 B^2(f - ...)) for f = source, every call within reach."""
        b, g = self.b, source
        for r in reversed(self._ratios):
            b(g, new, reach=reach)
            g = b(new, u, -r, source, reach=reach)
        if self._floor:   # the switch is the Propagator's: step one field's sequence
            if not b(g, new, dt, old, floor=self._floor, reach=reach):
                self._floor = None
            return new
        return b(g, new, dt, old, reach=reach)

    def step(self, field):
        """Advance one full step into a new (2, *shape) block; no divergence check."""
        _check_shape(field.real_part, self._grid, "field")   # imag's shape is real's
        u = np.empty(field.real_part.shape) if self._ratios else None
        # one allocation: the block a freed field leaves is reused whole, where
        # two planes, by the heap's layout, can be trimmed and faulted back in
        block = np.empty((2, *field.real_part.shape))
        real, imag = block[0], block[1]   # indexing: unpacking iterates, 1 µs more
        reach, h = None, self._halos
        if self._floor == 0.0:   # 2^-100 sits 2^47 below the peak's round-off
            m = field.max_abs()
            self._floor = max(FLOOR, 2.0 ** -100 * m) if m < math.inf else FLOOR
        if self._floor:   # new is +0.0 past h rows of source's nonzero rows, and old's
            (i0, i1), (r0, r1) = _nonzero_rows(field.imag_part), _nonzero_rows(field.real_part)
            reach = min(i0 - h, r0), max(i1 + h, r1)
        self._half(field.imag_part, field.real_part, -self._dt, u, real, reach)
        reach = reach and (reach[0] - h, reach[1] + h)   # real's rows, then imag's within them
        return WaveField(real, self._half(real, field.imag_part, self._dt, u, imag, reach))


def step(field, potential, grid, cfg):
    """One full step: Propagator(grid, potential, cfg).step(field)."""
    return Propagator(grid, potential, cfg).step(field)
