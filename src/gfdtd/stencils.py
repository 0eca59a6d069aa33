"""Spatial difference operators with zero-Dirichlet edges.

apply_laplacian is the 3-point (second-order) or 5-point (fourth-order)
central Laplacian; apply_b is the generator B = (hbar/2m) Laplacian - V/hbar
of the time stepper.  Their one pad-free kernel sums the neighbour pairs
f[i-d] + f[i+d] along each axis (zero past the edge: the truncated matrix),
scales and accumulates them, and adds the x and y sums before the diagonal
term, so on a square grid with V = V.T, B f.T is exactly (B f).T.
"""

from enum import Enum

import numpy as np

from .errors import ConfigurationError
from .fields import _check_shape

# bytes per slab of rows: the kernel's five slab-sized planes (1.25 MB)
# then stay in a 2 MB per-core L2 cache between its dozen passes
_SLAB_BYTES = 1 << 18


class StencilOrder(Enum):
    SECOND_ORDER = 2
    FOURTH_ORDER = 4

    @property
    def halo(self):
        return 1 if self is StencilOrder.SECOND_ORDER else 2

    @property
    def weights(self):
        """Per-axis weights: the centre, then the pairs at offsets +-1, +-2."""
        if self is StencilOrder.SECOND_ORDER:
            return (-2.0, 1.0)
        return (-30.0 / 12.0, 16.0 / 12.0, -1.0 / 12.0)


def _pair_sum(f, d, axis, out):
    """out[i] = f[i-d] + f[i+d] along ``axis``: one flat sum over the C-contiguous
    buffers, then the d cells at each end of every line keep their in-range one."""
    s = d * f.strides[axis] // f.itemsize
    flat = f.reshape(-1)
    np.add(flat[:-2 * s], flat[2 * s:], out=out.reshape(-1)[s:-s])
    f, out = f.swapaxes(0, axis), out.swapaxes(0, axis)
    out[:d] = f[d:2 * d]
    out[-d:] = f[-2 * d:-d]


def _kernel(f, v, steps, order, scale, hbar, out, pair, acc):
    """out = scale * Laplacian(f) - (v/hbar) * f; pair and acc are scratch."""
    for axis, h in enumerate(steps):
        a = out if axis == 0 else acc
        for d in range(1, order.halo + 1):
            _pair_sum(f, d, axis, pair)
            w = scale * order.weights[d] / h ** 2
            if d == 1:
                np.multiply(pair, w, out=a)
            else:
                pair *= w
                a += pair
    if len(steps) == 2:
        out += acc
    np.divide(v, -hbar, out=pair)
    pair += scale * order.weights[0] * sum(h ** -2 for h in steps)
    pair *= f
    out += pair


def _apply(component, v, grid, order, scale, hbar, out):
    """_kernel over slabs of leading-axis rows, each read with its halo rows."""
    f = np.ascontiguousarray(component, dtype=float)
    _check_shape(f, grid, "component")
    if out is None:
        out = np.empty_like(f)
    elif out.shape != f.shape or not out.flags.c_contiguous or np.may_share_memory(out, f):
        raise ConfigurationError("out must be a C-contiguous grid-shaped plane apart from the input")
    n, halo = f.shape[0], order.halo
    rows = min(n, max(2 * halo + 1, _SLAB_BYTES * n // f.nbytes))
    buf = np.empty((3, min(n, rows + 2 * halo)) + f.shape[1:])
    for start in range(0, n, rows):
        start = min(start, n - rows)  # the last slab overlaps its neighbour
        lo, hi = max(start - halo, 0), min(start + rows + halo, n)
        o, pair, acc = buf[:, :hi - lo]
        _kernel(f[lo:hi], v[lo:hi], (grid.dx, grid.dy)[:grid.dims], order, scale, hbar,
                o, pair, acc)
        out[start:start + rows] = o[start - lo:start - lo + rows]
    return out


def apply_laplacian(component, grid, order=StencilOrder.SECOND_ORDER, out=None):
    """(1/dx^2) d2x + (1/dy^2) d2y of one component (x term only in 1-D), in
    1/m^2; written to ``out`` when given, which must not overlap ``component``."""
    return _apply(component, np.broadcast_to(0.0, grid.shape), grid, order, 1.0, 1.0, out)


def apply_b(component, grid, potential, physics, order=StencilOrder.SECOND_ORDER,
            out=None):
    """B f = (hbar/2m) Laplacian(f) - (V/hbar) f in 1/s; ``out`` as in apply_laplacian."""
    _check_shape(potential.values, grid, "potential")
    return _apply(component, potential.values, grid, order,
                  physics.hbar / (2.0 * physics.mass), physics.hbar, out)


def apply_b_power(component, power, grid, potential, physics,
                  order=StencilOrder.SECOND_ORDER):
    """B applied ``power`` times (odd and positive): the exact matrix power
    of the Dirichlet-truncated operator."""
    if power < 1 or power % 2 == 0:
        raise ConfigurationError(f"power must be odd and positive, got {power}")
    out = np.asarray(component, dtype=float)
    for _ in range(power):
        out = apply_b(out, grid, potential, physics, order)
    return out
