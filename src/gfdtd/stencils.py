"""Spatial difference operators with zero-Dirichlet edges.

apply_laplacian is the 3-point (second-order) or 5-point (fourth-order)
central Laplacian; apply_b is the generator B = (hbar/2m) Laplacian - V/hbar
of the time stepper.  Both run one loop over slabs of rows that writes
straight into the output, so only the out slab and two scratch slabs sit in
L2.  Per axis it sums the pairs f[i-d] + f[i+d] at flat offsets of the input
(a neighbour past the edge is dropped: the truncated matrix), scales and
accumulates them, and adds the x and y sums before the diagonal term, so on
a square grid with V = V.T, B f.T is exactly (B f).T.
"""

from enum import Enum

import numpy as np

from .errors import ConfigurationError
from .fields import _check_shape

# bytes per slab of rows: the out slab and the two scratch slabs (768 KiB)
# then stay in a 2 MB per-core L2 cache between the loop's dozen passes
_SLAB_BYTES = 1 << 18


class StencilOrder(Enum):
    SECOND_ORDER = 2
    FOURTH_ORDER = 4

    @property
    def halo(self):
        return 1 if self is StencilOrder.SECOND_ORDER else 2


# per-axis weights: the centre, then the pairs at offsets +-1, +-2
_WEIGHTS = {StencilOrder.SECOND_ORDER: (-2.0, 1.0),
            StencilOrder.FOURTH_ORDER: (-30.0 / 12.0, 16.0 / 12.0, -1.0 / 12.0)}


def _apply(component, v, grid, order, scale, hbar, out):
    """out = scale * Laplacian(f) - (v/hbar) * f over slabs of leading-axis rows."""
    f = np.ascontiguousarray(component, dtype=float)
    _check_shape(f, grid, "component")
    if out is None:
        out = np.empty_like(f)
    elif out.shape != f.shape or not out.flags.c_contiguous or np.may_share_memory(out, f):
        raise ConfigurationError("out must be a C-contiguous grid-shaped plane apart from the input")
    weights, steps = _WEIGHTS[order], (grid.dx, grid.dy)[:grid.dims]
    n, width = f.shape[0], f.size // f.shape[0]
    # (flat stride, pair weights) per axis, and the folded centre weight
    axes = [(stride, [scale * w / h ** 2 for w in weights[1:]])
            for stride, h in zip((width, 1), steps)]
    centre = scale * weights[0] * sum(h ** -2 for h in steps)
    flat, out_flat = f.reshape(-1), out.reshape(-1)
    rows = min(n, max(1, _SLAB_BYTES * n // f.nbytes))
    scratch = np.empty((len(axes), rows * width))  # pair sums; the y sum in 2-D
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        lo, hi = start * width, stop * width
        o, p, acc = out_flat[lo:hi], scratch[0, :hi - lo], scratch[-1, :hi - lo]
        for axis, (stride, ws) in enumerate(axes):
            dest = o if axis == 0 else acc
            for d, w in enumerate(ws, 1):
                # q = f[i-s] + f[i+s] at flat offsets; cells in [lo, a) lack the
                # neighbour before (first rows), cells in [b, hi) the one after
                s, q = d * stride, (dest if d == 1 else p)
                a = min(max(lo, s), hi)
                b = max(min(hi, flat.size - s), a)
                np.add(flat[a - s:b - s], flat[a + s:b + s], out=q[a - lo:b - lo])
                if a > lo:
                    q[:a - lo] = flat[lo + s:a + s]
                if b < hi:
                    q[b - lo:] = flat[b - s:hi - s]
                if axis == 1:  # the d end cells of each row keep their in-range one
                    q_rows, f_rows = q.reshape(-1, width), f[start:stop]
                    q_rows[:, :d] = f_rows[:, d:2 * d]
                    q_rows[:, -d:] = f_rows[:, -2 * d:-d]
                q *= w
                if d > 1:
                    dest += q
        if len(axes) == 2:
            o += acc
        np.divide(v[start:stop], -hbar, out=p.reshape(-1, *f.shape[1:]))
        p += centre
        p *= flat[lo:hi]
        o += p
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
