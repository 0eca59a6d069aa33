"""Spatial difference operators with zero-Dirichlet edges.

apply_laplacian is the 3-point (second-order) or 5-point (fourth-order)
central Laplacian; apply_b is the generator B = (hbar/2m) Laplacian - V/hbar
of the time stepper.  Both run one loop over slabs of rows that writes
straight into the output, so only the out slab and two scratch slabs sit in
L2.  Per offset d it sums the pairs f[i-d] + f[i+d] of each axis into scratch
at flat offsets of the input (a neighbour past the edge is dropped: the
truncated matrix).  Axes whose folded weights w_d/h^2 are equal, x and y
where dx = dy, form one group: their pair sums are added and scaled once,
the first group's into out, every later one's accumulated into it.
Otherwise each axis is a group of its own.  Then comes the diagonal term, V
times -1/hbar plus the centre weight, times f; where V holds one level over
the slab's rows, that factor is one scalar, which saves two passes.  At
fourth order with a source term, a slab of a square grid takes 14 numpy
passes (12 at one level of V); with dx != dy it takes 16 (14), one scale
per axis and offset.  x + y is commutative, so on a square grid with
V = V.T, B f.T is exactly (B f).T.

_bind sets B up once (slab scratch, V, every slice and view of each slab)
and returns the loop, which checks nothing: call(f, out, scale, src) is
scale * B f + src, scale folded into each group's weight and the diagonal
(w * 1.0 is w, so apply_b's bits stay) and src added in the same slab, so
the stepper forms each Horner term without a whole-plane pass.  apply_b and
apply_laplacian validate, bind and call; the stepper binds B once (bind_b).
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


def axis_symbol(order, s):
    """One axis's symbol K h^2 at s = sin^2(beta h/2): 4 sum_d w_d a_d over the pairs
    of _WEIGHTS, a_d = sin^2(d beta h/2) = a_{d-1} (2 - 4 s) + 2 s - a_{d-2}, a_1 = s."""
    weights = _WEIGHTS[order]
    k, prev, a = 4.0 * weights[1] * s, 0.0, s
    if len(weights) > 2:   # a_d is needed only while a weight follows a_1
        m, t = 2.0 - 4.0 * s, 2.0 * s
        for w in weights[2:]:
            prev, a = a, a * m + t - prev
            k = k + 4.0 * w * a
    return k


def _groups(grid, order, kinetic):
    """Per offset d and folded pair weight kinetic * w_d / h^2, the axes whose
    pair sums share it: x and y where dx = dy, else one axis each."""
    groups = {}
    for axis, h in enumerate(grid.spacing):
        for d, w in enumerate(_WEIGHTS[order][1:], 1):
            groups.setdefault((d, kinetic * w / h ** 2), []).append(axis)
    return groups


def _bind(v, grid, order, kinetic, hbar):
    """call(f, out, scale=1.0, src=None): out = scale * (kinetic * Laplacian(f)
    - (v/hbar) * f) + src when src is given, unchecked; every slice and view
    it uses is made here, once per slab of leading-axis rows."""
    n, width = (*grid.shape, 1)[:2]   # rows, row length
    rows = min(n, max(1, _SLAB_BYTES // (8 * width)))
    centre = kinetic * _WEIGHTS[order][0] * sum(h ** -2 for h in grid.spacing)
    grouping = _groups(grid, order, kinetic)
    scratch = np.empty((len(grid.shape), rows * width))   # pair sums; one slab in 1-D
    neg_inv_hbar = -1.0 / hbar   # finite: PhysicalParams rejects a smaller hbar
    slabs = []
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        lo, hi, part = start * width, stop * width, slice(start, stop)
        bufs = scratch[:, :hi - lo]   # a group's first axis sums into p, its second into s
        groups = []
        for (d, w), axes in grouping.items():
            terms = []
            for r, axis in zip(bufs, axes):
                # r = f[i-k] + f[i+k] at flat offsets; cells in [lo, a) lack the
                # neighbour before (first rows), cells in [b, hi) the one after
                r_rows, k = r.reshape(stop - start, *grid.shape[1:]), d * (width, 1)[axis]
                a = min(max(lo, k), hi)
                b = max(min(hi, n * width - k), a)
                if axis:   # the d end cells of each row, which include [lo, a) and [b, hi)
                    copies = [(r_rows[:, :d], (part, slice(d, 2 * d))),
                              (r_rows[:, -d:], (part, slice(-2 * d, -d)))]
                else:      # whole rows: each keeps its one neighbour d rows away
                    copies = [(to, of) for to, of in (
                        (r_rows[:a // width - start], slice(start + d, a // width + d)),
                        (r_rows[b // width - start:], slice(b // width - d, stop - d)))
                        if to.size]
                terms.append((slice(a - k, b - k), slice(a + k, b + k), r[a - lo:b - lo], copies))
            groups.append((w, terms))
        # V read once: where the slab holds one level, the diagonal is a scalar
        # worked out per call by the general form's two operations
        v_rows, p = v[part], bufs[0]
        low = v_rows.min()
        level = float(low) if low == v_rows.max() else None
        slabs.append((part, lo, hi, groups, p, bufs[-1], p.reshape(v_rows.shape), v_rows, level))

    def call(f, out, scale=1.0, src=None):
        flat, out_flat = f.reshape(-1), out.reshape(-1)
        v_scale, c = neg_inv_hbar * scale, centre * scale   # x 1.0 is exact
        for part, lo, hi, groups, p, s, p_rows, v_rows, level in slabs:
            o = out_flat[lo:hi]
            for i, (w, terms) in enumerate(groups):
                for left, right, pair, copies in terms:
                    np.add(flat[left], flat[right], out=pair)
                    for to, of in copies:
                        to[...] = f[of]
                if len(terms) > 1:   # x + y, then the one scale they share
                    p += s
                if i:
                    p *= w * scale
                    o += p
                else:
                    np.multiply(p, w * scale, out=o)
            if level is None:
                np.multiply(v_rows, v_scale, out=p_rows)
                p += c
                p *= flat[lo:hi]
            else:
                np.multiply(flat[lo:hi], level * v_scale + c, out=p)
            o += p
            if src is not None:
                np.add(out[part], src[part], out=out[part])
        return out

    return call


def _checked(call, component, grid, out):
    """call(f, out) once the planes pass the checks call skips."""
    if np.iscomplexobj(component):
        raise ConfigurationError("component must be real: split a complex field into two planes")
    f = np.ascontiguousarray(component, dtype=float)
    _check_shape(f, grid, "component")
    if out is None:
        out = np.empty_like(f)
    elif out.shape != f.shape or not out.flags.c_contiguous or np.may_share_memory(out, f):
        raise ConfigurationError("out must be a C-contiguous grid-shaped plane apart from the input")
    return call(f, out)


def apply_laplacian(component, grid, order=StencilOrder.SECOND_ORDER, out=None):
    """(1/dx^2) d2x + (1/dy^2) d2y of one component (x term only in 1-D), in
    1/m^2; written to ``out`` when given, which must not overlap ``component``."""
    return _checked(_bind(np.broadcast_to(0.0, grid.shape), grid, order, 1.0, 1.0),
                    component, grid, out)


def bind_b(grid, potential, physics, order=StencilOrder.SECOND_ORDER):
    """apply_b's set-up done once, V read now: call(f, out, scale=1.0, src=None)
    runs its loop unchecked and returns out = scale * B f (+ src when src is
    given; src must not overlap out)."""
    _check_shape(potential.values, grid, "potential")
    return _bind(potential.values, grid, order, physics.hbar / (2.0 * physics.mass), physics.hbar)


def apply_b(component, grid, potential, physics, order=StencilOrder.SECOND_ORDER, out=None):
    """B f = (hbar/2m) Laplacian(f) - (V/hbar) f in 1/s; ``out`` as in
    apply_laplacian."""
    return _checked(bind_b(grid, potential, physics, order), component, grid, out)


def apply_b_power(component, power, grid, potential, physics,
                  order=StencilOrder.SECOND_ORDER):
    """B applied ``power`` times (odd and positive): the exact matrix power
    of the Dirichlet-truncated operator, B bound once for all of them."""
    if power < 1 or power % 2 == 0:
        raise ConfigurationError(f"power must be odd and positive, got {power}")
    out, bound = component, bind_b(grid, potential, physics, order)
    for _ in range(power):
        out = _checked(bound, out, grid, None)
    return out
