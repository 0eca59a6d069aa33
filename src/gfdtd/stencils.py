"""Spatial difference operators with zero-Dirichlet edges.

apply_laplacian is the 3-point (second-order) or 5-point (fourth-order)
central Laplacian; apply_b is the generator B = (hbar/2m) Laplacian - V/hbar
of the time stepper.  Both run one loop over slabs of rows that writes
straight into the output, so only the out slab and two scratch slabs sit in
L2.  Per offset d it sums the pairs f[i-d] + f[i+d] of each axis at flat
offsets of the input (a neighbour past the edge is dropped: the truncated
matrix).  Axes whose folded weights w_d/h^2 are equal, x and y where dx = dy,
form one group: their pair sums are added, scaled once and accumulated into
out.  Otherwise each axis is a group of its own.  Then comes the diagonal
term, V times -1/hbar plus the centre weight, times f.  At fourth order with
add= and a != 1, a slab of a square grid takes 15 numpy passes; with
dx != dy it takes 17, one scale per axis and offset.  x + y is commutative,
so on a square grid with V = V.T, B f.T is exactly (B f).T.  apply_b's
add=(a, src) adds a * src in the same slab, which is how the stepper forms
each Horner term without a whole-plane pass.

What depends only on the grid, the order and the Laplacian's scale (folded
weights, slab bounds, the slices of every pair add and edge copy) is worked
out once by the cached _plan; a call validates its planes, allocates its
slab scratch and runs the loop.
"""

import functools
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


@functools.lru_cache(maxsize=64)
def _plan(grid, order, scale, slab_bytes):
    """What _apply needs that depends only on its arguments: the folded centre
    weight, the scratch slab length, and per slab of leading-axis rows its row
    slice, row shape, flat bounds and one group per offset and folded pair
    weight.  A group holds the index of the buffer it sums into (out for the
    first group, else the first scratch slab), its weight, and per member axis
    the buffer its pair sum goes to (the group's, then the next ones), the
    slices of its pair add and of its edge copies, and the column slices of
    its row-end copies.  Slices, ints, floats and tuples only: every caller
    shares the result."""
    weights, (n, width) = _WEIGHTS[order], (*grid.shape, 1)[:2]   # rows, row length
    rows = min(n, max(1, slab_bytes // (8 * width)))
    centre = scale * weights[0] * sum(h ** -2 for h in grid.spacing)
    # (offset, folded weight) -> (flat offset, row-end columns) per member axis;
    # the axes share a group where their weights are equal (dx = dy)
    offsets = {}
    for axis, (stride, h) in enumerate(zip((width, 1), grid.spacing)):
        for d, w in enumerate(weights[1:], 1):
            # along y the d end cells of each row keep their in-range neighbour
            row_ends = () if axis == 0 else ((slice(0, d), slice(d, 2 * d)),
                                             (slice(-d, None), slice(-2 * d, -d)))
            offsets.setdefault((d, scale * w / h ** 2), []).append((d * stride, row_ends))
    slabs = []
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        lo, hi = start * width, stop * width
        groups = []
        for (_, w), members in offsets.items():
            into, terms = 1 if groups else 0, []
            for j, (s, row_ends) in enumerate(members):
                # q = f[i-s] + f[i+s] at flat offsets; cells in [lo, a) lack the
                # neighbour before (first rows), cells in [b, hi) the one after
                a = min(max(lo, s), hi)
                b = max(min(hi, n * width - s), a)
                edges = []
                if a > lo:
                    edges.append((slice(0, a - lo), slice(lo + s, a + s)))
                if b < hi:
                    edges.append((slice(b - lo, hi - lo), slice(b - s, hi - s)))
                terms.append((into + j, slice(a - s, b - s), slice(a + s, b + s),
                              slice(a - lo, b - lo), tuple(edges), row_ends))
            groups.append((into, w, tuple(terms)))
        slabs.append((slice(start, stop), (stop - start, *grid.shape[1:]), lo, hi,
                      tuple(groups)))
    return centre, rows * width, tuple(slabs)


def _apply(component, v, grid, order, scale, hbar, out, add=None):
    """out = scale * Laplacian(f) - (v/hbar) * f (+ a * src for add=(a, src))
    over the slabs of _plan."""
    centre, length, slabs = _plan(grid, order, scale, _SLAB_BYTES)
    f = np.ascontiguousarray(component, dtype=float)
    if f.shape != v.shape:   # v was checked against the grid
        _check_shape(f, grid, "component")
    if out is None:
        out = np.empty_like(f)
    elif out.shape != f.shape or not out.flags.c_contiguous or np.may_share_memory(out, f):
        raise ConfigurationError("out must be a C-contiguous grid-shaped plane apart from the input")
    if add is not None:
        a, src = add
        if src.shape != f.shape or np.may_share_memory(out, src):
            raise ConfigurationError("add's source must be a grid-shaped plane apart from out")
    flat, out_flat = f.reshape(-1), out.reshape(-1)
    scratch = np.empty((len(grid.shape), length))  # pair sums; one slab in 1-D
    neg_inv_hbar = -1.0 / hbar   # finite: PhysicalParams rejects a smaller hbar
    for rows, shape, lo, hi, groups in slabs:
        # a group of two axes (2-D only) also writes the last buffer
        bufs = out_flat[lo:hi], scratch[0, :hi - lo], scratch[-1, :hi - lo]
        o, p, _ = bufs
        for into, w, terms in groups:
            q = bufs[into]
            for buf, left, right, part, edges, row_ends in terms:
                r = bufs[buf]
                np.add(flat[left], flat[right], out=r[part])
                for to, of in edges:
                    r[to] = flat[of]
                for to, of in row_ends:
                    r.reshape(shape)[:, to] = f[rows, of]
                if r is not q:
                    q += r
            q *= w
            if into:
                o += q
        p_rows = p.reshape(shape)
        np.multiply(v[rows], neg_inv_hbar, out=p_rows)
        p += centre
        p *= flat[lo:hi]
        o += p
        if add is not None:   # a * src; a = 1 needs no multiply
            o_rows = o.reshape(shape)
            o_rows += src[rows] if a == 1 else np.multiply(src[rows], a, out=p_rows)
    return out


def apply_laplacian(component, grid, order=StencilOrder.SECOND_ORDER, out=None):
    """(1/dx^2) d2x + (1/dy^2) d2y of one component (x term only in 1-D), in
    1/m^2; written to ``out`` when given, which must not overlap ``component``."""
    return _apply(component, np.broadcast_to(0.0, grid.shape), grid, order, 1.0, 1.0, out)


def apply_b(component, grid, potential, physics, order=StencilOrder.SECOND_ORDER,
            out=None, add=None):
    """B f = (hbar/2m) Laplacian(f) - (V/hbar) f in 1/s; ``out`` as in
    apply_laplacian.  With ``add=(a, src)`` it returns a * src + B f instead,
    the sum formed slab by slab; ``src`` is a grid-shaped plane that must not
    overlap ``out``."""
    _check_shape(potential.values, grid, "potential")
    return _apply(component, potential.values, grid, order,
                  physics.hbar / (2.0 * physics.mass), physics.hbar, out, add)


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
