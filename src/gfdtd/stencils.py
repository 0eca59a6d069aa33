"""Spatial difference operators with zero-Dirichlet edges.

apply_laplacian is the 3-point (second-order) or 5-point (fourth-order)
central Laplacian; apply_b is the generator B = (hbar/2m) Laplacian - V/hbar
of the time stepper.  Both run one loop over slabs of rows that writes
straight into the output, so only the out slab and two scratch slabs sit in
L2.  Per offset d and folded weight w_d/h^2, a group's neighbour sum goes
into scratch p and is scaled once, the first group's into out, every later
one's added to it; a neighbour past the edge is dropped (the truncated
matrix).  Where the weights differ (1-D, dx != dy) each axis is a group, its
sum the pair f[i-d] + f[i+d] at flat offsets.  Where dx = dy, x and y share
one sum a = up + left, f[j-dW] + f[j-d] for rows of W cells, over the slab
and d rows past it: p = a[i] + a[i+dW+d], as a[i+dW+d] is right + down
(Deitz et al., ICS 2001).  Each add pairs an x with a y neighbour and the
edges of both axes are dropped alike (-0.0 adds exactly), so on a square
grid with V = V.T, B f.T is exactly (B f).T.  Then comes the diagonal term,
V times -1/hbar plus the centre weight, times f; where V holds one level
over the slab's rows, that factor is one scalar, which saves two passes.
With a source term a fourth-order slab of a square grid takes 10 numpy
passes (12 where V holds more than one level), a second-order one 6 (8);
where dx != dy, 14 (16) and 8 (10).

_bind sets B up once (slab scratch, V, every slice and view of each slab)
and returns the loop, which checks nothing: call(f, out, scale, src) is
scale * B f + src, scale folded into each group's weight and the diagonal
(w * 1.0 is w, so apply_b's bits stay) and src added in the same slab, so
the stepper forms each Horner term without a whole-plane pass.  apply_b and
apply_laplacian validate, bind and call; the stepper binds B once (bind_b).
Each scratch buffer starts on a 64-byte cache line (_aligned_rows): off one,
as np.empty may leave it, B's AVX-512 passes took 15-30 % longer at
400^2-800^2.

call(..., floor=True), the stepper's last call per half step, zeroes out's cells
below FLOOR = 2^-500 per slab: a subnormal operand costs x86 a microcode assist
(Dooley & Kale, 2006; paper2d's B ran 18-26 % slower), and numpy cannot flush to
zero.  FLOOR^2 is normal and FLOOR is 2^522 above the least normal, room for the
Horner scales up to N = 8.  apply_b, apply_laplacian and apply_b_power never flush.
"""

from enum import Enum

import numpy as np

from .errors import ConfigurationError
from .fields import _check_shape

# bytes per slab of rows: the out slab and the two scratch slabs (768 KiB)
# then stay in a 2 MB per-core L2 cache between the loop's passes
_SLAB_BYTES = 1 << 18
FLOOR = 2.0 ** -500   # a flushed plane holds 0 or |x| >= FLOOR, so no subnormal


class StencilOrder(Enum):
    SECOND_ORDER = 2
    FOURTH_ORDER = 4

    @property
    def halo(self):
        return 1 if self is StencilOrder.SECOND_ORDER else 2


# per-axis weights: the centre, then the pairs at offsets +-1, +-2
_WEIGHTS = {StencilOrder.SECOND_ORDER: (-2.0, 1.0),
            StencilOrder.FOURTH_ORDER: (-30.0 / 12.0, 16.0 / 12.0, -1.0 / 12.0)}


def _weights(order):
    """_WEIGHTS[order]; an order that is no StencilOrder raises ConfigurationError."""
    if not isinstance(order, StencilOrder):
        raise ConfigurationError(f"stencil order must be a StencilOrder, got {order!r}")
    return _WEIGHTS[order]


def axis_symbol(order, s):
    """One axis's symbol K h^2 at s = sin^2(beta h/2): 4 sum_d w_d a_d over the pairs
    of _WEIGHTS, a_d = sin^2(d beta h/2) = a_{d-1} (2 - 4 s) + 2 s - a_{d-2}, a_1 = s."""
    weights = _weights(order)
    k = 4.0 * weights[1] * s
    if len(weights) > 2:   # fourth order: a_2, from a_1 = s and a_0 = 0
        k = k + 4.0 * weights[2] * (s * (2.0 - 4.0 * s) + 2.0 * s)
    return k


def _groups(grid, order, kinetic):
    """Per offset d and folded pair weight kinetic * w_d / h^2, the axes whose
    pair sums share it: x and y where dx = dy, else one axis each."""
    groups = {}
    for axis, h in enumerate(grid.spacing):
        for d, w in enumerate(_weights(order)[1:], 1):
            groups.setdefault((d, kinetic * w / h ** 2), []).append(axis)
    return groups


def _aligned_rows(count, cells):
    """An empty (count, cells) float plane each of whose rows starts on a 64-byte
    cache line: one line over-allocated, rows a multiple of 8 cells apart."""
    stride = -(-cells // 8) * 8
    raw = np.empty(count * stride + 8)
    first = -raw.__array_interface__["data"][0] % 64 // 8   # np.empty promises 16 B, not 64
    return raw[first:first + count * stride].reshape(count, stride)[:, :cells]


def _axis_sums(shape, d, axis, p, start, stop):
    """One axis's pair sums f[i-k] + f[i+k] into p at flat offsets, as (left, right,
    p's cells, copies, None): cells in [lo, a) lack the neighbour before (first
    rows), cells in [b, hi) the one after, and take the other one by copy."""
    n, width = (*shape, 1)[:2]
    lo, hi, part = start * width, stop * width, slice(start, stop)
    p_rows, k = p.reshape(stop - start, *shape[1:]), d * (width, 1)[axis]
    a = min(max(lo, k), hi)
    b = max(min(hi, n * width - k), a)
    if axis:   # the d end cells of each row, which include [lo, a) and [b, hi)
        copies = [(p_rows[:, :d], (part, slice(d, 2 * d))),
                  (p_rows[:, -d:], (part, slice(-2 * d, -d)))]
    else:      # whole rows: each keeps its one neighbour d rows away
        copies = [(to, of) for to, of in (
            (p_rows[:a // width - start], slice(start + d, a // width + d)),
            (p_rows[b // width - start:], slice(b // width - d, stop - d)))
            if to.size]
    return slice(a - k, b - k), slice(a + k, b + k), p[a - lo:b - lo], copies, None


def _shared_sums(shape, d, p, a, start, stop, share):
    """x and y at offset d into p through one shared sum a[j - lo] = f[j-dW] +
    f[j-d] over j in [lo, hi + dW + d), as (the slices of f[j-dW] and f[j-d]
    where both are in range, a's cells there, copies, (zeros, near, far,
    ends)): p = near + far, then p = a + down at the last d columns (ends).
    Where a term is past an edge, a takes the other one by copy, or -0.0
    (zeros) where it has neither.  share(view) hands back an equal view made
    for an earlier slab."""
    n, width = shape
    rows, lo, hi, dw = stop - start, start * width, stop * width, d * width
    a = share(a[:(rows + d) * width + d])
    a_rows = a[:(rows + d) * width].reshape(rows + d, width)
    head = max(0, d - start)   # a's rows before row d, which have no up
    ja, jb = max(lo, dw), min(hi + dw + d, n * width + d)
    copies = tuple((share(to), of) for to, of in (
        (a_rows[:head, d:], (slice(start, d), slice(0, width - d))),               # left
        (a_rows[head:rows, :d], (slice(start + head - d, stop - d), slice(0, d))),  # up
        (a_rows[n - start:, d:], (slice(n - d, stop), slice(d, width))))           # up
        if to.size)
    # neither: the first d cells of a's rows before row d, and of its rows past
    # row n, which stand in for the down of a cell in the last d rows and columns
    zeros = tuple(to for to in (a_rows[:head, :d], *(a[(n + 1 - start) * width + c::width]
                                                     for c in range(d))) if to.size)
    below = min(max(n - d - start, 0), rows)   # slab rows that have a down
    ends = tuple((share(a[c:below * width:width]),
                  slice(lo + dw + c, lo + (below + d) * width, width),
                  share(p[c:below * width:width])) for c in range(width - d, width) if below)
    return (slice(ja - dw, jb - dw), slice(ja - d, jb - d), share(a[ja - lo:jb - lo]), copies,
            (zeros, share(a[:hi - lo]), share(a[dw + d:dw + d + hi - lo]), ends))


def _bind(v, grid, order, kinetic, hbar):
    """call(f, out, scale=1.0, src=None, floor=False): out = scale * (kinetic *
    Laplacian(f) - (v/hbar) * f) + src when src is given, unchecked; every slice
    and view it uses is made here, once per slab of leading-axis rows, but the
    floor's two masks, which a flushing call views in p's bytes."""
    n, width = (*grid.shape, 1)[:2]   # rows, row length
    centre = kinetic * _weights(order)[0] * sum(h ** -2 for h in grid.spacing)
    grouping = _groups(grid, order, kinetic)
    # a shared sum runs d rows and d cells past its slab: the slab gives up those
    # rows, so p and a together stay two slabs
    past = max((d for (d, _), axes in grouping.items() if len(axes) > 1), default=0)
    rows = min(n, max(1, _SLAB_BYTES // (8 * width) - past))
    scratch = _aligned_rows(1 + bool(past), (rows + past) * width + past)
    neg_inv_hbar = -1.0 / hbar   # finite: PhysicalParams rejects a smaller hbar
    views, slabs = {}, []

    def share(view):   # every full slab's views of the scratch are the same objects
        key = (view.__array_interface__["data"][0], view.shape, view.strides)
        return views.setdefault(key, view)

    for start in range(0, n, rows):
        stop = min(start + rows, n)
        lo, hi, part = start * width, stop * width, slice(start, stop)
        p = share(scratch[0, :hi - lo])
        groups = [(w, *(_shared_sums(grid.shape, d, p, scratch[1], start, stop, share)
                        if len(axes) > 1 else _axis_sums(grid.shape, d, axes[0], p, start, stop)))
                  for (d, w), axes in grouping.items()]
        # V read once: where the slab holds one level, the diagonal is a scalar
        # worked out per call by the general form's two operations
        v_rows = v[part]
        low = v_rows.min()
        level = float(low) if low == v_rows.max() else None
        slabs.append((part, lo, hi, groups, p, share(p.reshape(v_rows.shape)), v_rows, level))

    def call(f, out, scale=1.0, src=None, floor=False):
        flat, out_flat = f.reshape(-1), out.reshape(-1)
        v_scale, c, hit = neg_inv_hbar * scale, centre * scale, False   # x 1.0 is exact
        for part, lo, hi, groups, p, p_rows, v_rows, level in slabs:
            o = out_flat[lo:hi]
            for i, (w, left, right, pair, copies, shared) in enumerate(groups):
                np.add(flat[left], flat[right], out=pair)
                for to, of in copies:
                    to[...] = f[of]
                if shared:   # pair is up + left; add it to itself at right + down
                    zeros, near, far, ends = shared
                    for to in zeros:
                        to[...] = -0.0
                    np.add(near, far, out=p)
                    for a, of, to in ends:
                        np.add(a, flat[of], out=to)
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
            if floor:   # |o| < FLOOR into bool masks in p's bytes, p being spent
                low, high = p.view(np.bool_)[:2 * (hi - lo)].reshape(2, -1)
                np.less(o, FLOOR, out=low)
                low &= np.greater(o, -FLOOR, out=high)
                if low.any():   # write to the nonzero ones: paper2d holds 30x more zeros
                    hit = True
                    low &= np.not_equal(o, 0.0, out=high)
                    np.copyto(o, 0.0, where=low)
        return hit if floor else out

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
    """apply_b's set-up done once, V read now: call(f, out, scale=1.0, src=None,
    floor=False) runs its loop unchecked and returns out = scale * B f (+ src when
    src is given; src must not overlap out); with floor it zeroes out's cells below
    FLOOR and returns whether it found any, 0 included."""
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
    if not isinstance(power, (int, np.integer)) or power < 1 or power % 2 == 0:
        raise ConfigurationError(f"power must be an odd positive integer, got {power!r}")
    out, bound = component, bind_b(grid, potential, physics, order)
    for _ in range(power):
        out = _checked(bound, out, grid, None)
    return out
