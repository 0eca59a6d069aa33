import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfdtd import (ConfigurationError, GridSpec, PhysicalParams, PotentialField,
                   StencilOrder, apply_b, apply_b_power, apply_laplacian, stencils)
from gfdtd.stencils import axis_symbol

from conftest import dense_b_matrix, dense_laplacian_matrix, quadrant_barrier, traced_peak


def plane_wave(grid, beta_x, beta_y=None):
    """Real and imaginary samples of e^{i(j beta_x dx + k beta_y dy)}."""
    if grid.dims == 1:
        phase = np.arange(grid.nx) * beta_x * grid.dx
    else:
        phase = (np.arange(grid.nx)[:, None] * beta_x * grid.dx
                 + np.arange(grid.ny)[None, :] * beta_y * grid.dy)
    return np.cos(phase), np.sin(phase)


def second_order_factor(grid, beta_x, beta_y=None):
    f = -4.0 * np.sin(0.5 * beta_x * grid.dx) ** 2 / grid.dx ** 2
    if grid.dims == 2:
        f += -4.0 * np.sin(0.5 * beta_y * grid.dy) ** 2 / grid.dy ** 2
    return f


def fourth_order_factor(grid, beta_x, beta_y=None):
    sx = np.sin(0.5 * beta_x * grid.dx) ** 2
    f = -(4.0 / (3.0 * grid.dx ** 2)) * sx * (3.0 + sx)
    if grid.dims == 2:
        sy = np.sin(0.5 * beta_y * grid.dy) ** 2
        f += -(4.0 / (3.0 * grid.dy ** 2)) * sy * (3.0 + sy)
    return f


@pytest.mark.parametrize("order,factor_fn", [
    (StencilOrder.SECOND_ORDER, second_order_factor),
    (StencilOrder.FOURTH_ORDER, fourth_order_factor),
])
def test_axis_symbol_matches_closed_forms(rng, order, factor_fn):
    # axis_symbol derives the symbol from the weights; the factors above
    # are the hand-written closed forms, negated and per unit h^2
    grid = GridSpec(dims=1, nx=16, dx=0.37)
    beta = rng.uniform(-np.pi, np.pi, 200) / grid.dx
    k = axis_symbol(order, np.sin(0.5 * beta * grid.dx) ** 2) / grid.dx ** 2
    assert np.allclose(k, -factor_fn(grid, beta), rtol=1e-14, atol=0.0)
    assert axis_symbol(order, 0.0) == 0.0


def recurrence_through_every_weight(order, s):
    """axis_symbol's former loop: one sin^2 update per weight, the last unused."""
    k, prev, a, m, t = 0.0, 0.0, s, 2.0 - 4.0 * s, 2.0 * s
    for w in stencils._WEIGHTS[order][1:]:
        k, prev, a = k + 4.0 * w * a, a, a * m + t - prev
    return k


@pytest.mark.parametrize("order", [StencilOrder.SECOND_ORDER, StencilOrder.FOURTH_ORDER])
def test_axis_symbol_bit_identical_to_full_recurrence(rng, order):
    s = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 200)])
    expected = recurrence_through_every_weight(order, s)
    assert axis_symbol(order, s).tobytes() == expected.tobytes()
    for value, k in zip(s[:10].tolist(), expected[:10].tolist()):   # the verdict's floats
        assert axis_symbol(order, value) == k


@pytest.mark.parametrize("order", [StencilOrder.SECOND_ORDER, StencilOrder.FOURTH_ORDER])
def test_constant_annihilated_in_interior(order, small_grid_2d):
    halo = order.halo
    out = apply_laplacian(np.full(small_grid_2d.shape, 3.7), small_grid_2d, order)
    interior = out[halo:-halo, halo:-halo]
    assert np.allclose(interior, 0.0, atol=1e-12)
    # boundary rows feel the zero-Dirichlet truncation
    assert np.abs(out[0]).max() > 0


def test_shape_mismatch_rejected(small_grid_2d):
    with pytest.raises(ConfigurationError):
        apply_laplacian(np.zeros((4, 4)), small_grid_2d)


@pytest.mark.parametrize("order,factor_fn", [
    (StencilOrder.SECOND_ORDER, second_order_factor),
    (StencilOrder.FOURTH_ORDER, fourth_order_factor),
])
def test_plane_wave_symbol_2d(order, factor_fn):
    grid = GridSpec(dims=2, nx=48, dx=0.7, ny=48, dy=1.3)
    halo = order.halo
    for kx in range(1, 17):
        for ky in (3, 9, 16):
            beta_x = np.pi * kx / 16 / grid.dx
            beta_y = np.pi * ky / 16 / grid.dy
            re, im = plane_wave(grid, beta_x, beta_y)
            factor = factor_fn(grid, beta_x, beta_y)
            for comp in (re, im):
                out = apply_laplacian(comp, grid, order)
                interior = (slice(halo, -halo), slice(halo, -halo))
                assert np.allclose(out[interior], factor * comp[interior],
                                   rtol=1e-10, atol=1e-10 * abs(factor))


def test_apply_b_zero_field(small_grid_2d, constant_potential, unit_physics):
    out = apply_b(np.zeros(small_grid_2d.shape), small_grid_2d,
                  constant_potential, unit_physics)
    assert np.all(out == 0.0)


def test_apply_b_constant_field(small_grid_2d, constant_potential, unit_physics):
    c = 2.5
    out = apply_b(np.full(small_grid_2d.shape, c), small_grid_2d,
                  constant_potential, unit_physics)
    interior = out[1:-1, 1:-1]
    assert np.allclose(interior, -0.3 * c, rtol=1e-12)


def test_apply_b_plane_wave_eigenfactor():
    grid = GridSpec(dims=2, nx=40, dx=0.9, ny=40, dy=1.1)
    physics = PhysicalParams(mass=1.7, hbar=0.8)
    v0 = 0.45
    potential = PotentialField(np.full(grid.shape, v0))
    beta_x = np.pi * 5 / 16 / grid.dx
    beta_y = np.pi * 11 / 16 / grid.dy
    re, im = plane_wave(grid, beta_x, beta_y)
    expected = (physics.hbar / (2.0 * physics.mass)
                * second_order_factor(grid, beta_x, beta_y)) - v0 / physics.hbar
    for comp in (re, im):
        out = apply_b(comp, grid, potential, physics)
        interior = (slice(1, -1), slice(1, -1))
        assert np.allclose(out[interior], expected * comp[interior],
                           rtol=1e-10, atol=1e-10 * abs(expected))


@pytest.mark.parametrize("power", [0, 2, 4, -1])
def test_apply_b_power_rejects_even(power, small_grid_2d, constant_potential,
                                    unit_physics):
    with pytest.raises(ConfigurationError):
        apply_b_power(np.zeros(small_grid_2d.shape), power, small_grid_2d,
                      constant_potential, unit_physics)


def test_apply_b_power_one_equals_apply_b(rng, small_grid_2d, constant_potential,
                                          unit_physics):
    f = rng.normal(size=small_grid_2d.shape)
    direct = apply_b(f, small_grid_2d, constant_potential, unit_physics)
    powered = apply_b_power(f, 1, small_grid_2d, constant_potential, unit_physics)
    assert np.array_equal(direct, powered)


def test_apply_b_power_binds_b_once(rng, monkeypatch, small_grid_2d, unit_physics):
    # one bind_b serves every application, with apply_b's bits
    potential = PotentialField(rng.uniform(0.0, 1.0, size=small_grid_2d.shape))
    f = rng.normal(size=small_grid_2d.shape)
    expected = f
    for _ in range(5):
        expected = apply_b(expected, small_grid_2d, potential, unit_physics)
    bind, calls = stencils._bind, []
    monkeypatch.setattr(stencils, "_bind", lambda *args: calls.append(args) or bind(*args))
    assert np.array_equal(apply_b_power(f, 5, small_grid_2d, potential, unit_physics), expected)
    assert len(calls) == 1


def test_apply_b_power_zero_field(small_grid_2d, constant_potential, unit_physics):
    out = apply_b_power(np.zeros(small_grid_2d.shape), 5, small_grid_2d,
                        constant_potential, unit_physics)
    assert np.all(out == 0.0)


@pytest.mark.parametrize("order", [StencilOrder.SECOND_ORDER, StencilOrder.FOURTH_ORDER])
@pytest.mark.parametrize("power", [1, 3, 5])
def test_apply_b_power_matches_dense_matrix_power(rng, order, power, small_grid_2d,
                                                  unit_physics):
    potential = PotentialField(rng.uniform(0.0, 1.0, size=small_grid_2d.shape))
    f = rng.normal(size=small_grid_2d.shape)
    mat = dense_b_matrix(small_grid_2d, potential, unit_physics, order)
    expected = (np.linalg.matrix_power(mat, power) @ f.ravel()).reshape(f.shape)
    out = apply_b_power(f, power, small_grid_2d, potential, unit_physics, order)
    scale = np.abs(expected).max()
    assert np.allclose(out, expected, rtol=1e-10, atol=1e-10 * scale)


def test_laplacian_linearity(rng, small_grid_2d):
    f = rng.normal(size=small_grid_2d.shape)
    g = rng.normal(size=small_grid_2d.shape)
    a, b = 1.7, -0.4
    combined = apply_laplacian(a * f + b * g, small_grid_2d)
    parts = a * apply_laplacian(f, small_grid_2d) + b * apply_laplacian(g, small_grid_2d)
    assert np.allclose(combined, parts, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("order", [StencilOrder.SECOND_ORDER, StencilOrder.FOURTH_ORDER])
def test_dense_b_matrix_symmetric_for_constant_potential(order, unit_physics):
    grid = GridSpec(dims=2, nx=10, dx=0.8, ny=12, dy=1.2)
    potential = PotentialField(np.full(grid.shape, 0.6))
    mat = dense_b_matrix(grid, potential, unit_physics, order)
    # sanity: dense assembly agrees with the stencil application
    rng = np.random.default_rng(7)
    f = rng.normal(size=grid.shape)
    assert np.allclose((mat @ f.ravel()).reshape(grid.shape),
                       apply_b(f, grid, potential, unit_physics, order),
                       rtol=1e-12, atol=1e-12)
    assert np.allclose(mat, mat.T, atol=1e-12)


def test_fourth_order_convergence_rate():
    # gaussian sampled on [-8, 8]; refining dx by 2 should cut the max
    # interior error against the analytic second derivative ~16x
    def max_interior_error(nx):
        grid = GridSpec(dims=1, nx=nx, dx=16.0 / (nx - 1))
        x = -8.0 + np.arange(nx) * grid.dx
        f = np.exp(-x ** 2)
        exact = (4.0 * x ** 2 - 2.0) * np.exp(-x ** 2)
        out = apply_laplacian(f, grid, StencilOrder.FOURTH_ORDER)
        inner = slice(2, -2)
        return np.abs(out[inner] - exact[inner]).max()

    coarse = max_interior_error(161)
    fine = max_interior_error(321)
    ratio = coarse / fine
    assert 12.0 <= ratio <= 20.0


@pytest.mark.parametrize("order", [StencilOrder.SECOND_ORDER, StencilOrder.FOURTH_ORDER])
@pytest.mark.parametrize("grid_name", ["small_grid_1d", "small_grid_2d"])
def test_out_buffer_is_returned_and_bitwise_equal(rng, request, grid_name, order,
                                                  unit_physics):
    grid = request.getfixturevalue(grid_name)
    potential = PotentialField(rng.uniform(0.0, 1.0, size=grid.shape))
    f = rng.normal(size=grid.shape)
    buf = np.full(grid.shape, np.nan)
    assert apply_b(f, grid, potential, unit_physics, order, out=buf) is buf
    assert np.array_equal(buf, apply_b(f, grid, potential, unit_physics, order))
    assert apply_laplacian(f, grid, order, out=buf) is buf
    assert np.array_equal(buf, apply_laplacian(f, grid, order))


def test_out_overlapping_or_misshapen_rejected(rng, small_grid_2d, constant_potential,
                                               unit_physics):
    f = rng.normal(size=small_grid_2d.shape)
    bad_outs = [f, f[:, :], np.empty((8, 7)), np.empty(small_grid_2d.shape).T]
    for out in bad_outs:
        with pytest.raises(ConfigurationError):
            apply_b(f, small_grid_2d, constant_potential, unit_physics, out=out)
        with pytest.raises(ConfigurationError):
            apply_laplacian(f, small_grid_2d, out=out)


def packet(grid, rng):
    """A packet about the grid's centre whose magnitude falls, cell by cell in
    order of distance, from O(1) through the subnormals to exact zeros, each
    value of random sign: its zero-filled and edge cells show a zero of the
    wrong sign, a subnormal flushed or a cell skipped."""
    r2 = sum((i - (m - 1) / 2) ** 2 for i, m in zip(np.indices(grid.shape), grid.shape))
    rank = np.argsort(np.argsort(r2, axis=None, kind="stable")).reshape(grid.shape)
    exponent = np.interp(rank / (rank.size - 1), [0.0, 0.5, 0.75, 1.0], [0, 1000, 1076, 1100])
    magnitude = np.ldexp(rng.uniform(1.0, 2.0, size=grid.shape), -exponent.astype(int))
    return rng.choice([-1.0, 1.0], size=grid.shape) * magnitude


FIELDS = {"normal": lambda grid, rng: rng.normal(size=grid.shape), "packet": packet}


def same_bits(a, b):
    """Equal cell for cell, the sign of each zero included."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_packet_runs_from_order_one_through_subnormals_to_signed_zeros(rng):
    for shape in [(5, 5), (5, 7), (12, 9), (23,)]:
        grid = GridSpec(dims=len(shape), nx=shape[0], dx=0.7, **(
            {"ny": shape[1], "dy": 0.7} if len(shape) == 2 else {}))
        f = np.abs(packet(grid, rng)).ravel()
        tiny = np.finfo(float).tiny
        assert f.max() >= 1.0 and ((f > 0) & (f < tiny)).any() and (f == 0).any()
    f = packet(GridSpec(dims=2, nx=12, dx=0.7, ny=9, dy=0.7), rng)
    assert (np.signbit(f) & (f == 0)).any() and (~np.signbit(f) & (f == 0)).any()


def symmetric_quadrant(grid):
    """V = V.T on a square grid: a barrier on the upper half of both axes."""
    values = np.zeros(grid.shape)
    values[grid.nx // 2:, grid.nx // 2:] = 0.8
    return PotentialField(values)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("potential", ["random", "quadrant"])
@pytest.mark.parametrize("slab_bytes", [stencils._SLAB_BYTES, 1])
@pytest.mark.parametrize("order", [StencilOrder.SECOND_ORDER, StencilOrder.FOURTH_ORDER])
@pytest.mark.parametrize("n", [5, 11])
def test_b_exactly_transpose_symmetric(rng, monkeypatch, n, order, slab_bytes, potential,
                                       field, unit_physics):
    # square grid, V = V.T: every add of the kernel pairs one x neighbour with
    # one y neighbour, so transposing the input transposes the output bit for
    # bit, in one-row slabs too; at 5x5 every cell is a corner or edge cell
    monkeypatch.setattr(stencils, "_SLAB_BYTES", slab_bytes)
    grid = GridSpec(dims=2, nx=n, dx=0.7, ny=n, dy=0.7)
    v = rng.uniform(0.0, 1.0, size=grid.shape)
    potential = PotentialField(v + v.T) if potential == "random" else symmetric_quadrant(grid)
    f = FIELDS[field](grid, rng)
    assert same_bits(apply_b(f.T, grid, potential, unit_physics, order),
                     apply_b(f, grid, potential, unit_physics, order).T)
    assert same_bits(apply_laplacian(f.T, grid, order), apply_laplacian(f, grid, order).T)


def dropped_neighbour_signs(f, order, shared):
    """Which cells of the Laplacian of a 2-D field of signed zeros come out -0.0
    when each neighbour past an edge is dropped: those where every term is -0.0.
    A sum of zeros is -0.0 only if each of its terms is, in any order; each
    offset scales the sum of all four neighbours where x and y share a weight,
    else each axis's pair on its own."""
    negative = np.signbit(f)
    expected = ~negative   # the centre weight is negative
    for d, w in enumerate(stencils._WEIGHTS[order][1:], 1):
        padded = np.pad(negative, d, constant_values=True)   # -0.0 adds nothing
        y, x = ([padded[d + i:d + i + f.shape[0], d + j:d + j + f.shape[1]] for i, j in pair]
                for pair in ([(-d, 0), (d, 0)], [(0, -d), (0, d)]))
        for group in ([y + x] if shared else [y, x]):
            expected &= np.logical_and.reduce(group) == (w > 0)
    return expected


@pytest.mark.parametrize("slab_bytes", [stencils._SLAB_BYTES, 1])
@pytest.mark.parametrize("order", [StencilOrder.SECOND_ORDER, StencilOrder.FOURTH_ORDER])
@pytest.mark.parametrize("shape", [(5, 5), (5, 7), (12, 9)])
def test_dropped_neighbours_keep_the_sign_of_a_zero(rng, monkeypatch, shape, order,
                                                    slab_bytes):
    # where dx = dy a neighbour past the edge is a -0.0 in the shared sum, the
    # one zero that adds nothing: a +0.0 there would turn a -0.0 cell to +0.0
    monkeypatch.setattr(stencils, "_SLAB_BYTES", slab_bytes)
    for dy in (0.7, 1.1):
        grid = GridSpec(dims=2, nx=shape[0], dx=0.7, ny=shape[1], dy=dy)
        for _ in range(20):
            f = rng.choice([-0.0, 0.0], size=shape)
            lap = apply_laplacian(f, grid, order)
            assert not lap.any()
            assert np.array_equal(np.signbit(lap), dropped_neighbour_signs(f, order, dy == 0.7))


def row_step(grid):
    values = np.zeros(grid.shape)
    values[grid.nx // 3:] = 0.6
    return PotentialField(values)


def signed_zeros(grid):
    values = np.zeros(grid.shape)
    values.reshape(-1)[::2] = -0.0
    return PotentialField(values)


# potentials by name; all but the random one hold one level per row
ROW_SLAB_POTENTIALS = {
    "random": lambda grid, rng: PotentialField(rng.uniform(0.0, 1.0, size=grid.shape)),
    "quadrant": lambda grid, rng: quadrant_barrier(grid),
    "row-step": lambda grid, rng: row_step(grid),
    "level": lambda grid, rng: PotentialField(np.full(grid.shape, 0.7)),
    "well": lambda grid, rng: PotentialField(np.full(grid.shape, -0.4)),
    "signed-zeros": lambda grid, rng: signed_zeros(grid),
}


# dx = dy at 5x5, 5x7 and 12x9: every cell, or every row end, is an edge cell
BIT_GRIDS = [GridSpec(dims=1, nx=23, dx=0.7),
             GridSpec(dims=2, nx=23, dx=0.7, ny=9, dy=1.1),
             GridSpec(dims=2, nx=23, dx=0.7, ny=9, dy=0.7),
             GridSpec(dims=2, nx=5, dx=0.7, ny=5, dy=0.7),
             GridSpec(dims=2, nx=5, dx=0.7, ny=7, dy=0.7),
             GridSpec(dims=2, nx=12, dx=0.7, ny=9, dy=0.7)]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("potential", ROW_SLAB_POTENTIALS)
@pytest.mark.parametrize("order", [StencilOrder.SECOND_ORDER, StencilOrder.FOURTH_ORDER])
@pytest.mark.parametrize("grid", BIT_GRIDS)
def test_row_slabs_do_not_change_a_bit(rng, monkeypatch, grid, order, potential, field):
    # whole plane in one slab versus the thinnest slabs, the last of which
    # overlaps its neighbour.  A slab where V holds one level takes the scalar
    # diagonal, any other the general one, so one-row slabs (one cell in 1-D)
    # take the scalar form wherever a row has one level.  The last cell set to
    # a new level puts the whole plane in the general form; the diagonal is
    # local, so every other cell of that plane must keep its bits as well.
    # 1/hbar is inexact, so a scalar rounded otherwise than v * (-1/hbar) shows
    physics = PhysicalParams(mass=1.3, hbar=0.9)
    potential = ROW_SLAB_POTENTIALS[potential](grid, rng)
    mixed = potential.values.copy()
    mixed.reshape(-1)[-1] = 2.5
    f = FIELDS[field](grid, rng)
    whole_b = apply_b(f, grid, potential, physics, order)
    general_b = apply_b(f, grid, PotentialField(mixed), physics, order).reshape(-1)[:-1]
    whole_lap = apply_laplacian(f, grid, order)
    monkeypatch.setattr(stencils, "_SLAB_BYTES", 1)
    thin_b = apply_b(f, grid, potential, physics, order)
    assert same_bits(thin_b, whole_b)
    assert same_bits(thin_b.reshape(-1)[:-1], general_b)
    assert same_bits(apply_laplacian(f, grid, order), whole_lap)


# (grid, whether x and y share one pair sum per offset).  The first has
# nx != ny and dx != dy, so a stride or a row-end cell taken from the wrong
# axis shows; dx = dy groups the axes; dy one ulp above dx gives other
# folded weights, so it must not
DENSE_ORACLE_GRIDS = [
    (GridSpec(dims=2, nx=7, dx=0.7, ny=9, dy=1.1), False),
    (GridSpec(dims=2, nx=11, dx=0.7, ny=11, dy=0.7), True),
    (GridSpec(dims=2, nx=12, dx=0.7, ny=9, dy=0.7), True),
    (GridSpec(dims=2, nx=12, dx=0.7, ny=9, dy=float(np.nextafter(0.7, 1.0))), False),
]


@pytest.mark.parametrize("potential", ["uniform", "quadrant"])
@pytest.mark.parametrize("slab_bytes", [stencils._SLAB_BYTES, 1])
@pytest.mark.parametrize("order", [StencilOrder.SECOND_ORDER, StencilOrder.FOURTH_ORDER])
@pytest.mark.parametrize("grid, grouped", DENSE_ORACLE_GRIDS,
                         ids=["7x9-rectangular", "11x11", "12x9", "12x9-dy-one-ulp-off"])
def test_operators_match_dense_oracle(rng, monkeypatch, grid, grouped, order, slab_bytes,
                                      potential):
    # one-row slabs exercise every flat-range clamp and the edge and row-end
    # copies of both members of a group; under the quadrant barrier the rows
    # before it take the scalar diagonal
    monkeypatch.setattr(stencils, "_SLAB_BYTES", slab_bytes)
    physics = PhysicalParams(mass=1.3, hbar=0.9)
    scale = physics.hbar / (2.0 * physics.mass)
    assert [len(axes) for axes in stencils._groups(grid, order, scale).values()] == (
        [2] * order.halo if grouped else [1] * (2 * order.halo))
    potential = (PotentialField(rng.uniform(-1.0, 1.0, size=grid.shape))
                 if potential == "uniform" else quadrant_barrier(grid))
    f = rng.normal(size=grid.shape)
    cases = [(dense_b_matrix(grid, potential, physics, order),
              apply_b(f, grid, potential, physics, order)),
             (dense_laplacian_matrix(grid, order), apply_laplacian(f, grid, order))]
    for mat, out in cases:
        expected = (mat @ f.ravel()).reshape(grid.shape)
        assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("order", [StencilOrder.SECOND_ORDER, StencilOrder.FOURTH_ORDER])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_apply_b_into_out_allocates_no_plane(rng, order, layout, unit_physics):
    # an 800^2 plane is 5 MB; the slab scratch stays well under 1 MiB, also
    # when the potential is held in Fortran order
    grid = GridSpec(dims=2, nx=800, dx=1.0, ny=800, dy=1.0)
    potential = PotentialField(np.asarray(rng.uniform(0.0, 1.0, size=grid.shape),
                                          order=layout))
    f = rng.normal(size=grid.shape)
    buf = np.empty(grid.shape)
    apply_b(f, grid, potential, unit_physics, order, out=buf)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        apply_b(f, grid, potential, unit_physics, order, out=buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_b_of_one_shape_matches_dense_oracle_across_grids_orders_and_physics(rng):
    # same shape throughout, so only dx/dy, the order or the physics tell
    # the operators apart; each result must still be its own B
    shape = (7, 9)
    f = rng.normal(size=shape)
    potential = PotentialField(rng.uniform(-1.0, 1.0, size=shape))
    grids = [GridSpec(dims=2, nx=7, dx=0.7, ny=9, dy=1.1),
             GridSpec(dims=2, nx=7, dx=0.9, ny=9, dy=1.1),
             GridSpec(dims=2, nx=7, dx=0.7, ny=9, dy=0.5)]
    physics = [PhysicalParams(mass=1.3, hbar=0.9), PhysicalParams(mass=2.0, hbar=0.9),
               PhysicalParams(mass=1.3, hbar=0.4)]
    for grid in grids:
        for phys in physics:
            for order in StencilOrder:
                expected = (dense_b_matrix(grid, potential, phys, order)
                            @ f.ravel()).reshape(shape)
                out = apply_b(f, grid, potential, phys, order)
                assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("order", [StencilOrder.SECOND_ORDER, StencilOrder.FOURTH_ORDER])
def test_apply_b_with_strided_potential_view(rng, order, unit_physics):
    grid = GridSpec(dims=2, nx=7, dx=0.7, ny=9, dy=1.1)
    wide = rng.uniform(0.0, 1.0, size=(9, 21))
    view = wide[:, ::3].T            # (7, 9), neither C- nor F-contiguous
    assert not view.flags.c_contiguous and not view.flags.f_contiguous
    f = rng.normal(size=grid.shape)
    out = apply_b(f, grid, PotentialField(view), unit_physics, order)
    contiguous = PotentialField(np.ascontiguousarray(view))
    assert np.array_equal(out, apply_b(f, grid, contiguous, unit_physics, order))
    expected = (dense_b_matrix(grid, contiguous, unit_physics, order)
                @ f.ravel()).reshape(grid.shape)
    assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("scale", [-0.37, 1.0])
@pytest.mark.parametrize("slab_bytes", [stencils._SLAB_BYTES, 1])
@pytest.mark.parametrize("order", [StencilOrder.SECOND_ORDER, StencilOrder.FOURTH_ORDER])
@pytest.mark.parametrize("grid", BIT_GRIDS)
def test_source_adds_at_unit_weight_bit_for_bit(rng, monkeypatch, grid, order, slab_bytes,
                                                scale, field, unit_physics):
    # call(f, out, s, src) is call(f, out, s) + src, and scale 1.0 is apply_b
    monkeypatch.setattr(stencils, "_SLAB_BYTES", slab_bytes)
    potential = PotentialField(rng.uniform(0.0, 1.0, size=grid.shape))
    f, src = FIELDS[field](grid, rng), FIELDS[field](grid, rng)
    bound = stencils.bind_b(grid, potential, unit_physics, order)
    scaled = bound(f, np.empty(grid.shape), scale)
    assert same_bits(bound(f, np.empty(grid.shape), scale, src), scaled + src)
    assert same_bits(bound(f, np.empty(grid.shape), 1.0),
                     apply_b(f, grid, potential, unit_physics, order))
    # the source may be the input itself, and in any memory layout
    fused = bound(f, np.empty(grid.shape), scale, np.asfortranarray(f))
    assert same_bits(fused, scaled + f)


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(st.integers(5, 12), min_size=1, max_size=2),
       dy=st.sampled_from([0.7, 1.1]), order=st.sampled_from(list(StencilOrder)),
       slab_bytes=st.sampled_from([1, stencils._SLAB_BYTES]), levels=st.booleans(),
       scale=st.sampled_from([1.0, -0.37, 2.5e3]), seed=st.integers(0, 2 ** 32 - 1))
def test_bound_b_matches_dense_oracle_and_adds_source_bit_for_bit(shape, dy, order, slab_bytes,
                                                                  levels, scale, seed):
    # dy = dx groups the axes; V with one level per row gives one-row slabs
    # the scalar diagonal
    rng = np.random.default_rng(seed)
    grid = (GridSpec(dims=1, nx=shape[0], dx=0.7) if len(shape) == 1
            else GridSpec(dims=2, nx=shape[0], dx=0.7, ny=shape[1], dy=dy))
    physics = PhysicalParams(mass=1.3, hbar=0.9)
    v = (rng.choice([-0.4, 0.0, 0.6], size=(grid.nx,) + (1,) * (grid.dims - 1))
         if levels else rng.uniform(-1.0, 1.0, size=grid.shape))
    potential = PotentialField(np.broadcast_to(v, grid.shape).copy())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stencils, "_SLAB_BYTES", slab_bytes)
        bound = stencils.bind_b(grid, potential, physics, order)
    f, src = rng.normal(size=grid.shape), rng.normal(size=grid.shape)
    plain, scaled = bound(f, np.empty(grid.shape)), bound(f, np.empty(grid.shape), scale)
    expected = (dense_b_matrix(grid, potential, physics, order) @ f.ravel()).reshape(grid.shape)
    assert np.abs(plain - expected).max() <= 1e-12 * np.abs(expected).max()
    assert np.abs(scaled - scale * expected).max() <= 1e-12 * np.abs(scale * expected).max()
    assert np.array_equal(bound(f, np.empty(grid.shape), scale, src), scaled + src)


def _address(a):
    return a.__array_interface__["data"][0]


@pytest.mark.parametrize("count, cells", [(1, 1), (1, 7), (2, 8), (2, 9), (2, 1001)])
def test_aligned_rows_start_on_cache_lines(count, cells):
    rows = stencils._aligned_rows(count, cells)
    assert rows.shape == (count, cells) and rows.dtype == float and rows.flags.writeable
    assert all(_address(r) % 64 == 0 and r.flags.c_contiguous for r in rows)
    assert rows.strides[0] % 64 == 0 and rows.strides[0] - 64 < 8 * cells <= rows.strides[0]


def _slab_buffers(call):
    """The scratch each slab of a bound B's loop starts from: p, and the shared
    sum a of each group whose axes share one weight."""
    slabs = dict(zip(call.__code__.co_freevars, (c.cell_contents for c in call.__closure__)))
    return [buf for slab in slabs["slabs"]
            for buf in (slab[4], *(group[-1][1] for group in slab[3] if group[-1]))]


@pytest.mark.parametrize("slab_bytes", [stencils._SLAB_BYTES, 3 * 9 * 8, 1])
@pytest.mark.parametrize("grid", [GridSpec(dims=1, nx=23, dx=0.7),
                                  GridSpec(dims=2, nx=23, dx=0.7, ny=9, dy=0.7),
                                  GridSpec(dims=2, nx=23, dx=0.7, ny=9, dy=1.1)],
                         ids=["1d", "2d-dx-eq-dy", "2d-dx-ne-dy"])
def test_bound_b_scratch_starts_on_cache_lines(monkeypatch, grid, slab_bytes, unit_physics):
    # 9-cell rows: one- and three-row slabs hold 9 and 27 cells, no multiple of 8,
    # and 23 rows leave a shorter last slab.  Where dx = dy the shared sums run
    # two rows past their slab, and the slab gives up those two rows
    monkeypatch.setattr(stencils, "_SLAB_BYTES", slab_bytes)
    bound = stencils.bind_b(grid, PotentialField.zeros(grid), unit_physics,
                            StencilOrder.FOURTH_ORDER)
    buffers = _slab_buffers(bound)
    shared = grid.dims == 2 and grid.dx == grid.dy
    rows = max(1, slab_bytes // (8 * (grid.ny or 1)) - 2 * shared)
    assert len(buffers) == (1 + 2 * shared) * -(-grid.nx // rows)
    assert all(_address(b) % 64 == 0 for b in buffers)


def test_bound_b_scratch_stays_two_slabs(unit_physics):
    # the shared sums' rows past the slab come out of the slab's own rows, and
    # every full slab shares its views of the scratch: a paper-scale bind holds
    # two slabs of scratch and not much more
    grid = GridSpec(dims=2, nx=800, dx=1.0, ny=800, dy=1.0)
    potential = quadrant_barrier(grid)
    peak = traced_peak(lambda: stencils.bind_b(grid, potential, unit_physics,
                                               StencilOrder.FOURTH_ORDER))
    assert peak <= 2 * stencils._SLAB_BYTES + (64 << 10)


def _placed(values, offset):
    """A copy of values whose first cell sits offset bytes past a 64-byte line."""
    raw = np.empty(values.size + 16)   # up to 7 cells to a line, then 4 more
    first = (-_address(raw) % 64 + offset) // 8
    out = raw[first:first + values.size].reshape(values.shape)
    out[...] = values
    return out


@pytest.mark.parametrize("slab_bytes", [stencils._SLAB_BYTES, 1])
@pytest.mark.parametrize("order", [StencilOrder.SECOND_ORDER, StencilOrder.FOURTH_ORDER])
@pytest.mark.parametrize("grid", [GridSpec(dims=1, nx=37, dx=0.7),
                                  GridSpec(dims=2, nx=23, dx=0.7, ny=19, dy=0.7),
                                  GridSpec(dims=2, nx=23, dx=0.7, ny=9, dy=1.1)])
def test_results_do_not_depend_on_plane_placement(rng, monkeypatch, grid, order, slab_bytes,
                                                  unit_physics):
    # numpy's loops peel a misaligned head off their vector body: every cell
    # must still come out with the same bits, under apply_b and a bound call alike
    monkeypatch.setattr(stencils, "_SLAB_BYTES", slab_bytes)
    potential = quadrant_barrier(grid)
    f, src = rng.normal(size=grid.shape), rng.normal(size=grid.shape)
    bound = stencils.bind_b(grid, potential, unit_physics, order)
    results = []
    for offset in (0, 8, 16, 32):
        f_at, src_at, out = (_placed(a, offset) for a in (f, src, np.zeros(grid.shape)))
        b = apply_b(f_at, grid, potential, unit_physics, order, out=_placed(f, offset))
        results.append((b, bound(f_at, out, -0.37, src_at)))
    for b, fused in results[1:]:
        assert np.array_equal(b, results[0][0]) and np.array_equal(fused, results[0][1])
