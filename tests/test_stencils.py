import numpy as np
import pytest

from gfdtd import (ConfigurationError, GridSpec, PhysicalParams, PotentialField,
                   StencilOrder, apply_b, apply_b_power, apply_laplacian, stencils)

from conftest import dense_b_matrix, dense_laplacian_matrix


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


@pytest.mark.parametrize("order", [StencilOrder.SECOND_ORDER, StencilOrder.FOURTH_ORDER])
def test_b_exactly_transpose_symmetric(rng, order, unit_physics):
    # square grid, V = V.T: every operation of the kernel treats x and y
    # alike, so transposing the input transposes the output bit for bit
    grid = GridSpec(dims=2, nx=11, dx=0.7, ny=11, dy=0.7)
    v = rng.uniform(0.0, 1.0, size=grid.shape)
    potential = PotentialField(v + v.T)
    f = rng.normal(size=grid.shape)
    out = apply_b(f, grid, potential, unit_physics, order)
    assert np.array_equal(apply_b(f.T, grid, potential, unit_physics, order), out.T)
    assert np.array_equal(apply_laplacian(f.T, grid, order), apply_laplacian(f, grid, order).T)


@pytest.mark.parametrize("order", [StencilOrder.SECOND_ORDER, StencilOrder.FOURTH_ORDER])
@pytest.mark.parametrize("grid", [GridSpec(dims=1, nx=23, dx=0.7),
                                  GridSpec(dims=2, nx=23, dx=0.7, ny=9, dy=1.1)])
def test_row_slabs_do_not_change_a_bit(rng, monkeypatch, grid, order, unit_physics):
    # whole plane in one slab versus the thinnest slabs, the last of which
    # overlaps its neighbour
    potential = PotentialField(rng.uniform(0.0, 1.0, size=grid.shape))
    f = rng.normal(size=grid.shape)
    whole_b = apply_b(f, grid, potential, unit_physics, order)
    whole_lap = apply_laplacian(f, grid, order)
    monkeypatch.setattr(stencils, "_SLAB_BYTES", 1)
    assert np.array_equal(apply_b(f, grid, potential, unit_physics, order), whole_b)
    assert np.array_equal(apply_laplacian(f, grid, order), whole_lap)

