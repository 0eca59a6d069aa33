import numpy as np
import pytest

from gfdtd import GridSpec, PhysicalParams, PotentialField, stencils


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def unit_physics():
    """Dimensionless-friendly constants for operator-level tests."""
    return PhysicalParams(mass=1.0, hbar=1.0)


@pytest.fixture
def small_grid_2d():
    return GridSpec(dims=2, nx=8, dx=1.0, ny=8, dy=1.0)


@pytest.fixture
def small_grid_1d():
    return GridSpec(dims=1, nx=16, dx=0.5)


def dense_laplacian_matrix(grid, order):
    """Independent dense assembly of the Dirichlet-truncated Laplacian.

    Built directly from the stencil weights, not from apply_laplacian,
    so it can serve as an oracle for it.
    """
    if order.value == 2:
        weights = {-1: 1.0, 0: -2.0, 1: 1.0}
    else:
        weights = {-2: -1.0 / 12.0, -1: 16.0 / 12.0, 0: -30.0 / 12.0,
                   1: 16.0 / 12.0, 2: -1.0 / 12.0}
    if grid.dims == 1:
        n = grid.nx
        mat = np.zeros((n, n))
        for i in range(n):
            for off, w in weights.items():
                j = i + off
                if 0 <= j < n:
                    mat[i, j] += w / grid.dx ** 2
        return mat
    nx, ny = grid.nx, grid.ny
    n = nx * ny
    mat = np.zeros((n, n))
    for jx in range(nx):
        for jy in range(ny):
            row = jx * ny + jy
            for off, w in weights.items():
                ix = jx + off
                if 0 <= ix < nx:
                    mat[row, ix * ny + jy] += w / grid.dx ** 2
                iy = jy + off
                if 0 <= iy < ny:
                    mat[row, jx * ny + iy] += w / grid.dy ** 2
    return mat


def dense_b_matrix(grid, potential, physics, order):
    """Dense matrix of B = (hbar/2m) Laplacian - V/hbar."""
    lap = dense_laplacian_matrix(grid, order)
    v = np.diag(potential.values.ravel() / physics.hbar)
    return (physics.hbar / (2.0 * physics.mass)) * lap - v


@pytest.fixture
def constant_potential(small_grid_2d):
    return PotentialField(np.full(small_grid_2d.shape, 0.3))


def lopsided_bind_b(grid, potential, physics, order):
    """A stand-in for stencils.bind_b whose B is not symmetric: each row (cell
    in 1-D) also takes 1e20 times the one before it."""
    bound = stencils.bind_b(grid, potential, physics, order)

    def call(f, out, *scale_src):
        bound(f, out, *scale_src)
        out[1:] += 1e20 * f[:-1]
        return out

    return call


def quadrant_barrier(grid, height=0.8):
    """A barrier of the given height on the upper half of the leading axis
    and the upper two thirds of the second, zero elsewhere: the rows before
    it hold one level, the rows through it two (one in 1-D, a step)."""
    values = np.zeros(grid.shape)
    corner = (grid.nx // 2, (grid.ny or 0) // 3)[:grid.dims]
    values[tuple(slice(i, None) for i in corner)] = height
    return PotentialField(values)
