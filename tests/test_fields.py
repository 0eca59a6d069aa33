import tracemalloc

import numpy as np
import pytest

from gfdtd import (ANGSTROM, ConfigurationError, DegenerateFieldError,
                   GaussianPacketSpec, GridSpec, PhysicalParams, PotentialField, WaveField,
                   gaussian_packet, norm, normalize)

from conftest import traced_peak


def test_grid_invariants():
    with pytest.raises(ConfigurationError):
        GridSpec(dims=1, nx=4, dx=1.0)
    with pytest.raises(ConfigurationError):
        GridSpec(dims=2, nx=8, dx=1.0, ny=8, dy=-1.0)
    with pytest.raises(ConfigurationError):
        GridSpec(dims=3, nx=8, dx=1.0)
    with pytest.raises(ConfigurationError):
        GridSpec(dims=1, nx=8, dx=1.0, ny=8)  # ny forbidden in 1-D


def test_grid_spacing_and_cell_volume():
    assert GridSpec(dims=1, nx=8, dx=0.5).spacing == (0.5,)
    assert GridSpec(dims=1, nx=8, dx=0.5).cell_volume == 0.5
    grid = GridSpec(dims=2, nx=8, dx=0.3, ny=6, dy=0.7)
    assert grid.spacing == (0.3, 0.7)
    assert grid.cell_volume == 0.3 * 0.7


@pytest.mark.parametrize("hbar", [1e-310, np.float64(1e-310), 5e-324])
def test_hbar_without_finite_reciprocal_rejected(hbar):
    # B scales V by -1/hbar, and 0 * inf would turn every V = 0 cell into NaN
    with pytest.raises(ConfigurationError, match="1/hbar"):
        PhysicalParams(mass=1e-300, hbar=hbar)
    assert PhysicalParams(mass=1e-300, hbar=1e-308).hbar == 1e-308


def test_norm_zero_field(small_grid_2d):
    assert norm(WaveField.zeros(small_grid_2d), small_grid_2d) == 0.0


def test_norm_single_point():
    grid = GridSpec(dims=2, nx=5, dx=1.0, ny=5, dy=1.0)
    real = np.zeros(grid.shape)
    real[2, 2] = 1.0
    assert norm(WaveField(real, np.zeros(grid.shape)), grid) == 1.0


def test_norm_shape_mismatch(small_grid_2d):
    wf = WaveField(np.zeros((3, 3)), np.zeros((3, 3)))
    with pytest.raises(ConfigurationError):
        norm(wf, small_grid_2d)


def test_norm_gaussian_against_direct_summation():
    # sigma spans 10 cells on a 200x200 grid, packet before normalization
    grid = GridSpec(dims=2, nx=200, dx=0.1 * ANGSTROM, ny=200, dy=0.1 * ANGSTROM)
    spec = GaussianPacketSpec(sigma=1.0 * ANGSTROM, wavelength=1.0 * ANGSTROM,
                              center_j=50, center_k=50, normalize=False)
    wf = gaussian_packet(spec, grid)

    # brute-force oracle: explicit double loop over grid points
    total = 0.0
    for j in range(grid.nx):
        for k in range(grid.ny):
            total += wf.real_part[j, k] ** 2 + wf.imag_part[j, k] ** 2
    expected = total * grid.dx * grid.dy
    assert norm(wf, grid) == pytest.approx(expected, rel=1e-13)


def test_normalize_scaling(small_grid_2d):
    real = np.full(small_grid_2d.shape, 0.25)
    wf = WaveField(real, np.zeros(small_grid_2d.shape))
    n = norm(wf, small_grid_2d)
    scaled = normalize(wf, small_grid_2d)
    assert np.allclose(scaled.real_part, real / np.sqrt(n))
    assert norm(scaled, small_grid_2d) == pytest.approx(1.0, rel=1e-12)
    # the scaling is in place on a copy: the input's planes keep their values
    assert (wf.real_part == 0.25).all() and (wf.imag_part == 0.0).all()
    assert not np.shares_memory(scaled.real_part, real)


def test_normalize_idempotent(rng, small_grid_2d):
    wf = WaveField(rng.normal(size=small_grid_2d.shape),
                   rng.normal(size=small_grid_2d.shape))
    once = normalize(wf, small_grid_2d)
    twice = normalize(once, small_grid_2d)
    assert np.allclose(once.real_part, twice.real_part, rtol=1e-12, atol=0)
    assert np.allclose(once.imag_part, twice.imag_part, rtol=1e-12, atol=0)


def test_normalize_zero_field_raises(small_grid_2d):
    with pytest.raises(DegenerateFieldError):
        normalize(WaveField.zeros(small_grid_2d), small_grid_2d)


def test_norm_phase_rotation_invariance(rng, small_grid_2d):
    wf = WaveField(rng.normal(size=small_grid_2d.shape),
                   rng.normal(size=small_grid_2d.shape))
    base = norm(wf, small_grid_2d)
    for theta in (0.3, 1.1, 2.9):
        c, s = np.cos(theta), np.sin(theta)
        rotated = WaveField(c * wf.real_part - s * wf.imag_part,
                            s * wf.real_part + c * wf.imag_part)
        assert norm(rotated, small_grid_2d) == pytest.approx(base, rel=1e-12)


def test_norm_quadratic_scaling(rng, small_grid_2d):
    wf = WaveField(rng.normal(size=small_grid_2d.shape),
                   rng.normal(size=small_grid_2d.shape))
    base = norm(wf, small_grid_2d)
    for c in (0.5, 2.0, 7.25):
        scaled = WaveField(c * wf.real_part, c * wf.imag_part)
        assert norm(scaled, small_grid_2d) == pytest.approx(c * c * base, rel=1e-12)


def test_norm_builds_no_plane(rng):
    # two dot products: a density plane would cost a whole plane of 512 KiB
    grid = GridSpec(dims=2, nx=256, dx=1.0, ny=256, dy=1.0)
    wf = WaveField(rng.normal(size=grid.shape), rng.normal(size=grid.shape))
    assert traced_peak(lambda: norm(wf, grid)) < wf.real_part.nbytes


@pytest.mark.parametrize("nan_plane", ["real_part", "imag_part"])
def test_max_abs_reports_nan_from_either_plane(nan_plane):
    planes = {"real_part": np.array([1.0, -3.0, 2.0]), "imag_part": np.array([0.5, 0.0, -1.0])}
    assert WaveField(**planes).max_abs() == 3.0
    planes[nan_plane] = np.array([1.0, np.nan, 2.0])
    assert np.isnan(WaveField(**planes).max_abs())


@pytest.mark.parametrize("plane", ["real_part", "imag_part"])
@pytest.mark.parametrize("extreme", [-7.5, 7.5, -np.inf, np.inf])
def test_max_abs_equals_largest_magnitude(plane, extreme):
    planes = {"real_part": np.array([[1.0, -3.0], [2.0, 0.5]]),
              "imag_part": np.array([[0.5, -0.25], [-1.0, 2.5]])}
    planes[plane] = planes[plane].copy()
    planes[plane][1, 0] = extreme
    expected = max(np.abs(planes["real_part"]).max(), np.abs(planes["imag_part"]).max())
    assert expected == abs(extreme)
    assert WaveField(**planes).max_abs() == expected
    # a NaN in the other plane wins over any extreme, +-inf included
    other = "imag_part" if plane == "real_part" else "real_part"
    planes[other] = np.array([[np.nan, 0.0], [0.0, 0.0]])
    assert np.isnan(WaveField(**planes).max_abs())


def test_max_abs_allocates_no_plane():
    # 800^2 planes are 5 MB each; the reductions may allocate only scalars
    rng = np.random.default_rng(3)
    wf = WaveField(rng.normal(size=(800, 800)), rng.normal(size=(800, 800)))
    wf.max_abs()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        wf.max_abs()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_potential_values_are_a_read_only_view_of_the_input():
    # no copy, so no second plane; a write would change a bound B on some rows only
    given = np.zeros((6, 5))
    potential = PotentialField(given)
    assert np.shares_memory(potential.values, given)
    with pytest.raises(ValueError):
        potential.values[0, 0] = 1.0
    assert given.flags.writeable
