import math
import tracemalloc

import numpy as np
import pytest

from gfdtd import (ConfigurationError, DivergenceError, GridSpec, PhysicalParams,
                   PotentialField, SchemeConfig, StencilOrder, WaveField, apply_b,
                   apply_laplacian, step, step_imag, step_real, stencils)

from conftest import dense_b_matrix


def make_cfg(N, mu, grid, physics, order=StencilOrder.SECOND_ORDER):
    return SchemeConfig.from_mu(N, order, mu, physics, grid)


def classic_fdtd_step(wf, potential, grid, cfg):
    """Direct transcription of the original explicit update (N = 0):
    real -= dt * [ (hbar/2m) Lap(imag) - (V/hbar) imag ], then
    imag += dt * [ (hbar/2m) Lap(real) - (V/hbar) real ] with the new real.
    Written independently of the series machinery."""
    hbar, m = cfg.physics.hbar, cfg.physics.mass
    v = potential.values
    lap_i = apply_laplacian(wf.imag_part, grid, cfg.order)
    real = wf.real_part - cfg.dt * ((hbar / (2 * m)) * lap_i - (v / hbar) * wf.imag_part)
    lap_r = apply_laplacian(real, grid, cfg.order)
    imag = wf.imag_part + cfg.dt * ((hbar / (2 * m)) * lap_r - (v / hbar) * real)
    return real, imag


def test_dt_from_mu():
    grid = GridSpec(dims=1, nx=16, dx=0.5)
    physics = PhysicalParams(mass=2.0, hbar=0.5)
    cfg = make_cfg(0, 0.3, grid, physics)
    assert cfg.dt == pytest.approx(0.3 * 2 * 2.0 * 0.25 / 0.5, rel=1e-14)
    cfg.validate_against(grid)
    other = GridSpec(dims=1, nx=16, dx=0.7)
    with pytest.raises(ConfigurationError):
        cfg.validate_against(other)


@pytest.mark.parametrize("dt", [3.7e-18, 0.5, 2.0, 1.3e30, 1.0e33])
def test_series_coefficients_are_the_closed_form(dt):
    cfg = SchemeConfig(N=4, order=StencilOrder.SECOND_ORDER, mu=0.1, dt=dt,
                       physics=PhysicalParams(mass=1.0, hbar=1.0))
    half = 0.5 * dt
    assert cfg.series_coefficients() == [2.0 * half ** (2 * p + 1) / math.factorial(2 * p + 1)
                                         for p in range(5)]


def test_series_coefficients_overflow_to_inf():
    # (dt/2)^3 passes the float range: inf, not float pow's OverflowError
    cfg = SchemeConfig(N=2, order=StencilOrder.SECOND_ORDER, mu=0.1, dt=1.0e200,
                       physics=PhysicalParams(mass=1.0, hbar=1.0))
    with np.errstate(over="ignore"):
        assert cfg.series_coefficients() == [1.0e200, math.inf, math.inf]


def test_invalid_scheme_config():
    grid = GridSpec(dims=1, nx=16, dx=0.5)
    physics = PhysicalParams(mass=1.0, hbar=1.0)
    with pytest.raises(ConfigurationError):
        make_cfg(-1, 0.1, grid, physics)
    with pytest.raises(ConfigurationError):
        make_cfg(0, -0.1, grid, physics)
    with pytest.raises(ConfigurationError):
        make_cfg(9, 0.1, grid, physics)


def test_zero_source_leaves_component_unchanged(rng, small_grid_2d,
                                                constant_potential, unit_physics):
    cfg = make_cfg(2, 0.2, small_grid_2d, unit_physics)
    real = rng.normal(size=small_grid_2d.shape)
    wf = WaveField(real, np.zeros(small_grid_2d.shape))
    assert np.array_equal(step_real(wf, constant_potential, small_grid_2d, cfg), real)
    wf2 = WaveField(np.zeros(small_grid_2d.shape), rng.normal(size=small_grid_2d.shape))
    assert np.array_equal(step_imag(wf2, constant_potential, small_grid_2d, cfg),
                          wf2.imag_part)


def test_zero_field_is_fixed_point(small_grid_2d, unit_physics):
    potential = PotentialField.zeros(small_grid_2d)
    cfg = make_cfg(1, 0.2, small_grid_2d, unit_physics)
    wf = step(WaveField.zeros(small_grid_2d), potential, small_grid_2d, cfg)
    assert np.all(wf.real_part == 0.0) and np.all(wf.imag_part == 0.0)
    assert wf.real_time_index == 1


def test_n0_impulse_matches_hand_arithmetic(unit_physics):
    # single interior impulse in imag; N=0 real update is -dt * B(imag):
    # center gains dt*(2/dx^2 + 2/dy^2)*hbar/2m + dt*V/hbar, neighbors
    # lose dt*hbar/2m/dx^2 each
    grid = GridSpec(dims=2, nx=7, dx=0.5, ny=7, dy=0.5)
    v0 = 0.8
    potential = PotentialField(np.full(grid.shape, v0))
    cfg = make_cfg(0, 0.1, grid, unit_physics)
    imag = np.zeros(grid.shape)
    imag[3, 3] = 1.0
    wf = WaveField(np.zeros(grid.shape), imag)
    new_real = step_real(wf, potential, grid, cfg)
    dt, dx2 = cfg.dt, 0.25
    assert new_real[3, 3] == pytest.approx(dt * (0.5 * 4 / dx2 + v0), rel=1e-13)
    for (j, k) in [(2, 3), (4, 3), (3, 2), (3, 4)]:
        assert new_real[j, k] == pytest.approx(-dt * 0.5 / dx2, rel=1e-13)
    assert new_real[2, 2] == 0.0


@pytest.mark.parametrize("order", [StencilOrder.SECOND_ORDER, StencilOrder.FOURTH_ORDER])
def test_n0_equals_classic_fdtd(rng, order, small_grid_2d, unit_physics):
    potential = PotentialField(rng.uniform(0.0, 1.0, size=small_grid_2d.shape))
    cfg = make_cfg(0, 0.15, small_grid_2d, unit_physics, order)
    wf = WaveField(rng.normal(size=small_grid_2d.shape),
                   rng.normal(size=small_grid_2d.shape))
    expected_real, expected_imag = classic_fdtd_step(wf, potential, small_grid_2d, cfg)
    out = step(wf, potential, small_grid_2d, cfg)
    assert np.allclose(out.real_part, expected_real, rtol=1e-13, atol=1e-13)
    assert np.allclose(out.imag_part, expected_imag, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("N", [0, 1, 2])
def test_step_matches_dense_series_oracle(rng, N, small_grid_2d, unit_physics):
    potential = PotentialField(rng.uniform(0.0, 0.5, size=small_grid_2d.shape))
    cfg = make_cfg(N, 0.12, small_grid_2d, unit_physics)
    wf = WaveField(rng.normal(size=small_grid_2d.shape),
                   rng.normal(size=small_grid_2d.shape))

    bmat = dense_b_matrix(small_grid_2d, potential, unit_physics, cfg.order)
    r = wf.real_part.ravel().copy()
    i = wf.imag_part.ravel().copy()
    for p in range(N + 1):
        coeff = 2.0 * (cfg.dt / 2) ** (2 * p + 1) / math.factorial(2 * p + 1)
        term = np.linalg.matrix_power(bmat, 2 * p + 1) @ wf.imag_part.ravel()
        r += coeff * (-1.0) ** (p + 1) * term
    for p in range(N + 1):
        coeff = 2.0 * (cfg.dt / 2) ** (2 * p + 1) / math.factorial(2 * p + 1)
        term = np.linalg.matrix_power(bmat, 2 * p + 1) @ r
        i += coeff * (-1.0) ** p * term

    out = step(wf, potential, small_grid_2d, cfg)
    scale = max(np.abs(r).max(), np.abs(i).max())
    assert np.allclose(out.real_part.ravel(), r, rtol=1e-10, atol=1e-10 * scale)
    assert np.allclose(out.imag_part.ravel(), i, rtol=1e-10, atol=1e-10 * scale)


def test_n1_minus_n0_is_the_p1_term(small_grid_2d, unit_physics):
    # smooth field: difference between N=1 and N=0 imag updates equals
    # the isolated p=1 series term computed independently
    potential = PotentialField(np.full(small_grid_2d.shape, 0.2))
    cfg0 = make_cfg(0, 0.1, small_grid_2d, unit_physics)
    cfg1 = make_cfg(1, 0.1, small_grid_2d, unit_physics)
    x = np.arange(small_grid_2d.nx)[:, None]
    y = np.arange(small_grid_2d.ny)[None, :]
    real = np.exp(-0.1 * ((x - 4.0) ** 2 + (y - 4.0) ** 2))
    wf = WaveField(real, np.zeros(small_grid_2d.shape))
    out0 = step_imag(wf, potential, small_grid_2d, cfg0)
    out1 = step_imag(wf, potential, small_grid_2d, cfg1)

    bmat = dense_b_matrix(small_grid_2d, potential, unit_physics, cfg1.order)
    term = 2.0 * (cfg1.dt / 2) ** 3 / math.factorial(3) * (-1.0) \
        * (np.linalg.matrix_power(bmat, 3) @ real.ravel()).reshape(real.shape)
    assert np.allclose(out1 - out0, term, rtol=1e-10, atol=1e-12)


def test_stagger_order_matters(rng, small_grid_2d, unit_physics):
    # a Jacobi-style update (imag from the old real) must differ from the
    # leapfrog result
    potential = PotentialField.zeros(small_grid_2d)
    cfg = make_cfg(0, 0.2, small_grid_2d, unit_physics)
    wf = WaveField(rng.normal(size=small_grid_2d.shape),
                   rng.normal(size=small_grid_2d.shape))
    leapfrog = step(wf, potential, small_grid_2d, cfg)
    jacobi_imag = step_imag(wf, potential, small_grid_2d, cfg)  # uses old real
    assert not np.allclose(leapfrog.imag_part, jacobi_imag, rtol=1e-12, atol=1e-12)


def test_step_linearity(rng, small_grid_2d, unit_physics):
    potential = PotentialField(rng.uniform(0.0, 0.3, size=small_grid_2d.shape))
    cfg = make_cfg(2, 0.15, small_grid_2d, unit_physics)
    wf = WaveField(rng.normal(size=small_grid_2d.shape),
                   rng.normal(size=small_grid_2d.shape))
    c = 3.5
    scaled = WaveField(c * wf.real_part, c * wf.imag_part)
    out = step(wf, potential, small_grid_2d, cfg)
    out_scaled = step(scaled, potential, small_grid_2d, cfg)
    assert np.allclose(out_scaled.real_part, c * out.real_part, rtol=1e-12, atol=1e-12)
    assert np.allclose(out_scaled.imag_part, c * out.imag_part, rtol=1e-12, atol=1e-12)


def test_plane_wave_unit_modulus_under_stability():
    # 1-D, V=0, N=2, stable regime: the complex amplitude of a discrete
    # plane-wave eigenmode keeps modulus 1.  The oracle is the
    # amplification analysis: the per-step rotation angle phi satisfies
    # sin(phi/2) = S(x) with x the stencil symbol argument, and the
    # staggered eigenmode is real = cos(beta x), imag = sin(beta x - phi/2).
    from gfdtd import truncated_sine

    grid = GridSpec(dims=1, nx=256, dx=1.0)
    physics = PhysicalParams(mass=1.0, hbar=1.0)
    cfg = make_cfg(2, 0.3, grid, physics)
    potential = PotentialField.zeros(grid)
    beta = 2.0 * np.pi * 32 / grid.nx  # fits the projection window exactly
    xsym = 2 * cfg.mu * np.sin(beta * grid.dx / 2) ** 2
    phi = 2.0 * np.arcsin(truncated_sine(xsym, cfg.N))
    pts = np.arange(grid.nx)
    wf = WaveField(np.cos(beta * pts), np.sin(beta * pts - phi / 2))

    # Dirichlet-edge contamination travels <= 10 cells/step (5 B
    # applications per half step, halo 1); the window stays clean
    inner = np.arange(64, 192)
    mode = np.exp(-1j * beta * inner)
    out = wf
    for n in range(1, 4):
        out = step(out, potential, grid, cfg)
        amp_real = 2.0 * np.mean(out.real_part[inner] * mode)
        assert abs(amp_real) == pytest.approx(1.0, abs=1e-10)
        # and the accumulated phase matches the predicted rotation
        assert np.angle(amp_real) == pytest.approx(-n * phi, abs=1e-10)


def test_divergence_detection(small_grid_2d, unit_physics):
    # far beyond the stability limit every mode amplifies quickly
    potential = PotentialField.zeros(small_grid_2d)
    cfg = make_cfg(0, 5.0, small_grid_2d, unit_physics)
    wf = WaveField(np.ones(small_grid_2d.shape), np.zeros(small_grid_2d.shape))
    limit = 1e10 * wf.max_abs()
    with pytest.raises(DivergenceError) as excinfo:
        out = wf
        for _ in range(500):
            out = step(out, potential, small_grid_2d, cfg, max_abs_limit=limit)
    assert excinfo.value.step >= 1


def two_buffer_horner(source, grid, potential, cfg):
    """The stepper's former H source: two fresh planes, with each c_p f term
    and the old plane added in whole-plane passes outside apply_b."""
    coeffs = [-c if p % 2 else c for p, c in enumerate(cfg.series_coefficients())]
    u = np.multiply(source, coeffs[-1])
    v = np.empty_like(u)
    for a in reversed(coeffs[:-1]):
        apply_b(u, grid, potential, cfg.physics, cfg.order, out=v)
        apply_b(v, grid, potential, cfg.physics, cfg.order, out=u)
        np.multiply(source, a, out=v)
        u += v
    return apply_b(u, grid, potential, cfg.physics, cfg.order, out=v)


def two_buffer_step(field, potential, grid, cfg):
    real = field.real_part - two_buffer_horner(field.imag_part, grid, potential, cfg)
    imag = field.imag_part + two_buffer_horner(real, grid, potential, cfg)
    return real, imag


ORACLE_GRIDS = [GridSpec(dims=1, nx=23, dx=0.7),
                GridSpec(dims=2, nx=11, dx=0.7, ny=9, dy=1.1),
                GridSpec(dims=2, nx=11, dx=0.7, ny=11, dy=0.7),
                GridSpec(dims=2, nx=12, dx=0.7, ny=9, dy=0.7)]


@pytest.mark.parametrize("slab_bytes", [stencils._SLAB_BYTES, 1])
@pytest.mark.parametrize("order", [StencilOrder.SECOND_ORDER, StencilOrder.FOURTH_ORDER])
@pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=["1d", "2d", "2d-square", "2d-12x9-dx=dy"])
@pytest.mark.parametrize("N", [0, 1, 2, 3, 4])
def test_step_bit_identical_to_two_buffer_horner(rng, monkeypatch, N, grid, order,
                                                 slab_bytes):
    # the fused update reorders no floating-point operation: negated
    # coefficients give -H exactly, and a + (-h) is a - h
    monkeypatch.setattr(stencils, "_SLAB_BYTES", slab_bytes)
    physics = PhysicalParams(mass=1.3, hbar=0.9)
    potential = PotentialField(rng.uniform(0.0, 1.0, size=grid.shape))
    cfg = make_cfg(N, 0.05, grid, physics, order)
    wf = WaveField(rng.normal(size=grid.shape), rng.normal(size=grid.shape))
    for _ in range(20):
        real, imag = two_buffer_step(wf, potential, grid, cfg)
        assert np.array_equal(step_real(wf, potential, grid, cfg), real)
        assert np.array_equal(step_imag(WaveField(real, wf.imag_part), potential, grid, cfg),
                              imag)
        wf = step(wf, potential, grid, cfg)
        assert np.array_equal(wf.real_part, real) and np.array_equal(wf.imag_part, imag)


@pytest.mark.parametrize("order", [StencilOrder.SECOND_ORDER, StencilOrder.FOURTH_ORDER])
@pytest.mark.parametrize("N", [0, 1, 2, 3])
def test_leapfrog_conserves_q_exactly(rng, N, order, unit_physics):
    # Q_n = R_n.R_n + I_{n+1/2}.I_{n-1/2} (Visscher 1991) is invariant for a
    # symmetric H, so its drift is round-off alone; an asymmetric B shows
    grid = GridSpec(dims=2, nx=40, dx=1.0, ny=40, dy=1.0)
    potential = PotentialField(rng.uniform(0.0, 0.5, size=grid.shape))
    cfg = make_cfg(N, 0.1, grid, unit_physics, order)
    wf = WaveField(rng.normal(size=grid.shape), rng.normal(size=grid.shape))
    q = []
    for _ in range(500):
        new = step(wf, potential, grid, cfg)
        q.append(np.vdot(new.real_part, new.real_part)
                 + np.vdot(new.imag_part, wf.imag_part))
        wf = new
    assert max(abs(value - q[0]) for value in q) <= 1e-12 * abs(q[0])


def test_step_allocates_three_planes(rng, unit_physics):
    # the two planes of the new field and one scratch plane shared by both
    # half steps, next to apply_b's own slab scratch and a few small objects
    grid = GridSpec(dims=2, nx=200, dx=1.0, ny=200, dy=1.0)
    potential = PotentialField(rng.uniform(0.0, 0.5, size=grid.shape))
    cfg = make_cfg(2, 0.1, grid, unit_physics, StencilOrder.FOURTH_ORDER)
    wf = WaveField(rng.normal(size=grid.shape), rng.normal(size=grid.shape))
    buf = np.empty(grid.shape)
    step(wf, potential, grid, cfg)   # plans cached before tracing

    def traced_peak(fn):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    scratch = traced_peak(lambda: apply_b(wf.real_part, grid, potential, cfg.physics,
                                          cfg.order, out=buf, add=(0.5, wf.imag_part)))
    peak = traced_peak(lambda: step(wf, potential, grid, cfg))
    assert peak <= 3 * buf.nbytes + scratch + 4096
