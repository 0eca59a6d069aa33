import math
import tracemalloc

import numpy as np
import pytest

from gfdtd import (ConfigurationError, GridSpec, PhysicalParams, PotentialField,
                   Propagator, SchemeConfig, StencilOrder, WaveField, apply_laplacian,
                   energy_expectation, run, step, stencils)

from conftest import dense_b_matrix, quadrant_barrier


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


@pytest.mark.parametrize("dt", [3.7e-18, 0.5, 2.0, 1.3e30, 1.0e33])
def test_horner_ratios_are_the_closed_form(dt):
    # r_p is exact in one multiply and one divide, and the ratios chain dt to
    # H's Taylor coefficients 2 (dt/2)^(2p+1) / (2p+1)!
    cfg = SchemeConfig(N=4, order=StencilOrder.SECOND_ORDER, mu=0.1, dt=dt,
                       physics=PhysicalParams(mass=1.0, hbar=1.0))
    half = 0.5 * dt
    ratios = cfg.horner_ratios()
    assert ratios == [half * half / ((2 * p + 2) * (2 * p + 3)) for p in range(4)]
    for p in range(5):
        chained = dt * math.prod(ratios[:p])
        assert chained == pytest.approx(2.0 * half ** (2 * p + 1) / math.factorial(2 * p + 1),
                                        rel=1e-14)


def test_horner_ratios_overflow_to_inf():
    # (dt/2)^2 passes the float range: inf, not float pow's OverflowError
    cfg = SchemeConfig(N=2, order=StencilOrder.SECOND_ORDER, mu=0.1, dt=1.0e200,
                       physics=PhysicalParams(mass=1.0, hbar=1.0))
    with np.errstate(over="ignore"):
        assert cfg.horner_ratios() == [math.inf, math.inf]


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
    assert np.array_equal(step(wf, constant_potential, small_grid_2d, cfg).real_part, real)


def test_zero_field_is_fixed_point(small_grid_2d, unit_physics):
    potential = PotentialField.zeros(small_grid_2d)
    cfg = make_cfg(1, 0.2, small_grid_2d, unit_physics)
    wf = step(WaveField.zeros(small_grid_2d), potential, small_grid_2d, cfg)
    assert np.all(wf.real_part == 0.0) and np.all(wf.imag_part == 0.0)


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
    new_real = step(wf, potential, grid, cfg).real_part
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
    out0 = step(wf, potential, small_grid_2d, cfg0).imag_part
    out1 = step(wf, potential, small_grid_2d, cfg1).imag_part

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
    # uses old real: the real half step leaves real alone when imag is zero
    zeros = np.zeros(small_grid_2d.shape)
    jacobi_imag = wf.imag_part + step(WaveField(wf.real_part, zeros), potential,
                                      small_grid_2d, cfg).imag_part
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
    # far beyond the stability limit every mode amplifies quickly; run()
    # stops at the first step whose max exceeds 1e10 times the initial max
    # and returns the field of the step before, bit for bit
    potential = PotentialField.zeros(small_grid_2d)
    cfg = make_cfg(0, 5.0, small_grid_2d, unit_physics)
    wf = WaveField(np.ones(small_grid_2d.shape), np.zeros(small_grid_2d.shape))
    fields = [wf]
    while fields[-1].max_abs() <= 1e10 * wf.max_abs():
        assert len(fields) <= 500
        fields.append(step(fields[-1], potential, small_grid_2d, cfg))
    final, log = run(wf, potential, small_grid_2d, cfg, steps=500)
    assert log.divergence_step == len(fields) - 1 >= 1
    assert np.array_equal(final.real_part, fields[-2].real_part)
    assert np.array_equal(final.imag_part, fields[-2].imag_part)


def two_buffer_horner(source, old, dt, grid, potential, cfg):
    """old + dt * B(f - r_0 B^2(f - r_1 B^2(f - ...))) for f = source, unfused:
    two fresh planes, the bound B at each scale without a source, then each f
    term and the old plane added in whole-plane passes outside B."""
    b, half = stencils.bind_b(grid, potential, cfg.physics, cfg.order), 0.5 * cfg.dt
    u, v = source.copy(), np.empty(grid.shape)
    for p in reversed(range(cfg.N)):
        b(u, v)
        b(v, u, -(half * half / ((2 * p + 2) * (2 * p + 3))))
        u += source
    b(u, v, dt)
    v += old
    return v


def two_buffer_step(field, potential, grid, cfg):
    real = two_buffer_horner(field.imag_part, field.real_part, -cfg.dt, grid, potential, cfg)
    imag = two_buffer_horner(real, field.imag_part, cfg.dt, grid, potential, cfg)
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
    # adding each source inside B's slab loop reorders no floating-point
    # operation: every element of scale * B f is formed, then the source added
    monkeypatch.setattr(stencils, "_SLAB_BYTES", slab_bytes)
    physics = PhysicalParams(mass=1.3, hbar=0.9)
    potential = PotentialField(rng.uniform(0.0, 1.0, size=grid.shape))
    cfg = make_cfg(N, 0.05, grid, physics, order)
    wf = WaveField(rng.normal(size=grid.shape), rng.normal(size=grid.shape))
    for _ in range(20):
        real, imag = two_buffer_step(wf, potential, grid, cfg)
        wf = step(wf, potential, grid, cfg)
        assert np.array_equal(wf.real_part, real) and np.array_equal(wf.imag_part, imag)


@pytest.mark.parametrize("potential", ["uniform", "quadrant"])
@pytest.mark.parametrize("slab_bytes", [stencils._SLAB_BYTES, 1])
@pytest.mark.parametrize("order", [StencilOrder.SECOND_ORDER, StencilOrder.FOURTH_ORDER])
@pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=["1d", "2d", "2d-square", "2d-12x9-dx=dy"])
@pytest.mark.parametrize("N", [0, 1, 2, 3, 4])
def test_propagator_bit_identical_to_two_buffer_horner(rng, monkeypatch, N, grid, order,
                                                       slab_bytes, potential):
    # one Propagator, B bound once, over 20 steps: the same oracle as step;
    # under the quadrant barrier the rows before it take the scalar diagonal
    monkeypatch.setattr(stencils, "_SLAB_BYTES", slab_bytes)
    physics = PhysicalParams(mass=1.3, hbar=0.9)
    potential = (PotentialField(rng.uniform(0.0, 1.0, size=grid.shape))
                 if potential == "uniform" else quadrant_barrier(grid))
    cfg = make_cfg(N, 0.05, grid, physics, order)
    propagator = Propagator(grid, potential, cfg)
    wf = WaveField(rng.normal(size=grid.shape), rng.normal(size=grid.shape))
    for _ in range(20):
        real, imag = two_buffer_step(wf, potential, grid, cfg)
        wf = propagator.step(wf)
        assert np.array_equal(wf.real_part, real) and np.array_equal(wf.imag_part, imag)


@pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=["1d", "2d", "2d-square", "2d-12x9-dx=dy"])
def test_propagator_equals_repeated_step(rng, grid):
    physics = PhysicalParams(mass=1.3, hbar=0.9)
    potential = PotentialField(rng.uniform(0.0, 1.0, size=grid.shape))
    cfg = make_cfg(2, 0.05, grid, physics, StencilOrder.FOURTH_ORDER)
    propagator = Propagator(grid, potential, cfg)
    bound = stepped = WaveField(rng.normal(size=grid.shape), rng.normal(size=grid.shape))
    for _ in range(20):
        bound, stepped = propagator.step(bound), step(stepped, potential, grid, cfg)
    assert np.array_equal(bound.real_part, stepped.real_part)
    assert np.array_equal(bound.imag_part, stepped.imag_part)


@pytest.mark.parametrize("grid, shape", [(GridSpec(dims=1, nx=23, dx=0.7), (22,)),
                                         (GridSpec(dims=1, nx=23, dx=0.7), (23, 1)),
                                         (GridSpec(dims=2, nx=11, dx=0.7, ny=9, dy=1.1), (9, 11)),
                                         (GridSpec(dims=2, nx=11, dx=0.7, ny=9, dy=1.1), (99,))])
def test_propagator_rejects_misshapen_planes(grid, shape, unit_physics):
    # a ConfigurationError naming the plane, never a numpy broadcast error
    cfg = make_cfg(2, 0.05, grid, unit_physics, StencilOrder.FOURTH_ORDER)
    with pytest.raises(ConfigurationError, match="potential shape"):
        Propagator(grid, PotentialField(np.zeros(shape)), cfg)
    propagator = Propagator(grid, PotentialField.zeros(grid), cfg)
    with pytest.raises(ConfigurationError, match="field shape"):
        propagator.step(WaveField(np.zeros(shape), np.zeros(shape)))


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


def traced_peak(fn):
    """Peak bytes tracemalloc sees while fn runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_step_allocates_three_planes(rng, unit_physics):
    # the two planes of the new field and one scratch plane shared by both
    # half steps, next to the bound B's own slab scratch and a few small objects
    grid = GridSpec(dims=2, nx=200, dx=1.0, ny=200, dy=1.0)
    potential = PotentialField(rng.uniform(0.0, 0.5, size=grid.shape))
    cfg = make_cfg(2, 0.1, grid, unit_physics, StencilOrder.FOURTH_ORDER)
    wf = WaveField(rng.normal(size=grid.shape), rng.normal(size=grid.shape))
    buf = np.empty(grid.shape)
    step(wf, potential, grid, cfg)   # warm-up before tracing
    scratch = traced_peak(lambda: stencils.bind_b(grid, potential, cfg.physics, cfg.order)(
        wf.real_part, buf, 0.5, wf.imag_part))
    peak = traced_peak(lambda: step(wf, potential, grid, cfg))
    assert peak <= 3 * buf.nbytes + scratch + 4096
    propagator = Propagator(grid, potential, cfg)   # its slab scratch is held, not traced
    assert traced_peak(lambda: propagator.step(wf)) <= 3 * buf.nbytes + 4096


def test_n0_step_allocates_only_the_new_field(rng, unit_physics):
    # classic FDTD: each half step is the one call old +- dt B source, so the
    # new field's two planes are all a step allocates
    grid = GridSpec(dims=2, nx=200, dx=1.0, ny=200, dy=1.0)
    potential = PotentialField(rng.uniform(0.0, 0.5, size=grid.shape))
    cfg = make_cfg(0, 0.1, grid, unit_physics, StencilOrder.FOURTH_ORDER)
    wf = WaveField(rng.normal(size=grid.shape), rng.normal(size=grid.shape))
    propagator = Propagator(grid, potential, cfg)
    propagator.step(wf)   # warm-up before tracing
    assert traced_peak(lambda: propagator.step(wf)) <= 2 * wf.real_part.nbytes + 4096


def traced_run(wf, potential, grid, cfg):
    """run() over 5 steps with an observation at each, under tracemalloc:
    (bytes held at each observation, peak bytes, log), both above the base."""
    run(wf, potential, grid, cfg, steps=1)   # warm-up before tracing
    between = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, log = run(wf, potential, grid, cfg, steps=5, snapshot_every=1,
                     on_snapshot=lambda *_: between.append(tracemalloc.get_traced_memory()[0]))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert not log.diverged and len(between) == 6
    return [held - base for held in between], peak


def test_run_keeps_no_plane_between_steps(rng, unit_physics):
    # between steps only the field itself is alive next to the Propagator's
    # slab scratch; within a step, the next field and one scratch plane join it
    grid = GridSpec(dims=2, nx=200, dx=1.0, ny=200, dy=1.0)
    potential = PotentialField(rng.uniform(0.0, 0.5, size=grid.shape))
    cfg = make_cfg(2, 0.1, grid, unit_physics, StencilOrder.FOURTH_ORDER)
    wf = WaveField(rng.normal(size=grid.shape), rng.normal(size=grid.shape))
    plane, scratch = wf.real_part.nbytes, 2 * stencils._SLAB_BYTES   # x and y pair sums
    small = plane // 5   # records, report, array headers: far below one more plane
    between, peak = traced_run(wf, potential, grid, cfg)
    assert all(held <= 2 * plane + scratch + small for held in between)
    assert peak <= 5 * plane + scratch + small


def test_n0_run_peaks_at_two_planes_besides_the_field(rng, unit_physics):
    # a classic FDTD step adds only the next field; an observation, which
    # shares the Propagator's bound B and its slab scratch, at most two planes
    grid = GridSpec(dims=2, nx=200, dx=1.0, ny=200, dy=1.0)
    potential = PotentialField(rng.uniform(0.0, 0.5, size=grid.shape))
    cfg = make_cfg(0, 0.1, grid, unit_physics, StencilOrder.FOURTH_ORDER)
    wf = WaveField(rng.normal(size=grid.shape), rng.normal(size=grid.shape))
    plane, scratch = wf.real_part.nbytes, 2 * stencils._SLAB_BYTES
    _, peak = traced_run(wf, potential, grid, cfg)
    assert peak <= 2 * plane + 2 * plane + scratch + plane // 5


def test_run_binds_b_once_for_stepping(rng, monkeypatch, unit_physics):
    # B is bound once for the whole run, whatever its step count: every
    # observation's energy goes through the Propagator's bound B, with the
    # bits of an energy_expectation that binds its own
    grid = GridSpec(dims=2, nx=12, dx=0.7, ny=9, dy=0.7)
    potential = PotentialField(rng.uniform(0.0, 0.5, size=grid.shape))
    cfg = make_cfg(2, 0.05, grid, unit_physics, StencilOrder.FOURTH_ORDER)
    wf = WaveField(rng.normal(size=grid.shape), rng.normal(size=grid.shape))
    bind, calls = stencils._bind, []
    monkeypatch.setattr(stencils, "_bind", lambda *args: calls.append(args) or bind(*args))
    for steps, every in ((20, 5), (4, 1)):   # five observations each
        calls.clear()
        seen = []
        _, log = run(wf, potential, grid, cfg, steps=steps, snapshot_every=every,
                     on_snapshot=lambda field, record: seen.append((field, record)))
        assert len(log.records) == 5 and len(calls) == 1
        assert all(record.energy_j == energy_expectation(field, potential, grid, cfg.physics,
                                                         cfg.order) for field, record in seen)
