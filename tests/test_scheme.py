import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gfdtd import (ANGSTROM, EV, BarrierSpec, ConfigurationError, GaussianPacketSpec,
                   GridSpec, PhysicalParams, PotentialField, Propagator, RunRecord,
                   SchemeConfig, StencilOrder, WaveField, apply_laplacian, barrier_potential,
                   energy_expectation, gaussian_packet, norm, parse_config, run, step,
                   stencils)
from gfdtd.fields import density
from gfdtd.stencils import FLOOR

from conftest import dense_b_matrix, quadrant_barrier, same_bits, traced_peak


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


def flush_level(field):
    """The flush level a first field fixes: 2^-100 of its max |value|, at least FLOOR,
    and FLOOR if that max is not finite."""
    m = field.max_abs()
    return max(FLOOR, 2.0 ** -100 * m) if np.isfinite(m) else FLOOR


class FlushingOracle:
    """two_buffer_step with the Propagator's flush after each half step: in the new
    plane, |x| < level and x != 0 becomes +0.0 (-0.0 is kept), until a half step's
    new plane holds no |x| < level, 0 included.  The first field stepped fixes the
    level; cut counts the cells flushed."""

    def __init__(self, potential, grid, cfg):
        self.args, self.level, self.cut = (potential, grid, cfg), None, 0

    def _flush(self, plane):
        low = np.abs(plane) < self.level
        flushed = low & (plane != 0)
        self.cut += np.count_nonzero(flushed)
        plane[flushed] = 0.0
        if not low.any():
            self.level = False

    def step(self, field):
        potential, grid, cfg = self.args
        if self.level is None:
            self.level = flush_level(field)
        real = two_buffer_horner(field.imag_part, field.real_part, -cfg.dt, grid, potential, cfg)
        if self.level:
            self._flush(real)
        imag = two_buffer_horner(real, field.imag_part, cfg.dt, grid, potential, cfg)
        if self.level:
            self._flush(imag)
        return WaveField(real, imag)


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


@pytest.mark.parametrize("N", [0, 2])
def test_step_writes_the_new_field_into_one_block(rng, N, unit_physics):
    # one (2, *shape) allocation per step: a freed field's block is reused
    # whole instead of the heap top being trimmed and faulted back
    grid = GridSpec(dims=2, nx=12, dx=1.0, ny=9, dy=1.0)
    potential = PotentialField(rng.uniform(0.0, 0.5, size=grid.shape))
    cfg = make_cfg(N, 0.1, grid, unit_physics, StencilOrder.FOURTH_ORDER)
    wf = WaveField(rng.normal(size=grid.shape), rng.normal(size=grid.shape))
    new = Propagator(grid, potential, cfg).step(wf)
    block = new.real_part.base
    assert block is not None and block is new.imag_part.base
    assert block.shape == (2, *grid.shape)
    assert np.shares_memory(new.real_part, block[0]) and np.shares_memory(new.imag_part, block[1])


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


# a 0.5 A packet at (50, 50) of a 200^2 grid at 0.1 A: its tails underflow inside
# the grid, so without the floor its planes carry subnormals from step 0
TAIL_GRID = GridSpec(dims=2, nx=200, dx=0.1 * ANGSTROM, ny=200, dy=0.1 * ANGSTROM)
TAIL_PACKET = GaussianPacketSpec(sigma=0.5 * ANGSTROM, wavelength=1.0 * ANGSTROM,
                                 center_j=50, center_k=50)
TAIL_BARRIER = BarrierSpec(j_min=101, k_min=101, height=100 * EV)


def subnormal_cells(plane):
    return int(np.count_nonzero((plane != 0) & (np.abs(plane) < np.finfo(float).tiny)))


def watched(propagator, see):
    """propagator with its bound B wrapped: see(f, out, kwargs) after every call."""
    b = propagator.b

    def call(f, out, *args, **kwargs):
        result = b(f, out, *args, **kwargs)
        see(f, out, kwargs)
        return result

    propagator.b = call
    return propagator


@pytest.mark.parametrize("order", [StencilOrder.SECOND_ORDER, StencilOrder.FOURTH_ORDER])
@pytest.mark.parametrize("N", range(9))
def test_no_call_of_b_reads_or_writes_a_subnormal(N, order):
    # the unstaggered packet keeps exact zeros past its tails, so the front
    # keeps making values below FLOOR and every half step flushes them
    cfg = make_cfg(N, 0.1, TAIL_GRID, PhysicalParams(), order)
    counts = []
    potential = barrier_potential(TAIL_BARRIER, TAIL_GRID)
    propagator = watched(Propagator(TAIL_GRID, potential, cfg), lambda f, out, _: counts.append(
        subnormal_cells(f) + subnormal_cells(out)))
    wf = gaussian_packet(TAIL_PACKET, TAIL_GRID)
    for _ in range(10):
        wf = propagator.step(wf)
    assert len(counts) == 10 * 2 * (2 * N + 1) and not any(counts)
    assert 0.0 < wf.max_abs() < np.inf


FLOOR_PACKETS = {
    "si": (TAIL_GRID, TAIL_PACKET, PhysicalParams()),
    # unit cells: normalising scales the planes down, by about 0.11
    "unit-scaled-down": (GridSpec(dims=2, nx=200, dx=1.0, ny=200, dy=1.0),
                         GaussianPacketSpec(sigma=5.0, wavelength=7.3, center_j=50, center_k=50),
                         PhysicalParams(1.0, 1.0)),
    "dx-ne-dy-unnormalised": (GridSpec(dims=2, nx=180, dx=1.0, ny=230, dy=1.3),
                              GaussianPacketSpec(sigma=4.0, wavelength=3.1, center_j=131,
                                                 center_k=17, normalize=False),
                              PhysicalParams(1.0, 1.0)),
    "1-d": (GridSpec(dims=1, nx=400, dx=1.0),
            GaussianPacketSpec(sigma=3.0, wavelength=5.0, center_j=40), PhysicalParams(1.0, 1.0)),
    # a norm past 2^688 scales the factor-cut planes below FLOOR, so they are cut at FLOOR too
    "norm-past-the-cut-bound": (GridSpec(dims=2, nx=120, dx=1e130, ny=120, dy=1e130),
                                GaussianPacketSpec(sigma=4e130, wavelength=3.1e130,
                                                   center_j=60, center_k=60),
                                PhysicalParams(1.0, 1.0)),
}
# the 2-D cases within the bound and perfbench paper2d's packet (its seed's centre shift 0)
CUT_PACKETS = {**{name: case for name, case in FLOOR_PACKETS.items()
                  if case[0].dims == 2 and name != "norm-past-the-cut-bound"},
               "paper2d": (GridSpec(dims=2, nx=800, dx=0.1 * ANGSTROM, ny=800, dy=0.1 * ANGSTROM),
                           GaussianPacketSpec(sigma=1.0 * ANGSTROM, wavelength=1.0 * ANGSTROM,
                                              center_j=200, center_k=200), PhysicalParams())}


def floor_packet(grid, spec, physics, staggered):
    """The packet, staggered as gfdtd run's (N = 2, fourth order, mu = 0.25) or not."""
    dt = make_cfg(2, 0.25, grid, physics).dt if staggered else None
    return gaussian_packet(spec, grid, physics, stagger_dt=dt,
                           stagger_order=StencilOrder.FOURTH_ORDER if staggered else None)


@pytest.mark.parametrize("grid, spec, physics", FLOOR_PACKETS.values(), ids=list(FLOOR_PACKETS))
@pytest.mark.parametrize("staggered", [False, True])
def test_packet_holds_nothing_below_the_floor(grid, spec, physics, staggered):
    wf = floor_packet(grid, spec, physics, staggered)
    for plane in (wf.real_part, wf.imag_part):
        nonzero = np.abs(plane[plane != 0])
        assert nonzero.min() >= FLOOR
        assert staggered or nonzero.size < plane.size   # the tails are cut; the FFT fills them


@pytest.mark.parametrize("grid, spec, physics", CUT_PACKETS.values(), ids=list(CUT_PACKETS))
@pytest.mark.parametrize("staggered", [False, True])
def test_2d_packet_is_cut_once_by_its_factors(grid, spec, physics, staggered):
    # factor parts are 0 or >= 2^-52, so before the normalising scale s each cell is
    # 0 or a multiple of 2^-156: no cell is left for a cut at FLOOR to zero
    wf = floor_packet(grid, spec, physics, staggered)
    s = 1.0
    if spec.normalize:   # the builder's scale, from the unnormalised planes' norm
        s = 1.0 / np.sqrt(norm(floor_packet(grid, replace(spec, normalize=False), physics,
                                            staggered), grid))
    for plane in (wf.real_part, wf.imag_part):
        assert np.abs(plane[plane != 0]).min() >= 2.0 ** -156 * s
        cut = plane.copy()
        cut[(cut < FLOOR) & (cut > -FLOOR)] = 0.0
        assert cut.tobytes() == plane.tobytes()


def test_conv1d_packet_switches_the_floor_off_after_step_1():
    # perfbench conv1d's mu0 inputs: the 1-D factor is not cut, so the FFT-advanced
    # imaginary part keeps round-off tails far below 2^-52 but above the level; no plane
    # holds a zero after step 1, and from step 2 no call flushes or takes a reach
    grid, physics = GridSpec(dims=1, nx=2048, dx=0.1 * ANGSTROM), PhysicalParams()
    cfg = make_cfg(2, 0.25, grid, physics, StencilOrder.FOURTH_ORDER)
    spec = GaussianPacketSpec(sigma=1.0 * ANGSTROM, wavelength=2.2 * ANGSTROM, center_j=400,
                              normalize=False)
    wf = gaussian_packet(spec, grid, physics, cfg.dt, cfg.order)
    tails = np.abs(wf.imag_part[wf.imag_part != 0])
    assert np.count_nonzero(tails < 2.0 ** -52) > grid.nx // 2
    level, calls, steps = flush_level(wf), [], []
    propagator = watched(Propagator(grid, PotentialField.zeros(grid), cfg),
                         lambda f, out, kwargs: calls.append(kwargs))
    for _ in range(4):
        calls.clear()
        wf = propagator.step(wf)
        steps.append(([c["floor"] for c in calls if c.get("floor") is not None],
                      sum(c.get("reach") is not None for c in calls)))
    assert steps == [([level], 10)] + [([], 0)] * 3
    assert np.count_nonzero(wf.real_part) == np.count_nonzero(wf.imag_part) == grid.nx


def test_run_records_equal_the_unflushed_oracle():
    # a flushed cell is below 2^-100 of the initial peak: the records keep
    # their bits, and the planes stay within round-off of the oracle's
    grid, physics = TAIL_GRID, PhysicalParams()
    cfg = make_cfg(2, 0.25, grid, physics, StencilOrder.FOURTH_ORDER)
    potential = barrier_potential(TAIL_BARRIER, grid)
    wf = gaussian_packet(TAIL_PACKET, grid)
    final, log = run(wf, potential, grid, cfg, steps=6, snapshot_every=2)
    records, field = [], wf
    for n in range(7):
        if n:
            field = WaveField(*two_buffer_step(field, potential, grid, cfg))
        if n % 2 == 0:
            energy = energy_expectation(field, potential, grid, physics, cfg.order)
            records.append(RunRecord(n, n * cfg.dt, norm(field, grid), float(density(field).max()),
                                     energy))
    assert log.records == records
    level = flush_level(wf)
    below = [np.count_nonzero((plane != 0) & (np.abs(plane) < level)) for plane in (
        field.real_part, field.imag_part, final.real_part, final.imag_part)]
    assert below[0] and below[1] and below[2:] == [0, 0]
    for ours, oracle in ((final.real_part, field.real_part), (final.imag_part, field.imag_part)):
        assert np.abs(ours - oracle).max() <= 16 * level


@pytest.mark.parametrize("staggered", [True, False])
def test_floor_stays_on_at_the_level_for_a_cli_packet(staggered):
    # gfdtd run's packet: the factor cut leaves zeros past the tails, staggered or
    # not (the FFT's round-off tails fall below 2^-52), and every half step keeps
    # flushing at the level the first field fixed
    doc = {"grid": {"dims": 2, "nx": 200, "ny": 200, "dx_angstrom": 0.1},
           "scheme": {"N": 2, "stencil_order": 4, "mu": 0.25},
           "init": {"sigma_angstrom": 0.5, "lambda_angstrom": 1.0, "center_j": 50, "center_k": 50},
           "potential": {"type": "quadrant_barrier", "height_ev": 100.0,
                         "j_min": 101, "k_min": 101},
           "run": {"steps": 3, "snapshot_every": 0, "out_dir": "unused"}}
    cfg = parse_config(json.dumps(doc))
    grid, scheme = cfg.grid, cfg.scheme
    wf = (gaussian_packet(cfg.packet, grid, scheme.physics, scheme.dt, scheme.order) if staggered
          else gaussian_packet(cfg.packet, grid))
    floors = []
    propagator = watched(Propagator(grid, barrier_potential(cfg.barrier, grid), scheme),
                         lambda f, out, kwargs: floors.append(kwargs.get("floor")))
    level, steps = flush_level(wf), []
    for _ in range(3):
        floors.clear()
        wf = propagator.step(wf)
        steps.append([floor for floor in floors if floor is not None])
    assert level > FLOOR
    assert steps == [[level, level]] * 3


BANDED_GRIDS = [GridSpec(dims=1, nx=64, dx=0.7),
                GridSpec(dims=2, nx=40, dx=0.7, ny=9, dy=0.7),
                GridSpec(dims=2, nx=40, dx=0.7, ny=9, dy=1.1)]


def banded_field(grid, rng, case):
    """Two planes that hold normal values in a few row bands and zeros elsewhere."""
    n, planes = grid.nx, np.zeros((2, *grid.shape))

    def fill(lo, hi):
        planes[:, lo:hi] = rng.normal(size=(2, hi - lo, *grid.shape[1:]))

    if case == "wall":
        fill(0, 5)
    elif case == "two-packets":   # many slabs of zero rows apart
        fill(3, 8)
        fill(n - 8, n - 3)
    elif case == "one-cell":
        planes[1][(n // 2, 4)[:grid.dims]] = 1.5
    elif case == "negative-zeros":   # every zero row holds -0.0
        planes[...] = -0.0
        fill(12, 18)
    elif case == "negative-zero-rows":   # -0.0 in rows by the band, +0.0 past them
        fill(12, 18)
        planes[0, 18:22] = planes[1, 8:12] = -0.0
    return WaveField(planes[0].copy(), planes[1].copy())


BANDED_FIELDS = ["wall", "two-packets", "one-cell", "all-zero", "negative-zeros",
                 "negative-zero-rows"]


@pytest.mark.parametrize("potential", ["barrier", "well"])
@pytest.mark.parametrize("grid", BANDED_GRIDS, ids=["1d", "2d-square", "2d-dx-ne-dy"])
@pytest.mark.parametrize("order", [StencilOrder.SECOND_ORDER, StencilOrder.FOURTH_ORDER])
@pytest.mark.parametrize("N", [0, 1, 2, 3])
def test_banded_fields_step_bit_identical_to_two_buffer_horner(rng, monkeypatch, N, order, grid,
                                                               potential):
    # the Propagator computes only the slabs its nonzero rows reach and writes
    # +0.0 past them; the unbanded oracle computes every row and flushes at the
    # level: same bits, zero signs included, while the floor is on and after it
    # switches off
    physics = PhysicalParams(mass=1.3, hbar=0.9)
    potential = quadrant_barrier(grid, 0.8 if potential == "barrier" else -5.0)
    cfg = make_cfg(N, 0.05, grid, physics, order)
    args, cut = (potential, grid, cfg), 0
    for slab_bytes in (1, 360):   # one row per slab, or a few
        monkeypatch.setattr(stencils, "_SLAB_BYTES", slab_bytes)
        for case in BANDED_FIELDS:
            propagator, flushing = Propagator(grid, potential, cfg), FlushingOracle(*args)
            wf = oracle = banded_field(grid, rng, case)
            for _ in range(10):
                oracle, wf = flushing.step(oracle), propagator.step(wf)
                for ours, theirs in ((wf.real_part, oracle.real_part),
                                     (wf.imag_part, oracle.imag_part)):
                    assert same_bits(ours, theirs), (slab_bytes, case)
            cut += flushing.cut
    # the bands' tails fall below the level, but for N = 0 at second order: one row
    # per half step at weights near 1 comes nowhere near 2^-100 in 10 steps
    assert cut or (N, order) == (0, StencilOrder.SECOND_ORDER)


def test_rows_are_measured_afresh_at_every_step(rng, monkeypatch):
    # a cell a caller writes into a zero row between steps is stepped as the
    # oracle steps it: no range is carried from the step before
    monkeypatch.setattr(stencils, "_SLAB_BYTES", 1)
    grid = BANDED_GRIDS[1]
    potential = quadrant_barrier(grid)
    cfg = make_cfg(1, 0.05, grid, PhysicalParams(mass=1.3, hbar=0.9), StencilOrder.FOURTH_ORDER)
    propagator, flushing = Propagator(grid, potential, cfg), FlushingOracle(potential, grid, cfg)
    wf = banded_field(grid, rng, "wall")
    for n in range(6):
        if n == 2:
            wf.real_part[35, 3] = wf.imag_part[38, 6] = 0.75
        oracle, wf = flushing.step(wf), propagator.step(wf)
        assert same_bits(wf.real_part, oracle.real_part)
        assert same_bits(wf.imag_part, oracle.imag_part)


def test_skipped_slabs_keep_the_floor_on(rng, monkeypatch):
    # every computed row holds values far above the level, so only the all-zero
    # rows of the slabs the floor call skips make it a hit: the next step still flushes
    monkeypatch.setattr(stencils, "_SLAB_BYTES", 1)
    grid = GridSpec(dims=2, nx=20, dx=1.0, ny=9, dy=1.0)
    cfg = make_cfg(0, 0.1, grid, PhysicalParams(1.0, 1.0))
    planes = np.zeros((2, *grid.shape))
    planes[:, 8:12] = rng.uniform(1.0, 2.0, size=(2, 4, 9))
    wf = WaveField(*planes)
    floors = []
    propagator = watched(Propagator(grid, PotentialField.zeros(grid), cfg),
                         lambda f, out, kwargs: floors.append(
                             (kwargs.get("floor", False), kwargs["reach"])))
    first, level = propagator.step(wf), flush_level(wf)
    assert np.count_nonzero(first.real_part) == 6 * 9   # rows 7-12, none below the level
    assert np.abs(first.real_part[7:13]).min() > level > FLOOR
    assert floors == [(level, (7, 13)), (level, (6, 14))]
    floors.clear()
    propagator.step(first)
    assert [floor for floor, _ in floors] == [level, level]


@pytest.mark.parametrize("slab_bytes", [1, 360])
@pytest.mark.parametrize("order", [StencilOrder.SECOND_ORDER, StencilOrder.FOURTH_ORDER])
@pytest.mark.parametrize("grid", BANDED_GRIDS, ids=["1d", "2d-square", "2d-dx-ne-dy"])
def test_energy_on_nonzero_rows_keeps_the_full_width_bits(rng, monkeypatch, grid, order,
                                                          slab_bytes):
    # each B call of energy_expectation computes only the slabs within a halo of
    # its plane's nonzero rows: the energy keeps the bits of full-width calls
    monkeypatch.setattr(stencils, "_SLAB_BYTES", slab_bytes)
    physics = PhysicalParams(mass=1.3, hbar=0.9)
    potential = quadrant_barrier(grid)
    b, reaches = stencils.bind_b(grid, potential, physics, order), []
    for case in [*BANDED_FIELDS, "nan"]:
        wf = banded_field(grid, rng, "wall" if case == "nan" else case)
        if case == "nan":   # in a zero row
            wf.imag_part[(30, 4)[:grid.dims]] = math.nan
        ours = energy_expectation(wf, potential, grid, physics, order, lambda f, out, reach:
                                  reaches.append(reach) or b(f, out, reach=reach))
        full = energy_expectation(wf, potential, grid, physics, order,
                                  lambda f, out, reach: b(f, out))
        assert np.float64(ours).tobytes() == np.float64(full).tobytes(), case
        assert math.isnan(full) == (case == "nan")
    assert any(stop < grid.nx for _, stop in reaches)


# a paper-shaped packet, sigma 1 A and lambda 1 A at 0.1 A cells, off a quadrant barrier
PAPER_PACKET = GaussianPacketSpec(sigma=1.0 * ANGSTROM, wavelength=1.0 * ANGSTROM,
                                  center_j=60, center_k=60)


@pytest.mark.parametrize("order", [StencilOrder.SECOND_ORDER, StencilOrder.FOURTH_ORDER])
@pytest.mark.parametrize("N", [0, 2])
def test_the_cut_is_scale_free(N, order):
    # the level is 2^-100 of the first field's peak and a power of two scales
    # exactly: 2^s psi steps to 2^s times what psi steps to, zero signs included
    # (an absolute cut at FLOOR flushes different cells at s = +-400)
    potential = barrier_potential(TAIL_BARRIER, TAIL_GRID)
    cfg = make_cfg(N, 0.1, TAIL_GRID, PhysicalParams(), order)
    wf = gaussian_packet(PAPER_PACKET, TAIL_GRID)

    def stepped(scale):
        propagator = Propagator(TAIL_GRID, potential, cfg)
        field = WaveField(wf.real_part * scale, wf.imag_part * scale)
        for _ in range(10):
            field = propagator.step(field)
        return field

    base = stepped(1.0)
    for s in (-400, 0, 400):
        scaled = stepped(2.0 ** s)
        assert same_bits(scaled.real_part, base.real_part * 2.0 ** s), s
        assert same_bits(scaled.imag_part, base.imag_part * 2.0 ** s), s


def test_the_cut_stays_inside_the_round_off_envelope(rng):
    # over 300 paper steps the cut moves the planes less than twice as far from
    # the unflushed oracle's as a start nudged by one ulp per cell moves them
    # (relative L2: 5.7e-15, against 6.3e-15 to 6.5e-15 for the nudge)
    potential = barrier_potential(TAIL_BARRIER, TAIL_GRID)
    cfg = make_cfg(2, 0.25, TAIL_GRID, PhysicalParams(), StencilOrder.FOURTH_ORDER)
    wf = gaussian_packet(PAPER_PACKET, TAIL_GRID)
    nudged = WaveField(*(np.nextafter(p, np.where(rng.random(p.shape) < 0.5, -np.inf, np.inf))
                         for p in (wf.real_part, wf.imag_part)))
    propagator, cut, oracle = Propagator(TAIL_GRID, potential, cfg), wf, wf
    for _ in range(300):
        cut = propagator.step(cut)
        oracle = WaveField(*two_buffer_step(oracle, potential, TAIL_GRID, cfg))
        nudged = WaveField(*two_buffer_step(nudged, potential, TAIL_GRID, cfg))

    def distance(field, to=WaveField.zeros(TAIL_GRID)):
        return math.sqrt(np.sum((field.real_part - to.real_part) ** 2)
                         + np.sum((field.imag_part - to.imag_part) ** 2))

    assert 0 < distance(cut, oracle) <= 2 * distance(nudged, oracle) < 1e-13 * distance(oracle)


@pytest.mark.parametrize("plane", [0, 1])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_cell_in_a_zero_row_diverges_at_step_one(rng, bad, plane):
    # the row scan counts NaN and inf as nonzero, so the bad cell's rows are
    # computed and run() stops at step 1 with the initial field, as unbanded
    grid = BANDED_GRIDS[1]
    wf = banded_field(grid, rng, "wall")
    (wf.real_part, wf.imag_part)[plane][30, 4] = bad
    cfg = make_cfg(2, 0.05, grid, PhysicalParams(1.0, 1.0), StencilOrder.FOURTH_ORDER)
    final, log = run(wf, quadrant_barrier(grid), grid, cfg, steps=3)
    assert log.divergence_step == 1 and final is wf
