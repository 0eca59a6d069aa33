import sys
import time
import weakref

import numpy as np
import pytest

from gfdtd import (ANGSTROM, EV, BarrierSpec, ConfigurationError,
                   GaussianPacketSpec, GridSpec, NonHermitianError,
                   PhysicalParams, PotentialField,
                   SchemeConfig, StencilOrder, WaveField, barrier_potential,
                   energy_expectation, free_packet_1d, gaussian_packet,
                   norm, potential_bounds, run)

from conftest import lopsided_bind_b, traced_peak


@pytest.fixture
def physics():
    return PhysicalParams()


@pytest.fixture
def reduced_grid():
    dx = 0.1 * ANGSTROM
    return GridSpec(dims=2, nx=200, dx=dx, ny=200, dy=dx)


@pytest.fixture
def reduced_packet():
    return GaussianPacketSpec(sigma=1.0 * ANGSTROM, wavelength=1.0 * ANGSTROM,
                              center_j=50, center_k=50)


@pytest.fixture
def reduced_barrier(reduced_grid):
    return barrier_potential(BarrierSpec(j_min=101, k_min=101, height=100 * EV),
                             reduced_grid)


# --- packet initialization -------------------------------------------------

def test_packet_center_values(reduced_grid):
    spec = GaussianPacketSpec(sigma=1.0 * ANGSTROM, wavelength=1.0 * ANGSTROM,
                              center_j=50, center_k=50, normalize=False)
    wf = gaussian_packet(spec, reduced_grid)
    assert wf.real_part[49, 49] == 1.0
    assert wf.imag_part[49, 49] == 0.0


def test_packet_center_outside_grid(reduced_grid):
    spec = GaussianPacketSpec(sigma=1.0 * ANGSTROM, wavelength=1.0 * ANGSTROM,
                              center_j=500, center_k=50)
    with pytest.raises(ConfigurationError):
        gaussian_packet(spec, reduced_grid)


@pytest.mark.parametrize("spec, message", [
    (GaussianPacketSpec(1.0, 1.0, center_j=0, center_k=5), "center_j 0 outside grid"),
    (GaussianPacketSpec(1.0, 1.0, center_j=9, center_k=5), "center_j 9 outside grid"),
    (GaussianPacketSpec(1.0, 1.0, center_j=5, center_k=7), "center_k 7 outside grid"),
    (GaussianPacketSpec(1.0, 1.0, center_j=5), "center_k None outside grid"),
    (BarrierSpec(j_min=0, k_min=1, height=1.0), "j_min 0 outside grid"),
    (BarrierSpec(j_min=1, k_min=7, height=1.0), "k_min 7 outside grid"),
])
def test_spec_index_outside_grid_names_it(spec, message):
    grid = GridSpec(dims=2, nx=8, dx=1.0, ny=6, dy=1.0)
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        spec.validate(grid)
    # a 1-D grid checks only the first index, against nx
    grid_1d = GridSpec(dims=1, nx=8, dx=1.0)
    if message.startswith(("center_k", "k_min")):
        spec.validate(grid_1d)
    else:
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            spec.validate(grid_1d)


def test_packet_wide_envelope_limit():
    # sigma -> infinity leaves the bare plane wave
    grid = GridSpec(dims=2, nx=8, dx=1.0, ny=8, dy=1.0)
    spec = GaussianPacketSpec(sigma=1e12, wavelength=5.0, center_j=4, center_k=4,
                              normalize=False)
    wf = gaussian_packet(spec, grid)
    j = np.arange(1, 9)[:, None] - 4
    k = np.arange(1, 9)[None, :] - 4
    phase = 2 * np.pi * (j + k) / 5.0
    assert np.allclose(wf.real_part, np.cos(phase), atol=1e-12)
    assert np.allclose(wf.imag_part, np.sin(phase), atol=1e-12)


def test_packet_normalized_by_default(reduced_grid, reduced_packet):
    wf = gaussian_packet(reduced_packet, reduced_grid)
    assert norm(wf, reduced_grid) == pytest.approx(1.0, rel=1e-12)


def one_line_packet(spec, grid):
    """The packet as one expression per plane, each ufunc making a new plane,
    and normalised into new planes: the oracle for the in-place builder.
    Each axis's displacement is shaped to broadcast along its own axis."""
    centers = (spec.center_j, spec.center_k)
    xs = [(np.arange(1, n + 1) - c).reshape([n if b == a else 1 for b in range(grid.dims)]) * h
          for a, (n, c, h) in enumerate(zip(grid.shape, centers, grid.spacing))]
    envelope = np.exp(-sum(0.5 * (x / spec.sigma) ** 2 for x in xs))
    phase = 2.0 * np.pi * sum(xs) / spec.wavelength
    real, imag = envelope * np.cos(phase), envelope * np.sin(phase)
    if not spec.normalize:
        return real, imag
    scale = 1.0 / np.sqrt(norm(WaveField(real, imag), grid))
    return real * scale, imag * scale


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("grid, center", [
    (GridSpec(dims=2, nx=200, dx=0.1 * ANGSTROM, ny=200, dy=0.1 * ANGSTROM), (50, 50)),
    (GridSpec(dims=2, nx=180, dx=0.1 * ANGSTROM, ny=230, dy=0.13 * ANGSTROM), (131, 17)),
    (GridSpec(dims=2, nx=12, dx=0.3 * ANGSTROM, ny=9, dy=0.2 * ANGSTROM), (3, 8)),
    (GridSpec(dims=1, nx=300, dx=0.07 * ANGSTROM), (113, None)),
], ids=["square", "dx-ne-dy-off-centre", "small", "1-d"])
def test_packet_2d_equals_the_one_line_formula_bit_for_bit(grid, center, normalize):
    spec = GaussianPacketSpec(sigma=1.0 * ANGSTROM, wavelength=1.0 * ANGSTROM,
                              center_j=center[0], center_k=center[1], normalize=normalize)
    wf = gaussian_packet(spec, grid)
    real, imag = one_line_packet(spec, grid)
    assert np.array_equal(wf.real_part, real) and np.array_equal(wf.imag_part, imag)


def test_packet_builder_is_one_function_under_every_name():
    import gfdtd
    from gfdtd import scenarios

    assert scenarios.gaussian_packet_1d is scenarios.gaussian_packet_2d is gaussian_packet
    assert gfdtd.gaussian_packet_1d is gfdtd.gaussian_packet_2d is gaussian_packet
    assert "gaussian_packet" in gfdtd.__all__
    assert not {"gaussian_packet_1d", "gaussian_packet_2d"} & set(gfdtd.__all__)


def test_packet_1d_matches_the_closed_form_at_t0(physics):
    # the real in-place formula against free_packet_1d's complex one
    grid = GridSpec(dims=1, nx=2048, dx=0.1 * ANGSTROM)
    spec = GaussianPacketSpec(sigma=1.0 * ANGSTROM, wavelength=2.2 * ANGSTROM, center_j=400,
                              normalize=False)
    wf = gaussian_packet(spec, grid)
    psi = free_packet_1d(grid, physics, spec.sigma, spec.wavelength, spec.center_j)
    assert np.abs(wf.real_part + 1j * wf.imag_part - psi).max() <= 1e-15 * np.abs(psi).max()


def _discrete_half_step_1d(psi0, n, h, order, physics, dt):
    """One axis's complex factor advanced by dt/2 under the stencil's dispersion."""
    from gfdtd.stencils import axis_symbol

    omega = physics.hbar * axis_symbol(order, np.sin(np.pi * np.fft.fftfreq(n)) ** 2) / (
        2.0 * physics.mass * h ** 2)
    return np.fft.ifft(np.fft.fft(psi0) * np.exp(-0.5j * omega * dt))


@pytest.mark.parametrize("order", [None, StencilOrder.SECOND_ORDER, StencilOrder.FOURTH_ORDER],
                         ids=["closed-form", "discrete-2nd", "discrete-4th"])
def test_packet_2d_stagger_is_the_product_of_per_axis_factors(physics, order):
    # the free Gaussian separates by axis, and so does the discrete dispersion
    # (omega is a sum over axes): the 2-D staggered imaginary part is the
    # imaginary part of the product of the two 1-D complex factors
    grid = GridSpec(dims=2, nx=64, dx=0.1 * ANGSTROM, ny=48, dy=0.13 * ANGSTROM)
    spec = GaussianPacketSpec(sigma=1.0 * ANGSTROM, wavelength=2.0 * ANGSTROM,
                              center_j=30, center_k=20, normalize=False)
    dt = SchemeConfig.from_mu(2, StencilOrder.FOURTH_ORDER, 0.25, physics, grid).dt
    wf = gaussian_packet(spec, grid, physics, stagger_dt=dt, stagger_order=order)
    factors = []
    for n, c, h in zip(grid.shape, (spec.center_j, spec.center_k), grid.spacing):
        axis = GridSpec(dims=1, nx=n, dx=h)
        if order is None:
            factors.append(free_packet_1d(axis, physics, spec.sigma, spec.wavelength, c,
                                          t=0.5 * dt))
        else:
            psi0 = free_packet_1d(axis, physics, spec.sigma, spec.wavelength, c)
            factors.append(_discrete_half_step_1d(psi0, n, h, order, physics, dt))
    product = factors[0][:, None] * factors[1][None, :]
    assert np.abs(wf.imag_part - product.imag).max() <= 1e-14
    assert not np.array_equal(wf.imag_part, gaussian_packet(spec, grid).imag_part)


def test_packet_2d_peaks_at_its_planes_and_normalisation(reduced_grid, reduced_packet):
    # the two output planes, built in place, and the two that normalize()
    # adds (the norm's density plane and square term, then the scaled
    # copies): no other plane-sized temporary
    gaussian_packet(reduced_packet, reduced_grid)   # warm-up before tracing
    plane = 8 * reduced_grid.nx * reduced_grid.ny
    peak = traced_peak(lambda: gaussian_packet(reduced_packet, reduced_grid))
    assert peak <= 2 * plane + 2 * plane + plane // 5


# --- barrier ----------------------------------------------------------------

def test_barrier_zero_height(reduced_grid):
    pot = barrier_potential(BarrierSpec(j_min=101, k_min=101, height=0.0),
                            reduced_grid)
    assert np.all(pot.values == 0.0)


@pytest.mark.parametrize("dims,j_min,k_min", [
    (2, 101, 101), (2, 1, 101), (2, 101, 1), (2, 1, 1), (1, 101, 1), (1, 1, 1)])
def test_potential_bounds_match_built_potential(dims, j_min, k_min):
    dx = 0.1 * ANGSTROM
    grid = (GridSpec(dims=2, nx=200, dx=dx, ny=200, dy=dx) if dims == 2
            else GridSpec(dims=1, nx=200, dx=dx))
    spec = BarrierSpec(j_min=j_min, k_min=k_min, height=100 * EV)
    assert potential_bounds(spec, grid) == barrier_potential(spec, grid).bounds()
    assert potential_bounds(None, grid) == PotentialField.zeros(grid).bounds()


def test_barrier_full_scale_region_count():
    dx = 0.1 * ANGSTROM
    grid = GridSpec(dims=2, nx=800, dx=dx, ny=800, dy=dx)
    pot = barrier_potential(BarrierSpec(j_min=401, k_min=401, height=100 * EV), grid)
    # direct enumeration oracle over 1-based indices
    count = sum(1 for j in range(1, 801) for k in range(1, 801)
                if j >= 401 and k >= 401)
    assert count == 160_000
    assert int(np.count_nonzero(pot.values)) == count
    # membership spot checks (1-based indices)
    assert pot.values[400 - 1, 500 - 1] == 0.0
    assert pot.values[401 - 1, 401 - 1] == pytest.approx(100 * EV)


# --- energy -----------------------------------------------------------------

def test_energy_zero_momentum_gaussian_kinetic(physics):
    # V = 0, no plane-wave phase: small positive kinetic energy that
    # decreases as the envelope widens
    grid = GridSpec(dims=1, nx=400, dx=0.1 * ANGSTROM)
    pot = PotentialField.zeros(grid)
    energies = []
    for sigma in (1.0 * ANGSTROM, 2.0 * ANGSTROM):
        spec = GaussianPacketSpec(sigma=sigma, wavelength=1e12, center_j=200)
        wf = gaussian_packet(spec, grid, physics)
        energies.append(energy_expectation(wf, pot, grid, physics))
    assert energies[0] > energies[1] > 0.0


def test_energy_barrier_experiment_packet_is_300ev(physics):
    # full-scale packet (lambda = sigma = 1 A, diagonal motion, electron)
    dx = 0.1 * ANGSTROM
    grid = GridSpec(dims=2, nx=800, dx=dx, ny=800, dy=dx)
    spec = GaussianPacketSpec(sigma=1.0 * ANGSTROM, wavelength=1.0 * ANGSTROM,
                              center_j=200, center_k=200)
    wf = gaussian_packet(spec, grid)
    pot = barrier_potential(BarrierSpec(j_min=401, k_min=401, height=100 * EV), grid)
    energy_ev = energy_expectation(wf, pot, grid, physics) / EV
    assert energy_ev == pytest.approx(300.0, rel=0.10)
    # analytic oracle: two axes of kinetic energy at k0 = 2 pi / lambda
    # plus the envelope contribution hbar^2/(4 m sigma^2) per axis
    k0 = 2 * np.pi / (1.0 * ANGSTROM)
    expected = (2 * (physics.hbar * k0) ** 2 / (2 * physics.mass)
                + 2 * physics.hbar ** 2 / (4 * physics.mass * ANGSTROM ** 2)) / EV
    assert energy_ev == pytest.approx(expected, rel=0.05)


def test_energy_plane_wave_dispersion(physics):
    # small beta: discrete kinetic energy approaches hbar^2 beta^2 / 2m
    grid = GridSpec(dims=1, nx=1000, dx=0.1 * ANGSTROM)
    lam = 40 * ANGSTROM  # beta dx = 2 pi / 400
    spec = GaussianPacketSpec(sigma=8.0 * ANGSTROM, wavelength=lam, center_j=500)
    wf = gaussian_packet(spec, grid, physics)
    pot = PotentialField.zeros(grid)
    beta = 2 * np.pi / lam
    kinetic = physics.hbar ** 2 * beta ** 2 / (2 * physics.mass)
    envelope = physics.hbar ** 2 / (4 * physics.mass * (8 * ANGSTROM) ** 2)
    measured = energy_expectation(wf, pot, grid, physics)
    assert measured == pytest.approx(kinetic + envelope, rel=1e-3)


def test_energy_asymmetric_operator_raises_typed_error(monkeypatch, physics):
    # a non-symmetric stand-in for B leaves an imaginary residual in <H>
    from gfdtd import scenarios

    grid = GridSpec(dims=1, nx=200, dx=0.1 * ANGSTROM)
    spec = GaussianPacketSpec(sigma=1.0 * ANGSTROM, wavelength=1.0 * ANGSTROM,
                              center_j=100)
    wf = gaussian_packet(spec, grid, physics)
    pot = PotentialField.zeros(grid)
    energy_expectation(wf, pot, grid, physics)
    monkeypatch.setattr(scenarios, "bind_b", lopsided_bind_b)
    with pytest.raises(NonHermitianError):
        energy_expectation(wf, pot, grid, physics)


def test_energy_expectation_binds_b_once(monkeypatch, physics):
    # both applications of B share one bind_b: one set-up, one read of V
    from gfdtd import stencils

    grid = GridSpec(dims=2, nx=40, dx=0.2 * ANGSTROM, ny=40, dy=0.2 * ANGSTROM)
    spec = GaussianPacketSpec(sigma=1.0 * ANGSTROM, wavelength=2.0 * ANGSTROM,
                              center_j=20, center_k=20)
    wf = gaussian_packet(spec, grid)
    pot = barrier_potential(BarrierSpec(j_min=25, k_min=15, height=0.5 * EV), grid)
    expected = energy_expectation(wf, pot, grid, physics)
    bind, calls = stencils._bind, []
    monkeypatch.setattr(stencils, "_bind", lambda *args: calls.append(args) or bind(*args))
    assert energy_expectation(wf, pot, grid, physics) == expected
    assert len(calls) == 1


# --- run driver ---------------------------------------------------------------

def test_run_zero_steps(reduced_grid, reduced_packet, reduced_barrier, physics):
    cfg = SchemeConfig.from_mu(0, StencilOrder.SECOND_ORDER, 0.2, physics,
                               reduced_grid)
    wf0 = gaussian_packet(reduced_packet, reduced_grid)
    wf, log = run(wf0, reduced_barrier, reduced_grid, cfg, steps=0)
    assert len(log.records) == 1
    assert log.records[0].step == 0
    assert not log.diverged
    assert log.stability_report is not None


def test_run_stable_regime(reduced_grid, reduced_packet, reduced_barrier, physics):
    cfg = SchemeConfig.from_mu(0, StencilOrder.SECOND_ORDER, 0.2, physics,
                               reduced_grid)
    wf0 = gaussian_packet(reduced_packet, reduced_grid)
    wf, log = run(wf0, reduced_barrier, reduced_grid, cfg, steps=500,
                  snapshot_every=100)
    assert not log.diverged
    norms = [r.norm for r in log.records]
    assert all(abs(n - 1.0) < 0.05 for n in norms)
    assert [r.step for r in log.records] == [0, 100, 200, 300, 400, 500]


def test_run_leaves_input_planes_untouched(reduced_grid, reduced_packet,
                                           reduced_barrier, physics):
    cfg = SchemeConfig.from_mu(2, StencilOrder.FOURTH_ORDER, 0.25, physics,
                               reduced_grid)
    wf0 = gaussian_packet(reduced_packet, reduced_grid)
    real, imag = wf0.real_part.copy(), wf0.imag_part.copy()
    wf, _ = run(wf0, reduced_barrier, reduced_grid, cfg, steps=3)
    assert np.array_equal(wf0.real_part, real)
    assert np.array_equal(wf0.imag_part, imag)
    assert not np.array_equal(wf.real_part, real)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="before 3.11 a call's arguments "
                    "stay on the caller's stack, so the caller keeps the field alive")
def test_run_releases_the_given_field_after_step_1(reduced_grid, reduced_packet,
                                                    reduced_barrier, physics):
    # with no reference left in the caller, the first accepted step frees the
    # initial field: nothing in run() (a decorator's wrapper) pins it
    cfg = SchemeConfig.from_mu(0, StencilOrder.SECOND_ORDER, 0.2, physics, reduced_grid)
    refs, alive = [], []

    def packet():
        wf = gaussian_packet(reduced_packet, reduced_grid)
        refs.extend(weakref.ref(obj) for obj in (wf, wf.real_part, wf.imag_part))
        return wf

    run(packet(), reduced_barrier, reduced_grid, cfg, steps=2, snapshot_every=1,
        on_snapshot=lambda *_: alive.append([ref() is not None for ref in refs]))
    assert alive == [[True] * 3, [False] * 3, [False] * 3]


def test_run_records_exact_norm_and_peak_density(reduced_grid, reduced_packet,
                                                reduced_barrier, physics):
    # run builds the density once; its norm and peak must be exactly
    # what fields.norm and a fresh real^2 + imag^2 give for the same field
    cfg = SchemeConfig.from_mu(2, StencilOrder.FOURTH_ORDER, 0.25, physics,
                               reduced_grid)
    wf0 = gaussian_packet(reduced_packet, reduced_grid)
    seen = []

    def check(field, record):
        seen.append(record.step)
        assert record.norm == norm(field, reduced_grid)
        assert record.max_density == float((field.real_part ** 2
                                            + field.imag_part ** 2).max())

    run(wf0, reduced_barrier, reduced_grid, cfg, steps=6, snapshot_every=2,
        on_snapshot=check)
    assert seen == [0, 2, 4, 6]


def test_run_times_each_phase(reduced_grid, reduced_packet, reduced_barrier, physics):
    # disjoint wall-time phases within the call; on_snapshot's time is its own
    cfg = SchemeConfig.from_mu(2, StencilOrder.FOURTH_ORDER, 0.25, physics, reduced_grid)
    wf0 = gaussian_packet(reduced_packet, reduced_grid)
    nap = 0.005
    for on_snapshot, snapshot_s in ((None, 0.0), (lambda *_: time.sleep(nap), 3 * nap)):
        start = time.perf_counter()
        _, log = run(wf0, reduced_barrier, reduced_grid, cfg, steps=4, snapshot_every=2,
                     on_snapshot=on_snapshot)
        wall = time.perf_counter() - start
        assert set(log.phase_s) == {"verdict", "step", "observe", "snapshot"}
        assert all(seconds >= 0.0 for seconds in log.phase_s.values())
        assert sum(log.phase_s.values()) <= wall
        assert log.phase_s["snapshot"] >= snapshot_s


def test_run_divergent_regime(reduced_grid, reduced_packet, reduced_barrier, physics):
    cfg = SchemeConfig.from_mu(0, StencilOrder.SECOND_ORDER, 0.25, physics,
                               reduced_grid)
    wf0 = gaussian_packet(reduced_packet, reduced_grid)
    wf, log = run(wf0, reduced_barrier, reduced_grid, cfg, steps=500)
    assert log.diverged
    assert 0 < log.divergence_step < 500


def test_run_counts_steps_up_to_the_divergence(reduced_grid, reduced_packet,
                                               reduced_barrier, physics):
    # run() owns the step count: a record per step, each at step * dt, and
    # the divergence on the step after the last record
    cfg = SchemeConfig.from_mu(0, StencilOrder.SECOND_ORDER, 0.25, physics,
                               reduced_grid)
    wf0 = gaussian_packet(reduced_packet, reduced_grid)
    _, log = run(wf0, reduced_barrier, reduced_grid, cfg, steps=500, snapshot_every=1)
    assert log.diverged
    assert [r.step for r in log.records] == list(range(log.divergence_step))
    assert log.divergence_step == log.records[-1].step + 1
    assert all(r.time_s == r.step * cfg.dt for r in log.records)


def test_reflection_and_transmission(reduced_grid, reduced_packet, reduced_barrier,
                                     physics):
    # after hitting the 100 eV step with ~300 eV total energy the packet
    # must have probability mass on both sides of the barrier edge
    cfg = SchemeConfig.from_mu(0, StencilOrder.SECOND_ORDER, 0.2, physics,
                               reduced_grid)
    wf0 = gaussian_packet(reduced_packet, reduced_grid)
    wf, log = run(wf0, reduced_barrier, reduced_grid, cfg, steps=500)
    assert not log.diverged
    density = wf.real_part ** 2 + wf.imag_part ** 2
    inside = density[100:, 100:].sum() * reduced_grid.cell_volume
    outside = density.sum() * reduced_grid.cell_volume - inside
    total = inside + outside
    assert inside > 0.01 * total
    assert outside > 0.01 * total
    assert total == pytest.approx(1.0, abs=0.05)


def test_diagonal_symmetry(reduced_grid, reduced_packet, reduced_barrier, physics):
    # the whole setup is symmetric under j <-> k, so the solution is too
    cfg = SchemeConfig.from_mu(2, StencilOrder.SECOND_ORDER, 0.25, physics,
                               reduced_grid)
    wf0 = gaussian_packet(reduced_packet, reduced_grid)
    seen = []

    def check(field, record):
        seen.append(record.step)
        assert np.allclose(field.real_part, field.real_part.T, atol=1e-10)
        assert np.allclose(field.imag_part, field.imag_part.T, atol=1e-10)

    run(wf0, reduced_barrier, reduced_grid, cfg, steps=100, snapshot_every=25,
        on_snapshot=check)
    assert seen == [0, 25, 50, 75, 100]


# --- 1-D analytic solution -----------------------------------------------------

def test_free_packet_1d_initial_value(physics):
    grid = GridSpec(dims=1, nx=200, dx=0.1 * ANGSTROM)
    psi = free_packet_1d(grid, physics, 1.0 * ANGSTROM, 2.0 * ANGSTROM, 100)
    assert psi[99] == pytest.approx(1.0 + 0.0j, abs=1e-14)


def test_free_packet_1d_spreading(physics):
    # analytic width grows as sigma * sqrt(1 + (hbar t / m sigma^2)^2)
    grid = GridSpec(dims=1, nx=4000, dx=0.1 * ANGSTROM)
    sigma = 1.0 * ANGSTROM
    t = physics.mass * sigma ** 2 / physics.hbar  # width ratio sqrt(2)
    psi = free_packet_1d(grid, physics, sigma, 1e12, 2000, t=t)
    density = np.abs(psi) ** 2
    x = (np.arange(1, 4001) - 2000) * grid.dx
    mean = (x * density).sum() / density.sum()
    var = ((x - mean) ** 2 * density).sum() / density.sum()
    # |psi|^2 of a width-s Gaussian has variance s^2/2
    expected = sigma ** 2 * (1 + (physics.hbar * t / (physics.mass * sigma ** 2)) ** 2) / 2
    assert var == pytest.approx(expected, rel=1e-6)


def test_gfdtd_tracks_analytic_free_packet(physics):
    # N=2, fourth-order, half-step phase correction: relative L2 error
    # below 1e-3 after the packet width has grown by >= 20%
    grid = GridSpec(dims=1, nx=2048, dx=0.1 * ANGSTROM)
    sigma, lam, center = 1.0 * ANGSTROM, 2.2 * ANGSTROM, 400
    cfg = SchemeConfig.from_mu(2, StencilOrder.FOURTH_ORDER, 0.25, physics, grid)
    steps = 136
    t_end = steps * cfg.dt
    width_ratio = np.sqrt(1 + (physics.hbar * t_end / (physics.mass * sigma ** 2)) ** 2)
    assert width_ratio >= 1.2

    spec = GaussianPacketSpec(sigma=sigma, wavelength=lam, center_j=center,
                              normalize=False)
    wf = gaussian_packet(spec, grid, physics, stagger_dt=cfg.dt)
    pot = PotentialField.zeros(grid)
    from gfdtd import step
    for _ in range(steps):
        wf = step(wf, pot, grid, cfg)

    psi_n = free_packet_1d(grid, physics, sigma, lam, center, t=t_end)
    psi_half = free_packet_1d(grid, physics, sigma, lam, center,
                              t=t_end + 0.5 * cfg.dt)
    err = np.sqrt(((wf.real_part - psi_n.real) ** 2
                   + (wf.imag_part - psi_half.imag) ** 2).sum()
                  / (psi_n.real ** 2 + psi_half.imag ** 2).sum())
    assert err < 1e-3
