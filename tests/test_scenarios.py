import numpy as np
import pytest

from gfdtd import (ANGSTROM, EV, BarrierSpec, ConfigurationError,
                   GaussianPacketSpec, GridSpec, NonHermitianError,
                   PhysicalParams, PotentialField,
                   SchemeConfig, StencilOrder, barrier_potential,
                   energy_expectation, free_packet_1d, gaussian_packet_1d,
                   gaussian_packet_2d, norm, run)


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
    wf = gaussian_packet_2d(spec, reduced_grid)
    assert wf.real_part[49, 49] == 1.0
    assert wf.imag_part[49, 49] == 0.0


def test_packet_center_outside_grid(reduced_grid):
    spec = GaussianPacketSpec(sigma=1.0 * ANGSTROM, wavelength=1.0 * ANGSTROM,
                              center_j=500, center_k=50)
    with pytest.raises(ConfigurationError):
        gaussian_packet_2d(spec, reduced_grid)


def test_packet_wide_envelope_limit():
    # sigma -> infinity leaves the bare plane wave
    grid = GridSpec(dims=2, nx=8, dx=1.0, ny=8, dy=1.0)
    spec = GaussianPacketSpec(sigma=1e12, wavelength=5.0, center_j=4, center_k=4,
                              normalize=False)
    wf = gaussian_packet_2d(spec, grid)
    j = np.arange(1, 9)[:, None] - 4
    k = np.arange(1, 9)[None, :] - 4
    phase = 2 * np.pi * (j + k) / 5.0
    assert np.allclose(wf.real_part, np.cos(phase), atol=1e-12)
    assert np.allclose(wf.imag_part, np.sin(phase), atol=1e-12)


def test_packet_normalized_by_default(reduced_grid, reduced_packet):
    wf = gaussian_packet_2d(reduced_packet, reduced_grid)
    assert norm(wf, reduced_grid) == pytest.approx(1.0, rel=1e-12)


# --- barrier ----------------------------------------------------------------

def test_barrier_zero_height(reduced_grid):
    pot = barrier_potential(BarrierSpec(j_min=101, k_min=101, height=0.0),
                            reduced_grid)
    assert np.all(pot.values == 0.0)


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
        wf = gaussian_packet_1d(spec, grid, physics)
        energies.append(energy_expectation(wf, pot, grid, physics))
    assert energies[0] > energies[1] > 0.0


def test_energy_barrier_experiment_packet_is_300ev(physics):
    # full-scale packet (lambda = sigma = 1 A, diagonal motion, electron)
    dx = 0.1 * ANGSTROM
    grid = GridSpec(dims=2, nx=800, dx=dx, ny=800, dy=dx)
    spec = GaussianPacketSpec(sigma=1.0 * ANGSTROM, wavelength=1.0 * ANGSTROM,
                              center_j=200, center_k=200)
    wf = gaussian_packet_2d(spec, grid)
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
    wf = gaussian_packet_1d(spec, grid, physics)
    pot = PotentialField.zeros(grid)
    beta = 2 * np.pi / lam
    kinetic = physics.hbar ** 2 * beta ** 2 / (2 * physics.mass)
    envelope = physics.hbar ** 2 / (4 * physics.mass * (8 * ANGSTROM) ** 2)
    measured = energy_expectation(wf, pot, grid, physics)
    assert measured == pytest.approx(kinetic + envelope, rel=1e-3)


def test_energy_asymmetric_operator_raises_typed_error(monkeypatch, physics):
    # a non-symmetric stand-in for B leaves an imaginary residual in <H>
    from gfdtd import scenarios, stencils

    def lopsided_b(component, grid, potential, physics, order, out=None):
        out = stencils.apply_b(component, grid, potential, physics, order, out=out)
        out[1:] += 1e20 * component[:-1]
        return out

    grid = GridSpec(dims=1, nx=200, dx=0.1 * ANGSTROM)
    spec = GaussianPacketSpec(sigma=1.0 * ANGSTROM, wavelength=1.0 * ANGSTROM,
                              center_j=100)
    wf = gaussian_packet_1d(spec, grid, physics)
    pot = PotentialField.zeros(grid)
    energy_expectation(wf, pot, grid, physics)
    monkeypatch.setattr(scenarios, "apply_b", lopsided_b)
    with pytest.raises(NonHermitianError):
        energy_expectation(wf, pot, grid, physics)


# --- run driver ---------------------------------------------------------------

def test_run_zero_steps(reduced_grid, reduced_packet, reduced_barrier, physics):
    cfg = SchemeConfig.from_mu(0, StencilOrder.SECOND_ORDER, 0.2, physics,
                               reduced_grid)
    wf0 = gaussian_packet_2d(reduced_packet, reduced_grid)
    wf, log = run(wf0, reduced_barrier, reduced_grid, cfg, steps=0)
    assert len(log.records) == 1
    assert log.records[0].step == 0
    assert not log.diverged
    assert log.stability_report is not None


def test_run_stable_regime(reduced_grid, reduced_packet, reduced_barrier, physics):
    cfg = SchemeConfig.from_mu(0, StencilOrder.SECOND_ORDER, 0.2, physics,
                               reduced_grid)
    wf0 = gaussian_packet_2d(reduced_packet, reduced_grid)
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
    wf0 = gaussian_packet_2d(reduced_packet, reduced_grid)
    real, imag = wf0.real_part.copy(), wf0.imag_part.copy()
    wf, _ = run(wf0, reduced_barrier, reduced_grid, cfg, steps=3)
    assert np.array_equal(wf0.real_part, real)
    assert np.array_equal(wf0.imag_part, imag)
    assert not np.array_equal(wf.real_part, real)


def test_run_divergent_regime(reduced_grid, reduced_packet, reduced_barrier, physics):
    cfg = SchemeConfig.from_mu(0, StencilOrder.SECOND_ORDER, 0.25, physics,
                               reduced_grid)
    wf0 = gaussian_packet_2d(reduced_packet, reduced_grid)
    wf, log = run(wf0, reduced_barrier, reduced_grid, cfg, steps=500)
    assert log.diverged
    assert 0 < log.divergence_step < 500


def test_reflection_and_transmission(reduced_grid, reduced_packet, reduced_barrier,
                                     physics):
    # after hitting the 100 eV step with ~300 eV total energy the packet
    # must have probability mass on both sides of the barrier edge
    cfg = SchemeConfig.from_mu(0, StencilOrder.SECOND_ORDER, 0.2, physics,
                               reduced_grid)
    wf0 = gaussian_packet_2d(reduced_packet, reduced_grid)
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
    wf0 = gaussian_packet_2d(reduced_packet, reduced_grid)
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
    wf = gaussian_packet_1d(spec, grid, physics, stagger_dt=cfg.dt)
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
