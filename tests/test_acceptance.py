"""Acceptance suite.

Each test covers one release criterion and prints a PASS line with the
measured values when it succeeds, so a verbose run doubles as a report.
"""

import json
import math
import os

import numpy as np
import pytest

from gfdtd import (ANGSTROM, EV, BarrierSpec, GaussianPacketSpec, GridSpec,
                   PhysicalParams, PotentialField, SchemeConfig, StencilOrder,
                   Verdict, WaveField, amplification_roots, apply_b_power,
                   apply_laplacian, barrier_potential, endpoint_condition,
                   energy_expectation, free_packet_1d, gaussian_packet,
                   parse_config, read_diagonal_snapshot,
                   read_field_dump, run, step, truncated_sine, wavenumber_scan,
                   write_diagonal_snapshot, write_field_dump)

from conftest import dense_b_matrix

PHYSICS = PhysicalParams()
DX = 0.1 * ANGSTROM


def reduced_setup():
    grid = GridSpec(dims=2, nx=200, dx=DX, ny=200, dy=DX)
    spec = GaussianPacketSpec(sigma=1.0 * ANGSTROM, wavelength=1.0 * ANGSTROM,
                              center_j=50, center_k=50)
    wf = gaussian_packet(spec, grid)
    pot = barrier_potential(BarrierSpec(j_min=101, k_min=101, height=100 * EV),
                            grid)
    return grid, wf, pot


def test_criterion_1_stability_number_reproduction():
    """Condition values match the published figures within 2e-4."""
    checks = [
        ("N=0 mu=0.20 second-order", truncated_sine(4 * 0.20, 0), 0.8),
        ("N=2 mu=0.25 second-order", truncated_sine(4 * 0.25, 2), 0.8418),
        ("N=2 mu=0.35 second-order", truncated_sine(4 * 0.35, 2), 0.9875),
        ("N=2 mu=0.25 fourth-order", truncated_sine(16 / 3 * 0.25, 2), 0.9735),
    ]
    for label, got, want in checks:
        assert got == pytest.approx(want, abs=2e-4), label
    print("\nPASS criterion 1: " + "; ".join(
        f"{label}: {got:.5f} vs {want}" for label, got, want in checks))


@pytest.mark.parametrize("label,N,order,mu,expect_divergence", [
    ("a", 0, StencilOrder.SECOND_ORDER, 0.20, False),
    ("b", 0, StencilOrder.SECOND_ORDER, 0.25, True),
    ("c1", 2, StencilOrder.SECOND_ORDER, 0.25, False),
    ("c2", 2, StencilOrder.SECOND_ORDER, 0.35, False),
    ("d", 2, StencilOrder.FOURTH_ORDER, 0.25, False),
])
def test_criterion_2_figure_regimes(label, N, order, mu, expect_divergence):
    """Bounded/divergent regimes at reduced scale (200x200, 500 steps)."""
    grid, wf, pot = reduced_setup()
    cfg = SchemeConfig.from_mu(N, order, mu, PHYSICS, grid)
    final, log = run(wf, pot, grid, cfg, steps=500, snapshot_every=100)
    if expect_divergence:
        assert log.diverged and log.divergence_step < 500
        print(f"\nPASS criterion 2{label}: N={N} mu={mu} diverged at step "
              f"{log.divergence_step}")
    else:
        assert not log.diverged
        norms = [r.norm for r in log.records]
        drift = max(abs(n - 1.0) for n in norms)
        assert drift < 0.05
        print(f"\nPASS criterion 2{label}: N={N} mu={mu} bounded, "
              f"max norm drift {drift:.4f}")


def test_criterion_3_packet_energy():
    """Initial packet energy equals 300 eV within 10%."""
    grid = GridSpec(dims=2, nx=800, dx=DX, ny=800, dy=DX)
    spec = GaussianPacketSpec(sigma=1.0 * ANGSTROM, wavelength=1.0 * ANGSTROM,
                              center_j=200, center_k=200)
    wf = gaussian_packet(spec, grid)
    pot = barrier_potential(BarrierSpec(j_min=401, k_min=401, height=100 * EV),
                            grid)
    energy_ev = energy_expectation(wf, pot, grid, PHYSICS) / EV
    assert energy_ev == pytest.approx(300.0, rel=0.10)
    print(f"\nPASS criterion 3: packet energy {energy_ev:.2f} eV (target 300 +- 10%)")


def test_criterion_4_dense_oracle_equivalence(rng):
    """Small-grid step and operator powers match dense-matrix oracles."""
    grid = GridSpec(dims=2, nx=8, dx=1.0, ny=8, dy=1.0)
    physics = PhysicalParams(mass=1.0, hbar=1.0)
    pot = PotentialField(rng.uniform(0.0, 0.4, size=grid.shape))
    worst_step = 0.0
    for N in (0, 1, 2):
        cfg = SchemeConfig.from_mu(N, StencilOrder.SECOND_ORDER, 0.1,
                                   physics, grid)
        wf = WaveField(rng.normal(size=grid.shape), rng.normal(size=grid.shape))
        bmat = dense_b_matrix(grid, pot, physics, cfg.order)
        r = wf.real_part.ravel().copy()
        i = wf.imag_part.ravel().copy()
        for p in range(N + 1):
            coeff = 2.0 * (cfg.dt / 2) ** (2 * p + 1) / math.factorial(2 * p + 1)
            r += coeff * (-1.0) ** (p + 1) \
                * (np.linalg.matrix_power(bmat, 2 * p + 1) @ wf.imag_part.ravel())
        for p in range(N + 1):
            coeff = 2.0 * (cfg.dt / 2) ** (2 * p + 1) / math.factorial(2 * p + 1)
            i += coeff * (-1.0) ** p \
                * (np.linalg.matrix_power(bmat, 2 * p + 1) @ r)
        out = step(wf, pot, grid, cfg)
        scale = max(np.abs(r).max(), np.abs(i).max())
        err = max(np.abs(out.real_part.ravel() - r).max(),
                  np.abs(out.imag_part.ravel() - i).max()) / scale
        worst_step = max(worst_step, err)
        assert err < 1e-10

    worst_power = 0.0
    bmat = dense_b_matrix(grid, pot, physics, StencilOrder.SECOND_ORDER)
    for power in (1, 3, 5):
        f = rng.normal(size=grid.shape)
        expected = (np.linalg.matrix_power(bmat, power) @ f.ravel()).reshape(f.shape)
        got = apply_b_power(f, power, grid, pot, physics)
        err = np.abs(got - expected).max() / np.abs(expected).max()
        worst_power = max(worst_power, err)
        assert err < 1e-10
    print(f"\nPASS criterion 4: step rel err {worst_step:.2e}, "
          f"power rel err {worst_power:.2e} (tol 1e-10)")


def test_criterion_5_plane_wave_symbol_identity():
    """Stencil eigen-factors match the closed-form symbols to 1e-10."""
    grid = GridSpec(dims=2, nx=48, dx=0.7, ny=48, dy=1.1)
    worst = 0.0
    for kx in range(1, 17):
        for ky in range(1, 17):
            beta_x = np.pi * kx / 16 / grid.dx
            beta_y = np.pi * ky / 16 / grid.dy
            phase = (np.arange(grid.nx)[:, None] * beta_x * grid.dx
                     + np.arange(grid.ny)[None, :] * beta_y * grid.dy)
            sx = np.sin(beta_x * grid.dx / 2) ** 2
            sy = np.sin(beta_y * grid.dy / 2) ** 2
            expected = {
                StencilOrder.SECOND_ORDER:
                    -4 * (sx / grid.dx ** 2 + sy / grid.dy ** 2),
                StencilOrder.FOURTH_ORDER:
                    -(4 / (3 * grid.dx ** 2)) * sx * (3 + sx)
                    - (4 / (3 * grid.dy ** 2)) * sy * (3 + sy),
            }
            for order, factor in expected.items():
                halo = order.halo
                comp = np.cos(phase)
                out = apply_laplacian(comp, grid, order)
                interior = (slice(halo, -halo), slice(halo, -halo))
                err = np.abs(out[interior] - factor * comp[interior]).max() \
                    / abs(factor)
                worst = max(worst, err)
                assert err < 1e-10
    print(f"\nPASS criterion 5: worst symbol rel err {worst:.2e} (tol 1e-10)")


def test_criterion_6_amplification_roots():
    """Root product 1 and unit modulus iff |alpha| <= 2, over 1000 samples."""
    alphas = np.concatenate([np.linspace(-3.0, 3.0, 998), [-2.0, 2.0]])
    assert alphas.size == 1000
    for alpha in alphas:
        l1, l2, mod = amplification_roots(float(alpha))
        assert abs(l1 * l2 - 1.0) < 1e-12
        if abs(alpha) <= 2.0:
            assert abs(mod - 1.0) < 1e-12
        else:
            assert mod > 1.0 + 1e-12
    print("\nPASS criterion 6: 1000 alpha samples, root product and modulus OK")


def test_criterion_7_1d_analytic_convergence():
    """Free 1-D packet: < 1e-3 error vs the analytic solution after >= 20%
    width growth, and halving dt shrinks the time error by >= 4x."""
    grid = GridSpec(dims=1, nx=2048, dx=DX)
    sigma, lam, center = 1.0 * ANGSTROM, 2.2 * ANGSTROM, 400
    pot = PotentialField.zeros(grid)
    mu0, steps0 = 0.25, 136

    def evolve(mu, steps, discrete_stagger):
        cfg = SchemeConfig.from_mu(2, StencilOrder.FOURTH_ORDER, mu, PHYSICS, grid)
        spec = GaussianPacketSpec(sigma=sigma, wavelength=lam, center_j=center,
                                  normalize=False)
        order = StencilOrder.FOURTH_ORDER if discrete_stagger else None
        wf = gaussian_packet(spec, grid, PHYSICS, stagger_dt=cfg.dt, stagger_order=order)
        for _ in range(steps):
            wf = step(wf, pot, grid, cfg)
        return wf, cfg

    wf, cfg = evolve(mu0, steps0, discrete_stagger=False)
    t_end = steps0 * cfg.dt
    width_ratio = np.sqrt(1 + (PHYSICS.hbar * t_end / (PHYSICS.mass * sigma ** 2)) ** 2)
    assert width_ratio >= 1.2
    psi_n = free_packet_1d(grid, PHYSICS, sigma, lam, center, t=t_end)
    psi_half = free_packet_1d(grid, PHYSICS, sigma, lam, center,
                              t=t_end + 0.5 * cfg.dt)
    l2_err = np.sqrt(((wf.real_part - psi_n.real) ** 2
                      + (wf.imag_part - psi_half.imag) ** 2).sum()
                     / (psi_n.real ** 2 + psi_half.imag ** 2).sum())
    assert l2_err < 1e-3

    # time-error isolation: the half-step correction uses the stencil's
    # own dispersion so the initialization carries no spatial-mismatch
    # term, and the spatial error cancels in differences against a
    # fine-dt reference on the same grid (Richardson-style subtraction)
    wf1, _ = evolve(mu0, steps0, discrete_stagger=True)
    wf2, _ = evolve(mu0 / 2, 2 * steps0, discrete_stagger=True)
    ref, _ = evolve(mu0 / 8, 8 * steps0, discrete_stagger=True)
    denom = np.linalg.norm(ref.real_part)
    e1 = np.linalg.norm(wf1.real_part - ref.real_part) / denom
    e2 = np.linalg.norm(wf2.real_part - ref.real_part) / denom
    assert e1 / e2 >= 4.0
    print(f"\nPASS criterion 7: width x{width_ratio:.3f}, L2 err {l2_err:.2e} "
          f"(tol 1e-3); time err {e1:.2e} -> {e2:.2e}, ratio {e1 / e2:.1f} (>= 4)")


def test_criterion_8_endpoint_scan_disagreement():
    """N=2, mu=0.45: endpoint passes, scan flags instability, run diverges."""
    grid, wf, _ = reduced_setup()
    pot = PotentialField.zeros(grid)
    cfg = SchemeConfig.from_mu(2, StencilOrder.SECOND_ORDER, 0.45, PHYSICS, grid)

    value, ok = endpoint_condition(cfg, grid, v_max=0.0, c=0.99)
    assert ok and value < 1.0

    # independent oracle: dense maximization of S(x) = x - x^3/6 + x^5/120
    # over [0, 1.8]; analytic interior maximum at x^2 = 6 - sqrt(12)
    xs = np.linspace(0.0, 1.8, 1_000_001)
    s_dense = np.abs(xs - xs ** 3 / 6 + xs ** 5 / 120)
    x_star = np.sqrt(6 - np.sqrt(12.0))
    assert xs[np.argmax(s_dense)] == pytest.approx(x_star, abs=1e-5)
    assert s_dense.max() == pytest.approx(1.00474, abs=1e-4)
    assert s_dense.max() > 1.0

    report = wavenumber_scan(cfg, grid, v_max=0.0)
    assert report.verdict is Verdict.ENDPOINT_SCAN_DISAGREE
    assert report.scan_max == pytest.approx(s_dense.max(), abs=1e-3)

    final, log = run(wf, pot, grid, cfg, steps=500)
    assert log.diverged and log.divergence_step < 500
    print(f"\nPASS criterion 8: endpoint {value:.5f} < 1, scan max "
          f"{report.scan_max:.5f} at x* {x_star:.4f}, diverged at step "
          f"{log.divergence_step}")


def test_criterion_9_file_format_round_trips(rng, tmp_path):
    """Config, diagonal CSV and f64 dump round-trip exactly."""
    doc = {
        "grid": {"dims": 2, "nx": 200, "ny": 200, "dx_angstrom": 0.1},
        "scheme": {"N": 2, "stencil_order": 4, "mu": 0.25},
        "init": {"sigma_angstrom": 1.0, "lambda_angstrom": 1.0,
                 "center_j": 50, "center_k": 50},
        "potential": {"type": "quadrant_barrier", "height_ev": 100.0,
                      "j_min": 101, "k_min": 101},
        "run": {"steps": 10, "snapshot_every": 5, "out_dir": "out"},
        "stability": {"c": 0.97, "scan_samples": 128},
    }
    cfg = parse_config(json.dumps(doc))
    assert parse_config(cfg.to_text()) == cfg

    grid = GridSpec(dims=2, nx=16, dx=1.0, ny=16, dy=1.0)
    wf = WaveField(rng.normal(size=grid.shape), rng.normal(size=grid.shape))
    path = write_diagonal_snapshot(wf, grid, 4, 1e-18, str(tmp_path))
    k, real, imag, density = read_diagonal_snapshot(path)
    assert np.array_equal(real, np.diagonal(wf.real_part))
    assert np.array_equal(imag, np.diagonal(wf.imag_part))

    dpath, mpath = write_field_dump(wf, grid, 4, 1e-18, str(tmp_path))
    assert os.path.getsize(dpath) == 2 * 16 * 16 * 8
    back, meta = read_field_dump(dpath, mpath)
    assert np.array_equal(back.real_part, wf.real_part)
    assert np.array_equal(back.imag_part, wf.imag_part)
    print("\nPASS criterion 9: config, CSV and f64 round trips exact")
