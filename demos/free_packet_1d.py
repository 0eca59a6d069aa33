"""Propagate a free 1-D Gaussian packet and compare against the exact answer.

A free Gaussian wavepacket has a closed-form solution: it translates at
the group velocity hbar*k0/m while its width grows like
sqrt(1 + (hbar*t / m sigma^2)^2). This demo evolves the packet with the
N=2, fourth-order scheme until the width has grown by more than 20% and
prints the relative L2 error against the analytic solution, then repeats
with half the time step to show the error is dominated by the spatial
discretization (the time integrator is far more accurate).

Run from the repository root:

    python demos/free_packet_1d.py
"""

import numpy as np

from gfdtd import (ANGSTROM, GaussianPacketSpec, GridSpec, PhysicalParams,
                   PotentialField, Propagator, SchemeConfig, StencilOrder,
                   free_packet_1d, gaussian_packet)

SIGMA = 1.0 * ANGSTROM
WAVELENGTH = 2.2 * ANGSTROM
CENTER = 400


def evolve(grid, physics, mu, steps):
    cfg = SchemeConfig.from_mu(2, StencilOrder.FOURTH_ORDER, mu, physics, grid)
    spec = GaussianPacketSpec(sigma=SIGMA, wavelength=WAVELENGTH,
                              center_j=CENTER, normalize=False)
    wf = gaussian_packet(spec, grid, physics, stagger_dt=cfg.dt)
    propagator = Propagator(grid, PotentialField.zeros(grid), cfg)   # B bound once per mu
    for _ in range(steps):
        wf = propagator.step(wf)
    return wf, steps * cfg.dt, cfg.dt


def rel_l2(wf, grid, physics, t, dt):
    # the imaginary part lives half a step ahead of the real part
    psi = free_packet_1d(grid, physics, SIGMA, WAVELENGTH, CENTER, t=t)
    psi_h = free_packet_1d(grid, physics, SIGMA, WAVELENGTH, CENTER,
                           t=t + 0.5 * dt)
    num = ((wf.real_part - psi.real) ** 2 + (wf.imag_part - psi_h.imag) ** 2).sum()
    den = (psi.real ** 2 + psi_h.imag ** 2).sum()
    return np.sqrt(num / den)


def main():
    grid = GridSpec(dims=1, nx=2048, dx=0.1 * ANGSTROM)
    physics = PhysicalParams()

    for mu, steps in [(0.25, 136), (0.125, 272)]:
        wf, t_end, dt = evolve(grid, physics, mu, steps)
        width = np.sqrt(1 + (physics.hbar * t_end / (physics.mass * SIGMA ** 2)) ** 2)
        err = rel_l2(wf, grid, physics, t_end, dt)
        print(f"mu = {mu:5.3f}: {steps:3d} steps to t = {t_end:.3e} s, "
              f"width x{width:.3f}, relative L2 error {err:.2e}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
        wf, t_end, dt = evolve(grid, physics, 0.25, 136)
        psi = free_packet_1d(grid, physics, SIGMA, WAVELENGTH, CENTER, t=t_end)
        x = np.arange(grid.nx) * grid.dx / ANGSTROM
        plt.plot(x, wf.real_part ** 2 + wf.imag_part ** 2, label="computed")
        plt.plot(x, np.abs(psi) ** 2, "--", label="analytic")
        plt.xlabel("x (angstrom)")
        plt.ylabel(r"$|\psi|^2$")
        plt.legend()
        plt.savefig("free_packet_1d.png", dpi=150)
        print("wrote free_packet_1d.png")
    except ImportError:
        print("(matplotlib not installed; skipping plot)")


if __name__ == "__main__":
    main()
