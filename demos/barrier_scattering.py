"""Scatter a 300 eV Gaussian wavepacket off a 100 eV quadrant barrier.

A 2-D packet launched along the grid diagonal hits a potential step that
occupies the upper-right quadrant of the domain. The run prints norm,
peak density and energy at regular intervals, then reports how much
probability ended up on either side of the barrier edge.

Run from the repository root:

    python demos/barrier_scattering.py [--small]

``--small`` uses a 200x200 grid (seconds); the default 800x800 grid takes
a few minutes. If matplotlib is installed, a density heat map is saved to
barrier_scattering.png.
"""

import argparse

import numpy as np

from gfdtd import (ANGSTROM, EV, BarrierSpec, GaussianPacketSpec, GridSpec,
                   PhysicalParams, SchemeConfig, StencilOrder,
                   barrier_potential, energy_expectation, gaussian_packet,
                   run)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--small", action="store_true",
                        help="200x200 grid instead of 800x800")
    args = parser.parse_args()

    n = 200 if args.small else 800
    grid = GridSpec(dims=2, nx=n, dx=0.1 * ANGSTROM, ny=n, dy=0.1 * ANGSTROM)
    physics = PhysicalParams()

    packet = GaussianPacketSpec(sigma=1.0 * ANGSTROM, wavelength=1.0 * ANGSTROM,
                                center_j=n // 4, center_k=n // 4)
    barrier = BarrierSpec(j_min=n // 2 + 1, k_min=n // 2 + 1, height=100 * EV)
    wf = gaussian_packet(packet, grid)
    pot = barrier_potential(barrier, grid)

    cfg = SchemeConfig.from_mu(2, StencilOrder.FOURTH_ORDER, 0.25, physics, grid)
    print(f"grid {n}x{n}, dt = {cfg.dt:.3e} s")
    print(f"packet energy: {energy_expectation(wf, pot, grid, physics) / EV:.1f} eV")

    def report(wf_s, record):
        print(f"  step {record.step:4d}  norm {record.norm:.5f}  "
              f"max density {record.max_density:.3e}  "
              f"energy {record.energy_j / EV:.1f} eV")

    steps = 500
    final, log = run(wf, pot, grid, cfg, steps=steps, snapshot_every=100,
                     on_snapshot=report)
    print(f"stability verdict: {log.stability_report.verdict.value}")

    density = final.real_part ** 2 + final.imag_part ** 2
    cell = grid.cell_volume
    inside = density[barrier.j_min - 1:, barrier.k_min - 1:].sum() * cell
    total = density.sum() * cell
    print(f"probability inside barrier quadrant: {inside / total:.3f}")
    print(f"probability outside:                 {1 - inside / total:.3f}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
        plt.imshow(density.T, origin="lower", cmap="inferno")
        plt.colorbar(label=r"$|\psi|^2$")
        plt.title(f"density after {steps} steps")
        plt.savefig("barrier_scattering.png", dpi=150)
        print("wrote barrier_scattering.png")
    except ImportError:
        print("(matplotlib not installed; skipping plot)")


if __name__ == "__main__":
    main()
