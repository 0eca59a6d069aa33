"""Map out where the scheme is stable as the mesh ratio mu grows.

For each (N, stencil order, mu) combination this prints three things side
by side:

* the endpoint stability value |S(x_max)| at the Nyquist wavenumber,
* the exact maximum of |S| over every wavenumber and potential level,
* what a real 200x200 run does (bounded norm, or the step it blew up).

Both values come from the verdict run() records before it steps, taken
over the barrier potential's range of levels.  The interesting row is N=2
at mu=0.45: the endpoint check passes while the maximum catches an
interior wavenumber whose amplification exceeds 1 -- and the simulation
indeed diverges. Checking only the endpoint is not enough once
the truncated-sine profile stops being monotone (N >= 1).

Run from the repository root:

    python demos/stability_regimes.py
"""

from gfdtd import (ANGSTROM, EV, BarrierSpec, GaussianPacketSpec, GridSpec,
                   PhysicalParams, SchemeConfig, StencilOrder,
                   barrier_potential, gaussian_packet, run)

CASES = [
    (0, StencilOrder.SECOND_ORDER, 0.20),
    (0, StencilOrder.SECOND_ORDER, 0.25),
    (2, StencilOrder.SECOND_ORDER, 0.25),
    (2, StencilOrder.SECOND_ORDER, 0.35),
    (2, StencilOrder.SECOND_ORDER, 0.45),
    (2, StencilOrder.FOURTH_ORDER, 0.25),
]


def main():
    grid = GridSpec(dims=2, nx=200, dx=0.1 * ANGSTROM, ny=200, dy=0.1 * ANGSTROM)
    physics = PhysicalParams()
    packet = GaussianPacketSpec(sigma=1.0 * ANGSTROM, wavelength=1.0 * ANGSTROM,
                                center_j=50, center_k=50)
    barrier = BarrierSpec(j_min=101, k_min=101, height=100 * EV)
    pot = barrier_potential(barrier, grid)

    print(f"{'N':>2} {'order':>6} {'mu':>5} | {'endpoint':>8} {'scan max':>8} "
          f"{'verdict':>22} | run (500 steps)")
    print("-" * 88)
    for N, order, mu in CASES:
        cfg = SchemeConfig.from_mu(N, order, mu, physics, grid)
        wf = gaussian_packet(packet, grid)
        final, log = run(wf, pot, grid, cfg, steps=500, snapshot_every=100)
        report = log.stability_report
        if log.diverged:
            outcome = f"DIVERGED at step {log.divergence_step}"
        else:
            drift = max(abs(r.norm - 1.0) for r in log.records)
            outcome = f"bounded, norm drift {drift:.4f}"
        print(f"{N:>2} {order.value:>6} {mu:>5.2f} | {report.endpoint_value:>8.5f} "
              f"{report.scan_max:>8.5f} {report.verdict.value:>22} | {outcome}")


if __name__ == "__main__":
    main()
