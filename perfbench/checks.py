"""Correctness checks, one function per workload.

Each function takes plain numbers and arrays taken from one solve's
output and returns a list of ``(check name, passed)`` pairs; every pair
counts as one attempted operation, and every False as one failure.  The
functions know nothing about the package, so the tests can feed them
perturbed results.
"""

import math

import numpy as np

# paper2d: the logged norm and energy mix the two staggered time levels
# and oscillate by about 2 % over the first steps; 5 % is the bound the
# acceptance suite uses for norm drift at this mu
CONSERVATION_RTOL = 0.05
# paper2d: agreement with the values recorded at the benchmark's first
# commit; room for reordered floating-point sums, nothing more
REFERENCE_RTOL = 1e-9

# conv1d
L2_ERR_MAX = 1e-3
HALVING_RATIO_MIN = 4.0
# N = 2 is sixth order in time: against the mu0/8 run the mu0 error is
# about 2e-13 and the mu0/2 error already sits at double-precision
# round-off (about 3e-15).  A halving that starts below this floor has
# nothing left to shrink, so it must only stay below the floor.
ROUNDOFF_FLOOR = 1e-14

# snap2d
DUMP_NORM_RTOL = 1e-12


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def check_paper2d(result, reference):
    """result/reference: dicts with norm, energy_j, barrier_prob (result
    also diverged, verdict, norm0, energy0_j).  The in-barrier probability
    is compared relative to the total norm, because it is a share of it
    and is exactly 0 while the packet is far from the barrier."""
    return [
        ("paper2d.no_divergence", not result["diverged"]),
        ("paper2d.stable_verdict", result["verdict"].startswith("stable")),
        ("paper2d.norm_vs_step0", _rel(result["norm"], result["norm0"]) <= CONSERVATION_RTOL),
        ("paper2d.energy_vs_step0",
         _rel(result["energy_j"], result["energy0_j"]) <= CONSERVATION_RTOL),
        ("paper2d.norm_vs_reference", _rel(result["norm"], reference["norm"]) <= REFERENCE_RTOL),
        ("paper2d.energy_vs_reference",
         _rel(result["energy_j"], reference["energy_j"]) <= REFERENCE_RTOL),
        ("paper2d.barrier_prob_vs_reference",
         abs(result["barrier_prob"] - reference["barrier_prob"])
         <= REFERENCE_RTOL * abs(reference["norm"])),
    ]


def rel_l2_err(real, imag, ref_real, ref_imag):
    """Relative L2 distance of (real, imag) from the reference planes."""
    num = ((real - ref_real) ** 2 + (imag - ref_imag) ** 2).sum()
    return float(np.sqrt(num / (ref_real ** 2 + ref_imag ** 2).sum()))


def check_conv1d(l2_err, errors, diverged):
    """errors: time errors of the mu0, mu0/2, mu0/4 runs against mu0/8."""
    checks = [("conv1d.no_divergence", not any(diverged)),
              ("conv1d.rel_l2_err", l2_err < L2_ERR_MAX)]
    for k in range(len(errors) - 1):
        coarse, fine = errors[k], errors[k + 1]
        if coarse >= ROUNDOFF_FLOOR:
            ok = coarse >= HALVING_RATIO_MIN * fine
        else:
            ok = fine < ROUNDOFF_FLOOR
        checks.append((f"conv1d.halving_ratio_{k}", ok))
    return checks


def check_snap2d(exit_code, runlog_rows, steps, dump_norm, runlog_norm, diag, dump_diag):
    """diag: (real, imag, density) columns of the last diag_*.csv;
    dump_diag: (real, imag) diagonals of the last field dump."""
    real, imag, density = diag
    dump_real, dump_imag = dump_diag
    bitwise = (np.array_equal(real, dump_real) and np.array_equal(imag, dump_imag)
               and np.array_equal(density, dump_real * dump_real + dump_imag * dump_imag))
    return [
        ("snap2d.exit_code", exit_code == 0),
        ("snap2d.runlog_rows", runlog_rows == steps + 1),
        ("snap2d.dump_norm", _rel(dump_norm, runlog_norm) <= DUMP_NORM_RTOL),
        ("snap2d.diag_matches_dump", bitwise),
    ]


def check_sweep(exit_code, rows, expected_rows, first_mu, oracle_mu, mu_step):
    agree = (first_mu is not None and oracle_mu is not None
             and abs(first_mu - oracle_mu) <= mu_step * (1 + 1e-9))
    return [
        ("sweep.exit_code", exit_code == 0),
        ("sweep.verdict_rows", rows == expected_rows),
        ("sweep.first_amplifying_mu", agree),
    ]


def truncated_sine(x, N):
    """sum_{p=0..N} (-1)^p x^(2p+1)/(2p+1)!, written out independently
    of the package's own evaluation."""
    return sum((-1) ** p * x ** (2 * p + 1) / math.factorial(2 * p + 1)
               for p in range(N + 1))


def nyquist_symbol(weights):
    """|sum_k w_k (-1)^k|: the Laplacian stencil's largest eigenvalue
    magnitude per axis, in units of 1/dx^2."""
    return abs(sum(w * (-1) ** k for k, w in enumerate(weights)))


def nyquist_x(mu, weights, axes, v_max, hbar, mass, dx):
    """Largest truncated-sine argument for mesh ratio mu:
    x_max = (dt/2) * ((hbar/2m) * axes * lambda_max + V/hbar),
    the Nyquist-corner symbol shifted by the potential term, with
    dt = mu * 2 m dx^2 / hbar."""
    dt = mu * 2.0 * mass * dx ** 2 / hbar
    lam = axes * nyquist_symbol(weights) / dx ** 2
    return 0.5 * dt * (hbar / (2.0 * mass) * lam + v_max / hbar)


def oracle_first_amplifying_mu(mus, N, weights, axes, v_max, hbar, mass, dx,
                               samples=200_001):
    """First mu whose dense max of |S_N| over [0, x_max(mu)] exceeds 1,
    or None when no mu amplifies."""
    unit = np.linspace(0.0, 1.0, samples)
    for mu in mus:
        x_max = nyquist_x(mu, weights, axes, v_max, hbar, mass, dx)
        if np.abs(truncated_sine(unit * x_max, N)).max() > 1.0:
            return mu
    return None
