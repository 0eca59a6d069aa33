"""Command-line interface.

Subcommands:

* run       - full simulation from a config file; writes runlog.csv,
              diagonal snapshots and (optionally) raw field dumps.
* stability - print the stability report for a config without running.
* sweep     - scan a range of mu values and report where the scheme
              first turns unstable.

Exit codes: 0 success, 1 divergence detected (run log still written),
2 any other package error (configuration, I/O, ...), without a traceback.
"""

import argparse
import os
import sys

from .config import parse_config
from .errors import ConfigurationError, GfdtdError, RunIOError
from .fields import EV
from .scenarios import PotentialField, barrier_potential, gaussian_packet_1d, \
    gaussian_packet_2d, potential_bounds, run as run_simulation
from .scheme import SchemeConfig
from .snapshots import write_diagonal_snapshot, write_field_dump, write_runlog
from .stability import wavenumber_scan


def _load_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _build_problem(cfg):
    grid = cfg.grid
    if cfg.barrier is None:
        potential = PotentialField.zeros(grid)
    else:
        potential = barrier_potential(cfg.barrier, grid)
    if grid.dims == 2:
        wf = gaussian_packet_2d(cfg.packet, grid)
    else:
        wf = gaussian_packet_1d(cfg.packet, grid, cfg.scheme.physics)
    return potential, wf


def _print_report(report, scheme, bounds):
    print(f"endpoint argument x_max : {report.endpoint_x:.6g}")
    print(f"endpoint value |S(x_max)|: {report.endpoint_value:.6g}")
    print(f"scan max |S(x)|         : {report.scan_max:.6g}")
    print(f"threshold c             : {report.threshold_c:.6g}")
    print(f"margin (c - scan max)   : {report.margin:.6g}")
    print(f"verdict                 : {report.verdict.value}")
    lo, hi = (v * scheme.dt / (2.0 * scheme.physics.hbar) for v in bounds)
    print(f"potential term V*dt/2hbar: {lo:.6g} to {hi:.6g}")


def cmd_stability(args):
    cfg = _load_config(args.config)
    v_min, v_max = bounds = potential_bounds(cfg.barrier, cfg.grid)
    report = wavenumber_scan(cfg.scheme, cfg.grid, v_max=v_max, c=cfg.c, v_min=v_min)
    _print_report(report, cfg.scheme, bounds)
    return 0


def cmd_run(args):
    cfg = _load_config(args.config)
    grid, scheme = cfg.grid, cfg.scheme
    if grid.dims == 2 and grid.ny != grid.nx:   # before out_dir exists
        raise ConfigurationError(f"grid.ny ({grid.ny}) must equal grid.nx ({grid.nx}): "
                                 "run writes diagonal snapshots")
    potential, wf = _build_problem(cfg)
    out_dir = cfg.out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise RunIOError(f"cannot create output directory {out_dir}: {exc}") from exc

    def on_snapshot(field, record):
        write_diagonal_snapshot(field, grid, record.step, record.time_s, out_dir)
        if cfg.full_field_dumps:
            write_field_dump(field, grid, record.step, record.time_s, out_dir)

    final, log = run_simulation(wf, potential, grid, scheme, cfg.steps,
                                snapshot_every=cfg.snapshot_every,
                                on_snapshot=on_snapshot, threshold_c=cfg.c)
    _print_report(log.stability_report, scheme, potential.bounds())
    write_runlog(log, out_dir)
    last = log.records[-1]
    print(f"recorded {len(log.records)} snapshots; final step {last.step}, "
          f"norm {last.norm:.6g}, energy {last.energy_j / EV:.6g} eV")
    if log.diverged:
        print(f"DIVERGENCE detected at step {log.divergence_step}")
        return 1
    return 0


def cmd_sweep(args):
    cfg = _load_config(args.config)
    if args.mu_step <= 0 or args.mu_to < args.mu_from:
        raise ConfigurationError("sweep needs mu_from <= mu_to and mu_step > 0")
    grid, base = cfg.grid, cfg.scheme
    v_min, v_max = potential_bounds(cfg.barrier, grid)
    first_over_c = None
    first_over_one = None
    print("mu,endpoint_value,scan_max,verdict")
    mu = args.mu_from
    while mu <= args.mu_to + 1e-12 * args.mu_step:
        scheme = SchemeConfig.from_mu(base.N, base.order, mu, base.physics, grid)
        report = wavenumber_scan(scheme, grid, v_max=v_max, c=cfg.c, v_min=v_min)
        print(f"{mu:.6g},{report.endpoint_value:.6g},{report.scan_max:.6g},"
              f"{report.verdict.value}")
        if first_over_c is None and report.scan_max > cfg.c:
            first_over_c = mu
        if first_over_one is None and report.scan_max > 1.0:
            first_over_one = mu
        mu += args.mu_step
    if first_over_c is not None:
        print(f"first mu with scan max > c={cfg.c:.4g}: {first_over_c:.6g}")
    if first_over_one is not None:
        print(f"first mu with scan max > 1 (amplifying): {first_over_one:.6g}")
    else:
        print("no amplifying mu in the sweep range")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gfdtd",
        description="Generalized FDTD solver for the time-dependent "
                    "Schrodinger equation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a simulation from a config file")
    p_run.add_argument("--config", required=True)
    p_run.set_defaults(func=cmd_run)

    p_stab = sub.add_parser("stability", help="print the stability report")
    p_stab.add_argument("--config", required=True)
    p_stab.set_defaults(func=cmd_stability)

    p_sweep = sub.add_parser("sweep", help="scan stability across mu")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--mu-from", type=float, required=True, dest="mu_from")
    p_sweep.add_argument("--mu-to", type=float, required=True, dest="mu_to")
    p_sweep.add_argument("--mu-step", type=float, required=True, dest="mu_step")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GfdtdError as exc:
        kind = "configuration" if isinstance(exc, ConfigurationError) else "run"
        print(f"{kind} error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
