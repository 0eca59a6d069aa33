"""Command-line interface.

Subcommands:

* run       - full simulation from a config file; writes runlog.csv,
              diagonal snapshots and (optionally) raw field dumps.
* stability - print the stability report for a config without running.
* sweep     - scan a range of mu values and report where the scheme
              first turns unstable.

Exit codes: 0 success, 1 divergence detected (run log still written),
2 any other error (configuration, I/O, a closed stdout, ...), without a traceback.
"""

import argparse
import math
import os
import sys

from .config import parse_config
from .errors import ConfigurationError, GfdtdError, RunIOError
from .fields import EV
from .scenarios import PotentialField, barrier_potential, gaussian_packet, potential_bounds, \
    run as run_simulation
from .scheme import SchemeConfig
from .snapshots import write_diagonal_snapshot, write_field_dump, write_runlog
from .stability import wavenumber_scan


def _load_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


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


def _snapshot_writer(cfg):
    """Make cfg.out_dir; returns the on_snapshot that writes each record's files."""
    grid, out_dir = cfg.grid, cfg.out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise RunIOError(f"cannot create output directory {out_dir}: {exc}") from exc

    def on_snapshot(field, record):
        write_diagonal_snapshot(field, grid, record.step, record.time_s, out_dir)
        if cfg.full_field_dumps:
            write_field_dump(field, grid, record.step, record.time_s, out_dir)
    return on_snapshot


def cmd_run(args):
    cfg = _load_config(args.config)
    grid, scheme = cfg.grid, cfg.scheme
    if grid.dims == 2 and grid.ny != grid.nx:   # before out_dir exists
        raise ConfigurationError(f"grid.ny ({grid.ny}) must equal grid.nx ({grid.nx}): "
                                 "run writes diagonal snapshots")
    potential = (PotentialField.zeros(grid) if cfg.barrier is None
                 else barrier_potential(cfg.barrier, grid))
    # the packet is built in the call and named nowhere here, so run() can
    # free it after step 1; _snapshot_writer, evaluated next, makes out_dir
    _, log = run_simulation(gaussian_packet(cfg.packet, grid), potential, grid, scheme, cfg.steps,
                            snapshot_every=cfg.snapshot_every,
                            on_snapshot=_snapshot_writer(cfg), threshold_c=cfg.c)
    _print_report(log.stability_report, scheme, potential.bounds())
    write_runlog(log, cfg.out_dir)
    last = log.records[-1]
    print(f"recorded {len(log.records)} snapshots; final step {last.step}, "
          f"norm {last.norm:.6g}, energy {last.energy_j / EV:.6g} eV")
    if log.diverged:
        print(f"DIVERGENCE detected at step {log.divergence_step}")
        return 1
    return 0


def cmd_sweep(args):
    cfg = _load_config(args.config)
    mu_from, mu_to, mu_step = args.mu_from, args.mu_to, args.mu_step
    for flag, value in (("--mu-from", mu_from), ("--mu-to", mu_to), ("--mu-step", mu_step)):
        if not math.isfinite(value):
            raise ConfigurationError(f"sweep {flag} must be finite, got {value}")
    if not 0 < mu_from <= mu_to or mu_step <= 0 or mu_to + mu_step == mu_to:
        raise ConfigurationError("sweep needs 0 < --mu-from <= --mu-to and a --mu-step > 0 "
                                 "that moves --mu-to")
    # mu_i = mu_from + i mu_step up to the limit; one spare row absorbs rounding
    limit = mu_to + 1e-12 * mu_step
    rows = math.floor((limit - mu_from) / mu_step) + 2
    digits = min(17, max(6, 2 + math.ceil(math.log10(mu_to / mu_step))))   # rows stay distinct
    grid, base = cfg.grid, cfg.scheme
    v_min, v_max = potential_bounds(cfg.barrier, grid)
    first_over_c = first_over_one = None
    print("mu,endpoint_value,scan_max,verdict")
    for mu in (mu_from + i * mu_step for i in range(rows)):
        if mu > limit:
            break
        scheme = SchemeConfig.from_mu(base.N, base.order, mu, base.physics, grid)
        report = wavenumber_scan(scheme, grid, v_max=v_max, c=cfg.c, v_min=v_min)
        print(f"{mu:.{digits}g},{report.endpoint_value:.6g},{report.scan_max:.6g},"
              f"{report.verdict.value}")
        if first_over_c is None and report.scan_max > cfg.c:
            first_over_c = mu
        if first_over_one is None and report.scan_max > 1.0:
            first_over_one = mu
    if first_over_c is not None:
        print(f"first mu with scan max > c={cfg.c:.4g}: {first_over_c:.{digits}g}")
    if first_over_one is not None:
        print(f"first mu with scan max > 1 (amplifying): {first_over_one:.{digits}g}")
    else:
        print("no amplifying mu in the sweep range")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gfdtd",
        description="Generalized FDTD solver for the time-dependent "
                    "Schrodinger equation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, text in (("run", cmd_run, "run a simulation from a config file"),
                             ("stability", cmd_stability, "print the stability report"),
                             ("sweep", cmd_sweep, "scan stability across mu")):
        command = sub.add_parser(name, help=text)
        command.add_argument("--config", required=True)
        command.set_defaults(func=func)
    for bound in ("from", "to", "step"):   # sweep's, the last parser added
        command.add_argument(f"--mu-{bound}", type=float, required=True, dest=f"mu_{bound}")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (GfdtdError, BrokenPipeError) as exc:
        if isinstance(exc, BrokenPipeError):   # the reader left: gfdtd sweep ... | head
            # stdout on devnull: the interpreter's exit-time flush cannot raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        kind = "configuration" if isinstance(exc, ConfigurationError) else "run"
        print(f"{kind} error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
