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
import itertools
import math
import os
import sys

import numpy as np

from .config import parse_config
from .errors import ConfigurationError, GfdtdError, RunIOError
from .fields import EV
from .scenarios import PotentialField, barrier_potential, gaussian_packet, potential_bounds, \
    run as run_simulation
from .scheme import SchemeConfig
from .snapshots import write_diagonal_snapshot, write_field_dump, write_runlog
from .stability import scan_time_steps, wavenumber_scan

# mu rows per scan_time_steps call in sweep: numpy's per-call cost is paid per
# chunk, and a chunk's mu, dt and scan_time_steps arrays are all the rows sweep holds
SWEEP_CHUNK_ROWS = 64


def _load_config(path):
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc


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
    # the packet (imaginary part at +dt/2) is built in the call and named nowhere here,
    # so run() can free it after step 1; _snapshot_writer, evaluated next, makes out_dir
    _, log = run_simulation(gaussian_packet(cfg.packet, grid, scheme.physics, scheme.dt,
                                            scheme.order), potential, grid, scheme, cfg.steps,
                            snapshot_every=cfg.snapshot_every,
                            on_snapshot=_snapshot_writer(cfg), threshold_c=cfg.c)
    _print_report(log.stability_report, scheme, potential_bounds(cfg.barrier, grid))
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
    row_format = f"%.{digits}g,%.6g,%.6g,%s\n"
    grid, base, c = cfg.grid, cfg.scheme, cfg.c
    v_min, v_max = potential_bounds(cfg.barrier, grid)
    firsts = {}   # by bar, c or 1.0, the first mu whose scan max passes it
    print("mu,endpoint_value,scan_max,verdict")
    for start in range(0, rows, SWEEP_CHUNK_ROWS):
        with np.errstate(over="ignore", invalid="ignore"):   # as in float arithmetic: no warning
            mu = mu_from + np.arange(start, min(start + SWEEP_CHUNK_ROWS, rows)) * mu_step
            mu = mu[mu <= limit]   # a prefix, as mu rises with i: the rows end past the limit
            dt = SchemeConfig.dt_from_mu(mu, base.physics, grid)
        finite = (dt > 0) & (dt < math.inf)   # the rows also end at a dt past the float range
        n = len(mu) if finite.all() else int(finite.argmin())
        value, peak, _, labels, _ = scan_time_steps(dt[:n], grid, base.N, base.order,
                                                    base.physics, v_max, c, v_min=v_min)
        columns = mu[:n].tolist(), value.tolist(), peak.tolist(), labels.tolist()
        sys.stdout.write(row_format * n % tuple(itertools.chain.from_iterable(zip(*columns))))
        for bar in (c, 1.0):   # a bar's first mu is in the first chunk that passes it
            past = ~(peak <= bar)   # the verdict's comparison: a NaN maximum reads unstable
            if bar not in firsts and past.any():
                firsts[bar] = float(mu[past.argmax()])
        if n < len(mu):   # raise that mu's error, as its config does
            SchemeConfig.from_mu(base.N, base.order, float(mu[n]), base.physics, grid)
    if c in firsts:
        print(f"first mu with scan max > c={c:.4g}: {firsts[c]:.{digits}g}")
    if 1.0 in firsts:
        print(f"first mu with scan max > 1 (amplifying): {firsts[1.0]:.{digits}g}")
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
