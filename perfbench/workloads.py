"""The four workloads.

A workload builds its inputs from the seed, then offers ``setup`` (timed
as setup_s), ``solve`` (timed as run_s) and ``check`` (untimed).  The
package is always called through a module attribute looked up at call
time (``scenarios.run``, ``cli.main``) so that the traced pass, which
swaps those attributes, sees every call.  Why each workload exists is in
README.md next to this file.
"""

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gfdtd import (ANGSTROM, EV, BarrierSpec, GaussianPacketSpec, GridSpec,
                   PhysicalParams, PotentialField, SchemeConfig, StencilOrder,
                   barrier_potential, free_packet_1d, gaussian_packet_1d,
                   gaussian_packet_2d)
from gfdtd import cli, config, scenarios, snapshots

from . import checks, machine

DX = 0.1 * ANGSTROM
REFERENCE_FILE = Path(__file__).with_name("reference_paper2d.json")

# fourth-order stencil weights over offsets -2..2, written out here so the
# sweep oracle does not borrow the package's own tables
FOURTH_ORDER_WEIGHTS = (-1 / 12, 16 / 12, -30 / 12, 16 / 12, -1 / 12)


def _capture(argv):
    """cli.main(argv) with stdout captured; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Workload:
    """Subclasses set ``name`` and define ``probe_work`` (about 20 ms of
    work like the solve's, on a 2-core Xeon; see machine.Probe), ``setup``,
    ``solve`` and ``check``."""

    trace_solves = 3    # solves in the traced pass; call counts are per solve
    N = 0               # truncation index, for the roofline byte model
    cells = 0           # grid cells per plane
    steps = 0           # leapfrog steps per solve
    verdicts = 0        # stability verdicts per solve

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed)
        self.workdir = Path(workdir)

    def setup_probe_work(self):
        """Probe work like the set-up's; by default the solve's probe."""
        return self.probe_work()

    def cleanup(self, output):
        pass

    def bytes_written(self, output):
        return 0

    def figures(self, run_s, problem, output):
        """Workload-specific end-to-end figures: {name: (value, unit)}."""
        out = {"verdicts_per_s": (self.verdicts / run_s, "1/s")}
        if self.steps:
            out["steps_per_s"] = (self.steps / run_s, "1/s")
            out["mcell_updates_per_s"] = (self.steps * self.cells / run_s / 1e6, "1e6/s")
        return out


@dataclass
class Problem:
    grid: object
    wf: object
    potential: object
    cfg: object


class Paper2D(Workload):
    """800x800, N=2, fourth order, mu=0.25, 100 eV barrier, through run()."""

    name = "paper2d"
    trace_solves = 2
    N = 2
    cells = 800 * 800
    steps = 6
    verdicts = 1
    shift = 2   # packet centre moves by up to this many cells per axis

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.dj, self.dk = (int(v) for v in self.rng.integers(-self.shift, self.shift + 1, 2))

    def probe_work(self):
        return machine.stencil_work((800, 800), reps=3)

    def setup(self):
        grid = GridSpec(dims=2, nx=800, dx=DX, ny=800, dy=DX)
        physics = PhysicalParams()
        wf = gaussian_packet_2d(
            GaussianPacketSpec(sigma=1.0 * ANGSTROM, wavelength=1.0 * ANGSTROM,
                               center_j=200 + self.dj, center_k=200 + self.dk), grid)
        potential = barrier_potential(BarrierSpec(j_min=401, k_min=401, height=100 * EV), grid)
        cfg = SchemeConfig.from_mu(2, StencilOrder.FOURTH_ORDER, 0.25, physics, grid)
        return Problem(grid, wf, potential, cfg)

    def solve(self, p):
        return scenarios.run(p.wf, p.potential, p.grid, p.cfg, self.steps)

    def summary(self, p, output):
        final, log = output
        first, last = log.records[0], log.records[-1]
        density = final.real_part ** 2 + final.imag_part ** 2
        return {
            "diverged": log.diverged,
            "verdict": log.stability_report.verdict.value,
            "norm0": first.norm, "energy0_j": first.energy_j,
            "norm": last.norm, "energy_j": last.energy_j,
            "barrier_prob": float(density[400:, 400:].sum()) * p.grid.cell_volume,
        }

    def reference(self):
        data = json.loads(REFERENCE_FILE.read_text())
        if data["steps"] != self.steps:
            raise RuntimeError(f"{REFERENCE_FILE.name} holds {data['steps']} steps, "
                               f"workload runs {self.steps}; run record_reference.py")
        return data["results"][f"{self.dj},{self.dk}"]

    def check(self, p, output):
        return checks.check_paper2d(self.summary(p, output), self.reference())


class Conv1D(Workload):
    """Criterion 7's temporal convergence: one final time at mu0/2^k, k=0..3."""

    name = "conv1d"
    N = 2
    cells = 2048
    mu0 = 0.25
    steps0 = 136
    levels = 4
    steps = steps0 * (2 ** levels - 1)
    verdicts = levels
    sigma = 1.0 * ANGSTROM
    wavelength = 2.2 * ANGSTROM
    shift = 3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.center = 400 + int(self.rng.integers(-self.shift, self.shift + 1))
        self._require_clear_of_walls()

    def _require_clear_of_walls(self):
        """The packet must stay 6 sigma(t) from both walls until t_end,
        or the Dirichlet walls, not the time step, would set the error."""
        physics = PhysicalParams()
        t_end = self.steps0 * self.mu0 * 2.0 * physics.mass * DX ** 2 / physics.hbar
        spread = self.sigma * np.hypot(1.0, physics.hbar * t_end / (physics.mass * self.sigma ** 2))
        drift = physics.hbar * 2.0 * np.pi / self.wavelength / physics.mass * t_end
        left = (self.center - 1) * DX + drift - 6 * spread
        right = (self.cells - self.center) * DX - drift - 6 * spread
        if min(left, right) < 0:
            raise RuntimeError("conv1d packet reaches a wall before t_end")

    def probe_work(self):
        return machine.stencil_work((self.cells,), reps=1200)

    def setup(self):
        grid = GridSpec(dims=1, nx=self.cells, dx=DX)
        physics = PhysicalParams()
        potential = PotentialField.zeros(grid)
        spec = GaussianPacketSpec(sigma=self.sigma, wavelength=self.wavelength,
                                  center_j=self.center, normalize=False)
        runs = []
        for k in range(self.levels):
            cfg = SchemeConfig.from_mu(2, StencilOrder.FOURTH_ORDER, self.mu0 / 2 ** k,
                                       physics, grid)
            wf = gaussian_packet_1d(spec, grid, physics, stagger_dt=cfg.dt,
                                    stagger_order=StencilOrder.FOURTH_ORDER)
            runs.append(Problem(grid, wf, potential, cfg))
        return runs

    def solve(self, runs):
        return [scenarios.run(r.wf, r.potential, r.grid, r.cfg, self.steps0 * 2 ** k)
                for k, r in enumerate(runs)]

    def rel_l2_err(self, runs, output):
        """Criterion 7's error of the mu0 run against the closed form:
        real part at t_end, imaginary part at t_end + dt/2."""
        grid, cfg = runs[0].grid, runs[0].cfg
        t_end = self.steps0 * cfg.dt
        psi = free_packet_1d(grid, cfg.physics, self.sigma, self.wavelength, self.center, t=t_end)
        psi_half = free_packet_1d(grid, cfg.physics, self.sigma, self.wavelength, self.center,
                                  t=t_end + 0.5 * cfg.dt)
        final = output[0][0]
        return checks.rel_l2_err(final.real_part, final.imag_part, psi.real, psi_half.imag)

    def check(self, runs, output):
        ref = output[-1][0].real_part
        denom = np.linalg.norm(ref)
        errors = [float(np.linalg.norm(f.real_part - ref) / denom) for f, _ in output[:-1]]
        return checks.check_conv1d(self.rel_l2_err(runs, output), errors,
                                   [log.diverged for _, log in output])

    def figures(self, run_s, runs, output):
        out = super().figures(run_s, runs, output)
        out["rel_l2_err"] = (self.rel_l2_err(runs, output), "1")
        return out


class CliWorkload(Workload):
    """A workload driven through ``gfdtd``'s command line.  The config file
    is written once, untimed; set-up is ``parse_config`` on its text."""

    def write_config(self, doc):
        self.config_text = json.dumps(doc)
        self.config_path = self.workdir / f"{self.name}.json"
        self.config_path.write_text(self.config_text)

    def setup_probe_work(self):
        return machine.call_work(6000)    # parsing is interpreter-bound

    def setup(self):
        config.parse_config(self.config_text)
        return str(self.config_path)


class Snap2D(CliWorkload):
    """400x400 classic FDTD through ``gfdtd run`` with a snapshot every step."""

    name = "snap2d"
    N = 0
    cells = 400 * 400
    steps = 40
    verdicts = 1
    shift = 3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.dj, self.dk = (int(v) for v in self.rng.integers(-self.shift, self.shift + 1, 2))
        self.out_dir = self.workdir / "snap2d_out"
        self.write_config({
            "grid": {"dims": 2, "nx": 400, "ny": 400, "dx_angstrom": 0.1},
            "scheme": {"N": 0, "stencil_order": 2, "mu": 0.2},
            "init": {"sigma_angstrom": 1.0, "lambda_angstrom": 1.0,
                     "center_j": 100 + self.dj, "center_k": 100 + self.dk},
            "potential": {"type": "quadrant_barrier", "height_ev": 100.0,
                          "j_min": 201, "k_min": 201},
            "run": {"steps": self.steps, "snapshot_every": 1, "out_dir": str(self.out_dir),
                    "full_field_dumps": True},
        })

    def probe_work(self):
        return machine.stencil_work((400, 400), reps=10)

    def solve(self, path):
        return _capture(["run", "--config", path])

    def cleanup(self, output):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def bytes_written(self, output):
        return sum(f.stat().st_size for f in self.out_dir.iterdir())

    def check(self, path, output):
        code, _ = output
        with open(self.out_dir / "runlog.csv") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        last = max(int(r[0]) for r in rows)
        dump, meta = snapshots.read_field_dump(str(self.out_dir / f"field_{last}.f64"),
                                               str(self.out_dir / f"field_{last}.meta"))
        dump_norm = (float((dump.real_part ** 2 + dump.imag_part ** 2).sum())
                     * meta["dx"] * meta["dy"])
        runlog_norm = float(next(r for r in rows if int(r[0]) == last)[2])
        _, real, imag, density = snapshots.read_diagonal_snapshot(
            str(self.out_dir / f"diag_{last}.csv"))
        return checks.check_snap2d(code, len(rows), self.steps, dump_norm, runlog_norm,
                                   (real, imag, density),
                                   (np.diagonal(dump.real_part), np.diagonal(dump.imag_part)))


class Sweep(CliWorkload):
    """``gfdtd sweep`` on the paper config over mu in [0.2, 0.5]."""

    name = "sweep"
    N = 2
    mu_to = 0.5
    mu_step = 0.0005

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # start a fraction of a step past 0.2, never close to a whole step,
        # so the last mu is well clear of mu_to on both sides of rounding
        self.mu_from = 0.2 + float(self.rng.uniform(0.1, 0.9)) * self.mu_step
        self.verdicts = int((self.mu_to - self.mu_from) / self.mu_step) + 1
        physics = PhysicalParams()
        mus = [self.mu_from + i * self.mu_step for i in range(self.verdicts)]
        self.oracle_mu = checks.oracle_first_amplifying_mu(
            mus, self.N, FOURTH_ORDER_WEIGHTS, axes=2, v_max=100 * EV,
            hbar=physics.hbar, mass=physics.mass, dx=DX)
        self.write_config({
            "grid": {"dims": 2, "nx": 800, "ny": 800, "dx_angstrom": 0.1},
            "scheme": {"N": 2, "stencil_order": 4, "mu": 0.25},
            "init": {"sigma_angstrom": 1.0, "lambda_angstrom": 1.0,
                     "center_j": 200, "center_k": 200},
            "potential": {"type": "quadrant_barrier", "height_ev": 100.0,
                          "j_min": 401, "k_min": 401},
            "run": {"steps": 500, "snapshot_every": 0,
                    "out_dir": str(self.workdir / "sweep_out")},
        })

    def probe_work(self):
        return machine.symbol_work(256, reps=16)   # the scan's 256^2 grid

    def solve(self, path):
        return _capture(["sweep", "--config", path, "--mu-from", repr(self.mu_from),
                         "--mu-to", repr(self.mu_to), "--mu-step", repr(self.mu_step)])

    def check(self, path, output):
        code, text = output
        lines = text.splitlines()
        rows = [l for l in lines if l[:1].isdigit() and l.count(",") == 3]
        marker = "(amplifying): "
        first = next((float(l.split(marker)[1]) for l in lines if marker in l), None)
        return checks.check_sweep(code, len(rows), self.verdicts, first, self.oracle_mu,
                                  self.mu_step)


WORKLOADS = {w.name: w for w in (Paper2D, Conv1D, Snap2D, Sweep)}
