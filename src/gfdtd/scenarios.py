"""Initial conditions, potentials, observables and the run driver.

The stock experiment launches a Gaussian-enveloped plane wave moving
diagonally across a square grid toward a constant potential step filling
the upper-right quadrant.  Grid indices in the specs below are 1-based
(j = 1..nx), matching the mesh-point numbering used throughout.
"""

import math
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import ConfigurationError, NonHermitianError
from .fields import GridSpec, PotentialField, WaveField, density, norm, normalize
from .scheme import Propagator
from .stability import DEFAULT_THRESHOLD, wavenumber_scan
from .stencils import StencilOrder, _checked, axis_symbol, bind_b

# |value| exceeding this multiple of the initial max stops the run
DIVERGENCE_FACTOR = 1.0e10


def _check_indices(grid, **indices):
    for (name, i), n in zip(indices.items(), grid.shape):   # 1-based, one per axis
        if i is None or not 1 <= i <= n:
            raise ConfigurationError(f"{name} {i} outside grid")


@dataclass(frozen=True)
class GaussianPacketSpec:
    """Gaussian envelope of width sigma carrying a plane wave of the
    given wavelength, centered at grid point (center_j, center_k).
    Lengths are meters; distances in the exponent and phase are physical
    ((j - j0) * dx etc.)."""

    sigma: float
    wavelength: float
    center_j: int
    center_k: int | None = None
    normalize: bool = True

    def validate(self, grid):
        if not self.sigma > 0 or not self.wavelength > 0:
            raise ConfigurationError("sigma and wavelength must be positive")
        _check_indices(grid, center_j=self.center_j, center_k=self.center_k)


@dataclass(frozen=True)
class BarrierSpec:
    """Constant potential of the given height (Joules) on the quadrant
    {j >= j_min and k >= k_min}, zero elsewhere."""

    j_min: int
    k_min: int
    height: float

    def validate(self, grid):
        if self.height < 0:
            raise ConfigurationError("barrier height must be nonnegative")
        _check_indices(grid, j_min=self.j_min, k_min=self.k_min)


def free_packet_1d(grid, physics, sigma, wavelength, center_j, t=0.0):
    """Closed-form free-space evolution of a 1-D Gaussian packet.

    The t = 0 state is exp(-(x-x0)^2 / (2 sigma^2)) * exp(i k0 (x-x0))
    with k0 = 2 pi / wavelength; for any t the solution stays Gaussian:

        psi(x, t) = sigma / sqrt(2 a) * exp(-(x - x0 - v t)^2 / (4 a))
                    * exp(i k0 (x - x0) - i hbar k0^2 t / (2 m)),
        a = sigma^2 / 2 + i hbar t / (2 m),   v = hbar k0 / m.

    Returns a complex array.  Used as the reference in accuracy measurements
    and, one factor per axis, for gaussian_packet's closed-form half step.  A
    term that overflows raises ConfigurationError.
    """
    if grid.dims != 1:
        raise ConfigurationError("free_packet_1d needs a 1-D grid")
    x = (np.arange(1, grid.nx + 1) - center_j) * grid.dx  # displacement from center
    # in np.float64 an overflow is inf, not OverflowError; checked below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k0 = 2.0 * np.pi / np.float64(wavelength)
        a = np.float64(sigma) ** 2 / 2.0 + 1j * physics.hbar * t / (2.0 * physics.mass)
        v = physics.hbar * k0 / physics.mass
        amp = sigma / np.sqrt(2.0 * a)
        psi = amp * np.exp(-(x - v * t) ** 2 / (4.0 * a)
                           + 1j * (k0 * x - physics.hbar * k0 ** 2 * t / (2.0 * physics.mass)))
    if not (np.isfinite(a) and np.isfinite(psi).all()):
        raise ConfigurationError(f"free packet overflows: sigma {sigma!r}, "
                                 f"wavelength {wavelength!r}")
    return psi


def _half_step_imag_discrete(psi0, grid, physics, order, dt):
    """psi_imag advanced to t = +dt/2 under the semi-discrete dynamics.

    Applies exp(-i E dt/2) per Fourier mode with E the eigenvalue of the
    discrete (stencil) kinetic operator, a sum over the axes, so the only
    error left against the stepper is the time-truncation error itself.  Valid
    for free space with the packet well away from the boundaries (the periodic
    FFT then agrees with the Dirichlet operator to packet-tail accuracy).
    """
    lam_sym = sum(np.ix_(*(axis_symbol(order, np.sin(np.pi * np.fft.fftfreq(n)) ** 2) / h ** 2
                           for n, h in zip(grid.shape, grid.spacing))))   # sin^2(beta h/2)
    omega = physics.hbar * lam_sym / (2.0 * physics.mass)
    return np.fft.ifftn(np.fft.fftn(psi0) * np.exp(-0.5j * dt * omega)).imag


def gaussian_packet(spec, grid, physics=None, stagger_dt=None, stagger_order=None):
    """Initial split wavefunction, 1-D or 2-D: cos phase in the real part, sin
    in the imaginary part, both under the same Gaussian envelope; the exponent
    and the phase 2 pi (x + y) / wavelength sum one term per axis.  With
    stagger_dt (and physics) the imaginary part is advanced to t = +dt/2, the
    first step consuming psi_imag at t_{1/2}: by the free closed form, or by
    the discrete dispersion when stagger_order names a stencil order (used by
    time-convergence measurements).  Non-finite planes raise ConfigurationError."""
    spec.validate(grid)
    if stagger_dt is not None and physics is None:
        raise ConfigurationError("stagger_dt needs physics")
    axes = list(zip(grid.shape, (spec.center_j, spec.center_k), grid.spacing))
    xs = np.ix_(*((np.arange(1, n + 1) - c) * h for n, c, h in axes))
    # each plane built in place: at most three exist at once, no temporaries;
    # 0 + (-a) + (-b) is -a - b, and 0 + x + y is x + y, bit for bit
    with np.errstate(over="ignore", invalid="ignore"):   # exp(-inf) = 0 is the limit
        envelope = sum(-0.5 * (x / spec.sigma) ** 2 for x in xs)
        np.exp(envelope, out=envelope)
        phase = sum(xs)
        phase *= 2.0 * np.pi
        phase /= spec.wavelength
        real = np.cos(phase)
        real *= envelope
        np.sin(phase, out=phase)
        phase *= envelope
    del envelope   # before the half step's and normalisation's planes
    if stagger_dt is not None and stagger_order is not None:
        phase = _half_step_imag_discrete(real + 1j * phase, grid, physics, stagger_order,
                                         stagger_dt)
    elif stagger_dt is not None:   # the free Gaussian is a product of per-axis factors
        phase = math.prod(np.ix_(*(free_packet_1d(GridSpec(1, n, h), physics, spec.sigma,
                                                  spec.wavelength, c, 0.5 * stagger_dt)
                                   for n, c, h in axes))).imag
    if not (np.isfinite(real).all() and np.isfinite(phase).all()):
        raise ConfigurationError(f"packet is not finite: sigma {spec.sigma!r}, "
                                 f"wavelength {spec.wavelength!r}")
    wf = WaveField(real, phase)
    return normalize(wf, grid) if spec.normalize else wf


gaussian_packet_1d = gaussian_packet_2d = gaussian_packet   # older names, for perfbench


def barrier_potential(spec, grid):
    spec.validate(grid)
    values = np.zeros(grid.shape)
    corner = zip((spec.j_min, spec.k_min), grid.shape)
    values[tuple(slice(i - 1, None) for i, _ in corner)] = spec.height
    return PotentialField(values)


def potential_bounds(spec, grid):
    """barrier_potential(spec, grid).bounds() without building the plane;
    (0, 0) for spec None, free space."""
    if spec is None:
        return 0.0, 0.0
    covers_grid = all(i == 1 for i, _ in zip((spec.j_min, spec.k_min), grid.shape))
    return (spec.height if covers_grid else 0.0), spec.height


def energy_expectation(wf, potential, grid, physics, order=StencilOrder.FOURTH_ORDER, bound=None):
    """<psi| -(hbar^2/2m) Laplacian + V |psi> in Joules.

    H = -hbar B, so this takes two applications of B and four dot products,
    both through ``bound`` (B bound for the same arguments, as a Propagator's
    b is) or else one bind_b.  H is real and symmetric, so the imaginary
    residual must vanish; above 1e-10 relative it raises NonHermitianError."""
    real, imag = wf.real_part, wf.imag_part
    bound = bound or bind_b(grid, potential, physics, order)
    b = _checked(bound, real, grid, None)
    r_br, i_br = np.vdot(real, b), np.vdot(imag, b)
    _checked(bound, imag, grid, b)
    r_bi, i_bi = np.vdot(real, b), np.vdot(imag, b)
    scale = -physics.hbar * grid.cell_volume
    real_part = float(r_br + i_bi) * scale
    imag_part = float(r_bi - i_br) * scale
    if abs(imag_part) > 1e-10 * max(abs(real_part), 1e-300):
        raise NonHermitianError(f"energy expectation has imaginary residual {imag_part}")
    return real_part


@dataclass
class RunRecord:
    step: int
    time_s: float
    norm: float
    max_density: float
    energy_j: float


@dataclass
class RunLog:
    records: list[RunRecord] = dataclass_field(default_factory=list)
    divergence_step: int | None = None
    stability_report: object = None
    phase_s: dict = dataclass_field(default_factory=dict)   # not in runlog.csv

    @property
    def diverged(self):
        return self.divergence_step is not None


def run(wf, potential, grid, cfg, steps, snapshot_every=0, on_snapshot=None,
        threshold_c=DEFAULT_THRESHOLD):
    """Drive the leapfrog scheme for ``steps`` steps.

    The stability scan runs first and lands in the log; one Propagator steps.
    Observables are recorded at step 0 and every ``snapshot_every`` steps
    (always at the final step); on_snapshot(wf, record) fires at the same
    cadence.  A step whose field is non-finite or exceeds DIVERGENCE_FACTOR
    times the initial max stops the run and is logged as divergence_step
    instead of raising.  log.phase_s holds each phase's wall seconds.
    Returns (final_field, RunLog), final_field being the last one under the limit.
    ``wf``'s planes are never written, nor referenced once step 1 is accepted.
    A negative ``steps`` or ``snapshot_every`` raises ConfigurationError.
    """
    if steps < 0 or snapshot_every < 0:
        raise ConfigurationError(f"steps {steps} and snapshot_every {snapshot_every} must be >= 0")
    # a with block, not a decorator, whose wrapper would hold wf for the whole run
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite plane is a divergence
        clock, log = time.perf_counter, RunLog()
        start = clock()
        v_min, v_max = potential.bounds()
        log.stability_report = wavenumber_scan(cfg, grid, v_max=v_max, c=threshold_c,
                                               v_min=v_min)
        phase = log.phase_s = {"verdict": clock() - start, "observe": 0.0, "snapshot": 0.0}
        propagator = Propagator(grid, potential, cfg)
        limit = DIVERGENCE_FACTOR * max(wf.max_abs(), 1e-300)
        for n in range(steps + 1):
            if n:
                advanced = propagator.step(wf)
                m = advanced.max_abs()
                if not np.isfinite(m) or m > limit:   # an inf limit still stops an inf max
                    log.divergence_step = n
                    break
                wf = advanced
            if n in (0, steps) or (snapshot_every and n % snapshot_every == 0):
                t = clock()   # energy first: its planes are freed before density's is built
                energy_j = energy_expectation(wf, potential, grid, cfg.physics, cfg.order,
                                              propagator.b)
                d = density(wf)
                record = RunRecord(n, n * cfg.dt, norm(wf, grid, d), float(d.max()), energy_j)
                del d   # no plane is kept between steps
                log.records.append(record)
                phase["observe"] += clock() - t
                if on_snapshot is not None:
                    t = clock()
                    on_snapshot(wf, record)
                    phase["snapshot"] += clock() - t
        phase["step"] = clock() - start - sum(phase.values())   # all the rest
    return wf, log
