"""Initial conditions, potentials, observables and the run driver.

The stock experiment launches a Gaussian-enveloped plane wave moving
diagonally across a square grid toward a constant potential step filling
the upper-right quadrant.  Grid indices in the specs below are 1-based
(j = 1..nx), matching the mesh-point numbering used throughout.
"""

import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import ConfigurationError, NonHermitianError
from .fields import PotentialField, WaveField, _dot, _scale_to_unit_norm, density, norm
from .scheme import Propagator, _nonzero_rows
from .stability import DEFAULT_THRESHOLD, wavenumber_scan
from .stencils import FLOOR, StencilOrder, _checked, axis_symbol, bind_b

# |value| exceeding this multiple of the initial max stops the run
DIVERGENCE_FACTOR = 1.0e10


def _check_indices(grid, **indices):
    for (name, i), n in zip(indices.items(), grid.shape):   # 1-based, one per axis
        if i is None or not 1 <= i <= n:
            raise ConfigurationError(f"{name} {i} outside grid")
        if not isinstance(i, (int, np.integer)):   # a slice bound, numpy's too
            raise ConfigurationError(f"{name} {i!r} is not an integer grid index")


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
        if not 0 <= self.height < np.inf:   # NaN fails both; PotentialField refuses NaN and inf too
            raise ConfigurationError(
                f"barrier height must be nonnegative and finite, got {self.height!r}")
        _check_indices(grid, j_min=self.j_min, k_min=self.k_min)


def free_packet_1d(grid, physics, sigma, wavelength, center_j, t=0.0):
    """Closed-form free-space evolution of a 1-D Gaussian packet.

    The t = 0 state is exp(-(x-x0)^2 / (2 sigma^2)) * exp(i k0 (x-x0))
    with k0 = 2 pi / wavelength; for any t the solution stays Gaussian:

        psi(x, t) = sigma / sqrt(2 a) * exp(-(x - x0 - v t)^2 / (4 a))
                    * exp(i k0 (x - x0) - i hbar k0^2 t / (2 m)),
        a = sigma^2 / 2 + i hbar t / (2 m),   v = hbar k0 / m.

    Returns a complex array, the reference in accuracy measurements.  A term
    that overflows raises ConfigurationError.
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


def _axis_factor(x, h, spec, physics, order, dt):
    """The factor exp(-x^2 / (2 sigma^2) + 2 pi i x / wavelength) on one axis, and it advanced
    by exp(-i omega dt/2) per Fourier mode, omega = hbar K / 2m for the axis's stencil symbol K
    (the periodic FFT needs the packet far from the walls); without dt, the factor twice."""
    psi = np.exp(-0.5 * (x / spec.sigma) ** 2 + 1j * (x * 2.0 * np.pi / spec.wavelength))
    if dt is None:
        return psi, psi
    s = np.sin(np.pi * np.fft.fftfreq(x.size)) ** 2   # sin^2(beta h/2)
    omega = physics.hbar * axis_symbol(order, s) / (2.0 * physics.mass * h ** 2)
    return psi, np.fft.ifft(np.fft.fft(psi) * np.exp(-0.5j * dt * omega))


def gaussian_packet(spec, grid, physics=None, stagger_dt=None, stagger_order=None):
    """Initial split wavefunction, 1-D or 2-D: the parts of the outer product of one complex
    factor per axis, as the Gaussian envelope and the plane wave exp(2 pi i (x + y) / wavelength)
    separate by axis.  With stagger_dt, physics and stagger_order the imaginary part is that of
    the factors advanced to t = +dt/2 (the dispersion separates too), the psi_imag the first
    step consumes.  Normalising scales both planes in place, by the helper normalize runs
    on a copy.  Peaks at three planes; a non-finite factor raises ConfigurationError.
    One cut leaves no cell nonzero below stencils.FLOOR.  In 2-D it zeroes each factor part
    below 2^-52 of the unit peak, round-off of every product it enters.  Each product of parts,
    and each sum or difference of two, is then 0 or a multiple of 2^-156, so after the
    normalising scale s (1 unnormalised) a cell is 0 or >= 2^-156 s, above FLOOR for a norm up
    to 2^688 (s >= 2^-344).  Past that norm, and in 1-D, whose tails underflow through
    subnormals, the planes are cut at FLOOR once normalised.  The 1-D factor is not cut: its
    FFT-advanced part keeps round-off tails, so the Propagator stops flushing after step 1; cut,
    a plane of up to 32768 cells, one slab of B, would flush every step with no rows to skip."""
    spec.validate(grid)
    if stagger_dt is not None and (physics is None or stagger_order is None):
        raise ConfigurationError("stagger_dt needs physics and stagger_order")
    axes = zip(grid.shape, (spec.center_j, spec.center_k), grid.spacing)
    with np.errstate(over="ignore", invalid="ignore"):   # exp(-inf) = 0 is the limit
        plain, advanced = zip(*(_axis_factor((np.arange(1, n + 1) - c) * h, h, spec, physics,
                                             stagger_order, stagger_dt) for n, c, h in axes))
    if not all(np.isfinite(f).all() for f in plain + advanced):   # |factor| <= n: planes too
        raise ConfigurationError(f"packet is not finite: sigma {spec.sigma!r}, "
                                 f"wavelength {spec.wavelength!r}")
    if grid.dims == 1:
        real, imag = np.array(plain[0].real), np.array(advanced[0].imag)
    else:   # Re(ab) = ar br - ai bi, Im(ab) = ar bi + ai br, each product rounded (k = 1 @, no
        # broadcast buffer) before the sum: a packet symmetric in j <-> k is so bit for bit
        for parts in (f.view(float) for f in plain + advanced):   # the cut: a cell is then
            parts[np.abs(parts) < 2.0 ** -52] = 0.0   # 0 or >= 2^-156 s (docstring)
        (a, b), (c, d) = plain, advanced
        real = a.real[:, None] @ b.real[None, :]
        real -= a.imag[:, None] @ b.imag[None, :]
        imag = c.real[:, None] @ d.imag[None, :]
        imag += c.imag[:, None] @ d.real[None, :]
    wf = WaveField(real, imag)   # its norm mixes time levels when staggered
    n = _scale_to_unit_norm(wf, grid) if spec.normalize else 1.0
    if grid.dims == 1 or n > 2.0 ** 688:   # the 1-D cut, and 2-D's past its bound
        for plane in (real, imag):
            plane[(plane < FLOOR) & (plane > -FLOOR)] = 0.0
    return wf


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
    spec.validate(grid)
    covers_grid = all(i == 1 for i, _ in zip((spec.j_min, spec.k_min), grid.shape))
    return (spec.height if covers_grid else 0.0), spec.height


def energy_expectation(wf, potential, grid, physics, order=StencilOrder.FOURTH_ORDER, bound=None):
    """<psi| -(hbar^2/2m) Laplacian + V |psi> in Joules.

    H = -hbar B, so this takes two applications of B and four dot products,
    both through ``bound`` (B bound for the same arguments, as a Propagator's
    b is) or else one bind_b, each over the slabs its plane's nonzero rows reach.
    H is real and symmetric, so the imaginary residual must vanish; above 1e-10
    relative it raises NonHermitianError."""
    real, imag = wf.real_part, wf.imag_part
    bound, h = bound or bind_b(grid, potential, physics, order), order.halo

    def b_of(f, out):   # B f is +0.0 past a halo of f's rows that hold a cell other than +0.0
        first, stop = _nonzero_rows(f)
        return bound(f, out, reach=(first - h, stop + h))

    b = _checked(b_of, real, grid, None)
    r_br, i_br = _dot(real, b), _dot(imag, b)
    _checked(b_of, imag, grid, b)
    r_bi, i_bi = _dot(real, b), _dot(imag, b)
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
    A negative or non-integer ``steps`` or ``snapshot_every`` raises ConfigurationError.
    """
    if not all(isinstance(n, (int, np.integer)) and n >= 0 for n in (steps, snapshot_every)):
        raise ConfigurationError(f"steps {steps!r} and snapshot_every {snapshot_every!r} "
                                 "must be >= 0 and integral")
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
                record = RunRecord(n, n * cfg.dt, norm(wf, grid), float(density(wf).max()),
                                   energy_j)   # no plane is kept between steps
                log.records.append(record)
                phase["observe"] += clock() - t
                if on_snapshot is not None:
                    t = clock()
                    on_snapshot(wf, record)
                    phase["snapshot"] += clock() - t
        phase["step"] = clock() - start - sum(phase.values())   # all the rest
    return wf, log
