"""Von Neumann stability analysis for the generalized leapfrog scheme.

A plane-wave mode's amplification factor solves

    lambda^2 - (2 - alpha^2) lambda + 1 = 0,   alpha = 2 S(x),

with the truncated sine S(x) = sum_{p=0..N} (-1)^p x^(2p+1)/(2p+1)! and
x = K(beta) + V dt/(2 hbar), the stencil symbol at wavenumber beta plus the
potential term; the mode is bounded iff |S(x)| <= 1.  K sums stencils'
axis_symbol over the grid's axes and rises in each sin^2(beta h/2) from 0 to
its Nyquist value, so over all wavenumbers and levels in [V_min, V_max] x fills
[V_min dt/(2 hbar), endpoint_x(grid, cfg, V_max)]; gaps between levels can
only make the verdict err toward unstable.

The endpoint condition checks |S| at the top of that interval only, as the
published stability theorems do; that silently assumes S is monotone, which
fails for N >= 1 once x_max passes S's first local maximum.  wavenumber_scan
takes the exact maximum over the interval and is the authoritative verdict;
when the two disagree the report says so instead of picking a side.

scan_time_steps runs that arithmetic over an array of time steps, each row through a
scalar's IEEE operations and one S_N pass that reads its endpoint value and scan max,
and labels it with its Verdict's value: gfdtd sweep judges mu rows with it a chunk at
a time; wavenumber_scan is its one-row case.
"""

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError
from .scheme import _check_truncation_index
from .stencils import axis_symbol

DEFAULT_THRESHOLD = 0.99


def truncated_sine(x, N):
    """Degree-(2N+1) Taylor truncation of sin(x).

    S is evaluated as x * P(x^2), with P(y) = sum_p (-1)^p y^p / (2p+1)! in Horner
    form.  Only IEEE multiplies and adds are used: x^2 does not depend on the sign of
    x and the final multiply by x flips the sign exactly, so S(-x) == -S(x) holds bit
    for bit.  Scalar and array inputs follow the same operations and give identical
    values.  The accumulator is updated in place, so an array input costs two
    temporaries of its size.  N is an integer in [0, MAX_TRUNCATION_INDEX].
    """
    _check_truncation_index(N)
    x = np.asarray(x, dtype=float)
    x2 = x * x
    acc = np.full(x.shape, (-1.0) ** N / math.factorial(2 * N + 1))
    for p in range(N - 1, -1, -1):
        acc *= x2
        acc += (-1.0) ** p / math.factorial(2 * p + 1)
    acc *= x
    return float(acc) if acc.ndim == 0 else acc


class Verdict(Enum):
    STABLE_BY_SCAN = "stable_by_scan"
    UNSTABLE = "unstable"
    ENDPOINT_SCAN_DISAGREE = "endpoint_scan_disagree"


# labels at index 2 * (scan passes) + (endpoint alone passes); objects: members' own strs
_LABELS = np.array([Verdict.UNSTABLE.value, Verdict.ENDPOINT_SCAN_DISAGREE.value,
                    Verdict.STABLE_BY_SCAN.value], dtype=object)


@dataclass(frozen=True)
class StabilityReport:
    endpoint_value: float
    scan_max: float
    threshold_c: float
    verdict: Verdict
    margin: float
    endpoint_x: float


def _symbol_value(s, grid, order, physics, dt, v):
    """x at sin^2(beta h/2) = s on every axis and potential level v, for a time
    step dt or an array of them, one x per time step."""
    k = sum(dt / (h * h) * axis_symbol(order, s) for h in grid.spacing)
    return physics.hbar / (4.0 * physics.mass) * k + v * dt / (2.0 * physics.hbar)


def endpoint_x(grid, cfg, v_max=0.0):
    """Largest symbol argument, reached at the per-axis Nyquist wavenumber."""
    return float(_symbol_value(1.0, grid, cfg.order, cfg.physics, cfg.dt, v_max))


def endpoint_condition(cfg, grid, v_max=0.0, c=DEFAULT_THRESHOLD):
    """(|S(x_max)|, satisfied) for the Nyquist-endpoint stability condition."""
    # the verdict's own value, under its errstate; the endpoint reads no lower level
    value = wavenumber_scan(cfg, grid, v_max, c, v_min=v_max).endpoint_value
    return value, value <= c


@functools.lru_cache(maxsize=None)
def _turning_points(N):   # real roots +-sqrt(y) of S_N' = sum_p (-1)^p y^p/(2p)!, y = x^2
    y = np.roots([(-1.0) ** p / math.factorial(2 * p) for p in range(N, -1, -1)])
    roots = np.sqrt(y[np.isreal(y) & (y.real > 0)].real)
    return (*-roots, *roots)   # a tuple: the cache hands the same one to every caller


def _abs_sine_at_candidates(lo, hi, N):
    """|S_N| at equal-shape array ends lo and hi (columns 0 and 1) and at S_N's turning
    points clipped to [lo, hi], one row per pair of ends.  A row's max is the exact max
    |S_N(x)| over lo <= x <= hi, NaN for a NaN end: it lies at an end or a turning point,
    as one outside the interval clips to an end.  An error in a root moves |S| only to
    second order, since S' vanishes there."""
    lo, hi = lo[..., None], hi[..., None]
    s = truncated_sine(np.concatenate((lo, hi, np.clip(_turning_points(N), lo, hi)), axis=-1), N)
    return np.abs(s, out=s)


def scan_time_steps(dt, grid, N, order, physics, v_max, c, *, v_min):
    """Endpoint value, scan max, margin, verdict label (its Verdict's value) and
    endpoint x for an array of time steps dt, as arrays, each row as a scalar's."""
    _check_truncation_index(N)   # before _turning_points(N) reads it
    if v_min > v_max:
        raise ConfigurationError(f"v_min {v_min} exceeds v_max {v_max}")
    if not 0.0 < c < 1.0:
        raise ConfigurationError(f"threshold c must lie in (0, 1), got {c}")
    with np.errstate(over="ignore", invalid="ignore"):   # an inf or NaN x reads unstable
        ep_x = _symbol_value(1.0, grid, order, physics, dt, v_max)
        lo = _symbol_value(0.0, grid, order, physics, dt, v_min)
        abs_s = _abs_sine_at_candidates(lo, ep_x, N)   # one S_N pass: the endpoint is a column
        ep_value, scan_max = abs_s[..., 1], abs_s.max(axis=-1)
    # a NaN maximum fails both conditions, so it reads UNSTABLE, not a disagreement
    labels = _LABELS[(scan_max <= c) * 2 + ((ep_value <= c) & (scan_max > c))]
    return ep_value, scan_max, c - scan_max, labels, ep_x


def wavenumber_scan(cfg, grid, v_max=0.0, c=DEFAULT_THRESHOLD, *, v_min=0.0):
    """Verdict from the exact max of |S(x)| over every wavenumber and every
    potential level in [v_min, v_max] (v_min = 0: the barrier's background), labelled
    as scan_time_steps labels its rows."""
    value, peak, margin, label, x = scan_time_steps(np.array(cfg.dt), grid, cfg.N, cfg.order,
                                                    cfg.physics, v_max, c, v_min=v_min)
    return StabilityReport(value.item(), peak.item(), c, Verdict(label), margin.item(), x.item())


def amplification_roots(alpha):
    """Roots of lambda^2 - (2 - alpha^2) lambda + 1 = 0 and the larger modulus.  The
    constant term forces lambda1 lambda2 = 1: both sit on the unit circle iff |alpha| <= 2."""
    b = 2.0 - alpha * alpha
    sq = np.sqrt(complex(b * b - 4.0))
    lambda1, lambda2 = (b + sq) / 2.0, (b - sq) / 2.0
    return lambda1, lambda2, max(abs(lambda1), abs(lambda2))
