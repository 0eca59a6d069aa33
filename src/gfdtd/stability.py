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
"""

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .stencils import axis_symbol

DEFAULT_THRESHOLD = 0.99


def truncated_sine(x, N):
    """Degree-(2N+1) Taylor truncation of sin(x).

    S is evaluated as x * P(x^2), with P(y) = sum_p (-1)^p y^p / (2p+1)!
    in Horner form.  Only IEEE multiplies and adds are used: x^2 does not
    depend on the sign of x and the final multiply by x flips the sign
    exactly, so S(-x) == -S(x) holds bit for bit.  Scalar and array
    inputs follow the same operations and give identical values.  The
    accumulator is updated in place, so an array input costs two
    temporaries of its size.
    """
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


@dataclass(frozen=True)
class StabilityReport:
    endpoint_value: float
    scan_max: float
    threshold_c: float
    verdict: Verdict
    margin: float
    endpoint_x: float = float("nan")


def _symbol_value(s, grid, cfg, v):
    """x at sin^2(beta h/2) = s on every axis and potential level v."""
    hbar = cfg.physics.hbar
    k = sum(cfg.dt / (h * h) * axis_symbol(cfg.order, s) for h in grid.spacing)
    return hbar / (4.0 * cfg.physics.mass) * k + v * cfg.dt / (2.0 * hbar)


def endpoint_x(grid, cfg, v_max=0.0):
    """Largest symbol argument, reached at the per-axis Nyquist wavenumber."""
    return float(_symbol_value(1.0, grid, cfg, v_max))


def _endpoint(x, N, c):
    if not 0.0 < c < 1.0:
        raise ValueError(f"threshold c must lie in (0, 1), got {c}")
    value = abs(truncated_sine(x, N))
    return value, value <= c


def endpoint_condition(cfg, grid, v_max=0.0, c=DEFAULT_THRESHOLD):
    """(|S(x_max)|, satisfied) for the Nyquist-endpoint stability condition."""
    return _endpoint(endpoint_x(grid, cfg, v_max), cfg.N, c)


@functools.lru_cache(maxsize=None)
def _turning_points(N):   # real roots +-sqrt(y) of S_N' = sum_p (-1)^p y^p/(2p)!, y = x^2
    y = np.roots([(-1.0) ** p / math.factorial(2 * p) for p in range(N, -1, -1)])
    roots = np.sqrt(y[np.isreal(y) & (y.real > 0)].real)
    return (*-roots, *roots)   # a tuple: the cache hands the same one to every caller


def interval_max_abs(lo, hi, N):
    """Exact max |S_N(x)| over lo <= x <= hi, NaN for a NaN end: at an end or a
    turning point of S_N, as one outside the interval clips to an end.  An
    error in a root moves |S| only to second order, since S' vanishes there."""
    xs = np.clip(np.concatenate(([lo, hi], _turning_points(N))), lo, hi)
    return float(np.abs(truncated_sine(xs, N)).max())


def wavenumber_scan(cfg, grid, v_max=0.0, c=DEFAULT_THRESHOLD, *, v_min=0.0):
    """Verdict from the exact max of |S(x)| over every wavenumber and every
    potential level in [v_min, v_max] (v_min = 0: the barrier's background).
    Passing it yields STABLE_BY_SCAN, an endpoint pass alone ENDPOINT_SCAN_DISAGREE,
    a NaN maximum UNSTABLE."""
    if v_min > v_max:
        raise ValueError(f"v_min {v_min} exceeds v_max {v_max}")
    cfg.validate_against(grid)
    with np.errstate(over="ignore", invalid="ignore"):   # an inf or NaN x reads unstable
        ep_x = endpoint_x(grid, cfg, v_max)
        ep_value, endpoint_ok = _endpoint(ep_x, cfg.N, c)
        scan_max = interval_max_abs(_symbol_value(0.0, grid, cfg, v_min), ep_x, cfg.N)
    if scan_max <= c:
        verdict = Verdict.STABLE_BY_SCAN
    elif endpoint_ok and scan_max > c:   # false for a NaN maximum
        verdict = Verdict.ENDPOINT_SCAN_DISAGREE
    else:
        verdict = Verdict.UNSTABLE
    return StabilityReport(endpoint_value=ep_value, scan_max=scan_max,
                           threshold_c=c, verdict=verdict,
                           margin=c - scan_max, endpoint_x=ep_x)


def amplification_roots(alpha):
    """Roots of lambda^2 - (2 - alpha^2) lambda + 1 = 0 and the larger modulus.

    The constant term forces lambda1 * lambda2 = 1, so both roots sit on
    the unit circle exactly when |alpha| <= 2.
    """
    b = 2.0 - alpha * alpha
    disc = complex(b * b - 4.0)
    sq = np.sqrt(disc)
    lambda1 = (b + sq) / 2.0
    lambda2 = (b - sq) / 2.0
    return lambda1, lambda2, max(abs(lambda1), abs(lambda2))
