"""Machine-speed probe, memory-bandwidth floor and the environment block."""

import os
import platform
import statistics
import sys
from dataclasses import dataclass, replace
from importlib import metadata
from time import perf_counter

import numpy as np

PLANE_SHAPE = (800, 800)
LLC_MULTIPLE = 4          # bandwidth arrays are at least this many times the LLC
FALLBACK_COPY_BYTES = 512 * 2 ** 20

# timings are rescaled to a machine on which the probe takes this long
PROBE_NOMINAL_S = 0.020


@dataclass(frozen=True)
class _Cell:
    value: float
    index: int = 0


class Probe:
    """Times a fixed piece of benchmark-owned work that tracks machine speed.

    On a shared host the speed one process gets drifts by up to 2x over
    seconds, by different amounts for different kinds of code.  Each
    workload's probe imitates the work the workload does (see
    ``call_work``, ``stencil_work`` and ``symbol_work``).  Timing it next to each
    measurement gives the factor PROBE_NOMINAL_S / probe time that the
    measurement is rescaled by.  The probe is the same on every commit,
    so the factor cancels host drift and nothing else.
    """

    def __init__(self, work):
        self.work = work

    def __call__(self):
        t0 = perf_counter()
        self.work()
        return perf_counter() - t0


def call_work(calls):
    """``calls`` frozen-dataclass ``replace`` calls: interpreter-level work
    like the stepper's per-step bookkeeping or config parsing."""
    def work():
        cell = _Cell(1.0)
        for _ in range(calls):
            cell = replace(cell, index=cell.index + 1)
    return work


def stencil_work(shape, reps, calls=3000):
    """``call_work(calls)`` plus ``reps`` in-place second-order stencil
    sweeps on a plane of the given shape."""
    a = np.linspace(0.0, 1.0, int(np.prod(shape))).reshape(shape)
    out = np.zeros_like(a)
    interpreter = call_work(calls)

    def work():
        interpreter()
        for _ in range(reps):
            np.multiply(a, -2.0, out=out)
            np.add(out[1:], a[:-1], out=out[1:])
            np.add(out[:-1], a[1:], out=out[:-1])
            if a.ndim == 2:
                np.add(out[:, 1:], a[:, :-1], out=out[:, 1:])
                np.add(out[:, :-1], a[:, 1:], out=out[:, :-1])
    return work


def symbol_work(samples, reps):
    """``reps`` evaluations of |x - x^3/6 + x^5/120| over a samples^2 grid
    of sin^2 wavenumber terms, the work of one sampled stability scan."""
    s = np.sin(np.linspace(0.0, 0.5 * np.pi, samples)) ** 2

    def work():
        for _ in range(reps):
            sx, sy = np.meshgrid(s, s, indexing="ij")
            x = sx * (3.0 + sx) + sy * (3.0 + sy)
            float(np.abs(x - x ** 3 / 6.0 + x ** 5 / 120.0).max())
    return work


def llc_bytes():
    """Size of the last-level cache, or None where the OS does not say."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = None
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            with open(os.path.join(base, entry, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, entry, "size")) as fh:
                text = fh.read().strip()
            scale = {"K": 2 ** 10, "M": 2 ** 20, "G": 2 ** 30}.get(text[-1], 1)
            size = int(text.rstrip("KMG")) * scale
            if best is None or level > best[0]:
                best = (level, size)
    except (OSError, ValueError):
        return None
    return best[1] if best else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def environment():
    llc = llc_bytes()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "llc_mib": llc / 2 ** 20 if llc else None,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                   "MKL_NUM_THREADS")},
    }


def _median_copy_s(dst, src, reps):
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        np.copyto(dst, src)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def stream_copy_gbps(reps=5):
    """(GB/s, bytes per array) for np.copyto of an array >= 4x the LLC.

    Counts read plus write, 2 x array bytes per copy, as STREAM does;
    write-allocate traffic is not counted."""
    llc = llc_bytes()
    nbytes = LLC_MULTIPLE * llc if llc else FALLBACK_COPY_BYTES
    src = np.ones(nbytes // 8)
    dst = np.ones_like(src)    # written, so every page is mapped before timing
    seconds = _median_copy_s(dst, src, reps)
    return 2 * src.nbytes / seconds / 1e9, src.nbytes


def plane_copy_ms(reps=50):
    """Median copy time of one 800x800 float64 plane (5.1 MB, LLC-resident)."""
    src = np.ones(PLANE_SHAPE)
    dst = np.ones_like(src)
    return 1e3 * _median_copy_s(dst, src, reps)
