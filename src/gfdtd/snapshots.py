"""Snapshot and run-log files.

Three formats, all written under the run's output directory:

* diag_<step>.csv   - text slice along the main diagonal (full line in
                      1-D): header ``k,psi_real,psi_imag,density``, one
                      row per index, floats at 17 significant digits so
                      they re-parse to the exact double.
* field_<step>.f64  - raw little-endian float64, row-major, real plane
                      followed by imaginary plane, plus a field_<step>.meta
                      text sidecar (key = value lines).
* runlog.csv        - per-recorded-step observables, header
                      ``step,time_s,norm,max_density,energy_ev``.

One error policy: an OSError in any writer or reader becomes RunIOError
"failed to <write|read> <file>: <reason>" (a dump names its step instead).
"""

import itertools
import os
import warnings
from contextlib import contextmanager

import numpy as np

from .errors import ConfigurationError, RunIOError
from .fields import EV, WaveField

META_LAYOUT_VERSION = 1
# the meta sidecar's keys in file order, each with the type it parses to
_META_KEYS = {"layout_version": int, "nx": int, "ny": int, "dx": float, "dy": float,
              "step": int, "time_s": float}
# how every file writes each type: floats at 17 digits re-parse to the exact double
_FORMATS = {int: "%d", float: "%.17g"}


@contextmanager
def _failing_to(verb, what, *errors):
    """Raise an OSError (or one of ``errors``) in the block as a RunIOError."""
    try:
        yield
    except (OSError, *errors) as exc:
        raise RunIOError(f"failed to {verb} {what}: {exc}") from exc


def _write_csv(path, header, rows):
    """Write header and rows of (int, float, ...) tuples by one % over all; returns the path."""
    row = ",".join([_FORMATS[int]] + [_FORMATS[float]] * header.count(",")) + "\n"
    values = tuple(itertools.chain.from_iterable(rows))
    with _failing_to("write", path), open(path, "w") as fh:
        fh.write(header + "\n" + (row * (len(values) // (header.count(",") + 1))) % values)
    return path


def write_diagonal_snapshot(wf, grid, step, time_s, out_dir):
    """Write the psi(k,k) slice (whole line in 1-D) as CSV; returns the path."""
    real, imag = wf.real_part, wf.imag_part
    if grid.dims == 2:
        if grid.nx != grid.ny:
            raise ConfigurationError("diagonal snapshot needs a square 2-D grid")
        real, imag = np.diagonal(real), np.diagonal(imag)
    rows = zip(range(1, real.shape[0] + 1), real.tolist(), imag.tolist(),
               (real * real + imag * imag).tolist())
    return _write_csv(os.path.join(out_dir, f"diag_{step}.csv"),
                      "k,psi_real,psi_imag,density", rows)


def read_diagonal_snapshot(path):
    """(k, psi_real, psi_imag, density) arrays from a diag_*.csv file."""
    # a header-only file makes numpy warn "input contained no data"
    with _failing_to("read", path, ValueError, UserWarning), warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, usecols=range(4))
    return (data[:, 0].astype(int), data[:, 1], data[:, 2], data[:, 3])


def write_field_dump(wf, grid, step, time_s, out_dir):
    """Raw f64 dump plus meta sidecar; returns (data_path, meta_path)."""
    stem = os.path.join(out_dir, f"field_{step}")
    ny, dy = (grid.ny, grid.dy) if grid.dims == 2 else (1, grid.dx)
    values = (META_LAYOUT_VERSION, grid.nx, ny, grid.dx, dy, step, time_s)
    text = "".join(f"{key} = {_FORMATS[kind] % value}\n"
                   for (key, kind), value in zip(_META_KEYS.items(), values, strict=True))
    with _failing_to("write", f"field dump for step {step}"):
        with open(stem + ".f64", "wb") as fh:
            fh.write(np.ascontiguousarray(wf.real_part, dtype="<f8"))
            fh.write(np.ascontiguousarray(wf.imag_part, dtype="<f8"))
        with open(stem + ".meta", "w") as fh:
            fh.write(text)
    return stem + ".f64", stem + ".meta"


def read_field_meta(path):
    """Meta sidecar as a dict with typed values; RunIOError names a bad key."""
    with _failing_to("read", path, UnicodeDecodeError), open(path) as fh:
        meta = {key.strip(): value.strip()
                for key, _, value in (line.partition("=") for line in fh if line.strip())}
    for key, kind in _META_KEYS.items():
        try:
            meta[key] = kind(meta[key])
        except (KeyError, ValueError):
            raise RunIOError(f"{path}: {key} is missing or not {kind.__name__}") from None
        if key in ("nx", "ny") and meta[key] < 1:   # before any data file is read
            raise RunIOError(f"{path}: {key} must be at least 1, got {meta[key]}")
    return meta


def read_field_dump(data_path, meta_path):
    """(WaveField, meta dict) reconstructed from a dump pair."""
    meta = read_field_meta(meta_path)
    if meta["layout_version"] != META_LAYOUT_VERSION:
        raise RunIOError(f"{meta_path}: unsupported layout version {meta['layout_version']}")
    nx, ny = meta["nx"], meta["ny"]
    shape = (nx,) if ny == 1 else (nx, ny)
    count = nx * ny
    with _failing_to("read", data_path):
        raw = np.fromfile(data_path, dtype="<f8")
    if raw.size != 2 * count:
        raise RunIOError(f"{data_path}: expected {2 * count} doubles, found {raw.size}")
    real, imag = raw[:count].reshape(shape), raw[count:].reshape(shape)
    return WaveField(real, imag), meta


def write_runlog(log, out_dir):
    """RunLog records as runlog.csv (energy reported in eV); returns the path."""
    rows = [(rec.step, rec.time_s, rec.norm, rec.max_density, rec.energy_j / EV)
            for rec in log.records]
    return _write_csv(os.path.join(out_dir, "runlog.csv"),
                      "step,time_s,norm,max_density,energy_ev", rows)
