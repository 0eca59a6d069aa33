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
"""

import os

import numpy as np

from .errors import ConfigurationError, RunIOError
from .fields import EV, WaveField

META_LAYOUT_VERSION = 1


def _fmt(x):
    return format(float(x), ".17g")


def diag_path(out_dir, step):
    return os.path.join(out_dir, f"diag_{step}.csv")


def field_path(out_dir, step):
    return os.path.join(out_dir, f"field_{step}.f64")


def meta_path(out_dir, step):
    return os.path.join(out_dir, f"field_{step}.meta")


def write_diagonal_snapshot(wf, grid, step, time_s, out_dir):
    """Write the psi(k,k) slice (whole line in 1-D) as CSV; returns the path."""
    if grid.dims == 2:
        if grid.nx != grid.ny:
            raise ConfigurationError("diagonal snapshot needs a square 2-D grid")
        real = np.diagonal(wf.real_part)
        imag = np.diagonal(wf.imag_part)
    else:
        real = wf.real_part
        imag = wf.imag_part
    path = diag_path(out_dir, step)
    try:
        with open(path, "w") as fh:
            fh.write("k,psi_real,psi_imag,density\n")
            for k in range(real.shape[0]):
                r, i = real[k], imag[k]
                fh.write(f"{k + 1},{_fmt(r)},{_fmt(i)},{_fmt(r * r + i * i)}\n")
    except OSError as exc:
        raise RunIOError(f"failed to write {path}: {exc}") from exc
    return path


def read_diagonal_snapshot(path):
    """(k, psi_real, psi_imag, density) arrays from a diag_*.csv file."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, usecols=range(4))
    except (OSError, ValueError) as exc:
        raise RunIOError(f"failed to read {path}: {exc}") from exc
    return (data[:, 0].astype(int), data[:, 1], data[:, 2], data[:, 3])


def write_field_dump(wf, grid, step, time_s, out_dir):
    """Raw f64 dump plus meta sidecar; returns (data_path, meta_path)."""
    dpath = field_path(out_dir, step)
    mpath = meta_path(out_dir, step)
    ny = grid.ny if grid.dims == 2 else 1
    try:
        with open(dpath, "wb") as fh:
            fh.write(np.ascontiguousarray(wf.real_part, dtype="<f8"))
            fh.write(np.ascontiguousarray(wf.imag_part, dtype="<f8"))
        with open(mpath, "w") as fh:
            fh.write(f"layout_version = {META_LAYOUT_VERSION}\n")
            fh.write(f"nx = {grid.nx}\n")
            fh.write(f"ny = {ny}\n")
            fh.write(f"dx = {_fmt(grid.dx)}\n")
            fh.write(f"dy = {_fmt(grid.dy if grid.dims == 2 else grid.dx)}\n")
            fh.write(f"step = {step}\n")
            fh.write(f"time_s = {_fmt(time_s)}\n")
    except OSError as exc:
        raise RunIOError(f"failed to write field dump for step {step}: {exc}") from exc
    return dpath, mpath


def read_field_meta(path):
    """Meta sidecar as a dict with typed values; RunIOError names a bad key."""
    meta = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                key, _, value = line.partition("=")
                meta[key.strip()] = value.strip()
    except OSError as exc:
        raise RunIOError(f"failed to read {path}: {exc}") from exc
    for key, kind in {"layout_version": int, "nx": int, "ny": int, "step": int,
                      "dx": float, "dy": float, "time_s": float}.items():
        try:
            meta[key] = kind(meta[key])
        except (KeyError, ValueError):
            raise RunIOError(f"{path}: {key} is missing or not {kind.__name__}") from None
    return meta


def read_field_dump(data_path, meta_path_):
    """(WaveField, meta dict) reconstructed from a dump pair."""
    meta = read_field_meta(meta_path_)
    if meta["layout_version"] != META_LAYOUT_VERSION:
        raise RunIOError(f"unsupported layout version {meta['layout_version']}")
    nx, ny = meta["nx"], meta["ny"]
    shape = (nx,) if ny == 1 else (nx, ny)
    count = nx * ny
    try:
        raw = np.fromfile(data_path, dtype="<f8")
    except OSError as exc:
        raise RunIOError(f"failed to read {data_path}: {exc}") from exc
    if raw.size != 2 * count:
        raise RunIOError(
            f"{data_path}: expected {2 * count} doubles, found {raw.size}")
    real = raw[:count].reshape(shape)
    imag = raw[count:].reshape(shape)
    return WaveField(real, imag, real_time_index=meta["step"]), meta


def write_runlog(log, out_dir):
    """RunLog records as runlog.csv (energy reported in eV); returns the path."""
    path = os.path.join(out_dir, "runlog.csv")
    try:
        with open(path, "w") as fh:
            fh.write("step,time_s,norm,max_density,energy_ev\n")
            for rec in log.records:
                fh.write(f"{rec.step},{_fmt(rec.time_s)},{_fmt(rec.norm)},"
                         f"{_fmt(rec.max_density)},{_fmt(rec.energy_j / EV)}\n")
    except OSError as exc:
        raise RunIOError(f"failed to write {path}: {exc}") from exc
    return path
