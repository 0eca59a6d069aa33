import json
import os
import subprocess
import sys

import numpy as np
import pytest

from gfdtd import (ANGSTROM, EV, ConfigurationError, GridSpec, WaveField,
                   parse_config, read_diagonal_snapshot, read_field_dump,
                   write_diagonal_snapshot, write_field_dump)
from gfdtd.snapshots import read_field_meta


def paper_scale_document():
    return {
        "grid": {"dims": 2, "nx": 800, "ny": 800, "dx_angstrom": 0.1},
        "scheme": {"N": 2, "stencil_order": 2, "mu": 0.25},
        "init": {"sigma_angstrom": 1.0, "lambda_angstrom": 1.0,
                 "center_j": 200, "center_k": 200},
        "potential": {"type": "quadrant_barrier", "height_ev": 100.0,
                      "j_min": 401, "k_min": 401},
        "run": {"steps": 500, "snapshot_every": 100, "out_dir": "out"},
    }


def reduced_document(**overrides):
    doc = {
        "grid": {"dims": 2, "nx": 200, "ny": 200, "dx_angstrom": 0.1},
        "scheme": {"N": 0, "stencil_order": 2, "mu": 0.2},
        "init": {"sigma_angstrom": 1.0, "lambda_angstrom": 1.0,
                 "center_j": 50, "center_k": 50},
        "potential": {"type": "quadrant_barrier", "height_ev": 100.0,
                      "j_min": 101, "k_min": 101},
        "run": {"steps": 40, "snapshot_every": 20, "out_dir": "out"},
    }
    for section, values in overrides.items():
        doc.setdefault(section, {}).update(values)
    return doc


# --- parsing ------------------------------------------------------------------

def test_parse_paper_scale_defaults():
    cfg = parse_config(json.dumps(paper_scale_document()))
    grid = cfg.grid()
    assert grid.nx == grid.ny == 800
    assert grid.dx == pytest.approx(0.1 * ANGSTROM)
    assert cfg.mass_kg == pytest.approx(9.10938e-31)
    assert cfg.hbar == pytest.approx(1.054e-34)
    assert cfg.normalize is True
    assert cfg.c == 0.99
    assert cfg.scan_samples == 256
    barrier = cfg.barrier()
    assert barrier.height == pytest.approx(100 * EV)
    scheme = cfg.scheme()
    assert scheme.dt == pytest.approx(
        0.25 * 2 * cfg.mass_kg * (0.1 * ANGSTROM) ** 2 / cfg.hbar, rel=1e-14)


def test_parse_negative_mu_names_key():
    doc = reduced_document(scheme={"mu": -0.1})
    with pytest.raises(ConfigurationError, match="scheme.mu"):
        parse_config(json.dumps(doc))


def test_parse_bad_stencil_order_names_key():
    doc = reduced_document(scheme={"stencil_order": 6})
    with pytest.raises(ConfigurationError, match="scheme.stencil_order"):
        parse_config(json.dumps(doc))


def test_parse_unknown_key_rejected():
    doc = reduced_document()
    doc["scheme"]["stencil"] = 2
    with pytest.raises(ConfigurationError, match="scheme.stencil"):
        parse_config(json.dumps(doc))
    doc = reduced_document()
    doc["typo_section"] = {}
    with pytest.raises(ConfigurationError, match="typo_section"):
        parse_config(json.dumps(doc))


def test_parse_missing_required_key():
    doc = reduced_document()
    del doc["grid"]["nx"]
    with pytest.raises(ConfigurationError, match="grid.nx"):
        parse_config(json.dumps(doc))


def test_parse_free_space_allowed():
    doc = reduced_document()
    del doc["potential"]
    cfg = parse_config(json.dumps(doc))
    assert cfg.barrier() is None


def test_parse_center_outside_grid():
    doc = reduced_document(init={"center_j": 300})
    with pytest.raises(ConfigurationError, match="center_j"):
        parse_config(json.dumps(doc))


def test_parse_serialize_parse_identity():
    for doc in (paper_scale_document(), reduced_document()):
        cfg = parse_config(json.dumps(doc))
        again = parse_config(cfg.to_text())
        assert again == cfg
        # and serialization is stable from then on
        assert parse_config(again.to_text()) == again


def test_parse_1d_document():
    doc = {
        "grid": {"dims": 1, "nx": 2048, "dx_angstrom": 0.1},
        "scheme": {"N": 2, "stencil_order": 4, "mu": 0.25},
        "init": {"sigma_angstrom": 1.0, "lambda_angstrom": 2.2, "center_j": 400},
        "run": {"steps": 100, "snapshot_every": 50, "out_dir": "out"},
    }
    cfg = parse_config(json.dumps(doc))
    assert cfg.grid().dims == 1
    assert parse_config(cfg.to_text()) == cfg


# --- snapshot files -------------------------------------------------------------

def test_diagonal_snapshot_zero_field(tmp_path):
    grid = GridSpec(dims=2, nx=6, dx=1.0, ny=6, dy=1.0)
    wf = WaveField.zeros(grid)
    path = write_diagonal_snapshot(wf, grid, 0, 0.0, str(tmp_path))
    k, real, imag, density = read_diagonal_snapshot(path)
    assert list(k) == [1, 2, 3, 4, 5, 6]
    assert np.all(real == 0.0) and np.all(imag == 0.0) and np.all(density == 0.0)


def test_diagonal_snapshot_round_trip_exact(rng, tmp_path):
    grid = GridSpec(dims=2, nx=12, dx=1.0, ny=12, dy=1.0)
    wf = WaveField(rng.normal(size=grid.shape), rng.normal(size=grid.shape))
    path = write_diagonal_snapshot(wf, grid, 7, 1.5e-18, str(tmp_path))
    assert path.endswith("diag_7.csv")
    k, real, imag, density = read_diagonal_snapshot(path)
    diag_r = np.diagonal(wf.real_part)
    diag_i = np.diagonal(wf.imag_part)
    assert np.array_equal(real, diag_r)
    assert np.array_equal(imag, diag_i)
    assert np.array_equal(density, diag_r ** 2 + diag_i ** 2)


def test_diagonal_snapshot_nonsquare_rejected(tmp_path):
    grid = GridSpec(dims=2, nx=6, dx=1.0, ny=8, dy=1.0)
    with pytest.raises(ConfigurationError):
        write_diagonal_snapshot(WaveField.zeros(grid), grid, 0, 0.0, str(tmp_path))


def test_field_dump_size_and_round_trip(rng, tmp_path):
    grid = GridSpec(dims=2, nx=5, dx=0.5, ny=7, dy=0.25)
    wf = WaveField(rng.normal(size=grid.shape), rng.normal(size=grid.shape),
                   real_time_index=3)
    dpath, mpath = write_field_dump(wf, grid, 3, 2.0e-18, str(tmp_path))
    assert os.path.getsize(dpath) == 2 * 5 * 7 * 8
    back, meta = read_field_dump(dpath, mpath)
    assert np.array_equal(back.real_part, wf.real_part)
    assert np.array_equal(back.imag_part, wf.imag_part)
    assert meta["nx"] == 5 and meta["ny"] == 7
    assert meta["dx"] == 0.5 and meta["dy"] == 0.25
    assert meta["step"] == 3 and meta["time_s"] == 2.0e-18
    assert meta["layout_version"] == 1


def test_field_dump_1d(rng, tmp_path):
    grid = GridSpec(dims=1, nx=9, dx=1.0)
    wf = WaveField(rng.normal(size=grid.shape), rng.normal(size=grid.shape))
    dpath, mpath = write_field_dump(wf, grid, 0, 0.0, str(tmp_path))
    assert os.path.getsize(dpath) == 2 * 9 * 8
    back, meta = read_field_dump(dpath, mpath)
    assert np.array_equal(back.real_part, wf.real_part)
    assert meta["ny"] == 1


def test_field_dump_bytes_match_contiguous_planes(rng, tmp_path):
    # square grid so the transposed (non-contiguous) planes fit it too
    grid = GridSpec(dims=2, nx=6, dx=1.0, ny=6, dy=1.0)
    real, imag = rng.normal(size=grid.shape), rng.normal(size=grid.shape)
    for wf in (WaveField(real, imag), WaveField(real.T, imag.T)):
        dpath, _ = write_field_dump(wf, grid, 0, 0.0, str(tmp_path))
        expected = b"".join(np.ascontiguousarray(plane, "<f8").tobytes()
                            for plane in (wf.real_part, wf.imag_part))
        with open(dpath, "rb") as fh:
            assert fh.read() == expected


def test_field_meta_parseable(tmp_path):
    grid = GridSpec(dims=2, nx=6, dx=1.0, ny=6, dy=2.0)
    wf = WaveField.zeros(grid)
    _, mpath = write_field_dump(wf, grid, 12, 3.25e-17, str(tmp_path))
    meta = read_field_meta(mpath)
    assert meta == {"layout_version": 1, "nx": 6, "ny": 6, "dx": 1.0, "dy": 2.0,
                    "step": 12, "time_s": 3.25e-17}


# --- CLI -------------------------------------------------------------------------

def run_cli(args, cwd):
    # the child runs from cwd, where a relative PYTHONPATH (e.g. "src") no
    # longer points at the package; put the imported package's absolute
    # parent directory in front of any inherited value
    import gfdtd
    pkg_parent = os.path.dirname(os.path.dirname(os.path.abspath(gfdtd.__file__)))
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (pkg_parent + os.pathsep + inherited if inherited
                         else pkg_parent)
    return subprocess.run([sys.executable, "-m", "gfdtd.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_stability_stable_case(tmp_path):
    # free space, N=2, mu=0.35: endpoint value 0.98749, stable
    doc = reduced_document(scheme={"N": 2, "mu": 0.35})
    del doc["potential"]
    cfg_path = write_config(tmp_path, doc)
    result = run_cli(["stability", "--config", cfg_path], str(tmp_path))
    assert result.returncode == 0
    endpoint_line = [l for l in result.stdout.splitlines() if "endpoint value" in l][0]
    assert float(endpoint_line.split(":")[1]) == pytest.approx(0.98749, abs=1e-5)
    assert "stable_by_scan" in result.stdout


def test_cli_run_stable_exit_zero(tmp_path):
    doc = reduced_document(run={"steps": 40, "snapshot_every": 20,
                                "out_dir": str(tmp_path / "out"),
                                "full_field_dumps": True})
    cfg_path = write_config(tmp_path, doc)
    result = run_cli(["run", "--config", cfg_path], str(tmp_path))
    assert result.returncode == 0, result.stderr
    out = tmp_path / "out"
    assert (out / "runlog.csv").exists()
    for step in (0, 20, 40):
        assert (out / f"diag_{step}.csv").exists()
        assert (out / f"field_{step}.f64").exists()
        assert (out / f"field_{step}.meta").exists()
    header = (out / "runlog.csv").read_text().splitlines()[0]
    assert header == "step,time_s,norm,max_density,energy_ev"


def test_cli_run_divergent_exit_one(tmp_path):
    doc = reduced_document(scheme={"mu": 0.25},
                           run={"steps": 500, "snapshot_every": 100,
                                "out_dir": str(tmp_path / "out")})
    cfg_path = write_config(tmp_path, doc)
    result = run_cli(["run", "--config", cfg_path], str(tmp_path))
    assert result.returncode == 1
    assert "DIVERGENCE" in result.stdout
    assert (tmp_path / "out" / "runlog.csv").exists()


def test_cli_config_error_exit_two(tmp_path):
    doc = reduced_document(scheme={"mu": -0.5})
    cfg_path = write_config(tmp_path, doc)
    result = run_cli(["run", "--config", cfg_path], str(tmp_path))
    assert result.returncode == 2
    assert "scheme.mu" in result.stderr


def test_cli_run_io_error_exit_two(tmp_path):
    # out_dir names an existing file: an I/O error, not a divergence
    (tmp_path / "taken").write_text("not a directory")
    doc = reduced_document(run={"steps": 2, "out_dir": str(tmp_path / "taken")})
    cfg_path = write_config(tmp_path, doc)
    result = run_cli(["run", "--config", cfg_path], str(tmp_path))
    assert result.returncode == 2
    assert "run error:" in result.stderr
    assert "Traceback" not in result.stderr


def test_cli_missing_config_file_exit_two(tmp_path):
    result = run_cli(["stability", "--config", "nope.json"], str(tmp_path))
    assert result.returncode == 2


def test_cli_sweep_reports_threshold(tmp_path):
    # N=2, second-order, free space: the scan first exceeds 1 near mu 0.3725
    doc = reduced_document(scheme={"N": 2, "mu": 0.25})
    del doc["potential"]
    cfg_path = write_config(tmp_path, doc)
    result = run_cli(["sweep", "--config", cfg_path,
                      "--mu-from", "0.2", "--mu-to", "0.5", "--mu-step", "0.0025"],
                     str(tmp_path))
    assert result.returncode == 0
    line = [l for l in result.stdout.splitlines() if "scan max > 1" in l]
    assert line, result.stdout
    threshold = float(line[0].split(":")[1])
    assert threshold == pytest.approx(0.375, abs=0.01)
