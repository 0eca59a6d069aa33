import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfdtd import (ANGSTROM, EV, ConfigurationError, GridSpec, RunIOError, RunLog,
                   RunRecord, WaveField, parse_config, read_diagonal_snapshot,
                   read_field_dump, write_diagonal_snapshot, write_field_dump, write_runlog)
from gfdtd.snapshots import read_field_meta

from conftest import lopsided_bind_b, traced_peak


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
    return overridden(doc, overrides)


def overridden(doc, overrides):
    for section, values in overrides.items():
        doc.setdefault(section, {}).update(values)
    return doc


# --- parsing ------------------------------------------------------------------

def test_parse_paper_scale_defaults():
    cfg = parse_config(json.dumps(paper_scale_document()))
    grid = cfg.grid
    assert grid.nx == grid.ny == 800
    assert grid.dx == pytest.approx(0.1 * ANGSTROM)
    physics = cfg.scheme.physics
    assert physics.mass == pytest.approx(9.10938e-31)
    assert physics.hbar == pytest.approx(1.054e-34)
    assert cfg.packet.normalize is True
    assert cfg.c == 0.99
    barrier = cfg.barrier
    assert barrier.height == pytest.approx(100 * EV)
    scheme = cfg.scheme
    assert scheme.dt == pytest.approx(
        0.25 * 2 * physics.mass * (0.1 * ANGSTROM) ** 2 / physics.hbar, rel=1e-14)


def test_parse_accepts_and_drops_scan_samples():
    # the verdict is exact, so an old config's sample count parses and is ignored
    doc = paper_scale_document()
    doc["stability"] = {"c": 0.97, "scan_samples": 128}
    cfg = parse_config(json.dumps(doc))
    assert cfg.c == 0.97
    assert "scan_samples" not in cfg.to_text()
    assert parse_config(cfg.to_text()) == cfg


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
    assert cfg.barrier is None


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


def one_d_document(**overrides):
    doc = {
        "grid": {"dims": 1, "nx": 2048, "dx_angstrom": 0.1},
        "scheme": {"N": 2, "stencil_order": 4, "mu": 0.25},
        "init": {"sigma_angstrom": 1.0, "lambda_angstrom": 2.2, "center_j": 400},
        "potential": {"type": "quadrant_barrier", "height_ev": 1.0, "j_min": 1025},
        "run": {"steps": 100, "snapshot_every": 50, "out_dir": "out"},
    }
    return overridden(doc, overrides)


def _drop(doc, section):
    del doc[section]
    return doc


HUGE_INT = 10 ** 400   # a JSON integer no float can hold

# (id, malformed document, the section.key or section its message names)
MALFORMED = [
    ("mu-string", reduced_document(scheme={"mu": "0.2"}), "scheme.mu"),
    ("nx-float", reduced_document(grid={"nx": 200.0}), "grid.nx"),
    ("nx-bool", reduced_document(grid={"nx": True}), "grid.nx"),
    ("mu-bool", reduced_document(scheme={"mu": True}), "scheme.mu"),
    ("normalize-int", reduced_document(init={"normalize": 1}), "init.normalize"),
    ("out_dir-int", reduced_document(run={"out_dir": 3}), "run.out_dir"),
    ("dims-3", reduced_document(grid={"dims": 3}), "grid.dims"),
    ("nx-4", reduced_document(grid={"nx": 4}), "grid.nx"),
    ("ny-4", reduced_document(grid={"ny": 4}), "grid.ny"),
    ("N-negative", reduced_document(scheme={"N": -1}), "scheme.N"),
    ("N-9", reduced_document(scheme={"N": 9}), "scheme.N"),
    ("stencil_order-3", reduced_document(scheme={"stencil_order": 3}),
     "scheme.stencil_order"),
    ("mu-zero", reduced_document(scheme={"mu": 0.0}), "scheme.mu"),
    ("dx-zero", reduced_document(grid={"dx_angstrom": 0}), "grid.dx_angstrom"),
    ("dx-negative", reduced_document(grid={"dx_angstrom": -0.1}), "grid.dx_angstrom"),
    ("sigma-zero", reduced_document(init={"sigma_angstrom": 0.0}), "init.sigma_angstrom"),
    ("lambda-zero", reduced_document(init={"lambda_angstrom": 0.0}),
     "init.lambda_angstrom"),
    ("mass-zero", reduced_document(physics={"mass_kg": 0.0}), "physics.mass_kg"),
    ("hbar-negative", reduced_document(physics={"hbar": -1e-34}), "physics.hbar"),
    ("hbar-reciprocal-overflows", reduced_document(physics={"hbar": 1e-310}), "physics.hbar"),
    ("height-negative", reduced_document(potential={"height_ev": -1.0}),
     "potential.height_ev"),
    ("c-zero", reduced_document(stability={"c": 0.0}), "stability.c"),
    ("c-one", reduced_document(stability={"c": 1.0}), "stability.c"),
    ("scan_samples-63", reduced_document(stability={"scan_samples": 63}),
     "stability.scan_samples"),
    ("steps-negative", reduced_document(run={"steps": -1}), "run.steps"),
    ("snapshot_every-negative", reduced_document(run={"snapshot_every": -1}),
     "run.snapshot_every"),
    ("center_j-zero", reduced_document(init={"center_j": 0}), "init.center_j"),
    ("center_j-beyond", reduced_document(init={"center_j": 201}), "init.center_j"),
    ("center_k-beyond", reduced_document(init={"center_k": 201}), "init.center_k"),
    ("j_min-beyond", reduced_document(potential={"j_min": 201}), "potential.j_min"),
    ("k_min-beyond", reduced_document(potential={"k_min": 201}), "potential.k_min"),
    ("k_min-zero", reduced_document(potential={"k_min": 0}), "potential.k_min"),
    ("center_j-beyond-1d", one_d_document(init={"center_j": 2049}), "init.center_j"),
    ("j_min-beyond-1d", one_d_document(potential={"j_min": 2049}), "potential.j_min"),
    ("ny-in-1d", one_d_document(grid={"ny": 200}), "grid.ny"),
    ("center_k-in-1d", one_d_document(init={"center_k": 5}), "init.center_k"),
    ("k_min-in-1d", one_d_document(potential={"k_min": 5}), "potential.k_min"),
    ("ny-missing-2d", {**reduced_document(), "grid": {
        "dims": 2, "nx": 200, "dx_angstrom": 0.1}}, "grid.ny"),
    ("center_k-missing-2d", {**reduced_document(), "init": {
        "sigma_angstrom": 1.0, "lambda_angstrom": 1.0, "center_j": 50}}, "init.center_k"),
    ("k_min-missing-2d", {**reduced_document(), "potential": {
        "type": "quadrant_barrier", "height_ev": 1.0, "j_min": 101}}, "potential.k_min"),
    ("unknown-key", reduced_document(run={"outdir": "x"}), "run.outdir"),
    ("missing-grid", _drop(reduced_document(), "grid"), "section grid"),
    ("missing-run", _drop(reduced_document(), "run"), "section run"),
    ("section-not-object", {**reduced_document(), "init": [1, 2]}, "section init"),
    ("optional-section-not-object", {**reduced_document(), "physics": 3},
     "section physics"),
    ("unknown-section", {**reduced_document(), "solver": {}}, "section solver"),
    ("potential-type", reduced_document(potential={"type": "well"}), "potential.type"),
    # non-finite and overflowing numbers
    ("height-nan", reduced_document(potential={"height_ev": float("nan")}),
     "potential.height_ev"),
    ("height-inf", reduced_document(potential={"height_ev": float("inf")}),
     "potential.height_ev"),
    ("height-huge-int", reduced_document(potential={"height_ev": HUGE_INT}),
     "potential.height_ev"),
    ("dx-inf", reduced_document(grid={"dx_angstrom": float("inf")}), "grid.dx_angstrom"),
    ("mu-inf", reduced_document(scheme={"mu": float("inf")}), "scheme.mu"),
    ("mu-nan", reduced_document(scheme={"mu": float("nan")}), "scheme.mu"),
    ("mass-inf", reduced_document(physics={"mass_kg": float("inf")}), "physics.mass_kg"),
    ("sigma-huge-int", reduced_document(init={"sigma_angstrom": HUGE_INT}),
     "init.sigma_angstrom"),
    ("c-negative-inf", reduced_document(stability={"c": float("-inf")}), "stability.c"),
    # finite numbers whose SI value or time step leaves the float range
    ("dx-overflows-dt", reduced_document(grid={"dx_angstrom": 1e200}), "grid.dx_angstrom"),
    ("mass-overflows-dt", reduced_document(physics={"mass_kg": 1e300}), "physics.mass_kg"),
    ("dx-underflows", reduced_document(grid={"dx_angstrom": 1e-320}), "grid.dx_angstrom"),
    ("lambda-underflows", reduced_document(init={"lambda_angstrom": 1e-320}),
     "init.lambda_angstrom"),
]


@pytest.mark.parametrize("doc, names", [row[1:] for row in MALFORMED],
                         ids=[row[0] for row in MALFORMED])
def test_parse_malformed_document_names_key(doc, names):
    with pytest.raises(ConfigurationError, match=names.replace(".", r"\.")):
        parse_config(json.dumps(doc))


@st.composite
def valid_documents(draw):
    """A random valid 1-D or 2-D document, optional sections and keys included."""
    angstrom = st.floats(1e-3, 1e3) | st.integers(1, 1000)
    dims, nx = draw(st.sampled_from((1, 2))), draw(st.integers(5, 400))
    doc = {
        "grid": {"dims": dims, "nx": nx, "dx_angstrom": draw(angstrom)},
        "scheme": {"N": draw(st.integers(0, 8)), "stencil_order": draw(st.sampled_from((2, 4))),
                   "mu": draw(st.floats(1e-3, 1e2))},
        "init": {"sigma_angstrom": draw(angstrom), "lambda_angstrom": draw(angstrom),
                 "center_j": draw(st.integers(1, nx))},
        "run": {"steps": draw(st.integers(0, 10 ** 6)),
                "snapshot_every": draw(st.integers(0, 10 ** 3)),
                "out_dir": draw(st.text(max_size=8))},
    }
    if draw(st.booleans()):
        doc["potential"] = {"type": "quadrant_barrier", "height_ev": draw(st.floats(0, 1e4)),
                            "j_min": draw(st.integers(1, nx))}
    if dims == 2:
        doc["grid"]["ny"] = ny = draw(st.integers(5, 400))
        doc["init"]["center_k"] = draw(st.integers(1, ny))
        if "potential" in doc:
            doc["potential"]["k_min"] = draw(st.integers(1, ny))
    optional = {("physics", "mass_kg"): st.floats(1e-32, 1e-28),
                ("physics", "hbar"): st.floats(1e-35, 1e-33),
                ("init", "normalize"): st.booleans(),
                ("run", "full_field_dumps"): st.booleans(),
                ("stability", "c"): st.floats(0, 1, exclude_min=True, exclude_max=True),
                ("stability", "scan_samples"): st.integers(64, 4096)}
    for (section, key), values in optional.items():
        if draw(st.booleans()):
            doc.setdefault(section, {})[key] = draw(values)
    return doc


@settings(max_examples=200, deadline=None)
@given(valid_documents())
def test_parse_serialize_parse_identity_any_document(doc):
    # the config stores SI values; their document form may come back as a
    # neighbouring decimal, but the SI value it parses to must not move
    cfg = parse_config(json.dumps(doc))
    again = parse_config(cfg.to_text())
    assert again == cfg
    assert parse_config(again.to_text()) == again


def test_parse_1d_document():
    doc = {
        "grid": {"dims": 1, "nx": 2048, "dx_angstrom": 0.1},
        "scheme": {"N": 2, "stencil_order": 4, "mu": 0.25},
        "init": {"sigma_angstrom": 1.0, "lambda_angstrom": 2.2, "center_j": 400},
        "run": {"steps": 100, "snapshot_every": 50, "out_dir": "out"},
    }
    cfg = parse_config(json.dumps(doc))
    assert cfg.grid.dims == 1
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
    wf = WaveField(rng.normal(size=grid.shape), rng.normal(size=grid.shape))
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


@pytest.mark.parametrize("row", ["1,0.5,oops,0.25", "1,0.5,0.25"],
                         ids=["non-numeric-cell", "short-row"])
def test_diagonal_snapshot_malformed_row_is_run_io_error(tmp_path, row):
    path = tmp_path / "diag_0.csv"
    path.write_text(f"k,psi_real,psi_imag,density\n{row}\n")
    with pytest.raises(RunIOError, match="diag_0.csv"):
        read_diagonal_snapshot(str(path))


def test_header_only_diagonal_snapshot_is_run_io_error(tmp_path):
    # no row to read: an error naming the file, not numpy's "no data" warning
    path = tmp_path / "diag_0.csv"
    path.write_text("k,psi_real,psi_imag,density\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RunIOError, match="diag_0.csv"):
            read_diagonal_snapshot(str(path))


def broken_meta(tmp_path, old, new):
    """A valid 2-D dump pair whose meta sidecar has ``old`` replaced by ``new``."""
    grid = GridSpec(dims=2, nx=6, dx=1.0, ny=6, dy=1.0)
    dpath, mpath = write_field_dump(WaveField.zeros(grid), grid, 0, 0.0, str(tmp_path))
    with open(mpath) as fh:
        text = fh.read()
    assert old in text
    with open(mpath, "w") as fh:
        fh.write(text.replace(old, new))
    return dpath, mpath


@pytest.mark.parametrize("old, new, key", [
    ("nx = 6\n", "", "nx"),                  # missing key
    ("nx = 6", "nx = six", "nx"),             # value not an int
    ("time_s = 0", "time_s = zero", "time_s"),  # value not a float
    ("ny = 6", "ny: 6", "ny"),                # unparseable line
], ids=["missing-key", "bad-int", "bad-float", "unparseable-line"])
def test_field_meta_errors_are_run_io_errors(tmp_path, old, new, key):
    dpath, mpath = broken_meta(tmp_path, old, new)
    with pytest.raises(RunIOError, match=rf"field_0\.meta: {key} is missing or not"):
        read_field_dump(dpath, mpath)


def test_field_meta_not_utf8_is_run_io_error(tmp_path):
    mpath = tmp_path / "field_0.meta"
    mpath.write_bytes(b"layout_version = 1\nnx = 6\xff\n")
    with pytest.raises(RunIOError, match=r"failed to read .*field_0\.meta"):
        read_field_meta(str(mpath))


def test_field_meta_parseable(tmp_path):
    grid = GridSpec(dims=2, nx=6, dx=1.0, ny=6, dy=2.0)
    wf = WaveField.zeros(grid)
    _, mpath = write_field_dump(wf, grid, 12, 3.25e-17, str(tmp_path))
    meta = read_field_meta(mpath)
    assert meta == {"layout_version": 1, "nx": 6, "ny": 6, "dx": 1.0, "dy": 2.0,
                    "step": 12, "time_s": 3.25e-17}


def test_snapshot_files_golden_bytes(tmp_path):
    # every digit of the three text formats, including -0, subnormals and
    # values near the float range
    grid = GridSpec(dims=1, nx=6, dx=0.1)
    wf = WaveField(np.array([-0.0, 5e-324, 1e-300, 0.1, 3.0, 1e150]),
                   np.array([3.0, -0.0, 0.1, 5e-324, -1e-300, -0.0]))
    log = RunLog(records=[RunRecord(0, 0.0, 1.0, 1e300, -0.0),
                          RunRecord(4, 5e-324, 0.1, 3.0, 1e-300)])
    diag = write_diagonal_snapshot(wf, grid, 4, 1e300, str(tmp_path))
    _, meta = write_field_dump(wf, grid, 4, 1e300, str(tmp_path))
    runlog = write_runlog(log, str(tmp_path))
    with open(diag, "rb") as fh:
        assert fh.read() == (
            b"k,psi_real,psi_imag,density\n"
            b"1,-0,3,9\n"
            b"2,4.9406564584124654e-324,-0,0\n"
            b"3,1e-300,0.10000000000000001,0.010000000000000002\n"
            b"4,0.10000000000000001,4.9406564584124654e-324,0.010000000000000002\n"
            b"5,3,-1e-300,9\n"
            b"6,9.9999999999999998e+149,-0,9.999999999999999e+299\n")
    with open(meta, "rb") as fh:
        assert fh.read() == (
            b"layout_version = 1\nnx = 6\nny = 1\n"
            b"dx = 0.10000000000000001\ndy = 0.10000000000000001\n"
            b"step = 4\ntime_s = 1.0000000000000001e+300\n")
    with open(runlog, "rb") as fh:
        assert fh.read() == (
            b"step,time_s,norm,max_density,energy_ev\n"
            b"0,0,1,1.0000000000000001e+300,-0\n"
            b"4,4.9406564584124654e-324,0.10000000000000001,3,6.2415090744607629e-282\n")


@pytest.mark.parametrize("write, names", [
    (lambda wf, grid, out: write_diagonal_snapshot(wf, grid, 4, 0.0, out), "diag_4.csv"),
    (lambda wf, grid, out: write_field_dump(wf, grid, 4, 0.0, out), "step 4"),
    (lambda wf, grid, out: write_runlog(RunLog(records=[RunRecord(4, 0.0, 1.0, 1.0, 0.0)]),
                                        out), "runlog.csv"),
], ids=["diagonal", "dump", "runlog"])
def test_writer_into_missing_directory_is_run_io_error(tmp_path, write, names):
    grid = GridSpec(dims=1, nx=6, dx=1.0)
    with pytest.raises(RunIOError, match=names.replace(".", r"\.")):
        write(WaveField.zeros(grid), grid, str(tmp_path / "missing"))


@pytest.mark.parametrize("old, new, key", [
    ("nx = 6\nny = 6", "nx = -2\nny = -18", "nx"),   # the count, 36, still matches
    ("ny = 6", "ny = 0", "ny"),
], ids=["negative-sizes", "zero-ny"])
def test_field_meta_sizes_below_one_are_run_io_errors(tmp_path, old, new, key):
    dpath, mpath = broken_meta(tmp_path, old, new)
    with pytest.raises(RunIOError, match=rf"field_0\.meta: {key} must be at least 1"):
        read_field_dump(dpath, mpath)


def test_field_meta_zero_nx_beside_empty_dump_is_run_io_error(tmp_path):
    # nx = 0 with an empty .f64 used to read back as a (0, 6) field
    dpath, mpath = broken_meta(tmp_path, "nx = 6", "nx = 0")
    open(dpath, "wb").close()
    with pytest.raises(RunIOError, match=r"field_0\.meta: nx must be at least 1, got 0"):
        read_field_dump(dpath, mpath)
    os.remove(dpath)   # the sizes are checked before the data file is read
    with pytest.raises(RunIOError, match=r"field_0\.meta: nx must be at least 1"):
        read_field_dump(dpath, mpath)


def test_missing_dump_files_are_run_io_errors(tmp_path):
    grid = GridSpec(dims=1, nx=6, dx=1.0)
    dpath, mpath = write_field_dump(WaveField.zeros(grid), grid, 0, 0.0, str(tmp_path))
    os.remove(dpath)
    with pytest.raises(RunIOError, match=r"field_0\.f64"):
        read_field_dump(dpath, mpath)
    os.remove(mpath)
    with pytest.raises(RunIOError, match=r"field_0\.meta"):
        read_field_meta(mpath)


# --- CLI -------------------------------------------------------------------------

def child_env():
    # a child runs from its own cwd, where a relative PYTHONPATH (e.g. "src")
    # no longer points at the package; put the imported package's absolute
    # parent directory in front of any inherited value
    import gfdtd
    pkg_parent = os.path.dirname(os.path.dirname(os.path.abspath(gfdtd.__file__)))
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (pkg_parent + os.pathsep + inherited if inherited
                         else pkg_parent)
    return env


def run_cli(args, cwd, timeout=None):
    # as pytest's filterwarnings does in-process: a leaked RuntimeWarning fails
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "gfdtd.cli",
                           *args], capture_output=True, text=True, cwd=cwd, env=child_env(),
                          timeout=timeout)


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


SWEEP_ARGS = ["--mu-from", "0.2", "--mu-to", "0.3", "--mu-step", "0.1"]


@pytest.mark.parametrize("command", [["stability"], ["run"], ["sweep", *SWEEP_ARGS]],
                         ids=["stability", "run", "sweep"])
@pytest.mark.parametrize("section, key, literal", [
    ("potential", "height_ev", "NaN"),
    ("potential", "height_ev", str(HUGE_INT)),
    ("potential", "height_ev", "Infinity"),
    ("grid", "dx_angstrom", "Infinity"),
    ("scheme", "mu", "1" + "0" * 5000),   # past int's digit limit: no valid JSON
    ("grid", "dx_angstrom", "1e200"),      # dt overflows
    ("physics", "mass_kg", "1e300"),       # dt overflows
    ("grid", "dx_angstrom", "1e-320"),     # dx underflows to 0 m
    ("physics", "hbar", "1e-310"),         # 1/hbar overflows
], ids=["nan", "huge-int", "infinity", "infinite-dx", "digit-limit", "dt-overflow-dx",
        "dt-overflow-mass", "dx-underflow", "hbar-reciprocal-overflow"])
def test_cli_malformed_number_exit_two(tmp_path, command, section, key, literal):
    doc = reduced_document(run={"out_dir": str(tmp_path / "out")})
    doc.setdefault(section, {})[key] = "placeholder"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc).replace('"placeholder"', literal))
    result = run_cli([command[0], "--config", str(path), *command[1:]], str(tmp_path))
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("configuration error:")
    assert "Traceback" not in result.stderr
    names = "not valid JSON" if len(literal) > 4300 else f"{section}.{key}"
    assert names in result.stderr


@pytest.mark.parametrize("section, key, value", [
    ("physics", "mass_kg", 1e250),     # (dt/2)^3 overflows the series coefficients
    ("potential", "height_ev", 1e300),  # V/hbar overflows in B
    ("scheme", "mu", 1e300),            # (dt/2)^3 overflows the series coefficients
], ids=["mass", "height", "mu"])
@pytest.mark.parametrize("command", ["stability", "run"])
def test_cli_extreme_finite_values_report_cleanly(tmp_path, command, section, key, value):
    doc = reduced_document(scheme={"N": 2}, run={"out_dir": str(tmp_path / "out")})
    doc.setdefault(section, {})[key] = value
    result = run_cli([command, "--config", write_config(tmp_path, doc)], str(tmp_path))
    assert "Warning" not in result.stderr and "Traceback" not in result.stderr, result.stderr
    assert verdict_of(result.stdout) == "unstable"
    if command == "stability":
        assert result.returncode == 0
    else:
        assert result.returncode == 1
        assert "DIVERGENCE detected at step 1" in result.stdout


@pytest.mark.parametrize("init", [{"sigma_angstrom": 1e300}, {"sigma_angstrom": 1e-160},
                                  {"sigma_angstrom": 1e-300}, {"lambda_angstrom": 1e-300}],
                         ids=["sigma-huge", "sigma-tiny", "sigma-denormal", "lambda-denormal"])
@pytest.mark.parametrize("dims", [1, 2])
def test_cli_run_packet_extremes_end_cleanly(tmp_path, dims, init):
    # an envelope whose exponent overflows is exp(-inf) = 0 off the centre;
    # a packet that is not finite is a configuration error, never a NaN run
    doc = reduced_document(grid={"nx": 40, "ny": 40},
                           init={"center_j": 20, "center_k": 20, **init},
                           run={"steps": 4, "snapshot_every": 2, "out_dir": str(tmp_path / "out")})
    del doc["potential"]
    if dims == 1:
        doc["grid"] = {"dims": 1, "nx": 40, "dx_angstrom": 0.1}
        del doc["init"]["center_k"]
    result = run_cli(["run", "--config", write_config(tmp_path, doc)], str(tmp_path))
    assert "Warning" not in result.stderr and "Traceback" not in result.stderr, result.stderr
    if result.returncode == 2:
        assert result.stderr.startswith("configuration error:")
    else:
        assert result.returncode == 0, result.stdout
        step0 = (tmp_path / "out" / "runlog.csv").read_text().splitlines()[1].split(",")
        assert step0[0] == "0" and float(step0[2]) == pytest.approx(1.0, rel=1e-12)


def test_cli_run_io_error_exit_two(tmp_path):
    # out_dir names an existing file: an I/O error, not a divergence
    (tmp_path / "taken").write_text("not a directory")
    doc = reduced_document(run={"steps": 2, "out_dir": str(tmp_path / "taken")})
    cfg_path = write_config(tmp_path, doc)
    result = run_cli(["run", "--config", cfg_path], str(tmp_path))
    assert result.returncode == 2
    assert "run error:" in result.stderr
    assert "Traceback" not in result.stderr


def test_cli_run_rejects_rectangular_grid_before_writing(tmp_path):
    # run's diagonal snapshots need nx = ny; stability does not
    doc = reduced_document(grid={"ny": 100}, init={"center_k": 50},
                           potential={"k_min": 51}, run={"out_dir": str(tmp_path / "out")})
    cfg_path = write_config(tmp_path, doc)
    result = run_cli(["run", "--config", cfg_path], str(tmp_path))
    assert result.returncode == 2
    assert result.stderr.startswith("configuration error:") and "grid.ny" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()
    assert run_cli(["stability", "--config", cfg_path], str(tmp_path)).returncode == 0


def test_cli_package_error_exit_two(tmp_path, monkeypatch, capsys):
    # an asymmetric stand-in for the run's bound B makes energy_expectation
    # raise NonHermitianError at the first observation
    from gfdtd import cli, scheme

    monkeypatch.setattr(scheme, "bind_b", lopsided_bind_b)
    doc = reduced_document(run={"steps": 2, "out_dir": str(tmp_path / "out")})
    assert cli.main(["run", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run error: energy expectation has imaginary residual")
    assert "Traceback" not in err


def test_cli_run_holds_two_fields_besides_v(tmp_path, capsys):
    # the initial packet is freed after step 1, so at every step and dump
    # the run holds at most the field, the next one (or an observation's two
    # planes), V and the bound B's slab scratch
    from gfdtd import cli, stencils

    doc = reduced_document(grid={"nx": 300, "ny": 300},
                           run={"steps": 3, "snapshot_every": 1, "out_dir": str(tmp_path / "out"),
                                "full_field_dumps": True})
    argv = ["run", "--config", write_config(tmp_path, doc)]
    assert cli.main(argv) == 0   # warm-up before tracing
    plane = 8 * 300 * 300
    peak = traced_peak(lambda: cli.main(argv))
    assert peak <= 2 * 2 * plane + plane + 2 * stencils._SLAB_BYTES + plane // 5
    assert (tmp_path / "out" / "field_3.f64").stat().st_size == 2 * plane
    capsys.readouterr()


def barrier_1d_document(out_dir):
    """1-D, N=2, mu=0.8 with a barrier of V dt/2hbar = 2 on j >= 301.

    The zero-potential region reaches S's interior peak 1.0047, so the
    run blows up, while every x above 2 stays below 0.94."""
    doc = {
        "grid": {"dims": 1, "nx": 400, "dx_angstrom": 0.1},
        "scheme": {"N": 2, "stencil_order": 2, "mu": 0.8},
        "init": {"sigma_angstrom": 1.0, "lambda_angstrom": 0.8, "center_j": 100},
        "potential": {"type": "quadrant_barrier", "height_ev": 1.0, "j_min": 301},
        "run": {"steps": 600, "snapshot_every": 0, "out_dir": out_dir},
    }
    cfg = parse_config(json.dumps(doc))
    doc["potential"]["height_ev"] = 2.0 * 2.0 * cfg.scheme.physics.hbar / cfg.scheme.dt / EV
    return doc


def verdict_of(stdout):
    line = [l for l in stdout.splitlines() if l.startswith("verdict")][0]
    return line.split(":")[1].strip()


def test_cli_verdict_covers_zero_region_below_barrier(tmp_path):
    cfg_path = write_config(tmp_path, barrier_1d_document(str(tmp_path / "out")))
    stability = run_cli(["stability", "--config", cfg_path], str(tmp_path))
    assert stability.returncode == 0, stability.stderr
    assert "potential term V*dt/2hbar: 0 to 2" in stability.stdout
    assert verdict_of(stability.stdout) == "endpoint_scan_disagree"
    result = run_cli(["run", "--config", cfg_path], str(tmp_path))
    assert result.returncode == 1, result.stderr
    assert "DIVERGENCE" in result.stdout
    assert verdict_of(result.stdout) == "endpoint_scan_disagree"


def test_cli_missing_config_file_exit_two(tmp_path):
    result = run_cli(["stability", "--config", "nope.json"], str(tmp_path))
    assert result.returncode == 2


def test_cli_config_not_utf8_exit_two(tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"grid": \xff}')
    result = run_cli(["stability", "--config", str(path)], str(tmp_path))
    assert result.returncode == 2
    assert result.stderr.startswith("configuration error: cannot read config")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("flags, named", [
    (["--mu-from", "0.2", "--mu-to", "0.3", "--mu-step", "nan"], "--mu-step"),
    (["--mu-from", "nan", "--mu-to", "0.3", "--mu-step", "0.1"], "--mu-from"),
    (["--mu-from", "0.2", "--mu-to", "inf", "--mu-step", "0.1"], "--mu-to"),
    (["--mu-from", "1", "--mu-to", "2", "--mu-step", "1e-20"], "--mu-step"),
], ids=["nan-step", "nan-from", "inf-to", "step-below-ulp"])
def test_cli_sweep_rejects_flags_that_never_end(tmp_path, flags, named):
    # each of these used to print a bogus verdict or loop forever
    cfg_path = write_config(tmp_path, reduced_document())
    result = run_cli(["sweep", "--config", cfg_path, *flags], str(tmp_path), timeout=60)
    assert result.returncode == 2
    assert result.stderr.startswith("configuration error:") and named in result.stderr
    assert "Traceback" not in result.stderr


def test_cli_sweep_into_closed_pipe_exit_two(tmp_path):
    # gfdtd sweep ... | head: the reader is gone before the rows are flushed
    cfg_path = write_config(tmp_path, reduced_document())
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "gfdtd.cli", "sweep", "--config",
                                 cfg_path, *SWEEP_ARGS], stdout=write_end,
                                stderr=subprocess.PIPE, text=True, cwd=str(tmp_path),
                                env=child_env(), timeout=60)
    finally:
        os.close(write_end)
    assert result.returncode == 2
    assert result.stderr.startswith("run error:")
    assert "Traceback" not in result.stderr


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


@pytest.mark.parametrize("mu_from, mu_to, mu_step", [
    (0.3, 0.3000001, 1e-8),
    (1.0, 1.0 + 1e-13, 1e-14),
], ids=["step-1e-8", "step-1e-14"])
def test_cli_sweep_rows_tell_fine_mu_steps_apart(tmp_path, mu_from, mu_to, mu_step):
    # at 6 significant digits every row of these sweeps used to read the same mu
    cfg_path = write_config(tmp_path, reduced_document())
    result = run_cli(["sweep", "--config", cfg_path, "--mu-from", repr(mu_from),
                      "--mu-to", repr(mu_to), "--mu-step", repr(mu_step)], str(tmp_path))
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    mus = [line.split(",")[0] for line in lines[1:] if not line.startswith(("first", "no "))]
    assert len(mus) == 11 and len(set(mus)) == 11
    for i, text in enumerate(mus):
        assert abs(float(text) - (mu_from + i * mu_step)) <= mu_step / 2
    firsts = [line.rsplit(": ", 1)[1] for line in lines if line.startswith("first")]
    assert firsts and set(firsts) <= set(mus)
