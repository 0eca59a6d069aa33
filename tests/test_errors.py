"""The error and logging policies: every raise in the package is a typed
GfdtdError, each validation site raises with its message, and only the CLI
prints."""

import ast
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import gfdtd
from gfdtd import (BarrierSpec, ConfigurationError, DegenerateFieldError, GaussianPacketSpec,
                   GridSpec, PhysicalParams, PotentialField, Propagator, RunIOError,
                   SchemeConfig, StencilOrder, WaveField, apply_b, apply_laplacian, errors,
                   free_packet_1d, gaussian_packet, normalize, parse_config, read_field_dump,
                   run, write_field_dump)

MODULES = sorted(Path(gfdtd.__file__).parent.glob("*.py"))
GRID_1D = GridSpec(dims=1, nx=6, dx=1.0)
GRID_2D = GridSpec(dims=2, nx=6, dx=1.0, ny=6, dy=1.0)


def _dump(tmp_path, meta_old=None, meta_new=None, data_bytes=None):
    """Read back a 6x6 dump pair, its sidecar edited or its data cut short."""
    dpath, mpath = write_field_dump(WaveField.zeros(GRID_2D), GRID_2D, 0, 0.0, str(tmp_path))
    if meta_old is not None:
        text = Path(mpath).read_text()
        assert meta_old in text
        Path(mpath).write_text(text.replace(meta_old, meta_new))
    if data_bytes is not None:
        Path(dpath).write_bytes(Path(dpath).read_bytes()[:data_bytes])
    return read_field_dump(dpath, mpath)


def _run(steps, snapshot_every):
    """run() on a zero 1-D field with the given counts."""
    cfg = SchemeConfig.from_mu(0, StencilOrder.SECOND_ORDER, 0.1, PhysicalParams(), GRID_1D)
    return run(WaveField.zeros(GRID_1D), PotentialField.zeros(GRID_1D), GRID_1D, cfg,
               steps=steps, snapshot_every=snapshot_every)


RAISE_SITES = [
    ("grid-dx", lambda tmp: GridSpec(dims=1, nx=6, dx=0.0),
     ConfigurationError, "dx must be positive"),
    ("grid-ny-2d", lambda tmp: GridSpec(dims=2, nx=6, dx=1.0, ny=4, dy=1.0),
     ConfigurationError, r"ny must be >= 5 in 2-D"),
    ("physics-mass", lambda tmp: PhysicalParams(mass=0.0),
     ConfigurationError, "mass must be positive"),
    ("physics-hbar", lambda tmp: PhysicalParams(hbar=-1.0),
     ConfigurationError, "hbar must be positive"),
    ("wavefield-shapes", lambda tmp: WaveField(np.zeros(6), np.zeros(5)),
     ConfigurationError, "real_part and imag_part shapes differ"),
    # a complex plane would lose its imaginary part to the float conversion
    ("wavefield-complex-real", lambda tmp: WaveField(np.ones(6) * (1 + 2j), np.zeros(6)),
     ConfigurationError, "real_part and imag_part must be real planes"),
    ("wavefield-complex-imag", lambda tmp: WaveField(np.zeros(6), np.ones(6) * 1j),
     ConfigurationError, "real_part and imag_part must be real planes"),
    ("apply-b-complex", lambda tmp: apply_b(np.ones(6) * (1 + 2j), GRID_1D,
                                            PotentialField.zeros(GRID_1D), PhysicalParams()),
     ConfigurationError, "component must be real"),
    ("laplacian-complex", lambda tmp: apply_laplacian(np.ones(6) * (1 + 2j), GRID_1D),
     ConfigurationError, "component must be real"),
    # a negative count would log no record, not even step 0's
    ("run-negative-steps", lambda tmp: _run(-3, 0),
     ConfigurationError, "steps -3 and snapshot_every 0 must be >= 0"),
    ("run-negative-snapshot-every", lambda tmp: _run(5, -1),
     ConfigurationError, "steps 5 and snapshot_every -1 must be >= 0"),
    ("potential-nan", lambda tmp: PotentialField(np.array([0.0, np.nan])),
     ConfigurationError, "potential contains non-finite values"),
    ("potential-inf", lambda tmp: PotentialField(np.array([np.inf, 0.0])),
     ConfigurationError, "potential contains non-finite values"),
    # B would cut a complex V to its real part
    ("potential-complex", lambda tmp: PotentialField(np.ones(6) * (1 + 1j)),
     ConfigurationError, "potential must be real"),
    ("packet-sigma", lambda tmp: GaussianPacketSpec(0.0, 1.0, 3).validate(GRID_1D),
     ConfigurationError, "sigma and wavelength must be positive"),
    ("packet-wavelength", lambda tmp: GaussianPacketSpec(1.0, -1.0, 3).validate(GRID_1D),
     ConfigurationError, "sigma and wavelength must be positive"),
    ("barrier-height", lambda tmp: BarrierSpec(1, 1, -1.0).validate(GRID_2D),
     ConfigurationError, "barrier height must be nonnegative"),
    # the half step evolves under physics' hbar and mass
    ("packet-stagger-without-physics",
     lambda tmp: gaussian_packet(GaussianPacketSpec(1.0, 1.0, 3), GRID_1D, stagger_dt=0.1),
     ConfigurationError, "stagger_dt needs physics"),
    # x 2 pi / wavelength overflows off the centre: cos(inf) is NaN
    ("packet-phase-overflow", lambda tmp: gaussian_packet(GaussianPacketSpec(1.0, 1e-310, 3),
                                                          GRID_1D),
     ConfigurationError, r"packet is not finite: sigma 1\.0, wavelength 1e-310"),
    ("free-packet-on-2d", lambda tmp: free_packet_1d(GRID_2D, PhysicalParams(), 1.0, 1.0, 3),
     ConfigurationError, "free_packet_1d needs a 1-D grid"),
    # sigma ** 2 overflows: a bare OverflowError before, not a GfdtdError
    ("free-packet-sigma-overflow",
     lambda tmp: free_packet_1d(GRID_1D, PhysicalParams(), 1e300, 1.0, 3),
     ConfigurationError, r"free packet overflows: sigma 1e\+300, wavelength 1\.0"),
    # a NaN norm fails n <= 0 too, and would scale both planes to NaN
    ("normalize-nan", lambda tmp: normalize(WaveField(np.full(6, np.nan), np.zeros(6)), GRID_1D),
     DegenerateFieldError, "cannot normalize a field of norm nan"),
    ("config-invalid-json", lambda tmp: parse_config("{"),
     ConfigurationError, "config is not valid JSON"),
    ("config-json-array", lambda tmp: parse_config(json.dumps([1, 2])),
     ConfigurationError, "config document must be a JSON object"),
    ("dump-layout-version", lambda tmp: _dump(tmp, "layout_version = 1", "layout_version = 2"),
     RunIOError, r"field_0\.meta: unsupported layout version 2"),
    ("dump-truncated", lambda tmp: _dump(tmp, data_bytes=96),
     RunIOError, r"field_0\.f64: expected 72 doubles, found 12"),
]


@pytest.mark.parametrize("call, error, match", [row[1:] for row in RAISE_SITES],
                         ids=[row[0] for row in RAISE_SITES])
def test_validation_site_raises_typed_error(tmp_path, call, error, match):
    with pytest.raises(error, match=match):
        call(tmp_path)


@pytest.mark.parametrize("bind", [
    lambda v: apply_b(np.ones(6), GRID_1D, PotentialField(v), PhysicalParams()),
    lambda v: Propagator(GRID_1D, PotentialField(v), SchemeConfig.from_mu(
        2, StencilOrder.FOURTH_ORDER, 0.1, PhysicalParams(), GRID_1D)),
], ids=["apply_b", "Propagator"])
def test_complex_potential_raises_before_any_complex_warning(bind):
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        with pytest.raises(ConfigurationError, match="potential must be real"):
            bind(np.ones(6) * (1 + 1j))


def _typed_error_names():
    return {name for name, value in vars(errors).items()
            if isinstance(value, type) and issubclass(value, errors.GfdtdError)}


def _names_from_errors(tree):
    """Names the module binds from gfdtd.errors (or defines, in errors.py)."""
    names = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "errors" and node.level == 1:
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_every_raise_constructs_a_gfdtd_error():
    typed = _typed_error_names()
    offenders = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = typed & _names_from_errors(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:   # a bare re-raise is fine
                continue
            exc = node.exc
            if not (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
                    and exc.func.id in allowed):
                offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(exc)[:60]}")
    assert not offenders


def test_only_the_cli_prints():
    offenders = [f"{path.name}:{node.lineno}"
                 for path in MODULES if path.name != "cli.py"
                 for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id == "print"]
    assert not offenders
