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
                   SchemeConfig, StencilOrder, WaveField, apply_b, apply_b_power,
                   apply_laplacian, barrier_potential, energy_expectation, errors,
                   free_packet_1d, gaussian_packet, normalize, parse_config, potential_bounds,
                   read_field_dump, run, truncated_sine, write_field_dump)
from gfdtd.stability import scan_time_steps

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
    # a fractional count built, then np.zeros(grid.shape) raised a bare TypeError
    ("grid-fractional-nx", lambda tmp: GridSpec(dims=1, nx=6.5, dx=1.0),
     ConfigurationError, r"nx must be an integer, got 6\.5"),
    ("grid-fractional-ny", lambda tmp: GridSpec(dims=2, nx=6, dx=1.0, ny=7.5, dy=1.0),
     ConfigurationError, r"ny must be an integer, got 7\.5"),
    # 1/dy^2 overflows: the verdict divided by 0.0 (dy * dy), bind_b raised an OverflowError
    ("grid-dy-1e-200", lambda tmp: GridSpec(dims=2, nx=16, dx=1e-10, ny=16, dy=1e-200),
     ConfigurationError, r"dy 1e-200 is too small: 1/dy\^2 overflows"),
    ("grid-dy-1e-160", lambda tmp: GridSpec(dims=2, nx=16, dx=1e-10, ny=16, dy=1e-160),
     ConfigurationError, r"dy 1e-160 is too small: 1/dy\^2 overflows"),
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
    # range() raised a bare TypeError for a fractional steps; snapshot_every 1.5 passed
    ("run-fractional-steps", lambda tmp: _run(2.5, 0),
     ConfigurationError, r"steps 2\.5 and snapshot_every 0 must be >= 0 and integral"),
    ("run-fractional-snapshot-every", lambda tmp: _run(3, 1.5),
     ConfigurationError, r"steps 3 and snapshot_every 1\.5 must be >= 0 and integral"),
    ("apply-b-power-fractional", lambda tmp: apply_b_power(
        np.ones(6), 3.0, GRID_1D, PotentialField.zeros(GRID_1D), PhysicalParams()),
     ConfigurationError, r"power must be an odd positive integer, got 3\.0"),
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
    # the half step evolves under physics' hbar and mass and the stencil's dispersion
    ("packet-stagger-without-physics",
     lambda tmp: gaussian_packet(GaussianPacketSpec(1.0, 1.0, 3), GRID_1D, stagger_dt=0.1,
                                 stagger_order=StencilOrder.SECOND_ORDER),
     ConfigurationError, "stagger_dt needs physics and stagger_order"),
    ("packet-stagger-without-order",
     lambda tmp: gaussian_packet(GaussianPacketSpec(1.0, 1.0, 3), GRID_1D, PhysicalParams(),
                                 stagger_dt=0.1),
     ConfigurationError, "stagger_dt needs physics and stagger_order"),
    # the bounds of a potential barrier_potential would refuse to build
    ("potential-bounds-outside-grid", lambda tmp: potential_bounds(BarrierSpec(99, 99, 1.0),
                                                                   GRID_2D),
     ConfigurationError, "j_min 99 outside grid"),
    ("potential-bounds-negative-height", lambda tmp: potential_bounds(BarrierSpec(1, 1, -1.0),
                                                                      GRID_2D),
     ConfigurationError, "barrier height must be nonnegative"),
    # potential_bounds returned (0, nan), (0, inf) and (0, 1) for these
    ("potential-bounds-nan-height", lambda tmp: potential_bounds(BarrierSpec(3, 3, np.nan),
                                                                 GRID_2D),
     ConfigurationError, "barrier height must be nonnegative and finite, got nan"),
    ("potential-bounds-inf-height", lambda tmp: potential_bounds(BarrierSpec(3, 3, np.inf),
                                                                 GRID_2D),
     ConfigurationError, "barrier height must be nonnegative and finite, got inf"),
    ("potential-bounds-fractional-index",
     lambda tmp: potential_bounds(BarrierSpec(5.5, 3, 1.0), GRID_2D),
     ConfigurationError, "j_min 5.5 is not an integer grid index"),
    # a float slice bound: a bare TypeError before
    ("barrier-fractional-index", lambda tmp: barrier_potential(BarrierSpec(3, 5.5, 1.0), GRID_2D),
     ConfigurationError, "k_min 5.5 is not an integer grid index"),
    ("packet-fractional-center", lambda tmp: gaussian_packet(GaussianPacketSpec(1.0, 1.0, 3.5),
                                                             GRID_1D),
     ConfigurationError, "center_j 3.5 is not an integer grid index"),
    # a fractional N failed in range() at the first step, an int order as a KeyError
    ("scheme-fractional-N", lambda tmp: SchemeConfig.from_mu(
        1.5, StencilOrder.FOURTH_ORDER, 0.1, PhysicalParams(), GRID_1D),
     ConfigurationError, r"truncation index must be an integer in \[0, 8\], got 1\.5"),
    ("scheme-int-order", lambda tmp: SchemeConfig.from_mu(1, 4, 0.1, PhysicalParams(), GRID_1D),
     ConfigurationError, "stencil order must be a StencilOrder, got 4"),
    ("scan-time-steps-fractional-N", lambda tmp: scan_time_steps(
        np.array(0.1), GRID_1D, 1.5, StencilOrder.FOURTH_ORDER, PhysicalParams(), 0.0, 0.5,
        v_min=0.0),
     ConfigurationError, r"truncation index must be an integer in \[0, 8\], got 1\.5"),
    ("scan-time-steps-int-order", lambda tmp: scan_time_steps(
        np.array(0.1), GRID_1D, 1, 4, PhysicalParams(), 0.0, 0.5, v_min=0.0),
     ConfigurationError, "stencil order must be a StencilOrder, got 4"),
    ("apply-b-int-order", lambda tmp: apply_b(np.ones(6), GRID_1D, PotentialField.zeros(GRID_1D),
                                              PhysicalParams(), order=4),
     ConfigurationError, "stencil order must be a StencilOrder, got 4"),
    ("laplacian-int-order", lambda tmp: apply_laplacian(np.ones(6), GRID_1D, order=2),
     ConfigurationError, "stencil order must be a StencilOrder, got 2"),
    ("energy-int-order", lambda tmp: energy_expectation(
        WaveField.zeros(GRID_1D), PotentialField.zeros(GRID_1D), GRID_1D, PhysicalParams(),
        order=2),
     ConfigurationError, "stencil order must be a StencilOrder, got 2"),
    ("packet-int-stagger-order",
     lambda tmp: gaussian_packet(GaussianPacketSpec(1.0, 1.0, 3), GRID_1D, PhysicalParams(),
                                 stagger_dt=0.1, stagger_order=2),
     ConfigurationError, "stencil order must be a StencilOrder, got 2"),
    # a bare ValueError, TypeError and OverflowError (from factorial) before
    ("truncated-sine-negative-N", lambda tmp: truncated_sine(1.0, -1),
     ConfigurationError, r"truncation index must be an integer in \[0, 8\], got -1"),
    ("truncated-sine-fractional-N", lambda tmp: truncated_sine(1.0, 1.5),
     ConfigurationError, r"truncation index must be an integer in \[0, 8\], got 1\.5"),
    ("truncated-sine-large-N", lambda tmp: truncated_sine(1.0, 100),
     ConfigurationError, r"truncation index must be an integer in \[0, 8\], got 100"),
    ("truncated-sine-numpy-large-N", lambda tmp: truncated_sine(1.0, np.int64(9)),
     ConfigurationError, r"truncation index must be an integer in \[0, 8\], got np\.int64\(9\)"),
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


def test_numpy_integer_counts_are_accepted():
    grid = GridSpec(dims=2, nx=np.int64(6), dx=1.0, ny=np.int32(7), dy=1.0)
    assert WaveField.zeros(grid).real_part.shape == (6, 7)
    _, log = _run(np.int64(4), np.int64(2))
    assert [r.step for r in log.records] == [0, 2, 4]
    f = np.arange(6.0)
    assert np.array_equal(apply_b_power(f, np.int64(3), GRID_1D, PotentialField.zeros(GRID_1D),
                                        PhysicalParams()),
                          apply_b_power(f, 3, GRID_1D, PotentialField.zeros(GRID_1D),
                                        PhysicalParams()))


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


def _stdout_writes(tree):
    """Line numbers of print calls and of sys.stdout (or a stdout imported
    from sys) in a module's syntax tree."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "print"
                  or isinstance(node, ast.Attribute) and node.attr == "stdout"
                  and isinstance(node.value, ast.Name) and node.value.id == "sys"
                  or isinstance(node, ast.ImportFrom) and node.module == "sys"
                  and any(alias.name == "stdout" for alias in node.names))


def test_only_the_cli_prints():
    # neither a print nor a sys.stdout write: what reaches the terminal is cli.py's choice
    writes = {path.name: _stdout_writes(ast.parse(path.read_text(), filename=str(path)))
              for path in MODULES}
    assert writes.pop("cli.py"), "the scan finds none of cli.py's own writes"
    assert {name: lines for name, lines in writes.items() if lines} == {}


def test_stdout_scan_finds_each_kind_of_write():
    source = "import sys\nfrom sys import stdout\nprint(1)\nsys.stdout.write('x')\n"
    assert _stdout_writes(ast.parse(source)) == [2, 3, 4]
