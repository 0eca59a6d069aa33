"""Tests of the benchmark itself: every check rejects a perturbed result,
the oracle matches known stability numbers, and the span wrappers are
transparent.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from perfbench import checks, tracing  # noqa: E402
from perfbench.workloads import FOURTH_ORDER_WEIGHTS  # noqa: E402

SECOND_ORDER_WEIGHTS = (1.0, -2.0, 1.0)


def all_pass(results):
    return all(ok for _, ok in results)


def failed(results):
    return [name for name, ok in results if not ok]


# --- paper2d ----------------------------------------------------------------

PAPER_REF = {"norm": 1.017984702913752, "energy_j": 4.959299018588582e-17,
             "barrier_prob": 0.0}
PAPER_OK = dict(PAPER_REF, diverged=False, verdict="stable_by_scan",
                norm0=1.0, energy0_j=4.8659e-17)


def test_paper2d_passes_on_reference():
    assert all_pass(checks.check_paper2d(PAPER_OK, PAPER_REF))


@pytest.mark.parametrize("change,expect", [
    ({"diverged": True}, "paper2d.no_divergence"),
    ({"verdict": "unstable"}, "paper2d.stable_verdict"),
    ({"verdict": "endpoint_scan_disagree"}, "paper2d.stable_verdict"),
    ({"norm0": 0.9}, "paper2d.norm_vs_step0"),
    ({"energy0_j": 4.0e-17}, "paper2d.energy_vs_step0"),
    ({"norm": PAPER_REF["norm"] * (1 + 1e-8)}, "paper2d.norm_vs_reference"),
    ({"energy_j": PAPER_REF["energy_j"] * (1 - 1e-8)}, "paper2d.energy_vs_reference"),
    ({"barrier_prob": 1e-8}, "paper2d.barrier_prob_vs_reference"),
])
def test_paper2d_rejects_perturbed_result(change, expect):
    assert expect in failed(checks.check_paper2d(dict(PAPER_OK, **change), PAPER_REF))


def test_paper2d_tolerates_reordered_sums():
    result = dict(PAPER_OK, norm=PAPER_REF["norm"] * (1 + 1e-12))
    assert all_pass(checks.check_paper2d(result, PAPER_REF))


# --- conv1d -----------------------------------------------------------------

CONV_ERRORS = [1.6e-13, 2.9e-15, 2.0e-15]   # as measured at mu0, mu0/2, mu0/4


def test_conv1d_passes_on_measured_errors():
    assert all_pass(checks.check_conv1d(7.7e-4, CONV_ERRORS, [False] * 4))


@pytest.mark.parametrize("l2,errors,diverged,expect", [
    (1.1e-3, CONV_ERRORS, [False] * 4, "conv1d.rel_l2_err"),
    (7.7e-4, CONV_ERRORS, [False, False, True, False], "conv1d.no_divergence"),
    # first order in time: halving only halves the error
    (7.7e-4, [4e-10, 2e-10, 1e-10], [False] * 4, "conv1d.halving_ratio_0"),
    (7.7e-4, [4e-10, 2e-11, 1e-11], [False] * 4, "conv1d.halving_ratio_1"),
    # an error that should be at round-off but is not
    (7.7e-4, [1.6e-13, 2.9e-15, 5e-14], [False] * 4, "conv1d.halving_ratio_1"),
])
def test_conv1d_rejects_perturbed_result(l2, errors, diverged, expect):
    assert expect in failed(checks.check_conv1d(l2, errors, diverged))


def test_rel_l2_err_of_scaled_planes():
    real, imag = np.ones(8), np.zeros(8)
    assert checks.rel_l2_err(1.001 * real, imag, real, imag) == pytest.approx(1e-3)


# --- snap2d -----------------------------------------------------------------

def snap_inputs():
    rng = np.random.default_rng(0)
    real, imag = rng.standard_normal(16), rng.standard_normal(16)
    diag = (real.copy(), imag.copy(), real * real + imag * imag)
    return dict(exit_code=0, runlog_rows=41, steps=40, dump_norm=0.987654321,
                runlog_norm=0.987654321, diag=diag, dump_diag=(real, imag))


def test_snap2d_passes_on_consistent_files():
    assert all_pass(checks.check_snap2d(**snap_inputs()))


@pytest.mark.parametrize("field,expect", [
    ("exit_code", "snap2d.exit_code"),
    ("runlog_rows", "snap2d.runlog_rows"),
    ("dump_norm", "snap2d.dump_norm"),
    ("diag_real", "snap2d.diag_matches_dump"),
    ("diag_density", "snap2d.diag_matches_dump"),
])
def test_snap2d_rejects_perturbed_result(field, expect):
    kw = snap_inputs()
    if field == "exit_code":
        kw["exit_code"] = 1
    elif field == "runlog_rows":
        kw["runlog_rows"] = 40
    elif field == "dump_norm":
        kw["dump_norm"] *= 1 + 1e-11
    else:
        column = 0 if field == "diag_real" else 2
        kw["diag"][column][3] = np.nextafter(kw["diag"][column][3], np.inf)  # one ulp
    assert expect in failed(checks.check_snap2d(**kw))


# --- sweep ------------------------------------------------------------------

def test_sweep_passes_within_one_step():
    assert all_pass(checks.check_sweep(0, 601, 601, 0.2755, 0.2750, 0.0005))


@pytest.mark.parametrize("args,expect", [
    ((2, 601, 601, 0.2755, 0.2750, 0.0005), "sweep.exit_code"),
    ((0, 600, 601, 0.2755, 0.2750, 0.0005), "sweep.verdict_rows"),
    ((0, 601, 601, 0.2765, 0.2750, 0.0005), "sweep.first_amplifying_mu"),
    ((0, 601, 601, None, 0.2750, 0.0005), "sweep.first_amplifying_mu"),
])
def test_sweep_rejects_perturbed_result(args, expect):
    assert expect in failed(checks.check_sweep(*args))


def test_oracle_finds_interior_maximum():
    """2-D second order, N=2: x_max = 4 mu.  mu=0.45 passes the endpoint
    test (|S(1.8)| = 0.9855) but S peaks at 1.0047 inside the range."""
    kw = dict(N=2, weights=SECOND_ORDER_WEIGHTS, axes=2, v_max=0.0, hbar=1.0,
              mass=1.0, dx=1.0)
    assert abs(checks.truncated_sine(1.8, 2)) < 1.0
    assert checks.oracle_first_amplifying_mu([0.30, 0.45], **kw) == 0.45
    assert checks.oracle_first_amplifying_mu([0.30, 0.35], **kw) is None


def test_oracle_symbol_matches_package_endpoint():
    from gfdtd import (ANGSTROM, EV, GridSpec, PhysicalParams, SchemeConfig,
                       StencilOrder, endpoint_x)
    physics = PhysicalParams()
    grid = GridSpec(dims=2, nx=800, dx=0.1 * ANGSTROM, ny=800, dy=0.1 * ANGSTROM)
    cfg = SchemeConfig.from_mu(2, StencilOrder.FOURTH_ORDER, 0.25, physics, grid)
    ours = checks.nyquist_x(0.25, FOURTH_ORDER_WEIGHTS, 2, 100 * EV, physics.hbar,
                            physics.mass, grid.dx)
    assert ours == pytest.approx(endpoint_x(grid, cfg, v_max=100 * EV), rel=1e-12)


# --- tracing ----------------------------------------------------------------

def test_wrapper_passes_return_value_through():
    tracer = tracing.Tracer()
    sentinel = object()
    wrapped = tracer.wrap("m.f", lambda *a, **k: (sentinel, a, k))
    assert wrapped(1, x=2) == (sentinel, (1,), {"x": 2})
    assert wrapped(3)[0] is sentinel
    assert len(tracer.spans) == 2


def test_wrapper_passes_exception_through():
    tracer = tracing.Tracer()
    error = ValueError("boom")

    def fail():
        raise error

    wrapped = tracer.wrap("m.fail", fail)
    with pytest.raises(ValueError) as info:
        wrapped()
    assert info.value is error
    assert tracer.spans[0][2] >= tracer.spans[0][1]   # span closed
    assert tracer._open == []


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("m.inner", lambda: sum(range(20000)))
    outer = tracer.wrap("m.outer", lambda: [inner() for _ in range(3)])
    outer()
    stats = tracer.stats()
    total_outer = stats["m.outer"]["durations"][0]
    children = sum(stats["m.inner"]["durations"])
    assert stats["m.outer"]["self"][0] == pytest.approx(total_outer - children)
    assert stats["m.inner"]["parents"] == ["m.outer"] * 3
    assert tracing.child_calls(stats, "m.inner", "m.outer") == 3
    s = tracing.summarize(stats, "m.inner", solves=1)
    assert s["calls"] == 3 and "ms_p90" not in s


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    home = types.ModuleType("fakepkg.home")
    user = types.ModuleType("fakepkg.user")

    def f(x):
        return x + 1

    home.f = f
    user.f = f                           # as after "from .home import f"
    user.call = lambda x: user.f(x)
    for name, module in (("fakepkg", pkg), ("fakepkg.home", home), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    return home, user, f


def test_install_wraps_every_alias_and_reports_missing(fake_package):
    home, user, f = fake_package
    tracer = tracing.Tracer()
    hooks = (("home", "f"), ("home", "gone"), ("nomodule", "g"))
    restore, missing = tracing.install(tracer, package="fakepkg", hooks=hooks)
    try:
        assert missing == ["home.gone", "nomodule.g"]
        assert home.f is not f and user.f is home.f
        assert user.call(1) == 2
        assert [s[0] for s in tracer.spans] == ["home.f"]
    finally:
        tracing.uninstall(restore)
    assert home.f is f and user.f is f


def test_install_on_gfdtd_reaches_internal_call_sites():
    import gfdtd
    from gfdtd import scheme, stencils
    original = stencils.apply_b
    restore, missing = tracing.install(tracing.Tracer())
    try:
        assert missing == []
        assert scheme.apply_b is stencils.apply_b is gfdtd.apply_b
        assert scheme.apply_b is not original
    finally:
        tracing.uninstall(restore)
    assert scheme.apply_b is original and gfdtd.apply_b is original
