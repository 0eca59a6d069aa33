import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from gfdtd import (ConfigurationError, GaussianPacketSpec, GridSpec, PhysicalParams,
                   PotentialField, SchemeConfig, StencilOrder, Verdict, WaveField,
                   amplification_roots, endpoint_condition, endpoint_x,
                   gaussian_packet, run, truncated_sine, wavenumber_scan)
from gfdtd.stability import _abs_sine_at_candidates, _symbol_value, scan_time_steps

from conftest import dense_b_matrix, reference_scan


@pytest.fixture
def physics():
    return PhysicalParams()  # electron, SI


@pytest.fixture
def grid_2d(physics):
    dx = 1.0e-11
    return GridSpec(dims=2, nx=64, dx=dx, ny=64, dy=dx)


def cfg_for(grid, physics, N, mu, order=StencilOrder.SECOND_ORDER):
    return SchemeConfig.from_mu(N, order, mu, physics, grid)


# --- truncated sine ------------------------------------------------------

@pytest.mark.parametrize("N", [0, 1, 2, 5])
def test_truncated_sine_zero(N):
    assert truncated_sine(0.0, N) == 0.0


def test_truncated_sine_published_condition_values():
    # the three N=2 condition values reported for the barrier experiment
    assert truncated_sine(1.0, 2) == pytest.approx(0.8418, abs=2e-4)
    assert truncated_sine(1.4, 2) == pytest.approx(0.9875, abs=2e-4)
    assert truncated_sine(16.0 / 3.0 * 0.25, 2) == pytest.approx(0.9735, abs=2e-4)


def test_truncated_sine_converges_to_sine():
    # truncation error is bounded by the first dropped term x^19/19!,
    # which is ~9.6e-9 at |x| = 3 and below 1e-9 for |x| <= 2.5
    for x in np.linspace(-3.0, 3.0, 61):
        assert abs(truncated_sine(x, 8) - np.sin(x)) < 1e-8
    for x in np.linspace(-2.5, 2.5, 51):
        assert abs(truncated_sine(x, 8) - np.sin(x)) < 1e-9


def test_truncated_sine_odd():
    for x in (0.1, 0.9, 1.7, 2.9):
        for N in (0, 1, 2, 4):
            assert truncated_sine(-x, N) == -truncated_sine(x, N)


def test_truncated_sine_vectorized():
    xs = np.array([0.0, 1.0, 1.4])
    out = truncated_sine(xs, 2)
    assert out.shape == xs.shape
    assert out[1] == pytest.approx(truncated_sine(1.0, 2), rel=1e-15)


# --- symbol: the ends of the x interval --------------------------------------

def lower_x(grid, cfg, v_min=0.0):
    """The interval's lower end: x at zero wavenumber and level v_min."""
    return _symbol_value(0.0, grid, cfg.order, cfg.physics, cfg.dt, v_min)


def test_symbol_zero_wavenumber(grid_2d, physics):
    cfg = cfg_for(grid_2d, physics, 2, 0.2)
    assert lower_x(grid_2d, cfg) == 0.0


def test_symbol_nyquist_second_order(grid_2d, physics):
    mu = 0.2
    cfg = cfg_for(grid_2d, physics, 0, mu)
    assert endpoint_x(grid_2d, cfg) == pytest.approx(4 * mu, rel=1e-12)


def test_symbol_nyquist_fourth_order(grid_2d, physics):
    mu = 0.25
    cfg = cfg_for(grid_2d, physics, 2, mu, StencilOrder.FOURTH_ORDER)
    assert endpoint_x(grid_2d, cfg) == pytest.approx(16.0 * mu / 3.0, rel=1e-12)


def test_symbol_1d_drops_y_terms(physics):
    grid = GridSpec(dims=1, nx=64, dx=1.0e-11)
    mu = 0.2
    cfg = cfg_for(grid, physics, 0, mu)
    assert endpoint_x(grid, cfg) == pytest.approx(2 * mu, rel=1e-12)


def test_symbol_includes_potential_term(grid_2d, physics):
    cfg = cfg_for(grid_2d, physics, 0, 0.2)
    v = 1.0e-17
    assert lower_x(grid_2d, cfg, v) == pytest.approx(v * cfg.dt / (2 * physics.hbar),
                                                     rel=1e-12)
    assert endpoint_x(grid_2d, cfg, v) == pytest.approx(
        endpoint_x(grid_2d, cfg) + v * cfg.dt / (2 * physics.hbar), rel=1e-12)


@pytest.mark.parametrize("order, nyquist", [(StencilOrder.SECOND_ORDER, 4.0),
                                            (StencilOrder.FOURTH_ORDER, 16.0 / 3.0)])
def test_interval_ends_anisotropic_2d(physics, order, nyquist):
    # dx != dy is where a sum over the axes could differ from per-axis
    # branches; closed form: x = (hbar dt / 4m) * K_nyq * (1/dx^2 + 1/dy^2)
    # + V dt / 2hbar, with K_nyq = 4 (second order) or 16/3 (fourth)
    grid = GridSpec(dims=2, nx=32, dx=1.0e-11, ny=24, dy=2.7e-11)
    cfg = cfg_for(grid, physics, 2, 0.3, order)
    hbar, m, dt = physics.hbar, physics.mass, cfg.dt
    v_min, v_max = -3.0e-18, 5.0e-17
    expected_hi = (hbar * dt / (4 * m) * nyquist * (1 / grid.dx ** 2 + 1 / grid.dy ** 2)
                   + v_max * dt / (2 * hbar))
    assert endpoint_x(grid, cfg, v_max) == pytest.approx(expected_hi, rel=1e-14)
    assert lower_x(grid, cfg, v_min) == pytest.approx(v_min * dt / (2 * hbar), rel=1e-14)
    report = wavenumber_scan(cfg, grid, v_max=v_max, v_min=v_min)
    assert report.endpoint_x == endpoint_x(grid, cfg, v_max)


# --- endpoint condition ---------------------------------------------------

def test_endpoint_mu_020_n0(grid_2d, physics):
    cfg = cfg_for(grid_2d, physics, 0, 0.20)
    value, ok = endpoint_condition(cfg, grid_2d, v_max=0.0, c=0.99)
    assert value == pytest.approx(0.8, rel=1e-12)
    assert ok


def test_endpoint_mu_025_n0_fails(grid_2d, physics):
    cfg = cfg_for(grid_2d, physics, 0, 0.25)
    value, ok = endpoint_condition(cfg, grid_2d, v_max=0.0, c=0.99)
    assert value == pytest.approx(1.0, rel=1e-12)
    assert not ok


def test_endpoint_mu_035_n2(grid_2d, physics):
    cfg = cfg_for(grid_2d, physics, 2, 0.35)
    value, ok = endpoint_condition(cfg, grid_2d, v_max=0.0, c=0.99)
    assert value == pytest.approx(0.98749, abs=1e-5)
    assert ok


def test_endpoint_overflow_is_unsatisfied_without_warnings():
    # x_max overflows; the endpoint used to square it outside the verdict's errstate
    grid = GridSpec(dims=1, nx=16, dx=1.0)
    cfg = cfg_for(grid, PhysicalParams(mass=1.0, hbar=1.0), 2, 1e100, StencilOrder.FOURTH_ORDER)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, ok = endpoint_condition(cfg, grid)
    assert not np.isfinite(value)
    assert ok is False


def test_endpoint_rejects_bad_threshold(grid_2d, physics):
    cfg = cfg_for(grid_2d, physics, 0, 0.2)
    with pytest.raises(ConfigurationError, match=r"threshold c must lie in \(0, 1\), got 1\.5"):
        endpoint_condition(cfg, grid_2d, v_max=0.0, c=1.5)


# --- wavenumber scan ------------------------------------------------------

def test_scan_monotone_case_matches_endpoint(grid_2d, physics):
    cfg = cfg_for(grid_2d, physics, 0, 0.2)
    report = wavenumber_scan(cfg, grid_2d, v_max=0.0)
    assert report.scan_max == report.endpoint_value
    assert report.verdict is Verdict.STABLE_BY_SCAN
    assert report.margin == pytest.approx(0.99 - report.scan_max, rel=1e-12)


def test_scan_detects_endpoint_disagreement(grid_2d, physics):
    # N=2, mu=0.45: endpoint |S(1.8)| < 1 but S has an interior local max
    # above 1 near x = sqrt(6 - sqrt(12)) = 1.5924...
    cfg = cfg_for(grid_2d, physics, 2, 0.45)
    value, ok = endpoint_condition(cfg, grid_2d, v_max=0.0, c=0.99)
    assert ok and value == pytest.approx(0.98546, abs=1e-4)
    report = wavenumber_scan(cfg, grid_2d, v_max=0.0)
    # oracle: dense maximization of S(x) = x - x^3/6 + x^5/120 on [0, 1.8]
    xs = np.linspace(0.0, 1.8, 1_000_001)
    dense_max = np.abs(xs - xs ** 3 / 6 + xs ** 5 / 120).max()
    assert dense_max == pytest.approx(1.00474, abs=1e-4)
    assert report.scan_max == pytest.approx(dense_max, abs=1e-9)
    assert report.scan_max > 1.0
    assert report.verdict is Verdict.ENDPOINT_SCAN_DISAGREE


def test_scan_stable_mu_035(grid_2d, physics):
    cfg = cfg_for(grid_2d, physics, 2, 0.35)
    report = wavenumber_scan(cfg, grid_2d, v_max=0.0)
    assert report.scan_max < 1.0
    assert report.verdict is Verdict.STABLE_BY_SCAN


def test_scan_unstable_verdict(grid_2d, physics):
    cfg = cfg_for(grid_2d, physics, 0, 0.3)  # endpoint value 1.2 > 1
    report = wavenumber_scan(cfg, grid_2d, v_max=0.0)
    assert report.verdict is Verdict.UNSTABLE


def test_scan_dominates_endpoint(grid_2d, physics):
    for N, mu, order in [(0, 0.2, StencilOrder.SECOND_ORDER),
                         (2, 0.45, StencilOrder.SECOND_ORDER),
                         (2, 0.25, StencilOrder.FOURTH_ORDER),
                         (3, 0.6, StencilOrder.SECOND_ORDER)]:
        cfg = cfg_for(grid_2d, physics, N, mu, order)
        report = wavenumber_scan(cfg, grid_2d, v_max=0.0)
        assert report.scan_max >= report.endpoint_value


@pytest.mark.parametrize("c", [0.0, 1.0, 1.5])
def test_scan_rejects_bad_threshold(grid_2d, physics, c):
    # N=2, mu=0.45 peaks at |S| = 1.0047, which c = 1.5 would call stable
    cfg = cfg_for(grid_2d, physics, 2, 0.45)
    with pytest.raises(ConfigurationError, match=r"threshold c must lie in \(0, 1\)"):
        wavenumber_scan(cfg, grid_2d, c=c)


def test_scan_rejects_inverted_potential_range(grid_2d, physics):
    cfg = cfg_for(grid_2d, physics, 0, 0.2)
    with pytest.raises(ConfigurationError, match="v_min 0.0 exceeds v_max -1e-18"):
        wavenumber_scan(cfg, grid_2d, v_max=-1.0e-18)


def test_run_rejects_bad_threshold(grid_2d, physics):
    # the verdict runs first, so a library caller sees a typed error
    cfg = cfg_for(grid_2d, physics, 0, 0.2)
    with pytest.raises(ConfigurationError, match=r"threshold c must lie in \(0, 1\)"):
        run(WaveField.zeros(grid_2d), PotentialField.zeros(grid_2d), grid_2d, cfg,
            steps=1, threshold_c=1.5)


@pytest.mark.parametrize("grid, v_min, v_max", [
    (GridSpec(dims=1, nx=32, dx=1.0e-11), 0.0, 0.0),
    (GridSpec(dims=2, nx=32, dx=1.0e-11, ny=24, dy=2.7e-11), 0.0, 0.0),
    (GridSpec(dims=2, nx=32, dx=1.0e-11, ny=24, dy=2.7e-11), 2.0e-17, 6.0e-17)],
    ids=["1d", "2d-dx!=dy", "2d-potential-levels"])
def test_scan_reads_dt_not_mu(physics, grid, v_min, v_max):
    # the verdict is a function of dt and the grid alone: a config whose
    # recorded mu disagrees with its dt gets the same report
    cfg = cfg_for(grid, physics, 2, 0.3)
    other = SchemeConfig(cfg.N, cfg.order, mu=0.7, dt=cfg.dt, physics=cfg.physics)
    report = wavenumber_scan(cfg, grid, v_max=v_max, v_min=v_min)
    assert wavenumber_scan(other, grid, v_max=v_max, v_min=v_min) == report


def test_scan_nan_maximum_is_unstable(grid_2d, physics, monkeypatch):
    # N=0, mu=0.2 passes the endpoint test; a NaN maximum must not read as
    # an endpoint/scan disagreement, let alone stable; a NaN turning point clips to
    # NaN, so the one S_N pass gives a NaN maximum beside a finite endpoint value
    from gfdtd import stability
    monkeypatch.setattr(stability, "_turning_points", lambda N: (float("nan"),))
    report = wavenumber_scan(cfg_for(grid_2d, physics, 0, 0.2), grid_2d)
    assert report.endpoint_value <= 0.99 and np.isnan(report.scan_max)
    assert report.verdict is Verdict.UNSTABLE


def test_scan_overflowing_symbol_is_unstable_without_warnings():
    # dt/dx^2 passes the float range although dt does not: the symbol is
    # inf at the Nyquist end and 0 * inf = NaN at zero wavenumber
    grid = GridSpec(dims=1, nx=16, dx=1.0e-5)
    cfg = cfg_for(grid, PhysicalParams(mass=1.0, hbar=1.0e-10), 2, 1.0e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = wavenumber_scan(cfg, grid)
    assert np.isnan(report.scan_max)
    assert report.verdict is Verdict.UNSTABLE


@pytest.mark.parametrize("grid, physics", [
    (GridSpec(dims=1, nx=32, dx=1.0e-11), PhysicalParams()),
    (GridSpec(dims=2, nx=32, dx=1.0e-11, ny=24, dy=2.7e-11), PhysicalParams()),
    # dt/dx^2 is inf at the top of the mu range: 0 * inf = NaN at zero wavenumber
    (GridSpec(dims=1, nx=16, dx=1.0e-5), PhysicalParams(mass=1.0, hbar=1.0e-10))],
    ids=["1d", "2d-dx!=dy", "1d-symbol-overflow"])
@pytest.mark.parametrize("order", list(StencilOrder), ids=["2nd", "4th"])
@pytest.mark.parametrize("v_min, v_max", [(0.0, 0.0), (0.0, 5.0e-17), (5.0e-17, 5.0e-17),
                                          (-3.0e-17, 0.0), (0.0, 1.0e300)],
                         ids=["free", "barrier", "whole-grid-barrier", "well", "v-dt-overflow"])
def test_scans_equal_the_scalar_reference(grid, physics, order, v_min, v_max):
    # one call judges every mu's dt, each row through the scalar's IEEE operations,
    # so every value, NaN and inf too, has the scalar's bits; wavenumber_scan judges
    # one 0-d dt, whose report holds its row's bits as Python floats
    mus = [*np.linspace(0.01, 2.0, 70).tolist(), 1e100, 1e300]
    for N in range(5):
        cfgs = [SchemeConfig.from_mu(N, order, mu, physics, grid) for mu in mus]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, peak, margin, labels, x = scan_time_steps(
                np.array([cfg.dt for cfg in cfgs]), grid, N, order, physics, v_max, 0.97,
                v_min=v_min)
            reports = [wavenumber_scan(cfg, grid, v_max, 0.97, v_min=v_min) for cfg in cfgs]
        assert labels.shape == (len(cfgs),)
        for i, (cfg, report) in enumerate(zip(cfgs, reports)):
            ref_value, ref_peak, verdict, ref_margin, ref_x = reference_scan(cfg, grid, v_max,
                                                                             0.97, v_min)
            assert labels[i] == verdict.value == report.verdict.value
            row = np.array([value[i], peak[i], margin[i], x[i]]).tobytes()
            assert row == np.array([ref_value, ref_peak, ref_margin, ref_x]).tobytes()
            fields = report.endpoint_value, report.scan_max, report.margin, report.endpoint_x
            assert all(type(field) is float for field in fields)
            assert np.array(fields).tobytes() == row


UNIT = PhysicalParams(mass=1.0, hbar=1.0)


@st.composite
def small_grids(draw):
    """A 1-D grid of 5-24 cells or a 2-D one of 5-8 per axis, dy = dx or 1.5 dx."""
    if draw(st.booleans()):
        return GridSpec(dims=1, nx=draw(st.integers(5, 24)), dx=1.0)
    return GridSpec(dims=2, nx=draw(st.integers(5, 8)), dx=1.0, ny=draw(st.integers(5, 8)),
                    dy=draw(st.sampled_from((1.0, 1.5))))


@settings(max_examples=60, deadline=None)
@given(grid=small_grids(), order=st.sampled_from(list(StencilOrder)), N=st.integers(0, 4),
       mu=st.floats(0.01, 0.6), data=st.data())
def test_verdict_interval_holds_the_spectrum(grid, order, N, mu, data):
    # the truncated Laplacian's eigenvalues lie inside its symbol's range and,
    # by Weyl's inequality, diag(V) keeps every x = -lambda dt/2 of B inside
    # [V_min dt/2hbar, endpoint_x(V_max)]; so max |S_N| over the spectrum is at
    # most the scan's maximum over that interval
    cfg = SchemeConfig.from_mu(N, order, mu, UNIT, grid)
    v_terms = data.draw(arrays(float, grid.shape, elements=st.floats(-1.0, 1.0)))
    potential = PotentialField(v_terms * 2.0 * UNIT.hbar / cfg.dt)
    v_min, v_max = potential.bounds()
    xs = -np.linalg.eigvalsh(dense_b_matrix(grid, potential, UNIT, order)) * cfg.dt / 2
    lo = _symbol_value(0.0, grid, order, UNIT, cfg.dt, v_min)
    hi = endpoint_x(grid, cfg, v_max)
    tol = 1e-12 * max(1.0, abs(lo), abs(hi))   # eigvalsh's rounding
    assert lo - tol <= xs.min() and xs.max() <= hi + tol
    report = wavenumber_scan(cfg, grid, v_max=v_max, v_min=v_min)
    # |x| < 4.3 here (kinetic part <= 16 mu/3, |V| term <= 1), where |S_N'| < 10 for N <= 4
    assert np.abs(truncated_sine(xs, N)).max() <= report.scan_max + 10 * tol


# --- exact interval maximum ---------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(N=st.integers(0, 8),
       ends=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2).map(sorted))
def test_interval_max_matches_dense_oracle(N, ends):
    # on |x| <= 5 the 2e6-point oracle misses an interior peak of S_8 by
    # at most |S''| h^2 / 8 < 3e-10; evaluating the same S at the same
    # points keeps rounding out of the one-sided check
    lo, hi = np.array(ends)
    dense = np.abs(truncated_sine(np.linspace(lo, hi, 2_000_001), N)).max()
    exact = _abs_sine_at_candidates(lo, hi, N).max(-1)
    assert exact == pytest.approx(dense, abs=1e-9)
    assert exact >= dense - 1e-12


def test_interval_max_nan_end_gives_nan():
    nan, one, zero = np.array([np.nan, 1.0, 0.0])
    assert np.isnan(_abs_sine_at_candidates(nan, one, 2).max(-1))
    assert np.isnan(_abs_sine_at_candidates(zero, nan, 2).max(-1))


# --- verdict over a potential's range --------------------------------------------

GRID_1D = GridSpec(dims=1, nx=400, dx=1.0)


@pytest.mark.parametrize("mu,v_term,j_min,diverges_at", [
    (0.8, 2.0, 301, 299),    # barrier V dt/2hbar = 2 on j >= 301, zero elsewhere
    (0.5, -2.0, 1, 197),     # well V dt/2hbar = -2 everywhere
])
def test_run_verdict_covers_every_potential_level(mu, v_term, j_min, diverges_at):
    # both regions reach S's interior peak 1.0047 (at x = 1.59 or -1.59),
    # which shifting every mode by max |V| missed; the runs blow up.  The
    # barrier run grows from round-off, so its step moves with the stepper's
    # and the packet's rounding; the well's packet seeds its unstable band itself
    cfg = SchemeConfig.from_mu(2, StencilOrder.SECOND_ORDER, mu, UNIT, GRID_1D)
    values = np.zeros(GRID_1D.shape)
    values[j_min - 1:] = v_term * 2.0 * UNIT.hbar / cfg.dt
    wf = gaussian_packet(GaussianPacketSpec(sigma=10.0, wavelength=8.0, center_j=100),
                         GRID_1D, UNIT)
    _, log = run(wf, PotentialField(values), GRID_1D, cfg, steps=600)
    report = log.stability_report
    assert not report.verdict.value.startswith("stable")
    assert report.scan_max == pytest.approx(1.0047408, abs=1e-7)
    assert log.divergence_step == diverges_at


# --- amplification roots --------------------------------------------------

def test_roots_alpha_zero():
    l1, l2, mod = amplification_roots(0.0)
    assert l1 == pytest.approx(1.0) and l2 == pytest.approx(1.0)
    assert mod == pytest.approx(1.0)


def test_roots_alpha_two_boundary():
    l1, l2, mod = amplification_roots(2.0)
    assert l1 == pytest.approx(-1.0) and l2 == pytest.approx(-1.0)
    assert mod == pytest.approx(1.0)


def test_roots_product_and_modulus():
    for alpha in np.linspace(-3.0, 3.0, 241):
        l1, l2, mod = amplification_roots(alpha)
        assert abs(l1 * l2 - 1.0) < 1e-12
        if abs(alpha) <= 2.0:
            assert mod == pytest.approx(1.0, abs=1e-12)
        else:
            assert mod > 1.0
