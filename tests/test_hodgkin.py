import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iqcfit import hodgkin
from iqcfit.errors import NumericalError, ShapeError
from iqcfit.hodgkin import (
    DEFAULT_LEVELS,
    _input_on_half_grid,
    _integrate_gating,
    check_step_ordering,
    gating_trajectory,
    monotonicity_witness,
    rate_alpha,
    rate_beta,
    scale_dataset,
    simulate_channel,
    steady_state_gating,
    step_dataset,
    time_constant,
    witness_inputs,
    write_figure1,
)
from iqcfit.signals import Signal, TimeGrid
from iqcfit.supply import iiqc_residual, passivity_supply

ALPHA_AT_ZERO = 0.05819767068693264
XINF_AT_ZERO = 0.31767691406069737


def test_rate_values():
    assert rate_beta(0.0) == 0.125
    assert rate_alpha(-10.0) == pytest.approx(0.1, rel=1e-12)
    assert rate_alpha(0.0) == pytest.approx(ALPHA_AT_ZERO, rel=1e-12)


def test_alpha_branches_agree_at_switch():
    # the series branch takes over below |u + 10| = 1e-4; compare it with
    # the direct formula at the same points
    for u in (-10.0 + 0.99e-4, -10.0 - 0.99e-4):
        w = (u + 10.0) / 10.0
        direct = 0.1 * w / np.expm1(w)
        assert rate_alpha(u) == pytest.approx(direct, rel=1e-12)


def test_rates_positive_on_physical_range():
    u = np.linspace(-120.0, 20.0, 2001)
    assert (rate_alpha(u) > 0).all()
    assert (rate_beta(u) > 0).all()


def test_steady_state_value():
    assert steady_state_gating(0.0) == pytest.approx(XINF_AT_ZERO, rel=1e-12)


def test_reversal_potential_gives_zero_output():
    y = simulate_channel(12.0, 1e-3, horizon=2.0)
    assert np.abs(y.values).max() == 0.0


def test_gating_reaches_steady_state():
    for level in (-100.0, -50.0, 0.0):
        tau_ms = time_constant(level)
        horizon = round(20.0 * tau_ms, 3)
        x = gating_trajectory(level, 1e-3, horizon=horizon)
        assert abs(x.values[-1, 0] - steady_state_gating(level)) <= 1e-6


def test_gating_stays_in_unit_interval():
    for level in (-109.0, -6.0, 12.0):
        x = gating_trajectory(level, 1e-3, horizon=10.0)
        assert x.values.min() >= 0.0
        assert x.values.max() <= 1.0 + 1e-12


def test_output_starts_at_zero():
    y = simulate_channel(-50.0, 1e-3, horizon=1.0)
    assert y.values[0, 0] == 0.0


def test_integrator_step_refinement():
    u1, _ = witness_inputs()
    coarse = simulate_channel(u1, 1e-3, horizon=5.0)
    fine = simulate_channel(u1, 5e-4, horizon=5.0)
    gap = abs(coarse.values[-1, 0] - fine.values[-1, 0])
    assert gap <= 1e-8 * abs(fine.values[-1, 0])


def test_step_dataset_defaults():
    data = step_dataset()
    assert len(data.inputs) == 12
    assert data.grid.tau == 20
    assert data.grid.dt == 0.5
    assert data.grid.size == 21
    for u, level in zip(data.inputs, DEFAULT_LEVELS):
        assert np.all(u == level)
    assert DEFAULT_LEVELS[0] == -6.0
    assert DEFAULT_LEVELS[-1] == -109.0
    report = check_step_ordering(data)
    assert report.ordered
    assert report.max_violation <= 1e-9


def test_step_dataset_overrides():
    data = step_dataset(levels=(-20.0, -40.0), horizon=5.0, sample_dt=0.25)
    assert len(data.inputs) == 2
    assert data.grid.tau == 20
    assert data.grid.dt == 0.25


def test_step_dataset_matches_fine_simulation():
    data = step_dataset(levels=(-51.0,), horizon=2.0)
    fine = simulate_channel(-51.0, 1e-3, horizon=2.0)
    stride = round(0.5 / 1e-3)
    assert np.abs(data.outputs[0][:, 0] - fine.values[::stride, 0]).max() == 0.0


@settings(max_examples=60, deadline=None)
@given(levels=st.lists(st.one_of(st.just(-10.0), st.floats(-120.0, 20.0)),
                       min_size=1, max_size=3),
       dt_ode=st.sampled_from([5e-4, 1e-3, 2e-3, 0.1]),
       stride=st.integers(1, 60), samples=st.integers(1, 40),
       beyond=st.integers(0, 59))
@example(levels=[-10.0, -6.0], dt_ode=1e-3, stride=500, samples=20, beyond=0)
def test_step_dataset_is_the_fine_simulation_subsampled(levels, dt_ode, stride,
                                                        samples, beyond):
    # the closed form evaluated on the working grid alone gives the data of
    # the whole RK4 trajectory subsampled, bit for bit, also when the grid
    # ends before the horizon (beyond > 0) and at -10 mV, where rate_alpha
    # takes its series
    sample_dt = stride * dt_ode
    horizon = (samples * stride + beyond % stride) * dt_ode
    data = step_dataset(levels=tuple(levels), horizon=horizon,
                        sample_dt=sample_dt, dt_ode=dt_ode)
    for u, y, level in zip(data.inputs, data.outputs, levels):
        want = simulate_channel(level, dt_ode, horizon).values[::stride]
        assert data.grid == TimeGrid(len(want) - 1, sample_dt)
        assert y.shape == want.shape
        assert y.tobytes() == want.tobytes()
        assert u.tobytes() == np.full(y.shape, level).tobytes()


@pytest.mark.parametrize("horizon, sample_dt, says", [
    (2.0005, 0.5, "horizon 2.0005 is not a multiple of dt_ode 0.001"),
    (2.0, 0.0015, "sample_dt 0.0015 is not a multiple of dt_ode 0.001"),
    (2.0, 0.0, "sample_dt 0.0 is not a multiple of dt_ode 0.001"),
])
def test_step_dataset_refusals_keep_their_messages(horizon, sample_dt, says):
    with pytest.raises(ValueError) as fine:
        monotonicity_witness(1e-3, sample_dt, horizon)
    with pytest.raises(ValueError) as sampled:
        step_dataset(levels=(-51.0,), horizon=horizon, sample_dt=sample_dt)
    assert str(sampled.value) == str(fine.value) == says


def test_grids_past_physical_memory_are_refused_before_allocating():
    # 2**61 steps: every array of the half grid or the working grid is
    # beyond any machine's memory, and none is made
    with pytest.raises(MemoryError, match=r"^horizon 1\.15\d*e\+18 sampled "
                       r"every sample_dt 0\.5 at 2 levels asks for"):
        step_dataset(levels=(-6.0, -51.0), horizon=2.0**60, sample_dt=0.5,
                     dt_ode=0.5)
    for run in (simulate_channel, gating_trajectory):
        with pytest.raises(MemoryError, match=r"^horizon 1\.15\d*e\+18 in RK4 "
                           r"steps of dt_ode 0\.5 asks for"):
            run(-51.0, 0.5, 2.0**60)
        with pytest.raises(MemoryError, match=r"^horizon 1\.15\d*e\+18 in RK4 "
                           r"half steps of dt_ode 0\.5 asks for"):
            run(np.sin, 0.5, 2.0**60)


def _constant_level(horizon):
    return simulate_channel(-51.0, 1e-3, horizon)


@pytest.mark.parametrize("run, horizon", [
    (monotonicity_witness, 10.0), (monotonicity_witness, 100.0),
    (step_dataset, 100.0), (step_dataset, 1000.0),
    (_constant_level, 10.0), (_constant_level, 100.0)])
def test_memory_checks_count_the_traced_peak(monkeypatch, run, horizon):
    # the bytes a memory check counts cover every array alive at the peak
    counted = []
    check = hodgkin.check_memory
    monkeypatch.setattr(hodgkin, "check_memory",
                        lambda values, what: (counted.append(8 * values),
                                              check(values, what)))
    run(horizon=horizon)
    counted.clear()
    tracemalloc.start()
    try:
        run(horizon=horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counted and peak <= max(counted)


def test_step_dataset_checks_the_unsampled_steps():
    # at 10 ms a step the -109 mV iterates first overflow at step 124; a
    # grid of stride 123 ends at step 123, before the horizon's step 124
    with pytest.raises(NumericalError):
        _integrate_gating(-109.0, 10.0, 1240.0)
    _integrate_gating(-109.0, 10.0, 1230.0)
    with pytest.raises(NumericalError, match="produced non-finite values"):
        step_dataset(levels=(-109.0,), horizon=1240.0, sample_dt=1230.0,
                     dt_ode=10.0)


def test_witness_values():
    w = monotonicity_witness()
    assert w.continuous == pytest.approx(-33.508400495773714, rel=1e-9)
    assert w.sampled == pytest.approx(-67.41999463442133, rel=1e-9)
    assert w.continuous < 0
    assert w.sampled < 0
    assert abs(w.continuous - (-33.51)) <= 1.0


def test_witness_matches_supply_residual():
    u1, u2 = witness_inputs()
    y1 = simulate_channel(u1, 1e-3, horizon=10.0)
    y2 = simulate_channel(u2, 1e-3, horizon=10.0)
    grid = TimeGrid(20, 0.5)
    stride = round(0.5 / 1e-3)
    t = grid.times()
    u1_s = Signal(grid, u1(t))
    u2_s = Signal(grid, u2(t))
    y1_s = Signal(grid, y1.values[::stride])
    y2_s = Signal(grid, y2.values[::stride])
    residual = iiqc_residual(passivity_supply(1), u1_s, u2_s, y1_s, y2_s)
    w = monotonicity_witness()
    # passivity supply is twice the input-output product
    assert residual == pytest.approx(2.0 * w.sampled, rel=1e-12)
    swapped = iiqc_residual(passivity_supply(1), u2_s, u1_s, y2_s, y1_s)
    assert swapped == pytest.approx(residual, rel=1e-12)


def test_scale_dataset():
    data = step_dataset(levels=(-20.0, -60.0), horizon=2.0)
    same = scale_dataset(data, 1.0, 1.0)
    for a, b in zip(same.inputs, data.inputs):
        assert np.abs(a - b).max() == 0.0
    scaled = scale_dataset(data, 2.0, 4.0)
    for a, b in zip(scaled.inputs, data.inputs):
        assert np.abs(a - b / 2.0).max() == 0.0
    for a, b in zip(scaled.outputs, data.outputs):
        assert np.abs(a - b / 4.0).max() == 0.0
        assert np.all(np.sign(a) == np.sign(b))
    with pytest.raises(ValueError):
        scale_dataset(data, 0.0, 1.0)
    with pytest.raises(ValueError):
        scale_dataset(data, 1.0, -2.0)


def test_time_constant_wiring():
    want = 1.0 / (ALPHA_AT_ZERO + 0.125)
    assert time_constant(0.0) == pytest.approx(want, rel=1e-12)


def test_figure_csv_format(tmp_path):
    data = step_dataset()
    path = tmp_path / "figure1.csv"
    write_figure1(data, path)
    with path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "level", "y"]
    assert len(rows) == 1 + 12 * 21
    t, level, y = (float(x) for x in rows[1])
    assert t == 0.0
    assert level == -6.0
    assert y == data.outputs[0][0, 0]
    t, level, y = (float(x) for x in rows[-1])
    assert t == 10.0
    assert level == -109.0
    assert y == data.outputs[-1][-1, 0]


def test_input_validation():
    with pytest.raises(ValueError):
        simulate_channel(-50.0, 1e-3, horizon=0.0005)
    with pytest.raises(ValueError):
        simulate_channel(-50.0, -1e-3, horizon=1.0)
    with pytest.raises(ShapeError):  # a callable maps an array of times
        simulate_channel(lambda t: -50.0, 1e-3, horizon=1.0)


def _reference_gating(u, dt_ode, horizon):
    """The integrator as an indexed loop over numpy scalars, four stages a
    step: the oracle the affine-map scan must agree with."""
    if callable(u):
        half, n = _input_on_half_grid(u, dt_ode, horizon)
    else:
        n = round(horizon / dt_ode)
        half = np.full(2 * n + 1, float(u))
    alpha = rate_alpha(half)
    beta = rate_beta(half)
    rate = alpha + beta
    x = 0.0
    xs = np.empty(n + 1)
    xs[0] = x
    h = dt_ode
    for k in range(n):
        a0, r0 = alpha[2 * k], rate[2 * k]
        am, rm = alpha[2 * k + 1], rate[2 * k + 1]
        a1, r1 = alpha[2 * k + 2], rate[2 * k + 2]
        k1 = a0 - r0 * x
        k2 = am - rm * (x + 0.5 * h * k1)
        k3 = am - rm * (x + 0.5 * h * k2)
        k4 = a1 - r1 * (x + h * k3)
        x += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        xs[k + 1] = x
    return xs, half[::2]


# The scan and the step-by-step loop round differently; both are the same
# RK4 scheme, so they agree to this fraction of the trajectory's size.
SCAN_RTOL = 1e-12


def _assert_matches_reference(u, dt_ode, horizon):
    xs, nodes = _integrate_gating(u, dt_ode, horizon)
    want_xs, want_nodes = _reference_gating(u, dt_ode, horizon)
    assert xs.shape == want_xs.shape
    assert xs[0] == 0.0
    assert np.abs(xs - want_xs).max() <= SCAN_RTOL * np.abs(want_xs).max()
    # a constant level is its own nodes
    assert np.array_equal(np.broadcast_to(nodes, want_nodes.shape), want_nodes)


def test_scan_matches_reference_loop():
    u1, u2 = witness_inputs()
    knots = np.linspace(0.0, 1.5, 16)
    ramps = lambda t: np.interp(t, knots, u2(knots))
    # one step, odd and power-of-two step counts, every input kind (a
    # piecewise linear waveform among them), and a 2e5-step trajectory
    cases = [(-6.0, 1e-3, 1e-3), (-6.0, 1e-3, 2.0), (-10.0, 2e-3, 3.0),
             (-19.0, 1e-3, 2.048), (-63.0, 0.1, 10.0), (u1, 1e-3, 2.0),
             (u2, 5e-4, 1.0), (ramps, 1e-3, 1.5), (u1, 5e-4, 100.0)]
    for u, dt_ode, horizon in cases:
        _assert_matches_reference(u, dt_ode, horizon)


@settings(max_examples=60)
@given(level=st.floats(-120.0, 20.0),
       dt_ode=st.sampled_from([5e-4, 1e-3, 2e-3, 0.1]),
       steps=st.integers(1, 5000))
def test_constant_level_matches_rk4_closed_form(level, dt_ode, steps):
    # RK4 on dx/dt = alpha - (alpha + beta) x multiplies the distance to
    # x_inf by A = 1 - z + z^2/2 - z^3/6 + z^4/24 a step, z = (alpha+beta) dt,
    # so x_k = x_inf (1 - A^k).  A^k is taken as exp(k log1p(A - 1)) to keep
    # the oracle's own rounding far below the bound.
    xs, _ = _integrate_gating(level, dt_ode, steps * dt_ode)
    alpha, beta = rate_alpha(level), rate_beta(level)
    z = (alpha + beta) * dt_ode
    a_minus_1 = -z + z * z / 2.0 - z**3 / 6.0 + z**4 / 24.0
    k = np.arange(steps + 1)
    want = alpha / (alpha + beta) * -np.expm1(k * np.log1p(a_minus_1))
    assert np.abs(xs - want).max() <= SCAN_RTOL * np.abs(xs).max()


@settings(max_examples=60)
@given(level=st.floats(-120.0, 20.0),
       dt_ode=st.sampled_from([5e-4, 1e-3, 2e-3, 0.1]),
       steps=st.integers(1, 5000))
def test_constant_level_matches_reference_loop(level, dt_ode, steps):
    _assert_matches_reference(level, dt_ode, steps * dt_ode)


def test_only_waveforms_take_the_scan(monkeypatch):
    # constant levels are integrated in closed form; callables go through
    # the prefix scan
    calls = []
    scan = hodgkin._scan_gating
    monkeypatch.setattr(hodgkin, "_scan_gating",
                        lambda *args: calls.append(1) or scan(*args))
    step_dataset()
    assert calls == []
    monotonicity_witness()
    assert len(calls) == 2
    simulate_channel(lambda t: np.full(t.shape, -50.0), 1e-3, horizon=0.01)
    assert len(calls) == 3


@settings(max_examples=40)
@given(knots=st.lists(st.floats(-120.0, 20.0), min_size=1, max_size=8),
       dt_ode=st.sampled_from([5e-4, 1e-3, 2e-3, 0.1]),
       steps=st.integers(1, 1500))
def test_sampled_signal_matches_reference_loop(knots, dt_ode, steps):
    # the waveform through the knots, spread evenly over the horizon
    horizon = steps * dt_ode
    times = np.linspace(0.0, horizon, len(knots))
    _assert_matches_reference(lambda t: np.interp(t, times, knots), dt_ode,
                              horizon)


def test_unstable_step_raises():
    # (alpha + beta) dt far outside RK4's stability region: the iterates
    # overflow, which must surface as a typed error
    with pytest.raises(NumericalError):
        _integrate_gating(-109.0, 10.0, 10000.0)
