"""Integration engine: metrics, resampling, determinism, convergence, trips.

The self-convergence bounds split by disturbance smoothness: with a
value-continuous bus signal the fixed-step scheme shows its clean fourth
order and refinement MSE far below 1e-8; integrating through the scripted
fault's voltage jumps caps channel agreement near 1e-6-1e-5 (quantified
here, asserted as the documented bound for discontinuous playback).
"""

import dataclasses
import math

import numpy as np
import pytest

from clm_sim.composite import ConstantBus, LoadMix, PlaybackBus, PlaybackParams
from clm_sim.dera import DERA_PRESETS
from clm_sim.errors import GridMismatch, NonFiniteState, OutOfRange
from clm_sim.sim import (
    IntegratorConfig,
    Trajectory,
    build_scenario,
    integrate,
    mse,
    read_binary,
    read_csv,
    resample,
    run_simulation,
    write_binary,
    write_csv,
)

from scenarios import (
    ZIP,
    SmoothDipBus,
    StepFrequencyBus,
    dera_playback_scenario,
    full_composite_scenario,
    motor_playback_scenario,
)


def _toy_traj(n=101, dt=0.01):
    t = np.arange(n) * dt
    data = np.column_stack([t, np.sin(t), np.cos(t)])
    return Trajectory(["t", "a.P", "a.Q"], data)


# -------------------------------------------------------------------- metrics

def test_mse_self_is_exactly_zero():
    traj = _toy_traj()
    assert mse(traj, traj, "a.P") == 0.0


def test_mse_constant_offset_is_delta_squared():
    t = np.arange(101) * 0.01
    delta = 0.01
    base = Trajectory(["t", "x"], np.column_stack([t, np.zeros_like(t)]))
    shifted = Trajectory(["t", "x"], np.column_stack([t, np.full_like(t, delta)]))
    got = mse(base, shifted, "x")
    assert abs(got - delta**2) <= 1e-15 * delta**2


def test_mse_grid_mismatch_raises():
    a = _toy_traj(n=101)
    b = _toy_traj(n=51)
    with pytest.raises(GridMismatch):
        mse(a, b, "a.P")
    c = Trajectory(a.channels, a.data + np.array([1e-3, 0, 0]))
    with pytest.raises(GridMismatch):
        mse(a, c, "a.P")


def test_resample_identity_on_own_grid():
    traj = _toy_traj()
    again = resample(traj, traj.t)
    assert np.array_equal(again.data, traj.data)


def test_resample_reproduces_linear_channels_exactly():
    t = np.arange(0.0, 1.01, 0.1)
    data = np.column_stack([t, 3.0 * t - 1.0])
    traj = Trajectory(["t", "lin"], data)
    fine = np.arange(0.0, 1.001, 0.01)
    out = resample(traj, fine)
    assert np.max(np.abs(out.channel("lin") - (3.0 * fine - 1.0))) < 1e-14


def test_resample_sine_error_within_interpolation_bound():
    dt = 0.05
    t = np.arange(0.0, 2.0 + dt / 2, dt)
    traj = Trajectory(["t", "s"], np.column_stack([t, np.sin(2 * np.pi * t)]))
    fine = np.arange(0.0, 2.0, dt / 10.0)
    out = resample(traj, fine)
    err = np.max(np.abs(out.channel("s") - np.sin(2 * np.pi * fine)))
    bound = dt**2 / 8.0 * (2 * np.pi) ** 2  # h^2/8 * max|f''|
    assert err <= bound


def test_resample_out_of_range_raises():
    traj = _toy_traj()
    with pytest.raises(OutOfRange):
        resample(traj, np.array([-0.5, 0.0]))
    with pytest.raises(OutOfRange):
        resample(traj, np.array([0.0, 99.0]))


def test_trajectory_invariants_enforced():
    with pytest.raises(ValueError):
        Trajectory(["t", "x"], np.array([[0.0, 1.0], [0.0, 2.0]]))  # not increasing
    with pytest.raises(ValueError):
        Trajectory(["t", "x"], np.array([[0.0, 1.0], [0.2, 2.0], [0.1, 3.0]]))
    # Uneven but increasing time is a valid trajectory (a rounded export grid).
    uneven = Trajectory(["t", "x"], np.array([[0.0, 1.0], [0.1, 2.0], [0.3, 3.0]]))
    assert uneven.t.tolist() == [0.0, 0.1, 0.3]
    with pytest.raises(ValueError):
        Trajectory(["x", "t"], np.zeros((2, 2)))  # time must lead


# -------------------------------------------------------------- file round-trip

def test_csv_round_trip_is_exact(tmp_path):
    traj = integrate(motor_playback_scenario(), IntegratorConfig(dt=1e-3, t_end=0.5))
    path = tmp_path / "traj.csv"
    write_csv(traj, path)
    back = read_csv(path)
    assert back.channels == traj.channels
    assert np.array_equal(back.data, traj.data)  # 17 digits round-trips float64


def test_binary_round_trip_is_exact(tmp_path):
    traj = integrate(motor_playback_scenario(), IntegratorConfig(dt=1e-3, t_end=0.2))
    path = tmp_path / "traj.bin"
    write_binary(traj, path)
    back = read_binary(path, traj.channels)
    assert np.array_equal(back.data, traj.data)


# ----------------------------------------------------------------- determinism

def test_repeated_runs_bit_identical():
    cfg = IntegratorConfig(dt=1e-3, t_end=1.5)
    a = integrate(full_composite_scenario(PlaybackBus(
        PlaybackParams(a=0.8, b=5.0, c=1.0, d=0.9))), cfg)
    b = integrate(full_composite_scenario(PlaybackBus(
        PlaybackParams(a=0.8, b=5.0, c=1.0, d=0.9))), cfg)
    assert np.array_equal(a.data, b.data)


# ------------------------------------------------------------------ equilibria

def test_equilibrium_hold_full_composite_10s():
    scenario = full_composite_scenario(ConstantBus())
    traj = integrate(scenario, IntegratorConfig(dt=1e-3, t_end=10.0))
    for ch in ("total.P", "total.Q"):
        x = traj.channel(ch)
        assert np.max(np.abs(x - x[0])) < 1e-6


def test_motor_playback_dips_and_recovers():
    traj = integrate(motor_playback_scenario(p0=0.8),
                     IntegratorConfig(dt=1e-3, t_end=5.0))
    p = traj.channel("motor_a.P")
    t = traj.t
    fault = (t >= 1.0) & (t <= 1.0 + 5.0 / 60.0)
    assert p[fault].min() < 0.8 - 0.05  # visible dip
    assert abs(p[-1] - 0.8) < 1e-3      # recovered by t_end = 5 s


# ----------------------------------------------------------------- convergence

def _channel_error(a: Trajectory, b: Trajectory) -> float:
    err = 0.0
    for ch in a.channels[1:]:
        err = max(err, float(np.max(np.abs(a.channel(ch) - b.channel(ch)))))
    return err


def test_rk4_halving_error_ratio_order_four():
    def run(dt, every):
        return integrate(full_composite_scenario(SmoothDipBus()),
                         IntegratorConfig(method="rk4", dt=dt, t_end=2.5,
                                          record_every=every))

    ref = run(1e-3 / 16.0, 16)
    e1 = _channel_error(run(1e-3, 1), ref)
    e2 = _channel_error(run(5e-4, 2), ref)
    ratio = e1 / e2
    assert 12.0 <= ratio <= 20.0


def test_rk4_refinement_mse_smooth_scenario():
    coarse = integrate(full_composite_scenario(SmoothDipBus()),
                       IntegratorConfig(dt=1e-3, t_end=2.5, record_every=1))
    fine = integrate(full_composite_scenario(SmoothDipBus()),
                     IntegratorConfig(dt=1e-4, t_end=2.5, record_every=10))
    for ch in coarse.pq_channels():
        assert mse(coarse, fine, ch) < 1e-8


def test_rk4_refinement_mse_discontinuous_playback_quantified():
    # Integrating through the playback voltage jumps caps self-convergence:
    # the error is concentrated in the few samples after each jump. The
    # refinement MSE stays below 1e-5 but cannot reach the smooth-signal
    # 1e-8 level; this quantifies the no-event-location design choice.
    coarse = integrate(motor_playback_scenario(), IntegratorConfig(dt=1e-3, t_end=5.0))
    fine = integrate(motor_playback_scenario(),
                     IntegratorConfig(dt=1e-4, t_end=5.0, record_every=10))
    for ch in ("motor_a.P", "motor_a.Q"):
        value = mse(coarse, fine, ch)
        assert value < 1e-5
        assert value > 1e-10  # genuinely limited by the jumps, not slack


def test_euler_and_heun_agree_with_rk4_in_the_limit():
    bus = SmoothDipBus()
    ref = integrate(full_composite_scenario(bus),
                    IntegratorConfig(method="rk4", dt=1e-4, t_end=1.0, record_every=10))
    for method, tol in (("euler", 5e-3), ("heun", 1e-4)):
        approx = integrate(full_composite_scenario(bus),
                           IntegratorConfig(method=method, dt=1e-4, t_end=1.0,
                                            record_every=10))
        assert _channel_error(approx, ref) < tol


# ----------------------------------------------------------------- trip logic

def test_frequency_trip_zeroes_dera_output_in_simulation():
    params = dataclasses.replace(DERA_PRESETS["dera_table3"], fl=0.98, tfl=0.1)
    zero_zip = dataclasses.replace(ZIP, P0=0.0, Q0=0.0)  # a zero-power ZIP
    scenario = build_scenario(
        LoadMix(f_zip=1.0, der_scale=1.0),
        StepFrequencyBus(f_after=0.97, t_step=0.5),
        dera_load=(params, 0.5, 0.1),
        zip_load=zero_zip,
    )
    dt = 1e-3
    result = run_simulation(scenario, IntegratorConfig(dt=dt, t_end=1.0))
    traj = result.trajectory

    # Condition first holds at the end-of-step update at t = 0.5; the latch
    # lands ceil(tfl/dt) updates later.
    latch_index = 500 + math.ceil(params.tfl / dt) - 1
    tripped = traj.channel("dera.tripped")
    assert tripped[latch_index - 1] == 0.0
    assert tripped[latch_index] == 1.0
    assert np.all(tripped[latch_index:] == 1.0)
    assert np.all(traj.channel("dera.P")[latch_index:] == 0.0)
    assert np.all(traj.channel("dera.Q")[latch_index:] == 0.0)
    assert np.all(traj.channel("total.P")[latch_index:] == 0.0)
    events = [e for e in result.summary["trip_events"] if e["type"] == "frequency_trip"]
    assert len(events) == 1
    assert events[0]["t"] == pytest.approx(latch_index * dt, abs=1e-12)


def test_voltage_dwell_event_reported():
    deep = PlaybackParams(a=0.45, b=30.0, c=1.0, d=0.9)
    result = run_simulation(dera_playback_scenario(playback=deep),
                            IntegratorConfig(dt=1e-3, t_end=3.0))
    kinds = [e["type"] for e in result.summary["trip_events"]]
    assert "low_voltage_dwell_expired" in kinds
    # Partial recovery: Vrfrac * (Vl1 - vmin) / (Vl1 - Vl0) of the pre-fault output.
    p_end = result.trajectory.channel("dera.P")[-1]
    expected_s4 = 0.7 * ((0.49 - 0.45) / (0.49 - 0.44))
    assert p_end == pytest.approx(0.5 * expected_s4, abs=1e-6)


# --------------------------------------------------------------- failure modes

@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_unstable_step_raises_non_finite_state():
    scenario = motor_playback_scenario()
    with pytest.raises(NonFiniteState) as exc_info:
        integrate(scenario, IntegratorConfig(method="euler", dt=0.01, t_end=20.0))
    assert exc_info.value.step is not None


def test_record_every_decimates_grid():
    traj = integrate(motor_playback_scenario(), IntegratorConfig(dt=1e-3, t_end=1.0,
                                                                 record_every=10))
    assert len(traj) == 101
    assert traj.t[1] - traj.t[0] == pytest.approx(0.01, abs=1e-12)


def test_summary_reports_residuals_and_limiters():
    result = run_simulation(full_composite_scenario(ConstantBus()),
                            IntegratorConfig(dt=1e-3, t_end=0.1))
    s = result.summary
    assert set(s["initial_residuals"]) == {"motor_a", "motor_b", "motor_c", "dera"}
    assert all(v < 1e-8 for v in s["initial_residuals"].values())
    assert "dera.power_order_windup" in s["limiter_activity"]
    assert s["limiter_activity"]["dera.power_order_windup"] == 0
