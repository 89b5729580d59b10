"""Integration engine: metrics, resampling, determinism, convergence, trips.

The self-convergence tests cover both kinds of disturbance: with a
value-continuous bus signal the fixed-step scheme shows its clean fourth
order and refinement MSE far below 1e-8; the scripted fault's voltage
jumps, stepped at as the bus's breakpoints, keep that order too.
"""

import dataclasses
import logging
import math
import random
import re
import struct

import numpy as np
import pytest

from clm_sim.composite import ConstantBus, LoadMix, PlaybackBus
from clm_sim.config import DeraSection, MotorSection, build_scenario, zip_component
from clm_sim.errors import (
    ChannelError,
    ConfigError,
    FileFormatError,
    GridMismatch,
    NonFiniteInput,
    NonFiniteState,
    OutOfRange,
)
from clm_sim.sim import (
    _STEPPERS,
    INTEGRATION_METHODS,
    Component,
    IntegratorConfig,
    Scenario,
    Trajectory,
    _read_bus,
    mse,
    read_binary,
    read_csv,
    resample,
    run_simulation,
    write_binary,
    write_csv,
)

from scenarios import (
    TABLE_PLAYBACK,
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


def test_trajectory_channel_refuses_an_unknown_name():
    traj = Trajectory(["t", "x"], np.array([[0.0, 1.0], [0.1, 2.0]]))
    with pytest.raises(ChannelError, match="^no channel named 'y'$"):
        traj.channel("y")


# -------------------------------------------------------------- file round-trip

def test_csv_round_trip_is_exact(tmp_path):
    traj = run_simulation(motor_playback_scenario(),
                          IntegratorConfig(dt=1e-3, t_end=0.5)).trajectory
    path = tmp_path / "traj.csv"
    write_csv(traj, {path: None})
    back = read_csv(path)
    assert back.channels == traj.channels
    assert np.array_equal(back.data, traj.data)  # 17 digits round-trips float64


def test_binary_round_trip_is_exact(tmp_path):
    traj = run_simulation(motor_playback_scenario(),
                          IntegratorConfig(dt=1e-3, t_end=0.2)).trajectory
    path = tmp_path / "traj.bin"
    write_binary(traj, path)
    back = read_binary(path, traj.channels)
    assert np.array_equal(back.data, traj.data)


def test_binary_of_a_partial_row_is_file_format(tmp_path):
    path = tmp_path / "five.bin"
    path.write_bytes(np.arange(5.0).astype("<f8").tobytes())
    with pytest.raises(FileFormatError, match="5 values do not divide into 2 channels$"):
        read_binary(path, ["t", "x"])


# ----------------------------------------------------------------- determinism

def test_repeated_runs_bit_identical():
    cfg = IntegratorConfig(dt=1e-3, t_end=1.5)
    bus = PlaybackBus(a=0.8, b=5.0, c=1.0, d=0.9)
    a = run_simulation(full_composite_scenario(bus), cfg).trajectory
    b = run_simulation(full_composite_scenario(bus), cfg).trajectory
    assert np.array_equal(a.data, b.data)


# ------------------------------------------------------------------ equilibria

def test_equilibrium_hold_full_composite_10s():
    scenario = full_composite_scenario(ConstantBus())
    traj = run_simulation(scenario, IntegratorConfig(dt=1e-3, t_end=10.0)).trajectory
    for ch in ("total.P", "total.Q"):
        x = traj.channel(ch)
        assert np.max(np.abs(x - x[0])) < 1e-6


def test_motor_playback_dips_and_recovers():
    traj = run_simulation(motor_playback_scenario(p0=0.8),
                          IntegratorConfig(dt=1e-3, t_end=5.0)).trajectory
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
        return run_simulation(full_composite_scenario(SmoothDipBus()),
                              IntegratorConfig(method="rk4", dt=dt, t_end=2.5,
                                               record_every=every)).trajectory

    ref = run(1e-3 / 16.0, 16)
    e1 = _channel_error(run(1e-3, 1), ref)
    e2 = _channel_error(run(5e-4, 2), ref)
    ratio = e1 / e2
    assert 12.0 <= ratio <= 20.0


def test_rk4_refinement_mse_smooth_scenario():
    coarse = run_simulation(full_composite_scenario(SmoothDipBus()),
                            IntegratorConfig(dt=1e-3, t_end=2.5, record_every=1)).trajectory
    fine = run_simulation(full_composite_scenario(SmoothDipBus()),
                          IntegratorConfig(dt=1e-4, t_end=2.5, record_every=10)).trajectory
    for ch in coarse.pq_channels():
        assert mse(coarse, fine, ch) < 1e-8


def test_rk4_refinement_mse_discontinuous_playback_quantified():
    # The steps at the playback voltage jumps are split there, so no rk4 stage
    # reads across one: the refinement MSE is far below the smooth-signal 1e-8
    # level (integrating through the jumps gave 4.0e-6 and 5.1e-6). What is
    # left in motor_a.P, 2.2e-10, is the rk4 error of the fast transient after
    # each jump, which falls fourth order with dt; motor_a.Q's is 7.8e-12.
    coarse = run_simulation(motor_playback_scenario(),
                            IntegratorConfig(dt=1e-3, t_end=5.0)).trajectory
    fine = run_simulation(motor_playback_scenario(),
                          IntegratorConfig(dt=1e-4, t_end=5.0, record_every=10)).trajectory
    for ch, bound in (("motor_a.P", 1e-9), ("motor_a.Q", 1e-10)):
        value = mse(coarse, fine, ch)
        assert value < 1e-5
        assert value < bound


def test_rk4_refinement_of_the_fault_scenario_is_fourth_order():
    # composite_fault's total.P against a 0.125 ms run: halving dt from 1 ms cuts
    # the MSE 294x (6.9e-11 to 2.4e-13), near rk4's 256x. Stepping across the
    # jumps, the error was first order in dt and fell 8x (1.5e-6 to 1.9e-7).
    def run(dt, every):
        return run_simulation(full_composite_scenario(TABLE_PLAYBACK),
                              IntegratorConfig(dt=dt, t_end=2.5, record_every=every)).trajectory

    fine = run(1.25e-4, 8)
    coarse, finer = run(1e-3, 1), run(5e-4, 2)
    assert mse(coarse, fine, "total.P") > 100.0 * mse(finer, fine, "total.P")


def test_split_steps_read_the_bus_on_one_side_of_each_breakpoint():
    # Breakpoints at 1.0 (a grid point), 1.05 (inside the step from 1.0 to 1.125)
    # and 1.5: the steps that touch them are the 4 from 0.875, 1.0, 1.375 and 1.5,
    # and only the one holding 1.05 takes two sub-steps. Every stage reads the bus
    # on its own piece's side of a jump: the step ending at 1.0 never sees the fault.
    seen = []

    def rhs(s, m, v, f):
        seen.append(v)
        return (1.0,)  # the state moves every step: none repeats

    def build(name, weight, dt):
        return Component(name, weight, output=lambda s, m, v, f: (s[0], 0.0), states=("x",),
                         state0=[0.0], rhs=rhs)

    bus = PlaybackBus(a=0.5, b=3.0, c=0.5, d=0.9)
    assert bus.breakpoints() == (1.0, 1.05, 1.5)
    scenario = Scenario(bus, [("zip", 1.0, build)])
    traj = run_simulation(scenario, IntegratorConfig(dt=0.125, t_end=2.0)).trajectory
    assert len(seen) == 1 + 4 * (16 + 1)  # the residual, then 4 rk4 stages a (sub-)step
    assert seen[29:33] == [1.0] * 4  # 0.875 to 1.0: the last stage just before the fault
    assert seen[33:37] == [0.5] * 4  # 1.0 to 1.05: in the fault from its first stage
    assert seen[37] > 1.0999 and min(seen[37:41]) > 1.08  # 1.05 to 1.125: the recovery from 1.1
    assert traj.channel("V")[traj.t == 1.0].tolist() == [0.5]  # rows keep the grid value
    assert traj.channel("zip.x").tolist() == (np.arange(17) * 0.125).tolist()


class CountingBus:
    """A bus that reads inner, recording each call's np.ndim(t): 0 for one time, 1 for a list."""

    def __init__(self, inner):
        self.inner, self.calls = inner, {"voltage": [], "frequency": []}

    def voltage(self, t):
        self.calls["voltage"].append(np.ndim(t))
        return self.inner.voltage(t)

    def frequency(self, t):
        self.calls["frequency"].append(np.ndim(t))
        return self.inner.frequency(t)

    def breakpoints(self):
        return self.inner.breakpoints()


def test_bus_is_read_once_per_block(monkeypatch):
    # Breakpoints at 1.0 and 1.5 (grid points) and 1.05 (inside a step): the blocks of
    # steps 5-9 and 10-14 hold split steps, and still read each signal once.
    monkeypatch.setattr("clm_sim.sim.STEP_BLOCK", 5)
    bus = CountingBus(PlaybackBus(a=0.5, b=3.0, c=0.5, d=0.9))
    scenario = Scenario(bus, [("zip", 1.0, zip_component(ZIP, 1.0, 1.0))])
    run_simulation(scenario, IntegratorConfig(dt=0.125, t_end=2.0))  # 16 steps, 17 rows
    assert bus.calls == {"voltage": [0, 1, 1, 1, 1], "frequency": [0, 1, 1, 1, 1]}


@pytest.mark.parametrize("block", [9, 250])
def test_split_step_never_starts_a_run_of_repeats(monkeypatch, block):
    # x stays at its fixed point 0 until t = 1.125: V = 1 at every stage time but the
    # midpoints 1.0625 and 1.1875 of steps 8 and 9. Step 8 is split at its midpoint, so
    # none of its stages sees the 0.5 there, and it leaves x at 0. Step 9's grid inputs
    # equal step 8's, yet it must be computed: its midpoint stages read 0.5. With a block
    # of 9, step 8 ends the first block and step 9 starts the next.
    monkeypatch.setattr("clm_sim.sim.STEP_BLOCK", block)

    class SpikeBus:
        def voltage(self, t):
            return np.where(np.isin(t, (1.0625, 1.1875)), 0.5, 1.0).tolist()

        def frequency(self, t):
            return np.ones(np.shape(t)).tolist()

        def breakpoints(self):
            return (1.0625,)

    def build(name, weight, dt):
        return Component(name, weight, output=lambda s, m, v, f: (s[0], 0.0), states=("x",),
                         state0=[0.0], rhs=lambda s, m, v, f: (1.0 - v,))

    scenario = Scenario(SpikeBus(), [("zip", 1.0, build)])
    traj = run_simulation(scenario, IntegratorConfig(dt=0.125, t_end=2.0)).trajectory
    assert traj.channel("zip.x")[traj.t == 1.25].tolist() == [1.0 / 24.0]


class WithoutHeld:
    """inner without its held(): the stepper reads it at every time."""

    def __init__(self, inner):
        self.inner = inner

    def voltage(self, t):
        return self.inner.voltage(t)

    def frequency(self, t):
        return self.inner.frequency(t)

    def breakpoints(self):
        return self.inner.breakpoints()


class CountingHeld(WithoutHeld):
    """inner with its held(), counting the calls that found a held stretch."""

    hits = 0

    def held(self, lo, hi):
        vf = self.inner.held(lo, hi)
        self.hits += vf is not None
        return vf


class HeldBeforeTheFault(WithoutHeld):
    """A bus that wrongly claims to hold its pre-fault value everywhere."""

    def held(self, lo, hi):
        return 1.0, self.inner.freq


def _read_bits(bus, method, dt, i0, n, last):
    """_read_bus's (t, vf, plans, changed, last, bad), every float as its bytes."""
    t, vf, plan, changed, last, bad = _read_bus(bus, _STEPPERS[method][0],
                                                sorted(bus.breakpoints()), dt, i0, n, last)
    return ([struct.pack(f"{len(x)}d", *x) for x in (t, *vf, *plan)], changed, last, bad)


HELD_BUSES = {
    "fault": PlaybackBus(a=0.8, b=5.0, c=1.0, d=0.9),
    "ramp": PlaybackBus(a=0.5, b=12.0, c=0.3, d=0.7, shape="ramp", freq=1.01),
    "constant": ConstantBus(v=0.95, freq=0.99),
}


@pytest.mark.parametrize("name", sorted(HELD_BUSES))
def test_a_held_read_equals_the_read_at_every_time(name):
    # Blocks anywhere on [0, 3] s, of any length and step, after the block before them, after
    # none or after a block elsewhere: the held read's plans, change mask, boundary values
    # and last equal the read of every time bit for bit.
    rng, bus = random.Random(16), CountingHeld(HELD_BUSES[name])
    for _ in range(400):
        method, dt = rng.choice(INTEGRATION_METHODS), rng.choice([1e-3, 1 / 120, 0.0123, 0.05])
        i0, n = rng.randrange(1, int(3.0 / dt)), rng.randrange(251)
        before = rng.choice([i0, 0, rng.randrange(1, int(3.0 / dt))])  # the end of that block
        back = rng.randrange(1, min(before, 250) + 1) if before else 0
        last = _read_bits(WithoutHeld(bus.inner), method, dt, before - back, back, b"")[2]
        assert (_read_bits(bus, method, dt, i0, n, last)
                == _read_bits(WithoutHeld(bus.inner), method, dt, i0, n, last)), (method, dt, i0, n)
    assert bus.hits > 100


def test_a_bus_that_claims_a_wrong_held_stretch_reads_otherwise():
    # The comparison above catches a wrong held(): a block inside the fault read as held
    # at 1 pu differs from the read at every time.
    bus = HELD_BUSES["fault"]
    assert (_read_bits(HeldBeforeTheFault(bus), "rk4", 1e-3, 1005, 50, b"")
            != _read_bits(WithoutHeld(bus), "rk4", 1e-3, 1005, 50, b""))


@pytest.mark.parametrize("name", sorted(HELD_BUSES))
def test_a_run_reads_held_blocks_as_it_reads_every_time(monkeypatch, name):
    # Whole runs, blocks of 7 to 40 steps, decimated or not: the trajectories and summaries
    # are equal bit for bit with and without the held read.
    rng = random.Random(name)
    for _ in range(3):
        monkeypatch.setattr("clm_sim.sim.STEP_BLOCK", rng.randrange(7, 41))
        config = IntegratorConfig(method=rng.choice(INTEGRATION_METHODS),
                                  dt=rng.choice([5e-4, 1e-3]), t_end=2.5,
                                  record_every=rng.randrange(1, 9))
        held, every = [run_simulation(build_scenario(LoadMix(f_a=0.5, f_zip=0.5), bus, {
            "motor_a": MotorSection(preset="motor_a", p0=0.8), "zip": ZIP}), config)
            for bus in (HELD_BUSES[name], WithoutHeld(HELD_BUSES[name]))]
        assert held.trajectory.data.tobytes() == every.trajectory.data.tobytes()
        assert held.summary == every.summary


def test_euler_and_heun_agree_with_rk4_in_the_limit():
    bus = SmoothDipBus()
    ref = run_simulation(full_composite_scenario(bus),
                         IntegratorConfig(method="rk4", dt=1e-4, t_end=1.0,
                                          record_every=10)).trajectory
    for method, tol in (("euler", 5e-3), ("heun", 1e-4)):
        approx = run_simulation(full_composite_scenario(bus),
                                IntegratorConfig(method=method, dt=1e-4, t_end=1.0,
                                                 record_every=10)).trajectory
        assert _channel_error(approx, ref) < tol


def test_build_scenario_rejects_an_unknown_component_name():
    sections = {"motor_d": MotorSection(preset="motor_a", p0=0.8), "zip": ZIP}
    with pytest.raises(ConfigError, match="unknown component.*'motor_d'"):
        build_scenario(LoadMix(f_zip=1.0), ConstantBus(), sections)


@pytest.mark.parametrize("section, got", [
    ({"preset": "motor_a", "p0": 0.8}, "dict"),  # the YAML mapping, not its parsed section
    (DeraSection(preset="dera_table3", pgen0=0.5), "DeraSection"),
], ids=["mapping", "der_section"])
def test_build_scenario_refuses_a_section_of_the_wrong_class(section, got):
    with pytest.raises(ConfigError, match=rf"^motor_a needs a MotorSection, got {got} "
                                          r"\(field: motor_a\)$"):
        build_scenario(LoadMix(f_a=1.0), ConstantBus(), {"motor_a": section})


def test_build_scenario_names_the_mix_key_of_an_unconfigured_motor():
    sections = {"motor_a": MotorSection(preset="motor_a", p0=0.8)}
    with pytest.raises(ConfigError, match=r"^mix\.f_b is 0\.5 but motor_b is not configured "
                                          r"\(field: motor_b\)$"):
        build_scenario(LoadMix(f_a=0.5, f_b=0.5), ConstantBus(), sections)


# ----------------------------------------------------------------- trip logic

def test_frequency_trip_zeroes_dera_output_in_simulation():
    der = DeraSection(preset="dera_table3", overrides={"fl": 0.98, "tfl": 0.1},
                      pgen0=0.5, qgen0=0.1)
    zero_zip = dataclasses.replace(ZIP, p0=0.0, q0=0.0)  # a zero-power ZIP
    scenario = build_scenario(
        LoadMix(f_zip=1.0, der_scale=1.0),
        StepFrequencyBus(f_after=0.97, t_step=0.5),
        {"dera": der, "zip": zero_zip},
    )
    dt = 1e-3
    result = run_simulation(scenario, IntegratorConfig(dt=dt, t_end=1.0))
    traj = result.trajectory

    # Condition first holds at the end-of-step update at t = 0.5; the latch
    # lands ceil(tfl/dt) updates later.
    latch_index = 500 + math.ceil(der.params().tfl / dt) - 1
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
    deep = PlaybackBus(a=0.45, b=30.0, c=1.0, d=0.9)
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
        run_simulation(scenario, IntegratorConfig(method="euler", dt=0.01, t_end=20.0))
    assert exc_info.value.step is not None


def test_record_every_decimates_grid():
    traj = run_simulation(motor_playback_scenario(), IntegratorConfig(dt=1e-3, t_end=1.0,
                                                                      record_every=10)).trajectory
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


def test_step_count_bound_in_integrator_config():
    # The bound parse_integrator reports on integrator.t_end holds for configs built in Python.
    assert IntegratorConfig(dt=1e-3, t_end=1e4).t_end == 1e4  # 10**7 steps
    for kwargs in ({"t_end": 1e300}, {"dt": 1e-300}, {"dt": 1e-3, "t_end": 10000.001}):
        with pytest.raises(ValueError, match=r"more than 10000000$"):
            IntegratorConfig(**kwargs)


def test_run_of_zero_steps_is_refused_by_integrator_config():
    # run_simulation takes int(round(t_end / dt)) steps; round(0.5) is 0.
    assert IntegratorConfig(dt=1e-3, t_end=0.0006).t_end == 0.0006  # 1 step
    for t_end in (0.0004, 0.0005, 1e-300):
        with pytest.raises(ValueError, match=r"steps, which rounds to 0$"):
            IntegratorConfig(dt=1e-3, t_end=t_end)


@pytest.mark.parametrize("every", [0, -3, 1.5, 2.0, True])
def test_record_every_must_be_an_int(every):
    # 2.0 and True equal whole numbers but would fail later, when the run slices by them.
    with pytest.raises(ValueError, match=r"record_every must be an integer >= 1, got "):
        IntegratorConfig(record_every=every)


def _inf():
    return math.inf


def _overflow():
    return math.exp(1000.0)  # OverflowError, as a plain-float stage raises it


def _failing_at(step, error=_inf):
    """A builder of a component with state x whose derivative is 0 until step `step`, then error().

    Its memory counts the steps done, so it fails at that step under every method.
    """
    def rhs(s, m, v, f):
        return (0.0 if m[0] < step - 1 else error(),)

    def build(name, weight, dt):
        return Component(name, weight, output=lambda s, m, v, f: (s[0], 0.0), states=("x",),
                         state0=[0.0], rhs=rhs, memory0=(0,),
                         advance=lambda m, v, f: ((m[0] + 1,), ()))
    return build


def _two_failing(bus, a_step, b_step, b_error=_inf) -> Scenario:
    parts = [("motor_a", 0.5, _failing_at(a_step)), ("motor_b", 0.5, _failing_at(b_step, b_error))]
    return Scenario(bus, parts)


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("a_step, b_step, b_error, named", [
    (18, 13, _inf, "motor_b"),  # both in the block of steps 10-19, motor_b earlier
    (21, 19, _inf, "motor_b"),  # motor_b fails a block before motor_a
    (11, 10, _inf, "motor_b"),  # motor_b fails at the last step of a block
    (15, 15, _inf, "motor_a"),  # the same step: the first in channel order
    (15, 15, _overflow, None),  # the same step: a stage overflow names no channel
    (15, 16, _overflow, "motor_a"),
])
def test_earliest_failing_step_is_reported(monkeypatch, method, a_step, b_step, b_error, named):
    monkeypatch.setattr("clm_sim.sim.STEP_BLOCK", 10)
    scenario = _two_failing(ConstantBus(), a_step, b_step, b_error)
    with pytest.raises(NonFiniteState) as exc_info:
        run_simulation(scenario, IntegratorConfig(method=method, dt=0.125, t_end=5.0))
    step = min(a_step, b_step)
    message = str(exc_info.value)
    if named:
        assert message.endswith(f" at t = {step * 0.125:g} s, first in {named}.x (step {step})")
    else:
        assert message.endswith("too large a step) (step 15)")


class NanFromHalfSecondBus:
    """V = 1 before t = 0.5 s and nan from then on."""

    def voltage(self, t):
        return np.where(np.asarray(t) >= 0.5, math.nan, 1.0).tolist()

    def frequency(self, t):
        return np.ones(np.shape(t)).tolist()


@pytest.mark.parametrize("block", [3, 1000])
@pytest.mark.parametrize("method, b_step, error", [
    # rk4 reads t = 0.5 first in step 4 (its last stage), euler in step 5.
    ("rk4", 3, NonFiniteState), ("rk4", 4, NonFiniteInput), ("rk4", 9, NonFiniteInput),
    ("euler", 4, NonFiniteState), ("euler", 5, NonFiniteInput), ("euler", 9, NonFiniteInput),
])
def test_non_finite_bus_is_reported_unless_a_state_failed_before(monkeypatch, block, method,
                                                                 b_step, error):
    monkeypatch.setattr("clm_sim.sim.STEP_BLOCK", block)
    scenario = _two_failing(NanFromHalfSecondBus(), 10**6, b_step)
    with pytest.raises(error) as exc_info:
        run_simulation(scenario, IntegratorConfig(method=method, dt=0.125, t_end=2.0))
    if error is NonFiniteInput:
        assert str(exc_info.value) == "the bus gave a non-finite input at t = 0.5"
    else:
        assert str(exc_info.value).endswith(f"first in motor_b.x (step {b_step})")


class NanJustAfterHalfSecondBus:
    """V = 1 but nan on (0.5, 0.501), just after its breakpoint at 0.5 s: no grid stage is there."""

    def voltage(self, t):
        t = np.asarray(t)
        return np.where((t > 0.5) & (t < 0.501), math.nan, 1.0).tolist()

    def frequency(self, t):
        return np.ones(np.shape(t)).tolist()

    def breakpoints(self):
        return (0.5,)


@pytest.mark.parametrize("block", [3, 1000])
@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("b_step, error", [
    # The step from t = 0.5 (step 5) reads the bus first at nextafter(0.5, inf).
    (4, NonFiniteState), (5, NonFiniteInput), (10**6, NonFiniteInput),
])
def test_non_finite_bus_at_a_split_stage_is_reported(monkeypatch, block, method, b_step, error):
    monkeypatch.setattr("clm_sim.sim.STEP_BLOCK", block)
    scenario = _two_failing(NanJustAfterHalfSecondBus(), 10**6, b_step)
    with pytest.raises(error) as exc_info:
        run_simulation(scenario, IntegratorConfig(method=method, dt=0.125, t_end=2.0))
    if error is NonFiniteInput:
        assert str(exc_info.value) == "the bus gave a non-finite input at t = 0.5000000000000001"
    else:
        assert str(exc_info.value).endswith(f"first in motor_b.x (step {b_step})")


# ------------------------------------------------------------ repeated steps

def _one_state_scenario(rhs, x0: float) -> Scenario:
    """One custom component with state x (P = x) in the zip slot, on a flat bus."""
    def build(name, weight, dt):
        return Component(name, weight, output=lambda s, m, v, f: (s[0], 0.0), states=("x",),
                         state0=[x0], rhs=rhs)
    return Scenario(ConstantBus(), [("zip", 1.0, build)])


@pytest.mark.parametrize("method", ["rk4", "heun", "euler"])
def test_signed_zero_state_change_is_computed(method):
    # -0.0 + dt * 0.0 is +0.0: the first step changes the state's bits, not its value.
    scenario = _one_state_scenario(lambda s, m, v, f: (0.0,), -0.0)
    config = IntegratorConfig(method=method, dt=1e-3, t_end=0.1)
    x = run_simulation(scenario, config).trajectory.channel("zip.x")
    assert math.copysign(1.0, x[0]) == -1.0
    assert [math.copysign(1.0, v) for v in x[1:]] == [1.0] * 100


def test_fixed_point_on_a_flat_bus_is_not_recomputed():
    calls = []

    def rhs(s, m, v, f):
        calls.append(s[0])
        return (0.0,)

    result = run_simulation(_one_state_scenario(rhs, 0.5), IntegratorConfig(dt=1e-3, t_end=1.0))
    assert len(calls) <= 12  # every step computed: 4,001 (residual and 4 rk4 stages a step)
    traj = result.trajectory
    assert traj.t.tobytes() == (np.arange(1001) * 1e-3).tobytes()
    assert (traj.channel("zip.x") == 0.5).all() and (traj.channel("total.P") == 0.5).all()


def test_run_logs_repeated_steps_and_keeps_summary(caplog):
    with caplog.at_level(logging.INFO, logger="clm_sim.sim"):
        result = run_simulation(motor_playback_scenario(), IntegratorConfig(dt=1e-3, t_end=2.0))
    [message] = [r.getMessage() for r in caplog.records if r.name == "clm_sim.sim"]
    match = re.fullmatch(r"repeated (\d+) of 2000 steps at a fixed point", message)
    assert match and 0 < int(match.group(1)) < 2000
    assert list(result.summary) == ["method", "dt", "t_end_requested", "t_end_actual", "steps",
                                    "samples", "initial_residuals", "trip_events",
                                    "limiter_activity"]


def test_scenario_runs_twice_to_the_same_result():
    # The stepper starts every memory afresh: a run after another, at another dt, repeats
    # the first bit for bit, DER dwell timer expiry and electronic-load minimum included.
    scenario = full_composite_scenario(PlaybackBus(a=0.45, b=30, c=1, d=0.9))
    first, _, again = (run_simulation(scenario, IntegratorConfig(dt=dt, t_end=3.0))
                       for dt in (1e-3, 5e-4, 1e-3))
    assert first.summary["trip_events"] == [{"type": "low_voltage_dwell_expired", "t": 1.159}]
    assert first.trajectory.channel("elec.ct").min() < 1.0
    assert first.trajectory.data.tobytes() == again.trajectory.data.tobytes()
    assert first.trajectory.channels == again.trajectory.channels
    assert first.summary == again.summary
