"""Bit-identity guard: run_simulation against a straight array-based stepper.

The reference below is the stepping loop in its array form: numpy state
vectors, the components of Scenario.components(dt) called one model
evaluation at a time (rhs, output, flags, advance), every step computed,
and the rk4/heun/euler steps written on arrays. A step whose closed
interval holds one of the bus's breakpoints is taken as one array step per
piece between its interior breakpoints, each stage reading the bus at its
time clamped to just inside its piece. run_simulation works on
plain floats per component, a block of steps at a time, and skips the steps
that repeat; it must reproduce the reference's channel names, recorded
data, initial residuals, limiter counts and trip events, the data bit for
bit. The reference builds its own scenario from the sections passed to
build_scenario, and finds the trip events from the DER_A memory itself.
"""

import dataclasses
from collections import Counter
from operator import mul
from pathlib import Path

import numpy as np
import pytest

from clm_sim.composite import PlaybackBus
from clm_sim.config import build_scenario, load_config
from clm_sim.dera import TIMER_EPS, DerATrackers
from clm_sim.sim import _STEPPERS, IntegratorConfig, _step, run_simulation

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
METHODS = ("rk4", "heun", "euler")
T_END = 1.5


def _rk4_step(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _heun_step(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + h, y + h * k1)
    return y + 0.5 * h * (k1 + k2)


def _euler_step(f, t, y, h):
    return y + h * f(t, y)


STEPPERS = {"rk4": _rk4_step, "heun": _heun_step, "euler": _euler_step}


@pytest.mark.parametrize("method", METHODS)
def test_written_out_steps_match_array_steps(method):
    # Widths 1 to 12 on a linear rhs whose bus voltage is the stage time: a plan of 1, 2 or 3
    # pieces, written out for n states, gives the array-form steps taken piece by piece, each
    # from the states the one before left, bit for bit, -0.0 included.
    rng = np.random.default_rng(16)
    stages = _STEPPERS[method][0]
    for n in range(1, 13):
        a, b = rng.standard_normal((n, n)).tolist(), rng.standard_normal(n).tolist()

        def rhs(y, m, v, f):
            return [sum(map(mul, row, y)) + v * c for row, c in zip(a, b)]

        def array_rhs(t, y):
            return np.array(rhs(y.tolist(), (), t, 1.0))

        for pieces in (1, 2, 3):
            for _ in range(20):
                y, t = rng.standard_normal(n), float(rng.uniform(0.0, 5.0))
                y[rng.integers(n)] = -0.0
                plan, want = [], y
                for h in (10.0 ** rng.uniform(-4.0, 0.0, pieces)).tolist():
                    plan += [h, *(x for stage in stages for x in (t + stage * h, 1.0))]
                    want = STEPPERS[method](array_rhs, t, want, h)
                    t += h
                got = np.array(_step(method, n)(rhs, y.tolist(), (), plan))
                assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert _step(method, n) is _step(method, n)


MOTOR_STATES = ("Eqp", "Edp", "Eqpp", "Edpp", "slip")
CHANNELS = {  # each component's channels after its name, in order
    **dict.fromkeys(("motor_a", "motor_b", "motor_c"), (*MOTOR_STATES, "P", "Q")),
    "dera": (*(f"S{i}" for i in range(10)), "P", "Q", "tripped"),
    "zip": ("P", "Q"),
    "elec": ("P", "Q", "ct"),
}


def scenario_inputs(cfg):
    """build_scenario's arguments (mix, bus, sections by component name) for a parsed config."""
    return {"mix": cfg.mix, "bus": cfg.disturbance, "sections": cfg.components}


def reference_run(inputs, config):
    """(channels, data, initial residuals, limiter counts, trip events) of the array-form loop.

    inputs are build_scenario's arguments by name.
    """
    dt = config.dt
    n_steps = int(round(config.t_end / dt))
    step = STEPPERS[config.method]
    bus, mix = inputs["bus"], inputs["mix"]
    weights = {"motor_a": mix.f_a, "motor_b": mix.f_b, "motor_c": mix.f_c,  # not from the table
               "dera": -mix.der_scale, "zip": mix.f_zip, "elec": mix.f_elec}
    breaks = sorted(map(float, getattr(bus, "breakpoints", tuple)()))
    scenario = build_scenario(**inputs)
    comps = scenario.components(dt)

    def bus_at(t):  # (V, F) at one time
        return float(bus.voltage(t)), float(bus.frequency(t))

    v0, f0 = bus_at(0.0)
    channels = ["t", "V", "Freq", *(f"{c.name}.{x}" for c in comps for x in CHANNELS[c.name]),
                "total.P", "total.Q"]
    residuals = {c.name: float(np.max(np.abs(c.rhs(list(c.state0), c.memory0, v0, f0))))
                 for c in comps if c.states}

    # Each component's slice of the joint state vector, and its memory.
    ends = np.cumsum([len(c.states) for c in comps]).tolist()
    parts = [slice(end - len(c.states), end) for c, end in zip(comps, ends)]
    y = np.array([x for c in comps for x in c.state0], dtype=float)
    mems = [c.memory0 for c in comps]

    def rhs(t, yv):
        v, f = bus_at(t)
        return np.array([x for c, part, m in zip(comps, parts, mems)
                         for x in c.rhs(yv[part].tolist(), m, v, f)])

    def record(t, yv):
        v, f = bus_at(t)
        row, P, Q = [t, v, f], 0.0, 0.0
        for c, part, m in zip(comps, parts, mems):
            out = c.output(yv[part].tolist(), m, v, f)
            row += list(yv[part]) + list(out)
            P += weights[c.name] * out[0]
            Q += weights[c.name] * out[1]
        return row + [P, Q]

    der = inputs["sections"].get("dera")
    params = der and der.params()  # made once: the dwell checks below run every step

    def expired(mem):
        trk = DerATrackers(*mem)
        return (trk.low_v_timer >= params.tvl1 - TIMER_EPS,
                trk.high_v_timer >= params.tvh1 - TIMER_EPS)

    rows, counts, events = [], Counter(), []
    for i in range(n_steps + 1):
        t = i * dt
        if i % config.record_every == 0:
            rows.append(record(t, y))
        for c, part in zip(comps, parts):
            counts.update({f"{c.name}.{name}": int(active)
                           for name, active in zip(c.flag_names, c.flags(y[part].tolist()))})
        if i == n_steps:
            break
        t_next = (i + 1) * dt
        if any(t <= b <= t_next for b in breaks):
            ends = [t, *(b for b in breaks if t < b < t_next), t_next]
            for lo, hi in zip(ends, ends[1:]):  # the one-sided limits at each end
                inside = (np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf))
                y = step(lambda s, yv: rhs(float(np.clip(s, *inside)), yv), lo, y, hi - lo)
        else:
            y = step(rhs, t, y, dt)
        v_next, f_next = bus_at(t_next)
        for k, c in enumerate(comps):
            if c.advance is None:
                continue
            prev = mems[k]
            mems[k] = c.advance(prev, v_next, f_next)[0]
            if c.name == "dera":
                (lo0, hi0), (lo1, hi1) = expired(prev), expired(mems[k])
                if DerATrackers(*mems[k]).tripped and not DerATrackers(*prev).tripped:
                    events.append({"type": "frequency_trip", "t": t_next})
                if lo1 and not lo0:
                    events.append({"type": "low_voltage_dwell_expired", "t": t_next})
                if hi1 and not hi0:
                    events.append({"type": "high_voltage_dwell_expired", "t": t_next})
    return channels, np.array(rows), residuals, dict(sorted(counts.items())), events


def _assert_bit_identical(inputs, config, scenario=None):
    """Check run_simulation against the reference, on the scenario given or built from inputs."""
    channels, data, residuals, counts, events = reference_run(inputs, config)
    result = run_simulation(scenario or build_scenario(**inputs), config)
    got = result.trajectory.data
    assert result.trajectory.channels == channels
    assert got.shape == data.shape
    assert got.tobytes() == data.tobytes()
    assert result.summary["initial_residuals"] == residuals
    assert result.summary["limiter_activity"] == counts
    assert result.summary["trip_events"] == events
    return result


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", ["composite_fault", "dera_playback", "motor_a_playback"])
def test_bundled_scenarios_match_reference_stepper(name, method):
    cfg = load_config(SCENARIOS / f"{name}.yaml")
    config = dataclasses.replace(cfg.integrator, method=method, t_end=T_END)
    _assert_bit_identical(scenario_inputs(cfg), config)


class DeepFaultFrequencyStepBus:
    """A deep, long playback dip after an over-frequency step."""

    playback = PlaybackBus(a=0.45, b=30.0, c=1.0, d=0.9)

    def voltage(self, t):
        return self.playback.voltage(t)

    def frequency(self, t):
        return np.where(np.asarray(t) >= 0.3, 1.02, 1.0).tolist()


@pytest.mark.parametrize("method", METHODS)
def test_dera_branch_variant_matches_reference_stepper(method):
    # Frequency control on, P priority and constant-Q control: branches the
    # bundled scenarios never reach. The frequency step drives the droop and
    # the rate-limited power order S7; the dip expires the low-voltage dwell.
    cfg = load_config(SCENARIOS / "dera_playback.yaml")
    der = dataclasses.replace(cfg.components["dera"],
                              overrides={"Freqflag": 1, "PQflag": 1, "PfFlag": 0})
    inputs = {"mix": cfg.mix, "bus": DeepFaultFrequencyStepBus(),
              "sections": {"dera": der, "zip": cfg.components["zip"]}}
    config = dataclasses.replace(cfg.integrator, method=method, t_end=T_END)
    result = _assert_bit_identical(inputs, config)
    kinds = [e["type"] for e in result.summary["trip_events"]]
    assert kinds == ["low_voltage_dwell_expired"]
    s7 = result.trajectory.channel("dera.S7")
    assert s7.max() - s7.min() > 0.1


def test_record_every_matches_reference_stepper():
    cfg = load_config(SCENARIOS / "composite_fault.yaml")
    config = IntegratorConfig(method="rk4", dt=1e-3, t_end=0.5, record_every=7)
    _assert_bit_identical(scenario_inputs(cfg), config)


def test_dwell_timer_moving_under_a_settled_state_matches_reference_stepper():
    # A 3 s dip to 0.47 pu: the DER state settles to a bit-exact fixed point
    # while its low-voltage dwell timer still counts every step. Steps whose
    # state repeats but whose memory moved must be computed; repeating them
    # would stop the timer and lose the dwell expiry at t = 1 + tvl1.
    cfg = load_config(SCENARIOS / "dera_playback.yaml")
    der = dataclasses.replace(cfg.components["dera"], overrides={"tvl0": 1.5, "tvl1": 1.5})
    bus = PlaybackBus(a=0.47, b=180.0, c=3.5, d=0.9)
    inputs = {"mix": cfg.mix, "bus": bus,
              "sections": {"dera": der, "zip": cfg.components["zip"]}}
    config = dataclasses.replace(cfg.integrator, method="rk4", t_end=5.0)
    result = _assert_bit_identical(inputs, config)
    assert result.summary["trip_events"] == [{"type": "low_voltage_dwell_expired", "t": 2.499}]
    data = result.trajectory.data
    t = data[1:, 0]
    same_as_last = (data[1:, 1:].view(np.uint64) == data[:-1, 1:].view(np.uint64)).all(axis=1)
    assert same_as_last[(t > 1.0) & (t < 2.499)].sum() >= 500


def test_expired_dwell_timer_lets_a_settled_der_repeat_its_steps():
    # A 3 s dip to 0.45 pu expires the low-voltage dwell at t = 1 + tvl1. The expired
    # timer holds its value, so once the DER state settles bit for bit in the dip its
    # steps repeat until the dip ends at t = 4 s; a timer still counting moves the memory
    # and makes every one of them a computed step.
    cfg = load_config(SCENARIOS / "dera_playback.yaml")
    params = cfg.components["dera"].params()
    inputs = dict(scenario_inputs(cfg), bus=PlaybackBus(a=0.45, b=180.0, c=3.5, d=0.9))
    starts = []  # (memory, V at the step's end) of each computed DER step

    def counted(build):
        def counted_build(name, weight, dt):
            c = build(name, weight, dt)

            def advance(m, v, f):
                starts.append((m, v))
                return c.advance(m, v, f)
            return dataclasses.replace(c, advance=advance)
        return counted_build

    scenario = build_scenario(**inputs)
    scenario.parts = [(name, weight, counted(build) if name == "dera" else build)
                      for name, weight, build in scenario.parts]
    config = dataclasses.replace(cfg.integrator, method="rk4", t_end=4.5)
    result = _assert_bit_identical(inputs, config, scenario)
    assert result.summary["trip_events"] == [{"type": "low_voltage_dwell_expired", "t": 1.159}]
    in_dip = [m for m, v in starts if DerATrackers(*m).low_v_timer >= params.tvl1 - TIMER_EPS
              and v < params.Vl1]
    dip_steps = round((4.0 - 1.159) / config.dt)  # the steps from the expiry to the dip's end
    assert len({DerATrackers(*m).low_v_timer for m in in_dip}) == 1  # held
    assert len(in_dip) <= dip_steps - 1000


def test_high_voltage_dwell_expiry_matches_reference_stepper():
    # The verbatim recovery after a 5-cycle dip to 0.8 pu starts at 1 + (1 - d) = 1.2 pu,
    # above Vh1 = 1.15 until t = 1.81 s: the high-voltage dwell expires at the end of the
    # ceil(tvh1 / dt)-th step ending above Vh1 after clearing, once. (The bus-derived dwell
    # instants of ROADMAP item 10 will move the event to 1 + 5/60 + 0.16 s.)
    cfg = load_config(SCENARIOS / "dera_playback.yaml")
    inputs = dict(scenario_inputs(cfg), bus=PlaybackBus(a=0.8, b=5.0, c=3.0, d=0.8))
    config = dataclasses.replace(cfg.integrator, t_end=T_END)
    result = _assert_bit_identical(inputs, config)
    assert result.summary["trip_events"] == [{"type": "high_voltage_dwell_expired", "t": 1.243}]


def test_record_every_with_a_fixed_point_between_samples_matches_reference_stepper():
    # motor_a settles bit for bit again some 1.3 s after the fault, at a step
    # that need not be a recorded one; the repeated samples after it must
    # still be its own.
    cfg = load_config(SCENARIOS / "motor_a_playback.yaml")
    config = IntegratorConfig(method="rk4", dt=1e-3, t_end=5.0, record_every=7)
    data = _assert_bit_identical(scenario_inputs(cfg), config).trajectory.data
    late = data[data[:, 0] > 2.0, 1:]
    assert (late[1:].view(np.uint64) == late[:-1].view(np.uint64)).all(axis=1).sum() > 300


def test_components_settling_at_different_steps_match_reference_stepper(monkeypatch):
    # The recovery ramp ends at t = 1.2 s and the bus is flat after it: each component
    # reaches its bit-exact fixed point at its own step and stops computing there while
    # the others still move. With blocks of 97 steps the block edges fall inside both
    # repeated and computed stretches.
    monkeypatch.setattr("clm_sim.sim.STEP_BLOCK", 97)
    cfg = load_config(SCENARIOS / "composite_fault.yaml")
    inputs = dict(scenario_inputs(cfg), bus=dataclasses.replace(cfg.disturbance, c=0.2))
    calls = Counter()

    def counted(build):  # the builder, with each component's rhs calls counted
        def counted_build(name, weight, dt):
            c = build(name, weight, dt)

            def rhs(s, m, v, f):
                calls[name] += 1
                return c.rhs(s, m, v, f)
            return dataclasses.replace(c, rhs=rhs)
        return counted_build

    scenario = build_scenario(**inputs)
    scenario.parts = [(name, weight, counted(build)) for name, weight, build in scenario.parts]
    config = IntegratorConfig(method="rk4", dt=1e-3, t_end=4.0, record_every=7)
    _assert_bit_identical(inputs, config, scenario)
    # The computed steps of each component: one residual call, then 4 rk4 stages a step.
    # A joint skip would compute them all at the same steps.
    steps = {name: (n - 1) // 4 for name, n in calls.items()}
    assert set(steps) == {"motor_a", "motor_b", "motor_c", "dera"}
    assert min(steps.values()) < max(steps.values()) - 1000


@pytest.mark.parametrize("block", [3, 1000])
@pytest.mark.parametrize("t_end", [1.95, 2.1])
def test_limiter_counts_across_blocks_and_repeats_match_reference_stepper(monkeypatch, block,
                                                                         t_end):
    # A 1 s dip to 0.55 pu under a DER at 0.8 pu: its active current command goes onto its
    # limit at t = 1.027 s, its state settles bit for bit before the dip ends at t = 2 s, so
    # the flag stays raised through a skip of repeated steps, and it drops at t = 2.006 s.
    # With 3-step blocks both switches fall inside a block; with 1000-step blocks the skip
    # runs over a block edge. A run ending at 1.95 s ends inside the skip, the flag raised.
    # The counts must be the reference's step-by-step ones.
    monkeypatch.setattr("clm_sim.sim.STEP_BLOCK", block)
    cfg = load_config(SCENARIOS / "dera_playback.yaml")
    der = dataclasses.replace(cfg.components["dera"], pgen0=0.8)
    inputs = {"mix": cfg.mix, "bus": PlaybackBus(a=0.55, b=60.0, c=1.5, d=0.9),
              "sections": {"dera": der, "zip": cfg.components["zip"]}}
    result = _assert_bit_identical(inputs, dataclasses.replace(cfg.integrator, t_end=t_end))
    last = min(2006, round(t_end * 1000) + 1)  # the step after the last one flagged
    assert result.summary["limiter_activity"]["dera.ip_command_limit"] == last - 1027
    traj = result.trajectory
    s = np.column_stack([traj.channel(f"dera.S{i}") for i in range(10)]).view(np.uint64)
    repeats = (s[1:] == s[:-1]).all(axis=1)
    assert repeats[(traj.t[1:] > 1.9) & (traj.t[1:] <= min(t_end, 2.0))].all()
