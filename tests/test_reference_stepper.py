"""Bit-identity guard: run_simulation against a straight array-based stepper.

The reference below is the stepping loop in its array form: numpy state
vectors, one public per-component function per model evaluation
(motor_derivatives, dera_derivatives, motor_algebra, dera_limiter_flags,
advance_trackers, ...) and the rk4/heun/euler steps written on arrays.
run_simulation works on plain floats through its component list; it must
reproduce the reference's channel names, recorded data, initial
residuals, limiter counts and trip events, the data bit for bit. The
reference initialises the components itself from build_scenario's
arguments.
"""

import dataclasses
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from clm_sim.composite import PlaybackParams, composite_outputs, playback_voltage
from clm_sim.config import load_config
from clm_sim.dera import (
    TIMER_EPS,
    DerAState,
    advance_trackers,
    dera_derivatives,
    dera_initialize,
    dera_limiter_flags,
    dera_outputs,
)
from clm_sim.motor3 import MotorState, motor_algebra, motor_derivatives, motor_initialize
from clm_sim.sim import IntegratorConfig, build_scenario, run_simulation
from clm_sim.staticloads import elec_power, elec_tracker_init, elec_tracker_update, zip_power

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


MOTOR_STATES = ("Eqp", "Edp", "Eqpp", "Edpp", "slip")


def scenario_inputs(cfg):
    """build_scenario's keyword arguments for a parsed config."""
    return {
        "mix": cfg.mix,
        "bus": cfg.disturbance.make_bus(),
        "motor_loads": {name: (sec.params(), sec.p0, sec.q0) for name, sec in cfg.motors.items()},
        "dera_load": (cfg.dera.params(), cfg.dera.pgen0, cfg.dera.qgen0) if cfg.dera else None,
        "zip_load": cfg.zip_load,
        "elec_load": cfg.elec,
    }


def reference_run(inputs, config):
    """(channels, data, initial residuals, limiter counts, trip events) of the array-form loop.

    inputs are build_scenario's keyword arguments; the components are
    initialised here with motor_initialize and dera_initialize.
    """
    dt = config.dt
    n_steps = int(round(config.t_end / dt))
    step = STEPPERS[config.method]
    bus, mix = inputs["bus"], inputs["mix"]
    zip_load, elec = inputs.get("zip_load"), inputs.get("elec_load")
    v0, f0 = bus.voltage(0.0), bus.frequency(0.0)
    motors, der = [], None
    motor_loads = inputs.get("motor_loads") or {}
    for name in ("motor_a", "motor_b", "motor_c"):
        if name in motor_loads:
            params, p0, q0 = motor_loads[name]
            state0, init = motor_initialize(p0, q0, v0, 0.0, params)
            motors.append(SimpleNamespace(name=name, params=params, state0=state0, init=init))
    if inputs.get("dera_load"):
        params, pgen0, qgen0 = inputs["dera_load"]
        state0, refs, trackers0 = dera_initialize(pgen0, qgen0, v0, f0, params)
        der = SimpleNamespace(params=params, state0=state0, refs=refs, trackers0=trackers0)

    channels = ["t", "V", "Freq"]
    residuals = {}
    for m in motors:
        channels += [f"{m.name}.{c}" for c in (*MOTOR_STATES, "P", "Q")]
        d = motor_derivatives(m.state0, v0, 0.0, m.params, m.init)
        residuals[m.name] = float(np.max(np.abs(d.as_array())))
    if der:
        channels += [f"dera.S{i}" for i in range(10)] + ["dera.P", "dera.Q", "dera.tripped"]
        d = dera_derivatives(der.state0, der.trackers0, v0, f0, der.params, der.refs)
        residuals["dera"] = float(np.max(np.abs(d.as_array())))
    if zip_load:
        channels += ["zip.P", "zip.Q"]
    if elec:
        channels += ["elec.P", "elec.Q", "elec.ct"]
    channels += ["total.P", "total.Q"]

    n_motor = 5 * len(motors)
    y = np.concatenate([m.state0.as_array() for m in motors]
                       + ([der.state0.as_array()] if der else []))
    trackers = der.trackers0 if der else None
    elec_tracker = (elec_tracker_init(bus.voltage(0.0), elec)
                    if elec else None)

    def rhs(t, yv):
        v, f = bus.voltage(t), bus.frequency(t)
        parts = [motor_derivatives(MotorState.from_array(yv[5 * k:5 * k + 5]), v, 0.0,
                                   m.params, m.init).as_array()
                 for k, m in enumerate(motors)]
        if der:
            parts.append(dera_derivatives(DerAState.from_array(yv[n_motor:]), trackers,
                                          v, f, der.params, der.refs, dt).as_array())
        return np.concatenate(parts)

    def record(t, yv):
        v, f = bus.voltage(t), bus.frequency(t)
        row, pq = [t, v, f], {}
        for k, m in enumerate(motors):
            out = motor_algebra(MotorState.from_array(yv[5 * k:5 * k + 5]), v, 0.0,
                                m.params, m.init)
            row += list(yv[5 * k:5 * k + 5]) + [out.P, out.Q]
            pq[m.name] = (out.P, out.Q)
        if der:
            p, q = dera_outputs(DerAState.from_array(yv[n_motor:]), v, trackers.tripped)
            row += list(yv[n_motor:]) + [p, q, 1.0 if trackers.tripped else 0.0]
            pq["dera"] = (p, q)
        if zip_load:
            pq["zip"] = zip_power(v, zip_load)
            row += list(pq["zip"])
        if elec:
            p, q, ct, _ = elec_power(v, elec_tracker, elec)
            row += [p, q, ct]
            pq["elec"] = (p, q)
        return row + list(composite_outputs(pq, mix))

    def count_flags(yv):
        for k, m in enumerate(motors):
            key = f"{m.name}.speed_clamped"
            counts[key] = counts.get(key, 0) + int((1.0 - yv[5 * k + 4]) <= 0.0)
        if der:
            flags = dera_limiter_flags(DerAState.from_array(yv[n_motor:]), trackers, der.params)
            for name, active in flags.items():
                counts[f"dera.{name}"] = counts.get(f"dera.{name}", 0) + int(active)

    def expired(trk):
        return (trk.low_v_timer >= der.params.tvl1 - TIMER_EPS,
                trk.high_v_timer >= der.params.tvh1 - TIMER_EPS)

    rows, counts, events = [], {}, []
    for i in range(n_steps + 1):
        t = i * dt
        if i % config.record_every == 0:
            rows.append(record(t, y))
        count_flags(y)
        if i == n_steps:
            break
        y = step(rhs, t, y, dt)
        t_next = (i + 1) * dt
        v_next = bus.voltage(t_next)
        if der:
            prev = trackers
            trackers = advance_trackers(trackers, v_next, bus.frequency(t_next), dt, der.params)
            (lo0, hi0), (lo1, hi1) = expired(prev), expired(trackers)
            if trackers.tripped and not prev.tripped:
                events.append({"type": "frequency_trip", "t": t_next})
            if lo1 and not lo0:
                events.append({"type": "low_voltage_dwell_expired", "t": t_next})
            if hi1 and not hi0:
                events.append({"type": "high_voltage_dwell_expired", "t": t_next})
        if elec_tracker:
            elec_tracker = elec_tracker_update(v_next, elec_tracker, elec)
    return channels, np.array(rows), residuals, dict(sorted(counts.items())), events


def _assert_bit_identical(inputs, config):
    channels, data, residuals, counts, events = reference_run(inputs, config)
    result = run_simulation(build_scenario(**inputs), config)
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

    playback = PlaybackParams(a=0.45, b=30.0, c=1.0, d=0.9)

    def voltage(self, t):
        return playback_voltage(t, self.playback)

    def frequency(self, t):
        return 1.02 if t >= 0.3 else 1.0


@pytest.mark.parametrize("method", METHODS)
def test_dera_branch_variant_matches_reference_stepper(method):
    # Frequency control on, P priority and constant-Q control: branches the
    # bundled scenarios never reach. The frequency step drives the droop and
    # the rate-limited power order S7; the dip expires the low-voltage dwell.
    cfg = load_config(SCENARIOS / "dera_playback.yaml")
    params = dataclasses.replace(cfg.dera.params(), Freqflag=1, PQflag=1, PfFlag=0)
    inputs = {"mix": cfg.mix, "bus": DeepFaultFrequencyStepBus(),
              "dera_load": (params, cfg.dera.pgen0, cfg.dera.qgen0), "zip_load": cfg.zip_load}
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
