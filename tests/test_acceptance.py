"""Acceptance suite: one test per release criterion, tolerances pinned.

 1. Piecewise truth tables exact: the DER_A kernel's own clips (voltage
    floor, Iq command and power-order saturations, voltage deadband,
    injection clip, S7 ramp clip, droop sign split, current limits), ZIP,
    electronic-load modes, voltage protection and playback.
 2. Oracle equivalence of motor and DER_A derivative vectors against
    straight-line reference transcriptions, 1000 random points each,
    vector-relative error <= 1e-13.
 3. Equilibrium hold: initialization residuals < 1e-8 and 10 s constant-input
    drift of every P/Q channel < 1e-6 pu.
 4. Playback recovery: the low-inertia motor preset dips during the scripted
    fault and returns to within 1e-3 pu of pre-fault power by t = 5 s.
 5. Integrator convergence on a value-continuous disturbance: halving-error
    ratio in [12, 20] against a dt/16 reference, and 1 ms vs 0.1 ms
    refinement MSE < 1e-8 on every P/Q channel of the full composite.
 6. Bounded injection: current commands never exceed their limits by more
    than 1e-9, the trip multiplier stays in [0, 1], the power-order slope
    respects the ramp band when frequency control is on and the power order
    is exactly constant when it is off.
 7. Trip logic: protection hits 0 below the low cut-out, the partial-recovery
    branch value matches direct evaluation within 1e-9 after dwell expiry,
    and a configured frequency trip latches after exactly ceil(tfl/dt) steps
    and zeroes the DER output thereafter.
 8. Metric harness: mse(x, x) = 0 and a constant offset delta gives
    delta^2 to 1e-15 relative.
 9. Determinism: repeated CLI runs of one config produce byte-identical CSVs.

Each test finishes by printing one PASS line (visible with pytest -s; on
failure pytest reports the assertion instead).
"""

import dataclasses
import math

import numpy as np
import pytest
import yaml

from clm_sim.cli import main as cli_main
from clm_sim.composite import LoadMix, PlaybackBus
from clm_sim.config import DeraSection, build_scenario
from clm_sim.dera import (
    DERA_PRESETS,
    DerARefs,
    DerAState,
    DerATrackers,
    component_output,
    dera_algebra,
    dera_initialize,
    dera_rhs,
)
from clm_sim.motor3 import MOTOR_PRESETS, MotorState, motor_initialize, motor_kernel
from clm_sim.sim import IntegratorConfig, Trajectory, mse, run_simulation
from clm_sim.staticloads import ElecParams, ZipParams, elec_power_at, zip_power

from oracles import dera_reference_rhs, motor_reference_rhs
from scenarios import (
    SmoothDipBus,
    StepFrequencyBus,
    dera_playback_scenario,
    full_composite_scenario,
    motor_playback_scenario,
)
from test_dera import _random_params

TABLE = DERA_PRESETS["dera_table3"]


def _vec_rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def test_criterion_1_piecewise_truth_tables():
    commands = dera_algebra(TABLE)[0]  # (S0 floored, Ipcmd, Iqcmd, Ip raw, Iq raw, inj raw, limits)
    assert commands(0.5, 0, 0)[0] == 0.5
    assert commands(0.001, 0, 0)[0] == 0.01
    assert commands(0.00999, 0, 0)[0] == 0.01
    assert commands(0.01, 0, 0)[0] == 0.01
    assert commands(1, 2, 0)[2] == 1.2
    assert commands(1, -2, 0)[2] == -1.2
    assert commands(1, 0, 2)[3] == 1.1
    assert commands(1, 0, -2)[3] == 0.0

    band = dera_algebra(dataclasses.replace(TABLE, Vref0=1.0, Kqv=1.0, dbd1=-0.05, dbd2=0.05))[0]
    assert band(1.0, 0, 0)[5] == 0.0
    assert band(0.9, 0, 0)[5] == (1.0 - 0.9) - 0.05
    assert band(1.1, 0, 0)[5] == (1.0 - 1.1) - (-0.05)
    no_band = dera_algebra(dataclasses.replace(TABLE, Vref0=1.0, dbd1=0.0, dbd2=0.0))[0]
    assert no_band(0.5, 0, 0)[4:6] == (1.0, 2.5)
    assert no_band(1.5, 0, 0)[4:6] == (-1.0, -2.5)

    mem = DerATrackers(1.0, 1.0)
    ramp = dera_rhs(dataclasses.replace(TABLE, Freqflag=1), DerARefs(0.0, 0.0, 0.0, 1.0), 1e-3)
    for S6, S7, dS7 in ((1, 0, 0.5), (-5, 0.5, -0.5), (0.0002, 0, 0.0002 / 1e-3)):
        assert ramp((1, 0, 0, 0, 1, 1, S6, S7, 0, 0), mem, 1.0, 1.0)[7] == dS7

    droop = dataclasses.replace(TABLE, Dup=10.0)
    split = dera_rhs(droop, DerARefs(0.0, 0.0, 0.0, 1.0), 1e-3)
    for S5, e in ((1.01, droop.Ddn * ((1.0 - 1.01) - (-0.0006))),  # only the down side
                  (0.99, droop.Dup * ((1.0 - 0.99) - 0.0006)),  # only the up side
                  (1.0003, 0.0)):  # inside the deadband
        assert split((1, 0, 0, 0, 1, S5, 0, 0, 0, 0), mem, 1.0, S5)[6] == droop.Kig * e

    zipp = ZipParams(p0=1.2, q0=0.4, v0=1.0, a_p=0.4, b_p=0.35, c_p=0.25,
                     a_q=0.5, b_q=0.3, c_q=0.2)
    assert zip_power(1.0, zipp) == (1.2, 0.4)
    assert zip_power(0.0, zipp) == (0.25 * 1.2, 0.2 * 0.4)

    elec = ElecParams(pe0=1.0, qe0=0.25, vd1=0.7, vd2=0.5, alpha=0.6)
    span = elec.vd1 - elec.vd2
    assert elec_power_at(0.45, 0.5, elec)[2:] == (0.0, 1)  # (ct, mode) at (Vt, running min)
    assert elec_power_at(0.6, 0.6, elec)[2:] == ((0.6 - 0.5) / span, 2)
    assert elec_power_at(0.65, 0.55, elec)[2:] == ((0.55 - 0.5 + 0.6 * (0.65 - 0.55)) / span, 3)
    assert elec_power_at(1.0, 1.0, elec)[2:] == (1.0, 4)
    assert elec_power_at(1.0, 0.55, elec)[2:] == ((0.55 - 0.5 + 0.6 * (0.7 - 0.55)) / span, 5)

    protection = dera_algebra(TABLE)[2]  # at (Vt, memory)
    assert protection(1.0, mem) == 1.0
    assert protection(0.3, DerATrackers(0.3, 1.0)) == 0.0
    assert protection(0.465, DerATrackers(0.465, 1.0)) == (
        (0.465 - 0.44) / (0.49 - 0.44))
    expired = DerATrackers(0.46, 1.0, low_v_timer=0.2)
    assert protection(1.0, expired) == 0.7 * ((0.49 - 0.46) / (0.49 - 0.44))

    assert commands(1, 0, 0)[6:] == (-1.2, 1.2, -1.2, 1.2)
    assert commands(1, 1.2, 0)[6:8] == (0.0, 0.0)

    bus = PlaybackBus(a=0.8, b=5.0, c=1.0, d=0.9)
    assert bus.voltage([0.5, 1.04, 2.0]) == [1.0, 0.8, 1.0]

    assert component_output((1, 0, 0, 0, 1, 1, 0, 0, 0, 0), mem, 1.0, 1.0) == (0.0, 0.0, 0.0)
    assert component_output((1, 0, 0, 0, 1, 1, 0, 0.5, 0.5, 0.5), mem, 1.0, 1.0)[0] == 0.5

    params = MOTOR_PRESETS["motor_a"]
    Tm0 = 0.7
    algebra, load_torque = motor_kernel(params, Tm0)[:2]  # (Id, Iq, P, Q, w) and TL(w)
    assert algebra(0.0, 0.0, 0.0, 0.0, 0.0) == (0.0, 0.0, 0.0, 0.0, 1.0)
    assert load_torque(1.0) == Tm0 * (params.A + params.B + params.C0 + params.D)
    for w in (0.4, 1.0, 1.1):
        assert load_torque(algebra(0.1, 0.1, 1.0 - w, 1.0, 0.0)[4]) == Tm0

    print("[PASS] criterion 1: piecewise truth tables exact")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(20240801)
    presets = list(MOTOR_PRESETS.values())
    worst_motor = 0.0
    for k in range(1000):
        params = dataclasses.replace(
            presets[k % 3],
            A=float(rng.uniform(-0.5, 0.5)), B=float(rng.uniform(-0.5, 0.5)),
            C0=float(rng.uniform(-0.5, 0.5)), D=float(rng.uniform(0.1, 1.5)),
            Etrq=float(rng.choice([0.0, 1.0, 2.0, 1.8])),
            p=float(rng.choice([-1.0, 1.0])), q=float(rng.choice([-1.0, 1.0])),
        )
        Tm0 = float(rng.uniform(-1.0, 1.0))
        state = MotorState(*rng.uniform(-2.0, 2.0, size=4), float(rng.uniform(-0.5, 1.2)))
        Vd, Vq = rng.uniform(-1.5, 1.5, size=2)
        d = motor_kernel(params, Tm0, Vq)[2](state, (), Vd, 0.0)
        ref, _ = motor_reference_rhs(
            state.Eqp, state.Edp, state.Eqpp, state.Edpp, state.slip, Vd, Vq,
            params.rs, params.Ls, params.Lp, params.Lpp, params.Tp0, params.Tpp0,
            params.H, params.A, params.B, params.C0, params.D, params.Etrq,
            params.p, params.q, params.omega0, Tm0,
        )
        worst_motor = max(worst_motor, _vec_rel_err(d, ref))
    assert worst_motor <= 1e-13

    worst_dera = 0.0
    dt = 1e-3
    for k in range(1000):
        params = TABLE if k % 4 == 0 else _random_params(rng)
        state = DerAState(
            S0=float(rng.uniform(0.0, 1.4)) if k % 19 else 0.004,
            S1=float(rng.uniform(-1.5, 1.5)), S2=float(rng.uniform(-1.5, 1.5)),
            S3=float(rng.uniform(-1.5, 1.5)), S4=float(rng.uniform(0.0, 1.0)),
            S5=float(rng.uniform(0.9, 1.1)), S6=float(rng.uniform(-1.5, 1.5)),
            S7=float(rng.uniform(-1.5, 1.5)), S8=float(rng.uniform(-1.5, 1.5)),
            S9=float(rng.uniform(-1.5, 1.5)),
        )
        refs = DerARefs(Pref=float(rng.uniform(-1.0, 2.0)),
                        Qref=float(rng.uniform(-1.0, 1.0)),
                        pfaref=float(rng.uniform(-1.2, 1.2)),
                        Freqref=float(rng.uniform(0.98, 1.02)))
        lv = bool(rng.integers(0, 2))
        hv = bool(rng.integers(0, 2))
        trackers = DerATrackers(vmin_seen=float(rng.uniform(0.2, 1.0)),
                                vmax_seen=float(rng.uniform(1.0, 1.3)),
                                low_v_timer=1.0 if lv else 0.0,
                                high_v_timer=1.0 if hv else 0.0)
        vt = float(rng.uniform(0.0, 1.3))
        freq = float(rng.uniform(0.94, 1.06))
        d = dera_rhs(params, refs, dt)(state, trackers, vt, freq)
        ref = dera_reference_rhs(
            state, vt, freq, params, refs,
            trackers.vmin_seen, trackers.vmax_seen, lv, hv, dt)
        worst_dera = max(worst_dera, _vec_rel_err(d, ref))
    assert worst_dera <= 1e-13

    print(f"[PASS] criterion 2: oracle equivalence "
          f"(motor worst {worst_motor:.2e}, DER worst {worst_dera:.2e})")


def test_criterion_3_equilibrium_hold():
    for name, p0 in (("motor_a", 0.8), ("motor_b", 0.6), ("motor_c", 0.6)):
        state, Tm0 = motor_initialize(p0, None, 1.0, 0.0, MOTOR_PRESETS[name])
        d = motor_kernel(MOTOR_PRESETS[name], Tm0)[2](state, (), 1.0, 0.0)
        assert float(np.max(np.abs(d))) < 1e-8
    state, refs, trackers = dera_initialize(0.5, 0.1, 1.0, 1.0, TABLE)
    d = dera_rhs(TABLE, refs, 1e-3)(state, trackers, 1.0, 1.0)
    assert float(np.max(np.abs(d))) < 1e-8

    from clm_sim.composite import ConstantBus

    traj = run_simulation(full_composite_scenario(ConstantBus()),
                          IntegratorConfig(dt=1e-3, t_end=10.0)).trajectory
    worst = 0.0
    for ch in traj.pq_channels():
        x = traj.channel(ch)
        worst = max(worst, float(np.max(np.abs(x - x[0]))))
    assert worst < 1e-6
    print(f"[PASS] criterion 3: equilibrium hold (10 s worst P/Q drift {worst:.2e})")


def test_criterion_4_playback_recovery():
    traj = run_simulation(motor_playback_scenario(p0=0.8),
                          IntegratorConfig(dt=1e-3, t_end=5.0)).trajectory
    p = traj.channel("motor_a.P")
    t = traj.t
    in_fault = (t >= 1.0) & (t <= 1.0 + 5.0 / 60.0)
    dip = p[in_fault].min()
    assert dip < 0.8 - 0.05
    final_gap = abs(p[-1] - 0.8)
    assert final_gap < 1e-3
    print(f"[PASS] criterion 4: playback recovery (dip to {dip:.3f}, "
          f"final gap {final_gap:.2e})")


def test_criterion_5_integrator_convergence():
    def run(dt, every):
        return run_simulation(full_composite_scenario(SmoothDipBus()),
                              IntegratorConfig(method="rk4", dt=dt, t_end=2.5,
                                               record_every=every)).trajectory

    ref = run(1e-3 / 16.0, 16)
    coarse = run(1e-3, 1)
    half = run(5e-4, 2)

    def err(a, b):
        worst = 0.0
        for ch in a.channels[1:]:
            worst = max(worst, float(np.max(np.abs(a.channel(ch) - b.channel(ch)))))
        return worst

    ratio = err(coarse, ref) / err(half, ref)
    assert 12.0 <= ratio <= 20.0

    fine = run(1e-4, 10)
    worst_mse = 0.0
    for ch in coarse.pq_channels():
        worst_mse = max(worst_mse, mse(coarse, fine, ch))
    assert worst_mse < 1e-8
    print(f"[PASS] criterion 5: convergence (halving ratio {ratio:.2f}, "
          f"refinement MSE worst {worst_mse:.2e})")


def test_criterion_6_bounded_injection():
    # Derating fault with voltage tripping active (Freqflag = 0).
    fault = PlaybackBus(a=0.46, b=30.0, c=1.0, d=0.9)
    traj = run_simulation(dera_playback_scenario(playback=fault),
                          IntegratorConfig(dt=1e-3, t_end=3.0)).trajectory
    s2 = traj.channel("dera.S2")
    s3 = traj.channel("dera.S3")
    s9 = traj.channel("dera.S9")
    s4 = traj.channel("dera.S4")
    s7 = traj.channel("dera.S7")
    assert np.all(s4 >= 0.0) and np.all(s4 <= 1.0)
    assert np.all(s7 == s7[0])  # Freqflag = 0 freezes the power order exactly
    # Q-priority: the q limit is +/-Imax; the p limit is the circle headroom
    # computed from the saturated q command at the same sample.
    imax = TABLE.Imax
    assert np.all(np.abs(s3) <= imax + 1e-9)
    iq_cmd = np.clip(s2, -imax, imax)  # wide deadband: no support injection
    ip_max = np.sqrt(np.maximum(imax**2 - iq_cmd**2, 0.0))
    assert np.all(s9 <= ip_max + 1e-9)
    assert np.all(s9 >= -ip_max - 1e-9)

    # Frequency-control run: over-frequency event, ramp band must bind.
    der = DeraSection(preset="dera_table3", overrides={"Freqflag": 1, "Ftripflag": 0},
                      pgen0=0.8, qgen0=0.1)
    params = der.params()
    zero_zip = ZipParams(p0=0.0, q0=0.0, v0=1.0, a_p=0.0, b_p=0.0, c_p=1.0,
                         a_q=0.0, b_q=0.0, c_q=1.0)
    dt = 1e-3
    scenario = build_scenario(LoadMix(f_zip=1.0, der_scale=1.0),
                              StepFrequencyBus(f_after=1.03, t_step=0.5),
                              {"dera": der, "zip": zero_zip})
    traj2 = run_simulation(scenario, IntegratorConfig(dt=dt, t_end=3.0)).trajectory
    s7 = traj2.channel("dera.S7")
    slopes = np.diff(s7) / dt
    assert np.all(slopes <= params.dPmax + 1e-9)
    assert np.all(slopes >= params.dPmin - 1e-9)
    assert slopes.min() == pytest.approx(params.dPmin, abs=1e-9)  # band binds
    assert np.all(traj2.channel("dera.S4") >= 0.0)
    assert np.all(traj2.channel("dera.S4") <= 1.0)
    print("[PASS] criterion 6: bounded injection (limits, trip multiplier, ramp band)")


def test_criterion_7_trip_logic():
    # Below the low cut-out the protection multiplier is exactly zero.
    protection = dera_algebra(TABLE)[2]
    assert protection(0.43, DerATrackers(0.43, 1.0)) == 0.0
    assert protection(0.3, DerATrackers(0.3, 1.0)) == 0.0

    # Dwell below Vl1 past tvl1, then recovery: the partial-recovery branch
    # value, compared against direct branch evaluation.
    fault = PlaybackBus(a=0.46, b=30.0, c=1.0, d=0.9)
    result = run_simulation(dera_playback_scenario(playback=fault),
                            IntegratorConfig(dt=1e-3, t_end=4.0))
    assert any(e["type"] == "low_voltage_dwell_expired"
               for e in result.summary["trip_events"])
    s4_end = result.trajectory.channel("dera.S4")[-1]
    direct = TABLE.Vrfrac * ((TABLE.Vl1 - 0.46) / (TABLE.Vl1 - TABLE.Vl0))
    assert abs(s4_end - direct) < 1e-9

    # Configured frequency trip: latch after exactly ceil(tfl/dt) steps.
    der = DeraSection(preset="dera_table3", overrides={"fl": 0.98, "tfl": 0.1},
                      pgen0=0.5, qgen0=0.1)
    params = der.params()
    zero_zip = ZipParams(p0=0.0, q0=0.0, v0=1.0, a_p=0.0, b_p=0.0, c_p=1.0,
                         a_q=0.0, b_q=0.0, c_q=1.0)
    dt = 1e-3
    scenario = build_scenario(LoadMix(f_zip=1.0, der_scale=1.0),
                              StepFrequencyBus(f_after=0.97, t_step=0.5),
                              {"dera": der, "zip": zero_zip})
    traj = run_simulation(scenario, IntegratorConfig(dt=dt, t_end=1.0)).trajectory
    tripped = traj.channel("dera.tripped")
    latch_index = 500 + math.ceil(params.tfl / dt) - 1
    assert tripped[latch_index - 1] == 0.0
    assert tripped[latch_index] == 1.0
    assert np.all(traj.channel("dera.P")[latch_index:] == 0.0)
    assert np.all(traj.channel("dera.Q")[latch_index:] == 0.0)
    print("[PASS] criterion 7: trip logic (cut-out, partial recovery, exact latch step)")


def test_criterion_8_metric_harness():
    t = np.arange(201) * 0.01
    base = Trajectory(["t", "x.P"], np.column_stack([t, np.zeros_like(t)]))
    assert mse(base, base, "x.P") == 0.0
    delta = 0.01
    offset = Trajectory(["t", "x.P"], np.column_stack([t, np.full_like(t, delta)]))
    got = mse(base, offset, "x.P")
    assert abs(got - delta**2) <= 1e-15 * delta**2
    print("[PASS] criterion 8: metric harness (self-MSE 0, offset delta^2)")


def test_criterion_9_determinism(tmp_path):
    doc = {
        "mix": {"f_a": 0.5, "f_zip": 0.5, "der_scale": 0.3, "p_base_mva": 15.0},
        "motor_a": {"preset": "motor_a", "p0": 0.8},
        "dera": {"preset": "dera_table3", "pgen0": 0.5, "qgen0": 0.1},
        "zip": {"p0": 1.0, "q0": 0.3, "a_p": 0.4, "b_p": 0.3, "c_p": 0.3,
                "a_q": 0.5, "b_q": 0.25, "c_q": 0.25},
        "disturbance": {"type": "playback", "a": 0.8, "b": 5.0, "c": 1.0, "d": 0.9},
        "integrator": {"method": "rk4", "dt": 0.001, "t_end": 2.0},
    }
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    assert cli_main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "r1")]) == 0
    assert cli_main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "r2")]) == 0
    a = (tmp_path / "r1" / "trajectory.csv").read_bytes()
    b = (tmp_path / "r2" / "trajectory.csv").read_bytes()
    assert a == b
    assert len(a) > 0
    print("[PASS] criterion 9: determinism (byte-identical trajectory CSV)")
