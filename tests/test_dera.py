"""DER_A model: truth tables, oracle equivalence, equilibria, trip logic.

Covers the current-limit priority table, the nine-branch voltage-protection
function against direct branch evaluation, frequency-trip timer semantics
(including the voltage gate and exact latch step count), 1000-point
equivalence of the derivative vector against the straight-line reference
transcription, initialization fixed points, and the first-order filter
step responses. The kernels take the memory as a DerATrackers (a tuple of
its fields in order), and the states S0..S9 as a sequence.
"""

import dataclasses
import math

import numpy as np
import pytest

from clm_sim.composite import LoadMix
from clm_sim.dera import (
    DERA_PRESETS,
    DerAParams,
    DerARefs,
    DerAState,
    DerATrackers,
    LIMITER_FLAGS,
    component_output,
    dera_algebra,
    dera_initialize,
    dera_memory,
    dera_rhs,
)
from clm_sim.errors import InfeasibleInit, NonFiniteInput
from clm_sim.sim import IntegratorConfig, build_scenario, run_simulation
from clm_sim.staticloads import ZipParams

from oracles import dera_reference_rhs, voltage_protection_reference

TABLE = DERA_PRESETS["dera_table3"]
PROTECTION = dera_algebra(TABLE)[2]  # the voltage multiplier at (Vt, memory)
FRESH = DerATrackers(1.0, 1.0)  # the memory at t = 0 under a 1 pu bus


def _vec_rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


# ---------------------------------------------------------------- current limits
# commands(S0, S2, S8) of the kernel: with the table's wide voltage deadband
# and S0 = 1 the raw commands are Iq = S2 and Ip = S8 clipped to Pmin..Pmax.

def _commands(params, S2, S8):
    return dera_algebra(params)[0](1.0, S2, S8)


def test_current_limits_q_priority_full_headroom():
    out = _commands(TABLE, 0.0, 0.0)  # PQflag=0, typeflag=1, Imax=1.2
    assert out[6:] == (-1.2, 1.2, -1.2, 1.2)


def test_current_limits_q_priority_zero_headroom():
    out = _commands(TABLE, 1.2, 0.5)
    assert out[6:8] == (0.0, 0.0)
    assert out[1:3] == (0.0, 1.2)  # the Ip command is clipped to the zero headroom


def test_current_limits_generator_floor():
    params = dataclasses.replace(TABLE, typeflag=0)
    out = _commands(params, 0.5, 0.0)
    assert out[6:8] == (0.0, math.sqrt(1.2**2 - 0.5**2))


def test_current_limits_storage_symmetric():
    out = _commands(TABLE, 0.5, 0.0)  # typeflag=1
    assert out[6:8] == (-math.sqrt(1.2**2 - 0.5**2), math.sqrt(1.2**2 - 0.5**2))


def test_current_limits_p_priority():
    params = dataclasses.replace(TABLE, PQflag=1)
    out = _commands(params, 0.0, 0.9)
    head = math.sqrt(1.2**2 - 0.9**2)
    assert out[6:] == (-1.2, 1.2, -head, head)


def test_current_limits_overlarge_companion_clamps_to_zero():
    # The priority command is clipped to Imax before the headroom is taken.
    out = _commands(TABLE, 5.0, 0.0)
    assert out[4] == 5.0 and out[2] == 1.2 and out[7] == 0.0
    params = dataclasses.replace(TABLE, PQflag=1, Pmax=5.0)
    out = _commands(params, 0.0, 5.0)
    assert out[3] == 5.0 and out[1] == 1.2 and out[9] == 0.0


def _verr(commands, x):
    """The voltage deadband's output at input x: with Kqv = 1 the raw injection
    is the deadband output, and Vref0 = 0 makes the input Vref0 - S0 exactly -S0."""
    return commands(-x, 0.0, 0.0)[5]


def test_voltage_deadband_properties():
    rng = np.random.default_rng(43)
    for _ in range(500):
        lo, hi = -abs(rng.uniform(0, 2)), abs(rng.uniform(0, 2))
        params = dataclasses.replace(TABLE, Vref0=0.0, Kqv=1.0, dbd1=lo, dbd2=hi)
        commands = dera_algebra(params)[0]
        x = rng.uniform(-5, 5)
        y = _verr(commands, x)
        assert (y == 0.0) == (lo <= x <= hi)
        assert abs(y) <= abs(x)
        for knee in (lo, hi):  # continuity at both knees
            eps = 1e-13
            assert abs(_verr(commands, knee - eps) - _verr(commands, knee + eps)) < 1e-12


# ------------------------------------------------------------ voltage protection

def test_voltage_protection_normal_band_is_one():
    assert PROTECTION(1.0, FRESH) == 1.0
    trk = DerATrackers(vmin_seen=0.8, vmax_seen=1.05)
    assert PROTECTION(1.0, trk) == 1.0


def test_voltage_protection_below_cutout_is_zero():
    trk = DerATrackers(vmin_seen=0.3, vmax_seen=1.0)
    assert PROTECTION(0.3, trk) == 0.0


def test_voltage_protection_linear_derating_midpoint():
    vt = 0.465  # midpoint of (Vl0, Vl1) = (0.44, 0.49)
    trk = DerATrackers(vmin_seen=vt, vmax_seen=1.0)
    assert PROTECTION(vt, trk) == (vt - 0.44) / (0.49 - 0.44)


def test_voltage_protection_high_side_derating():
    vt = 1.175  # midpoint of (Vh1, Vh0) = (1.15, 1.2)
    trk = DerATrackers(vmin_seen=1.0, vmax_seen=vt)
    assert PROTECTION(vt, trk) == (1.2 - vt) / (1.2 - 1.15)
    trk_over = DerATrackers(vmin_seen=1.0, vmax_seen=1.25)
    assert PROTECTION(1.25, trk_over) == 0.0


def test_voltage_protection_partial_recovery_after_expiry():
    vmin = 0.46
    expired = DerATrackers(vmin_seen=vmin, vmax_seen=1.0, low_v_timer=0.2)
    # Recovery into the normal band: Vrfrac * (Vl1 - vmin) / (Vl1 - Vl0).
    got = PROTECTION(1.0, expired)
    assert got == 0.7 * (0.49 - vmin) / (0.49 - 0.44)
    # Still inside the derating band: Vrfrac * (Vt - vmin) / (Vl1 - Vl0).
    got = PROTECTION(0.475, expired)
    assert got == 0.7 * (0.475 - vmin) / (0.49 - 0.44)


def test_voltage_protection_before_expiry_full_line():
    trk = DerATrackers(vmin_seen=0.46, vmax_seen=1.0, low_v_timer=0.1)
    assert PROTECTION(0.475, trk) == (0.475 - 0.44) / (0.49 - 0.44)


def test_voltage_protection_always_in_unit_interval():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        trk = DerATrackers(
            vmin_seen=float(rng.uniform(0.0, 1.2)),
            vmax_seen=float(rng.uniform(1.0, 1.4)),
            low_v_timer=float(rng.choice([0.0, 1.0])),
            high_v_timer=float(rng.choice([0.0, 1.0])),
        )
        v = float(rng.uniform(0.0, 1.5))
        assert 0.0 <= PROTECTION(v, trk) <= 1.0


def test_voltage_protection_matches_reference_transcription():
    rng = np.random.default_rng(12)
    for _ in range(2000):
        vmin = float(rng.uniform(0.2, 1.1))
        vmax = float(rng.uniform(1.0, 1.35))
        lv = bool(rng.integers(0, 2))
        hv = bool(rng.integers(0, 2))
        trk = DerATrackers(vmin_seen=vmin, vmax_seen=vmax,
                           low_v_timer=1.0 if lv else 0.0,
                           high_v_timer=1.0 if hv else 0.0)
        v = float(rng.uniform(0.0, 1.5))
        got = PROTECTION(v, trk)
        ref = voltage_protection_reference(v, TABLE.Vrfrac, vmin, vmax, lv, hv,
                                           TABLE.Vl0, TABLE.Vl1, TABLE.Vh0, TABLE.Vh1)
        assert got == ref


# ---------------------------------------------------------------- frequency trip
# advance(mem, Vt, Freq) of the kernel gives (the memory after one step, its events);
# the fields are read back through DerATrackers.

def test_frequency_trip_disabled_never_trips():
    advance = dera_memory(dataclasses.replace(TABLE, Ftripflag=0), 1e-3)
    mem = FRESH
    for _ in range(1000):
        mem, _ = advance(mem, 1.0, 0.5)
    assert not DerATrackers(*mem).tripped


def test_frequency_trip_latches_after_exact_step_count():
    params = dataclasses.replace(TABLE, fl=0.98, tfl=0.1)
    dt = 1e-3
    advance = dera_memory(params, dt)
    expected_steps = math.ceil(params.tfl / dt)
    mem = FRESH
    steps = 0
    while not DerATrackers(*mem).tripped:
        mem, _ = advance(mem, 1.0, 0.97)
        steps += 1
        assert steps < 10 * expected_steps
    assert steps == expected_steps


def test_frequency_trip_low_voltage_freezes_timer():
    advance = dera_memory(dataclasses.replace(TABLE, fl=0.98, tfl=0.05), 1e-3)
    mem, _ = advance(FRESH, 1.0, 0.97)
    frozen = DerATrackers(*mem).freq_low_timer
    for _ in range(500):
        mem, _ = advance(mem, 0.5, 0.97)  # Vt < Vpr = 0.8
    assert DerATrackers(*mem).freq_low_timer == frozen
    assert not DerATrackers(*mem).tripped


def test_frequency_trip_resets_on_recovery():
    advance = dera_memory(dataclasses.replace(TABLE, fl=0.98, tfl=0.05), 1e-3)
    mem = FRESH
    for _ in range(20):
        mem, _ = advance(mem, 1.0, 0.97)
    mem, _ = advance(mem, 1.0, 1.0)
    assert DerATrackers(*mem).freq_low_timer == 0.0


def test_frequency_trip_high_side():
    advance = dera_memory(dataclasses.replace(TABLE, fh=1.02, tfh=0.05), 1e-3)
    mem = FRESH
    for _ in range(51):
        mem, _ = advance(mem, 1.0, 1.03)
    assert DerATrackers(*mem).tripped


def test_trip_latch_is_permanent():
    advance = dera_memory(dataclasses.replace(TABLE, fl=0.98, tfl=0.01), 1e-3)
    mem = FRESH
    for _ in range(11):
        mem, _ = advance(mem, 1.0, 0.9)
    assert DerATrackers(*mem).tripped
    mem, _ = advance(mem, 1.0, 1.0)
    assert DerATrackers(*mem).tripped


# ----------------------------------------------------------------- tracker sweep

def test_voltage_dwell_timer_resets_before_expiry_latches_after():
    params = TABLE
    advance = dera_memory(params, 1e-3)
    mem = FRESH
    # 100 steps below Vl1 (0.1 s < tvl1 = 0.16 s), then recovery: reset.
    for _ in range(100):
        mem, _ = advance(mem, 0.47, 1.0)
    assert DerATrackers(*mem).low_v_timer == pytest.approx(0.1, abs=1e-9)
    mem, _ = advance(mem, 1.0, 1.0)
    assert DerATrackers(*mem).low_v_timer == 0.0
    # 161 steps below Vl1: expired; recovery no longer resets it.
    for _ in range(161):
        mem, _ = advance(mem, 0.47, 1.0)
    assert DerATrackers(*mem).low_v_timer >= params.tvl1 - 1e-12
    mem, _ = advance(mem, 1.0, 1.0)
    assert DerATrackers(*mem).low_v_timer >= params.tvl1 - 1e-12
    # Expired, it holds its value through further steps below Vl1 as after them.
    expired = mem
    for v in (0.47, 0.47, 1.0, 0.3):
        mem, events = advance(mem, v, 1.0)
        assert DerATrackers(*mem).low_v_timer == DerATrackers(*expired).low_v_timer
        assert events == ()


def test_tracker_extremes_are_running_min_max():
    advance = dera_memory(TABLE, 1e-3)
    mem = FRESH
    for v in (0.9, 0.5, 0.7, 1.1, 1.3, 1.0):
        mem, _ = advance(mem, v, 1.0)
    assert DerATrackers(*mem).vmin_seen == 0.5
    assert DerATrackers(*mem).vmax_seen == 1.3


# ----------------------------------------------------------- derivative fixtures

def _random_params(rng) -> DerAParams:
    dbd_wide = bool(rng.integers(0, 2))
    fdbd_wide = bool(rng.integers(0, 2))
    return DerAParams(
        Trv=float(rng.uniform(0.01, 0.1)),
        Tp=float(rng.uniform(0.01, 0.1)),
        Tiq=float(rng.uniform(0.01, 0.1)),
        Vref0=float(rng.uniform(0.0, 1.1)),
        Kqv=float(rng.uniform(0.0, 10.0)),
        Tg=float(rng.uniform(0.01, 0.1)),
        PfFlag=int(rng.integers(0, 2)),
        Imax=float(rng.uniform(0.8, 1.5)),
        dbd1=-99.0 if dbd_wide else float(-rng.uniform(0.0, 0.1)),
        dbd2=99.0 if dbd_wide else float(rng.uniform(0.0, 0.1)),
        Tv=float(rng.uniform(0.01, 0.1)),
        Vl0=float(rng.uniform(0.3, 0.45)),
        Vl1=float(rng.uniform(0.46, 0.6)),
        Vh0=float(rng.uniform(1.17, 1.3)),
        Vh1=float(rng.uniform(1.1, 1.16)),
        tvl0=0.16, tvl1=0.16, tvh0=0.16, tvh1=0.16,
        Vrfrac=float(rng.uniform(0.0, 1.0)),
        Trf=float(rng.uniform(0.02, 0.1)),
        Kpg=float(rng.uniform(0.0, 0.5)),
        Kig=float(rng.uniform(0.1, 20.0)),
        Ddn=float(rng.uniform(0.0, 30.0)),
        Dup=float(rng.uniform(0.0, 5.0)),
        femax=float(rng.uniform(0.05, 99.0)),
        femin=float(-rng.uniform(0.05, 99.0)),
        fdbd1=-0.0006 if not fdbd_wide else -99.0,
        fdbd2=0.0006 if not fdbd_wide else 99.0,
        Freqflag=int(rng.integers(0, 2)),
        Pmin=float(rng.uniform(-0.2, 0.1)),
        Pmax=float(rng.uniform(0.9, 1.2)),
        Tpord=float(rng.uniform(0.01, 0.1)),
        dPmin=float(-rng.uniform(0.1, 1.0)),
        dPmax=float(rng.uniform(0.1, 1.0)),
        Vtripflag=int(rng.integers(0, 2)),
        Iql1=float(-rng.uniform(0.1, 1.0)),
        Iqh1=float(rng.uniform(0.1, 1.0)),
        Xe=0.25,
        Ftripflag=int(rng.integers(0, 2)),
        PQflag=int(rng.integers(0, 2)),
        typeflag=int(rng.integers(0, 2)),
        Vpr=0.8,
    )


def test_oracle_equivalence_1000_random_points():
    rng = np.random.default_rng(777)
    dt = 1e-3
    for k in range(1000):
        params = TABLE if k % 4 == 0 else _random_params(rng)
        state = DerAState(
            S0=float(rng.uniform(0.0, 1.4)) if k % 17 else 0.005,  # hit the floor too
            S1=float(rng.uniform(-1.5, 1.5)),
            S2=float(rng.uniform(-1.5, 1.5)),
            S3=float(rng.uniform(-1.5, 1.5)),
            S4=float(rng.uniform(0.0, 1.0)),
            S5=float(rng.uniform(0.9, 1.1)),
            S6=float(rng.uniform(-1.5, 1.5)),
            S7=float(rng.uniform(-1.5, 1.5)),
            S8=float(rng.uniform(-1.5, 1.5)),
            S9=float(rng.uniform(-1.5, 1.5)),
        )
        refs = DerARefs(
            Pref=float(rng.uniform(-1.0, 2.0)),
            Qref=float(rng.uniform(-1.0, 1.0)),
            pfaref=float(rng.uniform(-1.2, 1.2)),
            Freqref=float(rng.uniform(0.98, 1.02)),
        )
        lv = bool(rng.integers(0, 2))
        hv = bool(rng.integers(0, 2))
        trackers = DerATrackers(
            vmin_seen=float(rng.uniform(0.2, 1.0)),
            vmax_seen=float(rng.uniform(1.0, 1.3)),
            low_v_timer=1.0 if lv else 0.0,
            high_v_timer=1.0 if hv else 0.0,
        )
        vt = float(rng.uniform(0.0, 1.3))
        freq = float(rng.uniform(0.94, 1.06))

        d = dera_rhs(params, refs, dt)(state, trackers, vt, freq)
        ref = dera_reference_rhs(
            (state.S0, state.S1, state.S2, state.S3, state.S4,
             state.S5, state.S6, state.S7, state.S8, state.S9),
            vt, freq, params, refs,
            trackers.vmin_seen, trackers.vmax_seen, lv, hv, dt,
        )
        assert _vec_rel_err(d, ref) <= 1e-13


# ----------------------------------------------------------------- fixed points

def test_initialized_equilibrium_all_derivatives_small():
    state, refs, trackers = dera_initialize(0.5, 0.1, 1.0, 1.0, TABLE)
    d = dera_rhs(TABLE, refs, 1e-3)(state, trackers, 1.0, 1.0)
    assert float(np.max(np.abs(d))) < 1e-8


def test_initialize_zero_output_state():
    state, refs, trackers = dera_initialize(0.0, 0.0, 1.0, 1.0, TABLE)
    assert state.S0 == 1.0 and state.S4 == 1.0 and state.S5 == 1.0
    for name in ("S1", "S2", "S3", "S6", "S7", "S8", "S9"):
        assert getattr(state, name) == 0.0
    assert trackers.vmin_seen == 1.0 and not trackers.tripped


def test_initialize_table_values():
    pgen0, qgen0 = 0.5, 0.1
    state, refs, _ = dera_initialize(pgen0, qgen0, 1.0, 1.0, TABLE)
    assert state.S9 == pgen0 / 1.0
    assert state.S3 == -qgen0 / 1.0
    assert state.S8 == pgen0 and state.S7 == pgen0 and state.S1 == pgen0
    # Constant power factor branch holds the commanded q current.
    assert math.tan(refs.pfaref) * pgen0 == pytest.approx(-qgen0, abs=1e-12)


def test_initialize_idempotent():
    a = dera_initialize(0.7, -0.15, 1.0, 1.0, TABLE)
    b = dera_initialize(0.7, -0.15, 1.0, 1.0, TABLE)
    assert float(np.max(np.abs(np.array(a[0]) - np.array(b[0])))) < 1e-12
    assert a[1] == b[1]


class _NanVoltageBus:
    """V = 1 before t = 0.5 s and nan from then on, at nominal frequency."""

    def voltage(self, t):
        return np.where(np.asarray(t) >= 0.5, math.nan, 1.0)

    def frequency(self, t):
        return np.ones(np.shape(t))


def test_rejects_non_finite_inputs():
    zero_zip = ZipParams(p0=0.0, q0=0.0, v0=1.0, a_p=0.0, b_p=0.0, c_p=1.0,
                         a_q=0.0, b_q=0.0, c_q=1.0)
    scenario = build_scenario(LoadMix(f_zip=1.0, der_scale=1.0), _NanVoltageBus(),
                              {"dera": (TABLE, 0.5, 0.1), "zip": zero_zip})
    with pytest.raises(NonFiniteInput, match=r"non-finite input at t = 0\.5$"):
        run_simulation(scenario, IntegratorConfig(dt=0.125, t_end=1.0))


def test_initialize_infeasible_cases():
    with pytest.raises(InfeasibleInit):
        dera_initialize(0.5, 0.1, 0.005, 1.0, TABLE)  # below the voltage floor
    with pytest.raises(InfeasibleInit):
        dera_initialize(1.3, 0.0, 1.0, 1.0, TABLE)  # above Pmax
    with pytest.raises(InfeasibleInit):
        dera_initialize(1.0, 0.9, 1.0, 1.0, TABLE)  # apparent current beyond Imax
    with pytest.raises(InfeasibleInit):
        dera_initialize(0.5, 0.1, 0.45, 1.0, TABLE)  # inside the derating band
    generator = dataclasses.replace(TABLE, typeflag=0, PfFlag=0)
    with pytest.raises(InfeasibleInit):
        dera_initialize(-0.4, 0.0, 1.0, 1.0, generator)  # generators cannot absorb


def test_initialize_refuses_a_pi_error_beyond_its_limit():
    # Holding Pgen0 = 0.5 needs the PI error 0.5 * (1 - Kpg) / (Tp * Kig) = 2.25 pu.
    with pytest.raises(InfeasibleInit, match=r"error limits \(2\.25 pu\)$"):
        dera_initialize(0.5, 0.1, 1.0, 1.0, dataclasses.replace(TABLE, femax=0.01))


def test_initialize_with_zero_integral_gain_needs_unit_proportional_gain():
    with pytest.raises(InfeasibleInit, match="integral gain is zero"):
        dera_initialize(0.5, 0.1, 1.0, 1.0, dataclasses.replace(TABLE, Kig=0.0))
    state, refs, _ = dera_initialize(0.5, 0.1, 1.0, 1.0,
                                     dataclasses.replace(TABLE, Kig=0.0, Kpg=1.0))
    assert refs.Pref == 0.5 and state.S6 == 0.5


def test_initialize_refuses_reactive_output_at_zero_power_under_power_factor_control():
    assert TABLE.PfFlag == 1
    with pytest.raises(InfeasibleInit, match="constant power-factor control"):
        dera_initialize(0.0, 0.1, 1.0, 1.0, TABLE)


def test_equilibrium_outputs_match_operating_point():
    for pgen0, qgen0 in [(0.5, 0.1), (0.9, -0.3), (0.2, 0.0)]:
        state, refs, trackers = dera_initialize(pgen0, qgen0, 1.0, 1.0, TABLE)
        p, q, _ = component_output(state, trackers, 1.0, 1.0)
        assert abs(p - pgen0) < 1e-6
        assert abs(q - qgen0) < 1e-6


def test_outputs_truth_table():
    # (P, Q, trip latch) at states S0..S9, the memory and (Vt, Freq).
    assert component_output((1, 0, 0, 0, 1, 1, 0, 0, 0, 0), FRESH, 1.0, 1.0) == (0.0, 0.0, 0.0)
    state = (1, 0, 0, 0, 1, 1, 0, 0.5, 0.5, 0.5)
    assert component_output(state, FRESH, 1.0, 1.0) == (0.5, -0.0, 0.0)
    tripped = DerATrackers(1.0, 1.0, tripped=True)
    assert component_output(state, tripped, 1.0, 1.0) == (0.0, 0.0, 1.0)


# ------------------------------------------------------------- branch behaviours

def test_pf_flag_fixed_point_returns_initial_reactive_output():
    # With PfFlag=1 the Q integrator's fixed point is tan(pfaref)*S1/S0,
    # which at the initialized references equals the commanded q-axis
    # current -Qgen0/Vt0, so the output settles back at Qgen0.
    pgen0, qgen0 = 0.5, 0.1
    state, refs, trackers = dera_initialize(pgen0, qgen0, 1.0, 1.0, TABLE)
    s2_fixed = math.tan(refs.pfaref) * state.S1 / max(state.S0, 0.01)
    assert s2_fixed == pytest.approx(-qgen0, abs=1e-12)
    bumped = state._replace(S2=s2_fixed + 0.2)
    d = dera_rhs(TABLE, refs, 1e-3)(bumped, trackers, 1.0, 1.0)
    assert d[2] == pytest.approx(-0.2 / TABLE.Tiq, abs=1e-12)


def test_wide_deadband_suppresses_voltage_support():
    # Table-preset deadband spans +/-99 pu, so during a 0.8 pu fault the
    # proportional voltage-support path contributes exactly nothing and S3
    # tracks the saturated Q command scaled by the trip multiplier.
    state, refs, trackers = dera_initialize(0.5, 0.1, 1.0, 1.0, TABLE)
    faulted = state._replace(S0=0.8)
    d = dera_rhs(TABLE, refs, 1e-3)(faulted, trackers, 0.8, 1.0)
    expected = -(faulted.S3 - faulted.S2 * faulted.S4) / TABLE.Tg
    assert d[3] == expected


def test_narrow_deadband_injects_support():
    params = dataclasses.replace(TABLE, dbd1=-0.05, dbd2=0.05, Vref0=1.0)
    state, refs, trackers = dera_initialize(0.5, 0.1, 1.0, 1.0, params)
    faulted = state._replace(S0=0.8)
    d = dera_rhs(params, refs, 1e-3)(faulted, trackers, 0.8, 1.0)
    support = min(max((1.0 - 0.8) - 0.05, params.Iql1), params.Iqh1) * params.Kqv
    support = min(max(params.Kqv * ((1.0 - 0.8) - 0.05), params.Iql1), params.Iqh1)
    iqcmd = min(max(faulted.S2 + support, -params.Imax), params.Imax)
    assert d[3] == -(faulted.S3 - iqcmd * faulted.S4) / params.Tg


def test_freqflag_zero_holds_power_order():
    state, refs, trackers = dera_initialize(0.5, 0.1, 1.0, 1.0, TABLE)
    shaken = state._replace(S6=0.9, S8=0.2)
    d = dera_rhs(TABLE, refs, 1e-3)(shaken, trackers, 0.7, 1.02)
    assert d[7] == 0.0


def test_freqflag_one_rate_limits_power_order():
    params = dataclasses.replace(TABLE, Freqflag=1)
    state, refs, trackers = dera_initialize(0.5, 0.1, 1.0, 1.0, params)
    dt = 1e-3
    rhs = dera_rhs(params, refs, dt)
    far = state._replace(S6=1.05)  # tracking error 0.55/dt >> dPmax
    assert rhs(far, trackers, 1.0, 1.0)[7] == params.dPmax
    near = state._replace(S6=state.S7 + 0.2 * params.dPmax * dt)
    assert abs(rhs(near, trackers, 1.0, 1.0)[7]) < params.dPmax


def test_param_validation():
    with pytest.raises(ValueError):
        dataclasses.replace(TABLE, Trf=0.01)  # below the 0.02 s floor
    with pytest.raises(ValueError):
        dataclasses.replace(TABLE, Vl0=0.5)  # breaks Vl0 < Vl1
    with pytest.raises(ValueError):
        dataclasses.replace(TABLE, dPmin=0.1)  # ramp-down must be negative
    with pytest.raises(ValueError):
        dataclasses.replace(TABLE, PfFlag=2)
    with pytest.raises(ValueError):
        dataclasses.replace(TABLE, Vrfrac=1.5)


def _rk4_dera(state, trackers, params, refs, vt, freq, dt, n):
    y = np.array(state)
    rhs = dera_rhs(params, refs, dt)

    def f(yv):
        return np.array(rhs(yv.tolist(), trackers, vt, freq))

    hist = [y.copy()]
    for _ in range(n):
        k1 = f(y)
        k2 = f(y + dt / 2 * k1)
        k3 = f(y + dt / 2 * k2)
        k4 = f(y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        hist.append(y.copy())
    return np.array(hist)


@pytest.mark.parametrize("channel,tau_name", [("S0", "Trv"), ("S5", "Trf")])
def test_filter_step_response_time_constant(channel, tau_name):
    state, refs, trackers = dera_initialize(0.5, 0.1, 1.0, 1.0, TABLE)
    tau = getattr(TABLE, tau_name)
    dt = tau / 200.0
    step = 0.1
    vt = 1.0 + (step if channel == "S0" else 0.0)
    freq = 1.0 + (step if channel == "S5" else 0.0)
    hist = _rk4_dera(state, trackers, TABLE, refs, vt, freq, dt, 600)
    idx = {"S0": 0, "S5": 5}[channel]
    y = hist[:, idx]
    assert np.all(np.diff(y) >= -1e-15)  # monotone rise
    target = y[0] + (1.0 - math.exp(-1.0)) * step
    crossing = np.argmax(y >= target)
    t_cross = crossing * dt
    assert abs(t_cross - tau) <= 0.02 * tau


def test_power_order_filter_time_constant():
    # S8 tracks the frozen S7 as a pure first-order lag with Tpord.
    state, refs, trackers = dera_initialize(0.5, 0.0, 1.0, 1.0, TABLE)
    displaced = state._replace(S8=0.0)
    tau = TABLE.Tpord
    dt = tau / 200.0
    hist = _rk4_dera(displaced, trackers, TABLE, refs, 1.0, 1.0, dt, 600)
    y = hist[:, 8]
    assert np.all(np.diff(y) >= -1e-15)
    target = (1.0 - math.exp(-1.0)) * state.S7
    crossing = np.argmax(y >= target)
    assert abs(crossing * dt - tau) <= 0.02 * tau


def test_filtered_power_time_constant():
    # S1 tracks the steady S8 as a pure first-order lag with Tp.
    state, refs, trackers = dera_initialize(0.5, 0.0, 1.0, 1.0, TABLE)
    displaced = state._replace(S1=0.0)
    tau = TABLE.Tp
    dt = tau / 200.0
    hist = _rk4_dera(displaced, trackers, TABLE, refs, 1.0, 1.0, dt, 600)
    y = hist[:, 1]
    assert np.all(np.diff(y) >= -1e-15)
    target = (1.0 - math.exp(-1.0)) * state.S8
    crossing = np.argmax(y >= target)
    assert abs(crossing * dt - tau) <= 0.02 * tau


def test_limiter_flags_quiet_at_equilibrium():
    state, _, _ = dera_initialize(0.5, 0.1, 1.0, 1.0, TABLE)
    flags = dera_algebra(TABLE)[1](state)
    assert len(flags) == len(LIMITER_FLAGS)
    assert not any(flags)


def test_limiter_flags_detect_windup():
    state, _, _ = dera_initialize(0.5, 0.1, 1.0, 1.0, TABLE)
    wound = state._replace(S6=TABLE.Pmax + 0.5)
    flags = dict(zip(LIMITER_FLAGS, dera_algebra(TABLE)[1](wound)))
    assert flags["power_order_windup"]
