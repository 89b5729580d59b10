"""Three-phase motor model: algebra cases, oracle equivalence, equilibria.

Covers: the zero-voltage/zero-EMF algebra case, the constant-torque
property of the motor_a preset, 1000-point equivalence against the
straight-line reference transcription, initialization residuals and
idempotence, the 10 s equilibrium hold, and the torque-law shape for the
speed-squared presets. The kernel's algebra gives (Id, Iq, P, Q, w) at
(Eqpp, Edpp, slip, Vd, Vq), load_torque(w) the load torque and rhs the five
derivatives at the states (Eqp, Edp, Eqpp, Edpp, slip).
"""

import dataclasses
import math

import numpy as np
import pytest

from clm_sim.composite import LoadMix
from clm_sim.errors import NoEquilibrium, NonFiniteInput
from clm_sim.motor3 import (
    MOTOR_PRESETS,
    MotorParams,
    MotorState,
    motor_initialize,
    motor_kernel,
)

from clm_sim.sim import IntegratorConfig, build_scenario, run_simulation

from oracles import motor_reference_rhs

V1 = (1.0, 0.0)


def _vec_rel_err(a, b):
    """Vector-relative disagreement: ||a - b||_inf over max(1, ||a||, ||b||).

    The slip cross terms put O(100) contributions into sums that largely
    cancel, so a component-wise denominator would measure association
    roundoff instead of genuine disagreement.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def test_zero_voltage_zero_emf_algebra():
    params = MOTOR_PRESETS["motor_a"]
    Tm0 = 0.7
    algebra, load_torque = motor_kernel(params, Tm0)[:2]
    Id, Iq, P, Q, w = algebra(0.0, 0.0, 0.0, 0.0, 0.0)
    assert Id == 0.0 and Iq == 0.0
    assert P == 0.0 and Q == 0.0
    assert w == 1.0
    # A = B = C0 = 0, D = 1, Etrq = 0: TL = Tm0 * (A + B + C0 + D)
    assert load_torque(w) == Tm0 * (params.A + params.B + params.C0 + params.D)


def test_motor_a_constant_torque_for_any_speed():
    params = MOTOR_PRESETS["motor_a"]
    Tm0 = 0.35
    algebra, load_torque = motor_kernel(params, Tm0)[:2]
    for w in (0.1, 0.5, 0.9, 1.0, 1.1):
        assert load_torque(algebra(0.15, -0.12, 1.0 - w, 1.0, 0.0)[4]) == Tm0


def test_slip_derivative_with_zero_electrical_torque():
    params = MOTOR_PRESETS["motor_a"]
    Tm0 = 0.4
    # Zero subtransient EMFs and zero voltage give zero currents, so the
    # slip derivative reduces to TL / (2H).
    algebra, load_torque, rhs = motor_kernel(params, Tm0)[:3]
    d = rhs((0.3, 0.2, 0.0, 0.0, 0.05), (), 0.0, 0.0)
    Id, Iq, _, _, w = algebra(0.0, 0.0, 0.05, 0.0, 0.0)
    assert Id == 0.0 and Iq == 0.0
    assert d[4] == load_torque(w) / (2.0 * params.H)


class _InfVoltageBus:
    """V = 1 before t = 0.5 s and inf from then on, at nominal frequency."""

    def voltage(self, t):
        return np.where(np.asarray(t) >= 0.5, math.inf, 1.0)

    def frequency(self, t):
        return np.ones(np.shape(t))


def test_rejects_non_finite_inputs():
    scenario = build_scenario(LoadMix(f_a=1.0), _InfVoltageBus(),
                              {"motor_a": (MOTOR_PRESETS["motor_a"], 0.5, None)})
    with pytest.raises(NonFiniteInput, match=r"non-finite input at t = 0\.5$"):
        run_simulation(scenario, IntegratorConfig(dt=0.125, t_end=1.0))


def test_param_invariants_enforced():
    with pytest.raises(ValueError):
        MotorParams(rs=0.04, Ls=0.1, Lp=1.8, Lpp=0.083, Tp0=0.092, Tpp0=0.002,
                    H=0.05, A=0, B=0, C0=0, D=1, Etrq=0)
    with pytest.raises(ValueError):
        MotorParams(rs=0.04, Ls=1.8, Lp=0.1, Lpp=0.083, Tp0=0.002, Tpp0=0.092,
                    H=0.05, A=0, B=0, C0=0, D=1, Etrq=0)
    with pytest.raises(ValueError):
        MotorParams(rs=0.04, Ls=1.8, Lp=0.1, Lpp=0.083, Tp0=0.092, Tpp0=0.002,
                    H=-1.0, A=0, B=0, C0=0, D=1, Etrq=0)
    with pytest.raises(ValueError, match=r"need Etrq >= 0, got -0.5"):
        dataclasses.replace(MOTOR_PRESETS["motor_a"], Etrq=-0.5)


def test_oracle_equivalence_1000_random_points():
    rng = np.random.default_rng(2024)
    presets = list(MOTOR_PRESETS.values())
    for k in range(1000):
        base = presets[k % len(presets)]
        params = MotorParams(
            rs=base.rs, Ls=base.Ls, Lp=base.Lp, Lpp=base.Lpp,
            Tp0=base.Tp0, Tpp0=base.Tpp0, H=base.H,
            A=float(rng.uniform(-0.5, 0.5)),
            B=float(rng.uniform(-0.5, 0.5)),
            C0=float(rng.uniform(-0.5, 0.5)),
            D=float(rng.uniform(0.1, 1.5)),
            Etrq=float(rng.choice([0.0, 1.0, 2.0, 1.8])),
            p=float(rng.choice([-1.0, 1.0])),
            q=float(rng.choice([-1.0, 1.0])),
        )
        Tm0 = float(rng.uniform(-1.0, 1.0))
        state = MotorState(*rng.uniform(-2.0, 2.0, size=4), float(rng.uniform(-0.5, 1.2)))
        Vd, Vq = rng.uniform(-1.5, 1.5, size=2)

        algebra, load_torque, rhs = motor_kernel(params, Tm0, Vq)[:3]
        d = rhs(state, (), Vd, 0.0)
        Id, Iq, P, Q, w = algebra(state.Eqpp, state.Edpp, state.slip, Vd, Vq)
        (rd, ro) = motor_reference_rhs(
            state.Eqp, state.Edp, state.Eqpp, state.Edpp, state.slip, Vd, Vq,
            params.rs, params.Ls, params.Lp, params.Lpp, params.Tp0, params.Tpp0,
            params.H, params.A, params.B, params.C0, params.D, params.Etrq,
            params.p, params.q, params.omega0, Tm0,
        )
        assert _vec_rel_err(d, rd) <= 1e-14
        assert _vec_rel_err((Id, Iq, P, Q, load_torque(w), w), ro) <= 1e-14


def test_rhs_gives_the_bits_of_algebra_and_load_torque():
    # rhs writes the current algebra and the load torque into its own body; it must give
    # the bits of the composed form, with every torque term in use and clamped speeds.
    rng = np.random.default_rng(31)
    params = dataclasses.replace(MOTOR_PRESETS["motor_b"], A=0.3, B=-0.2, C0=0.1, D=0.8,
                                 Etrq=1.7)
    P, Tm0, Vq = params, 0.7, 0.05
    algebra, load_torque, rhs = motor_kernel(params, Tm0, Vq)[:3]
    dLs, T = P.Ls - P.Lp, P.Tp0 * P.Tpp0
    c_em, c_i = (P.Tp0 - P.Tpp0) / T, (P.Tpp0 * dLs + P.Tp0 * (P.Lp - P.Lpp)) / T
    for _ in range(500):
        Eqp, Edp, Eqpp, Edpp = rng.uniform(-1.5, 1.5, 4).tolist()
        slip, Vd = float(rng.uniform(-0.5, 1.5)), float(rng.uniform(0.0, 1.2))
        Id, Iq, _, _, w = algebra(Eqpp, Edpp, slip, Vd, Vq)
        ws = P.omega0 * slip
        composed = (
            (-Eqp - Id * dLs - Edp * ws * P.Tp0) / P.Tp0,
            (-Edp + Iq * dLs + Eqp * ws * P.Tp0) / P.Tp0,
            c_em * Eqp - c_i * Id - Eqpp / P.Tpp0 - ws * Edpp,
            c_em * Edp + c_i * Iq - Edpp / P.Tpp0 + ws * Eqpp,
            -(P.p * Edpp * Id + P.q * Eqpp * Iq - load_torque(w)) / (2.0 * P.H),
        )
        got = rhs([Eqp, Edp, Eqpp, Edpp, slip], (), Vd, 1.0)
        assert np.array(got).view(np.uint64).tolist() == np.array(composed).view(
            np.uint64).tolist()


def test_algebraic_identities_random_points():
    rng = np.random.default_rng(7)
    params = MOTOR_PRESETS["motor_b"]
    algebra = motor_kernel(params, 0.6)[0]
    for _ in range(200):
        state = MotorState(*rng.uniform(-1.5, 1.5, size=4), float(rng.uniform(-0.3, 0.3)))
        Vd, Vq = rng.uniform(-1.2, 1.2, size=2)
        Id, Iq, _, Q, w = algebra(state.Eqpp, state.Edpp, state.slip, Vd, Vq)
        assert Q == Vq * Id - Vd * Iq  # exact by construction
        assert w == 1.0 - state.slip  # definitional, exact
        assert abs(w + state.slip - 1.0) < 1e-15


@pytest.mark.parametrize("name,p0", [("motor_a", 0.8), ("motor_b", 0.5), ("motor_c", 0.5)])
def test_initialize_residual_below_1e8(name, p0):
    params = MOTOR_PRESETS[name]
    state, Tm0 = motor_initialize(p0, None, *V1, params)
    algebra, _, rhs = motor_kernel(params, Tm0)[:3]
    assert max(abs(x) for x in rhs(state, (), 1.0, 0.0)) < 1e-8
    assert abs(algebra(state.Eqpp, state.Edpp, state.slip, *V1)[2] - p0) < 1e-6


def test_initialize_no_load_case():
    params = MOTOR_PRESETS["motor_a"]
    state, Tm0 = motor_initialize(0.0, None, *V1, params)
    algebra, load_torque, rhs = motor_kernel(params, Tm0)[:3]
    Id, Iq, P, _, w = algebra(state.Eqpp, state.Edpp, state.slip, *V1)
    assert abs(P) < 1e-8
    assert max(abs(x) for x in rhs(state, (), 1.0, 0.0)) < 1e-8
    # Zero input power still leaves a small counter-torque covering the
    # stator loss, so the solved torque base is near (not at) zero.
    assert abs(load_torque(w)) < params.rs * (Id**2 + Iq**2) + 1e-6


def test_initialize_consistent_q_roundtrip():
    params = MOTOR_PRESETS["motor_a"]
    state, Tm0 = motor_initialize(0.8, None, *V1, params)
    q_solved = motor_kernel(params, Tm0)[0](state.Eqpp, state.Edpp, state.slip, *V1)[3]
    state2, init2 = motor_initialize(0.8, q_solved, *V1, params)
    _, _, P2, Q2, _ = motor_kernel(params, init2)[0](state2.Eqpp, state2.Edpp, state2.slip, *V1)
    assert abs(P2 - 0.8) < 1e-6
    assert abs(Q2 - q_solved) < 1e-6


def test_initialize_idempotent():
    params = MOTOR_PRESETS["motor_c"]
    s1, tm1 = motor_initialize(0.4, None, *V1, params)
    s2, tm2 = motor_initialize(0.4, None, *V1, params)
    for a, b in zip(s1, s2):
        assert abs(a - b) < 1e-10
    assert abs(tm1 - tm2) < 1e-10


def test_initialize_infeasible_loading_raises():
    params = MOTOR_PRESETS["motor_a"]
    with pytest.raises(NoEquilibrium):
        motor_initialize(25.0, None, *V1, params)  # far beyond pull-out


def test_initialize_refuses_a_zero_terminal_voltage():
    with pytest.raises(NoEquilibrium, match="^terminal voltage magnitude must be positive$"):
        motor_initialize(0.8, None, 0.0, 0.0, MOTOR_PRESETS["motor_a"])


def test_inconsistent_q_logs_warning(caplog):
    params = MOTOR_PRESETS["motor_a"]
    with caplog.at_level("WARNING", logger="clm_sim.motor3"):
        motor_initialize(0.8, 0.0, *V1, params)
    assert any("not consistent" in r.message for r in caplog.records)


def _rk4(f, y, t, dt):
    k1 = f(t, y)
    k2 = f(t + dt / 2, y + dt / 2 * k1)
    k3 = f(t + dt / 2, y + dt / 2 * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def test_equilibrium_hold_10s_constant_voltage():
    params = MOTOR_PRESETS["motor_a"]
    p0 = 0.8
    state, Tm0 = motor_initialize(p0, None, *V1, params)
    algebra, load_torque, rhs = motor_kernel(params, Tm0)[:3]
    q0 = algebra(state.Eqpp, state.Edpp, state.slip, *V1)[3]

    def f(t, y):
        return np.array(rhs(y.tolist(), (), 1.0, 0.0))

    y = np.array(state)
    dt = 1e-3
    worst_p = 0.0
    worst_q = 0.0
    worst_torque_gap = 0.0
    for i in range(10000):
        y = _rk4(f, y, i * dt, dt)
        _, _, Eqpp, Edpp, slip = y
        Id, Iq, P, Q, w = algebra(Eqpp, Edpp, slip, *V1)
        worst_p = max(worst_p, abs(P - p0))
        worst_q = max(worst_q, abs(Q - q0))
        te = params.p * Edpp * Id + params.q * Eqpp * Iq
        worst_torque_gap = max(worst_torque_gap, abs(te - load_torque(w)))
    assert worst_p < 1e-6
    assert worst_q < 1e-6
    assert worst_torque_gap < 1e-8


def test_torque_constant_along_trajectory_motor_a():
    params = MOTOR_PRESETS["motor_a"]
    state, Tm0 = motor_initialize(0.6, None, *V1, params)
    algebra, load_torque, rhs = motor_kernel(params, Tm0)[:3]

    def f(t, y):
        v = 1.0 - 0.15 * math.sin(2 * math.pi * t) ** 2
        return np.array(rhs(y.tolist(), (), v, 0.0))

    y = np.array(state)
    dt = 1e-3
    for i in range(2000):
        y = _rk4(f, y, i * dt, dt)
        v = 1.0 - 0.15 * math.sin(2 * math.pi * (i + 1) * dt) ** 2
        assert load_torque(algebra(y[2], y[3], y[4], v, 0.0)[4]) == Tm0


@pytest.mark.parametrize("name", ["motor_b", "motor_c"])
def test_torque_monotone_in_speed_for_fan_presets(name):
    params = MOTOR_PRESETS[name]
    Tm0 = 0.5
    ws = np.linspace(1e-3, 1.2, 400)
    tls = [Tm0 * (params.A * w**2 + params.B * w + params.C0 + params.D * w**params.Etrq)
           for w in ws]
    assert all(b > a for a, b in zip(tls, tls[1:]))
