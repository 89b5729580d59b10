"""Fifth-order three-phase induction motor model (composite-load motors A/B/C).

States are the transient and subtransient EMFs plus rotor slip. The dq
current algebra keeps the (V + E'') sign combination used by the WECC
composite-model block diagrams; many machine texts write (E'' - V) instead,
so do not mix parameter sets or states across conventions. The terminal
bus supplies a voltage magnitude and angle; all bundled scenarios drive
magnitude only (angle 0, so Vd = |V| and Vq = 0).

Torque law: TL = Tm0 * (A*w^2 + B*w + C0 + D*w^Etrq) with w = 1 - slip.
For fractional Etrq the speed is clamped at zero before exponentiation to
stay real during extreme transients; the simulator counts those samples.
Etrq must be >= 0: the clamped speed 0 has no negative power.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NoEquilibrium, require_finite

logger = logging.getLogger(__name__)

NEWTON_MAX_ITER = 100
NEWTON_TOL = 1e-10


@dataclass(frozen=True)
class MotorParams:
    rs: float           # stator resistance (pu)
    Ls: float           # synchronous reactance (pu)
    Lp: float           # transient reactance (pu)
    Lpp: float          # subtransient reactance (pu)
    Tp0: float          # transient rotor time constant (s)
    Tpp0: float         # subtransient rotor time constant (s)
    H: float            # inertia constant (s)
    A: float            # torque-speed polynomial, w^2 coefficient
    B: float            # torque-speed polynomial, w coefficient
    C0: float           # torque-speed polynomial, constant coefficient
    D: float            # torque-speed polynomial, w^Etrq coefficient
    Etrq: float         # torque speed exponent
    p: float = -1.0     # power-convention sign on E''d*id torque term
    q: float = -1.0     # power-convention sign on E''q*iq torque term
    omega0: float = 120.0 * math.pi  # synchronous frequency (rad/s)

    def __post_init__(self):
        if not (self.Ls > self.Lp > self.Lpp > 0.0):
            raise ValueError(f"need Ls > Lp > Lpp > 0, got ({self.Ls}, {self.Lp}, {self.Lpp})")
        if not (self.Tp0 > self.Tpp0 > 0.0):
            raise ValueError(f"need Tp0 > Tpp0 > 0, got ({self.Tp0}, {self.Tpp0})")
        if not self.H > 0.0:
            raise ValueError(f"need H > 0, got {self.H}")
        if not self.rs >= 0.0:
            raise ValueError(f"need rs >= 0, got {self.rs}")
        if not self.Etrq >= 0.0:
            raise ValueError(f"need Etrq >= 0, got {self.Etrq}")
        require_finite(self)


class MotorState(NamedTuple):
    Eqp: float   # q-axis transient EMF (pu)
    Edp: float   # d-axis transient EMF (pu)
    Eqpp: float  # q-axis subtransient EMF (pu)
    Edpp: float  # d-axis subtransient EMF (pu)
    slip: float  # rotor slip


def motor_kernel(params: MotorParams, Tm0: float, Vq: float = 0.0):
    """(algebra, load_torque, rhs, output, flags) of one motor, constants computed once.

    algebra(Eqpp, Edpp, slip, Vd, Vq) -> (Id, Iq, P, Q, w); load_torque(w) -> TL at torque
    base Tm0 (pu), which motor_initialize solves for.
    rhs(s, m, Vd, f) -> the five derivatives, output(s, m, Vd, f) -> (P, Q) and
    flags(s) -> (speed clamped,) are the component form (sim.Component) at q-axis
    voltage Vq: s is (Eqp, Edp, Eqpp, Edpp, slip); the memory m and frequency f
    are unused. Nothing here checks its inputs: the stepper checks the bus values
    it reads and the states it makes.
    """
    rs, Lp, Lpp, Tp0, Tpp0 = params.rs, params.Lp, params.Lpp, params.Tp0, params.Tpp0
    den = rs * rs + Lpp * Lpp
    kr = rs / den
    kx = Lpp / den
    A, B, C0, D, Etrq = params.A, params.B, params.C0, params.D, params.Etrq
    dLs = params.Ls - Lp
    omega0, p, q, two_h = params.omega0, params.p, params.q, 2.0 * params.H
    c_em = (Tp0 - Tpp0) / (Tp0 * Tpp0)
    c_i = (Tpp0 * dLs + Tp0 * (Lp - Lpp)) / (Tp0 * Tpp0)

    def algebra(Eqpp, Edpp, slip, Vd, Vq):
        Id = kr * (Vd + Edpp) + kx * (Vq + Eqpp)
        Iq = kr * (Vq + Eqpp) - kx * (Vd + Edpp)
        return Id, Iq, Vd * Id + Vq * Iq, Vq * Id - Vd * Iq, 1.0 - slip

    def load_torque(w):
        wc = w if w > 0.0 else 0.0  # speed clamped for the exponent term only
        return Tm0 * (A * w * w + B * w + C0 + D * wc**Etrq)

    def rhs(s, m, Vd, f):  # algebra and load_torque written in, without their calls
        Eqp, Edp, Eqpp, Edpp, slip = s
        Id = kr * (Vd + Edpp) + kx * (Vq + Eqpp)
        Iq = kr * (Vq + Eqpp) - kx * (Vd + Edpp)
        w = 1.0 - slip
        wc = w if w > 0.0 else 0.0
        ws = omega0 * slip
        return (
            (-Eqp - Id * dLs - Edp * ws * Tp0) / Tp0,
            (-Edp + Iq * dLs + Eqp * ws * Tp0) / Tp0,
            c_em * Eqp - c_i * Id - Eqpp / Tpp0 - ws * Edpp,
            c_em * Edp + c_i * Iq - Edpp / Tpp0 + ws * Eqpp,
            -(p * Edpp * Id + q * Eqpp * Iq - Tm0 * (A * w * w + B * w + C0 + D * wc**Etrq))
            / two_h,
        )

    def output(s, m, Vd, f):
        return algebra(s[2], s[3], s[4], Vd, Vq)[2:4]

    def flags(s):
        return (1.0 - s[4] <= 0.0,)

    return algebra, load_torque, rhs, output, flags


def motor_initialize(
    P0: float,
    Q0: float | None,
    Vd0: float,
    Vq0: float,
    params: MotorParams,
) -> tuple[MotorState, float]:
    """(state, Tm0): the constant-voltage equilibrium consuming P0 at (Vd0, Vq0).

    Damped Newton on (EMFs, slip) with the four EMF equations and the
    active-power match as residuals, started from slip 0.01 and EMFs equal
    to the terminal voltage rotated by 90 degrees. The torque base Tm0 is
    then set from the solved electrical torque divided by the speed
    polynomial, which leaves all five derivatives at zero. For the
    constant-torque motors (speed polynomial identically 1) this reduces to
    Tm0 equal to the solved electrical torque.

    Q is not a free boundary condition: at fixed voltage the machine's
    reactive power is determined by the solved slip. A requested Q0 is
    checked and a mismatch beyond 1e-6 pu is logged as a warning, never
    forced. The solve does not check stability: it can return an
    equilibrium past the torque peak (motor_a at V = 1 pu and P0 = 5 solves
    to slip 0.72, beyond the peak at slip 0.55). Raises NoEquilibrium only
    when the Newton solve stalls or exhausts its iteration budget.
    """
    if math.hypot(Vd0, Vq0) <= 0.0:
        raise NoEquilibrium("terminal voltage magnitude must be positive")
    # With a unit torque base TL is the speed polynomial itself. TL enters
    # neither the EMF equations nor P, so the residual (the four EMF
    # derivatives and the active-power mismatch at slip x[4]) does not
    # depend on it.
    algebra, load_torque, rhs = motor_kernel(params, 1.0, Vq0)[:3]

    def residual(x):  # on plain floats: numpy scalars make each operation slow
        d = rhs(x, (), Vd0, 0.0)
        return [d[0], d[1], d[2], d[3], algebra(x[2], x[3], x[4], Vd0, Vq0)[2] - P0]

    def size(f):  # the largest |f_i|, nan if one is nan, as np.max(np.abs(f)) gives it
        return math.nan if any(map(math.isnan, f)) else max(map(abs, f))

    x = [Vd0, -Vq0, Vd0, -Vq0, 0.01]
    fx = residual(x)
    norm = size(fx)
    for _ in range(NEWTON_MAX_ITER):
        if norm < NEWTON_TOL:
            break
        jac = np.empty((5, 5))
        for j, xj in enumerate(x):  # central differences, x[j] moved in place and put back
            h = 1e-7 * max(1.0, abs(xj))
            x[j] = xj + h
            fp = residual(x)
            x[j] = xj - h
            fm = residual(x)
            x[j] = xj
            jac[:, j] = [(a - b) / (2.0 * h) for a, b in zip(fp, fm)]
        try:
            dx = np.linalg.solve(jac, [-v for v in fx]).tolist()
        except np.linalg.LinAlgError:
            raise NoEquilibrium("singular Jacobian in equilibrium solve", residual=norm)
        lam = 1.0
        while True:
            x_new = [a + lam * b for a, b in zip(x, dx)]
            f_new = residual(x_new)
            n_new = size(f_new)
            if n_new < norm:
                break
            lam *= 0.5
            if lam < 2.0**-30:
                raise NoEquilibrium(
                    "equilibrium solve stalled; operating point likely infeasible",
                    residual=norm,
                )
        x, fx, norm = x_new, f_new, n_new
    if norm >= NEWTON_TOL:
        raise NoEquilibrium(
            "equilibrium solve did not converge in the iteration budget", residual=norm
        )

    state = MotorState(*x)
    Id, Iq, _, Q, w = algebra(state.Eqpp, state.Edpp, state.slip, Vd0, Vq0)
    poly = load_torque(w)
    if abs(poly) < 1e-12:
        raise NoEquilibrium("torque-speed polynomial vanishes at the solved speed")
    te = params.p * state.Edpp * Id + params.q * state.Eqpp * Iq

    if Q0 is not None and abs(Q - Q0) > 1e-6:
        logger.warning(
            "requested Q0=%.6f pu is not consistent with the machine at P0=%.6f "
            "(achieved Q=%.6f); reactive power is not a free boundary condition",
            Q0,
            P0,
            Q,
        )
    return state, te / poly


# Parameter presets for the three composite-model motor classes.
# motor_a: low inertia, constant torque (compressors, positive-displacement pumps)
# motor_b: high inertia, speed-squared torque (fans, air handling)
# motor_c: low inertia, speed-squared torque (centrifugal pumps)
MOTOR_PRESETS: dict[str, MotorParams] = {
    "motor_a": MotorParams(
        rs=0.04, Ls=1.8, Lp=0.1, Lpp=0.083, Tp0=0.092, Tpp0=0.002, H=0.05,
        A=0.0, B=0.0, C0=0.0, D=1.0, Etrq=0.0,
    ),
    "motor_b": MotorParams(
        rs=0.03, Ls=1.8, Lp=0.16, Lpp=0.12, Tp0=0.1, Tpp0=0.0026, H=1.0,
        A=0.0, B=0.0, C0=0.0, D=1.0, Etrq=2.0,
    ),
    "motor_c": MotorParams(
        rs=0.03, Ls=1.8, Lp=0.16, Lpp=0.12, Tp0=0.1, Tpp0=0.0026, H=0.1,
        A=0.0, B=0.0, C0=0.0, D=1.0, Etrq=2.0,
    ),
}
