"""Aggregate distributed-energy-resource model (DER_A).

Ten first-order states:

  S0 filtered voltage        S5 filtered frequency
  S1 filtered power          S6 active-power PI composite
  S2 Q-control integrator    S7 rate-limited power order
  S3 q-axis current command  S8 filtered power order
  S4 voltage-trip multiplier S9 d-axis current command

Sign conventions: S9 and S3 are d/q current commands with the terminal
voltage on the d axis, so P = Vt*S9 and Q = -Vt*S3 (positive reactive
injection corresponds to a negative q-axis current command). The stored
references follow the same orientation: Qref equals minus the initial
reactive output, and pfaref is the angle whose tangent is the commanded
q-axis current ratio, i.e. arctan(-Qgen0/Pgen0).

The voltage deadband treats dbd1 as the lower knee and dbd2 as the upper
knee, the same shape as the frequency deadband; parameter tables declare
dbd1 <= 0 <= dbd2 and the implementation follows those declarations.

Memory (running min/max voltage, band dwell timers, frequency-trip latch)
lives in DerATrackers and is advanced once per accepted integration step
with end-of-step values, never inside integrator stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InfeasibleInit, require_finite

# Floor applied to the filtered voltage before any division.
VOLTAGE_FLOOR = 0.01

# Slack when testing an accumulated dwell timer against its duration, so a
# dwell of exactly ceil(duration/dt) steps latches despite float summation.
TIMER_EPS = 1e-12

# Largest integration step with frequency control on: the S7 rate limit
# tracks over one step (see dera_rhs).
FREQ_CONTROL_MAX_DT = 0.005


@dataclass(frozen=True)
class DerAParams:
    Trv: float        # voltage transducer time constant (s)
    Tp: float         # power transducer time constant (s)
    Tiq: float        # Q-control time constant (s)
    Vref0: float      # voltage reference set-point (pu)
    Kqv: float        # proportional voltage-support gain (pu/pu)
    Tg: float         # current-control time constant (s)
    PfFlag: int       # 0 constant-Q control, 1 constant power factor control
    Imax: float       # maximum converter current (pu)
    dbd1: float       # lower voltage deadband knee <= 0 (pu)
    dbd2: float       # upper voltage deadband knee >= 0 (pu)
    Tv: float         # voltage-trip multiplier time constant (s)
    Vl0: float        # low-voltage cut-out: zero-output break-point (pu)
    Vl1: float        # low-voltage cut-out: full-output break-point (pu)
    Vh0: float        # high-voltage cut-out: zero-output break-point (pu)
    Vh1: float        # high-voltage cut-out: full-output break-point (pu)
    tvl0: float       # dwell timer for the Vl0 point (s)
    tvl1: float       # dwell timer for the Vl1 point (s)
    tvh0: float       # dwell timer for the Vh0 point (s)
    tvh1: float       # dwell timer for the Vh1 point (s)
    Vrfrac: float     # fraction of tripped devices that recovers, in [0, 1]
    Trf: float        # frequency transducer time constant (s), >= 0.02
    Kpg: float        # active-power control proportional gain
    Kig: float        # active-power control integral gain
    Ddn: float        # down-side frequency droop gain >= 0
    Dup: float        # up-side frequency droop gain >= 0
    femax: float      # frequency-control error upper limit >= 0 (pu)
    femin: float      # frequency-control error lower limit <= 0 (pu)
    fdbd1: float      # lower frequency deadband knee <= 0 (pu)
    fdbd2: float      # upper frequency deadband knee >= 0 (pu)
    Freqflag: int     # 0 frequency control disabled, 1 enabled
    Pmin: float       # minimum power order (pu)
    Pmax: float       # maximum power order (pu)
    Tpord: float      # power order time constant (s)
    dPmin: float      # power ramp rate down < 0 (pu/s)
    dPmax: float      # power ramp rate up > 0 (pu/s)
    Vtripflag: int    # 0 voltage tripping disabled, 1 enabled
    Iql1: float       # minimum voltage-support reactive injection (pu)
    Iqh1: float       # maximum voltage-support reactive injection (pu)
    Xe: float         # source reactance (pu); stored only, no network interface uses it
    Ftripflag: int    # 0 frequency tripping disabled, 1 enabled
    PQflag: int       # 0 Q priority, 1 P priority for the current limit
    typeflag: int     # 0 generator (Ipmin = 0), 1 storage (Ipmin = -Ipmax)
    Vpr: float        # voltage below which frequency tripping is disabled (pu)
    # Frequency-trip thresholds and dwells; library defaults, not preset-table
    # values, so configure them explicitly before relying on trip timing.
    fl: float = 0.94  # under-frequency trip threshold (pu)
    fh: float = 1.03  # over-frequency trip threshold (pu)
    tfl: float = 0.16  # under-frequency trip dwell (s)
    tfh: float = 0.16  # over-frequency trip dwell (s)

    def __post_init__(self):
        require_finite(self, ("Vref0", "Kqv", "tvl0", "tvl1", "tvh0", "tvh1", "Kpg", "Kig", "Xe",
                              "Vpr", "fl", "fh", "tfl", "tfh"))
        for name in ("Trv", "Tp", "Tiq", "Tg", "Tv", "Trf", "Tpord"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"time constant {name} must be > 0")
        if not self.Trf >= 0.02:
            raise ValueError(f"Trf must be >= 0.02 s, got {self.Trf}")
        if not (self.Vl0 < self.Vl1 < self.Vh1 < self.Vh0):
            raise ValueError("voltage break-points must satisfy Vl0 < Vl1 < Vh1 < Vh0")
        if not (self.dbd1 <= 0.0 <= self.dbd2):
            raise ValueError("voltage deadband knees must satisfy dbd1 <= 0 <= dbd2")
        if not (self.fdbd1 <= 0.0 <= self.fdbd2):
            raise ValueError("frequency deadband knees must satisfy fdbd1 <= 0 <= fdbd2")
        if not (0.0 <= self.Vrfrac <= 1.0):
            raise ValueError(f"Vrfrac must be in [0, 1], got {self.Vrfrac}")
        if not self.Pmin <= self.Pmax:
            raise ValueError("need Pmin <= Pmax")
        if not (self.dPmin < 0.0 < self.dPmax):
            raise ValueError("need dPmin < 0 < dPmax")
        if not self.Imax > 0.0:
            raise ValueError("need Imax > 0")
        if not self.Iql1 <= self.Iqh1:
            raise ValueError("need Iql1 <= Iqh1")
        if not (self.femin <= 0.0 <= self.femax):
            raise ValueError("need femin <= 0 <= femax")
        if not (self.Ddn >= 0.0 and self.Dup >= 0.0):
            raise ValueError("droop gains must be >= 0")
        for name in ("PfFlag", "Freqflag", "Vtripflag", "Ftripflag", "PQflag", "typeflag"):
            if getattr(self, name) not in (0, 1):
                raise ValueError(f"flag {name} must be 0 or 1")


class DerAState(NamedTuple):
    S0: float
    S1: float
    S2: float
    S3: float
    S4: float
    S5: float
    S6: float
    S7: float
    S8: float
    S9: float


class DerATrackers(NamedTuple):
    """Simulation memory advanced once per accepted step (end-of-step values).

    vmax_seen complements vmin_seen because the high-voltage partial-recovery
    branches of the protection function reference the running maximum the
    same way the low-voltage branches reference the running minimum.
    """

    vmin_seen: float          # running minimum of Vt since start (pu)
    vmax_seen: float          # running maximum of Vt since start (pu)
    low_v_timer: float = 0.0   # dwell below Vl1 (s); latched once >= tvl1
    high_v_timer: float = 0.0  # dwell above Vh1 (s); latched once >= tvh1
    freq_low_timer: float = 0.0   # dwell below fl while Vt >= Vpr (s)
    freq_high_timer: float = 0.0  # dwell above fh while Vt >= Vpr (s)
    tripped: bool = False      # frequency-trip latch; forces P = Q = 0


@dataclass(frozen=True)
class DerARefs:
    Pref: float     # active power reference (pu)
    Qref: float     # reactive reference in q-axis current orientation (pu)
    pfaref: float   # power-factor reference angle (rad)
    Freqref: float  # frequency reference (pu)


# The names of the values dera_algebra's flags returns, in their order.
LIMITER_FLAGS = ("voltage_floor", "iq_command_limit", "iq_injection_limit",
                 "ip_command_limit", "power_order_limit", "power_order_windup")


def _headroom(cmd: float, imax: float, typeflag: int) -> tuple[float, float]:
    """(lo, hi) of the non-priority current axis beside priority command cmd."""
    head = imax * imax - cmd * cmd
    hi = math.sqrt(head) if head > 0.0 else 0.0
    return (-hi if typeflag == 1 else 0.0), hi


def component_output(s, mem, Vt: float, Freq: float) -> tuple[float, float, float]:
    """(P, Q, trip latch as 1.0 or 0.0) at states S0..S9 and memory mem: the stepper's output."""
    return (0.0, 0.0, 1.0) if mem[6] else (Vt * s[9], -Vt * s[3], 0.0)


def dera_algebra(params: DerAParams):
    """(commands, flags, protection) of the DER_A over plain floats, constants computed once.

    commands(S0, S2, S8) -> (floored S0, Ipcmd, Iqcmd, raw commands and limits);
    flags(s) -> the LIMITER_FLAGS values at states S0..S9; protection(Vt, mem)
    -> the voltage multiplier, mem being the DerATrackers fields in order.
    Nothing here checks its inputs: the stepper checks the bus values it reads.

    commands clips the current commands under the configured priority: the
    priority axis gets the symmetric +/-Imax band; the other axis gets the
    circular headroom sqrt(Imax^2 - cmd^2) beside the clipped priority
    command as its upper limit, with the lower limit -headroom for storage
    devices (typeflag 1) and 0 for generators. A companion command at or
    beyond Imax leaves zero headroom rather than a complex root.

    flags' power_order_windup marks the PI composite S6 outside Pmin..Pmax, where it keeps
    integrating: there is no anti-windup clamp. protection takes the first match of its nine
    branches in the order written (derating lines before dwell expiry, Vrfrac-scaled recovery
    lines after, 0 outside [Vl0, Vh0]) and clamps it to [0, 1], which a running extreme
    outside the band (a fresh memory's vmin at nominal, a dip below Vl0) can leave.
    """
    P = params
    Vref0, Kqv, dbd1, dbd2, Iql1, Iqh1 = P.Vref0, P.Kqv, P.dbd1, P.dbd2, P.Iql1, P.Iqh1
    Pmin, Pmax, imax, typeflag, q_priority = P.Pmin, P.Pmax, P.Imax, P.typeflag, P.PQflag == 0
    Vl0, Vl1, Vh0, Vh1, Vrfrac = P.Vl0, P.Vl1, P.Vh0, P.Vh1, P.Vrfrac
    lo_slope, hi_slope = Vl1 - Vl0, Vh0 - Vh1
    lo_thr, hi_thr = P.tvl1 - TIMER_EPS, P.tvh1 - TIMER_EPS

    def commands(S0, S2, S8):
        s0f = VOLTAGE_FLOOR if S0 <= VOLTAGE_FLOOR else S0
        x = Vref0 - S0
        verr = x - dbd2 if x > dbd2 else (x - dbd1 if x < dbd1 else 0.0)
        inj_raw = Kqv * verr
        iq_raw = S2 + (Iqh1 if inj_raw >= Iqh1 else (Iql1 if inj_raw <= Iql1 else inj_raw))
        ip_raw = (Pmax if S8 >= Pmax else (Pmin if S8 <= Pmin else S8)) / s0f
        if q_priority:
            iq_lo, iq_hi = -imax, imax
            iqcmd = iq_hi if iq_raw >= iq_hi else (iq_lo if iq_raw <= iq_lo else iq_raw)
            ip_lo, ip_hi = _headroom(iqcmd, imax, typeflag)
            ipcmd = ip_hi if ip_raw >= ip_hi else (ip_lo if ip_raw <= ip_lo else ip_raw)
        else:
            ip_lo, ip_hi = -imax, imax
            ipcmd = ip_hi if ip_raw >= ip_hi else (ip_lo if ip_raw <= ip_lo else ip_raw)
            iq_lo, iq_hi = _headroom(ipcmd, imax, typeflag)
            iqcmd = iq_hi if iq_raw >= iq_hi else (iq_lo if iq_raw <= iq_lo else iq_raw)
        return s0f, ipcmd, iqcmd, ip_raw, iq_raw, inj_raw, ip_lo, ip_hi, iq_lo, iq_hi

    def flags(s):
        S0, S6, S8 = s[0], s[6], s[8]
        _, _, _, ip_raw, iq_raw, inj_raw, ip_lo, ip_hi, iq_lo, iq_hi = commands(S0, s[2], S8)
        return (S0 <= VOLTAGE_FLOOR, iq_raw < iq_lo or iq_raw > iq_hi,
                inj_raw < Iql1 or inj_raw > Iqh1, ip_raw < ip_lo or ip_raw > ip_hi,
                S8 < Pmin or S8 > Pmax, S6 < Pmin or S6 > Pmax)

    def protection(Vt, mem):
        vmin, vmax, lv_exp, hv_exp = mem[0], mem[1], mem[2] >= lo_thr, mem[3] >= hi_thr
        if Vl0 <= Vt <= vmin:
            r = (Vt - Vl0) / lo_slope
        elif vmin <= Vt <= Vl1 and not lv_exp:
            r = (Vt - Vl0) / lo_slope
        elif Vl1 < Vt < Vh1 and not lv_exp:
            r = 1.0
        elif Vh1 <= Vt <= Vh0 and not hv_exp:
            r = (Vh0 - Vt) / hi_slope
        elif vmin <= Vt <= Vl1 and lv_exp:
            r = Vrfrac * ((Vt - vmin) / lo_slope)
        elif Vl1 < Vt < Vh1 and lv_exp:
            r = Vrfrac * ((Vl1 - vmin) / lo_slope)
        elif Vh1 <= Vt <= vmax and hv_exp:
            r = Vrfrac * ((vmax - Vt) / hi_slope)
        elif vmax <= Vt <= Vh0:
            r = (Vh0 - Vt) / hi_slope
        else:
            r = 0.0
        r = r if r > 0.0 else 0.0
        return r if r < 1.0 else 1.0

    return commands, flags, protection


def dera_rhs(params: DerAParams, refs: DerARefs, dt: float):
    """rhs(s, mem, Vt, Freq) -> the ten derivatives at states S0..S9 and memory mem.

    dt, the integration step (at most FREQ_CONTROL_MAX_DT), is the tracking interval of S7:
    dS7 is the ramp-band clip of (clipped S6 - S7) / dt, the limiter inside the rate limiter
    without an algebraic loop. It is unused with Freqflag 0.
    """
    P = params
    Trv, Tp, Tiq, Tg, Tv, Trf, Tpord = P.Trv, P.Tp, P.Tiq, P.Tg, P.Tv, P.Trf, P.Tpord
    pf_control, voltage_trip, freq_control = P.PfFlag == 1, P.Vtripflag == 1, P.Freqflag == 1
    Kig, Kpg_Tp, Ddn, Dup, femin, femax = P.Kig, P.Kpg / P.Tp, P.Ddn, P.Dup, P.femin, P.femax
    fdbd1, fdbd2, dPmin, dPmax, Pmin, Pmax = P.fdbd1, P.fdbd2, P.dPmin, P.dPmax, P.Pmin, P.Pmax
    ddn_trf, dup_trf = Ddn / Trf, Dup / Trf
    g_dn, g_up = -(P.Kpg * Ddn / Trf), -(P.Kpg * Dup / Trf)
    Pref, Qref, Freqref, tan_pfa = refs.Pref, refs.Qref, refs.Freqref, math.tan(refs.pfaref)
    commands, _, protection = dera_algebra(params)

    def rhs(s, mem, Vt, Freq):
        S0, S1, S2, S3, S4, S5, S6, S7, S8, S9 = s
        s0f, ipcmd, iqcmd = commands(S0, S2, S8)[:3]
        dS2 = -S2 / Tiq + (tan_pfa * S1 if pf_control else Qref) / (Tiq * s0f)
        trip_mult = S4 if voltage_trip else 1.0
        x = Freqref - S5
        ferr = x - fdbd2 if x > fdbd2 else (x - fdbd1 if x < fdbd1 else 0.0)
        dn, up = Ddn * ferr, Dup * ferr
        e = Pref - S1 + (dn if dn <= 0.0 else 0.0) + (up if up > 0.0 else 0.0)
        fe = Freq - S5  # frequency filter error: droop feedthrough outside the deadband
        outside = fe < fdbd1 or fe > fdbd2
        dS6 = (
            Kig * (femax if e >= femax else (femin if e <= femin else e))
            + Kpg_Tp * S1
            + (g_dn * fe if outside and ddn_trf * fe >= 0.0 else 0.0)
            + (g_up * fe if outside and dup_trf * fe < 0.0 else 0.0)
            - S8 / Tp
        )
        dS7 = 0.0
        if freq_control:
            tracked = Pmax if S6 >= Pmax else (Pmin if S6 <= Pmin else S6)
            ramp = (tracked - S7) / dt
            dS7 = dPmax if ramp >= dPmax else (dPmin if ramp <= dPmin else ramp)
        return ((Vt - S0) / Trv, (S8 - S1) / Tp, dS2, -(S3 - iqcmd * trip_mult) / Tg,
                (protection(S0, mem) - S4) / Tv, (Freq - S5) / Trf, dS6, dS7,
                (S7 - S8) / Tpord, (ipcmd * trip_mult - S9) / Tg)

    return rhs


def dera_memory(params: DerAParams, dt: float):
    """advance(mem, Vt, Freq) -> (mem, events): the DER_A memory over one step of length dt.

    Vt and Freq are the bus values at the step's end. A band dwell timer grows while Vt is
    outside Vl1..Vh1 and resets on return until it expires, then holds. The frequency timers
    grow while Freq is outside [fl, fh] with Vt >= Vpr, freeze while Vt < Vpr and reset when
    Freq returns; one that reaches its dwell latches the trip for the rest of the run.
    """
    P = params
    Vl1, Vh1, lo_thr, hi_thr = P.Vl1, P.Vh1, P.tvl1 - TIMER_EPS, P.tvh1 - TIMER_EPS
    freq_trip_on, Vpr, fl, fh = P.Ftripflag == 1, P.Vpr, P.fl, P.fh
    tfl_thr, tfh_thr = P.tfl - TIMER_EPS, P.tfh - TIMER_EPS

    def freq_trip(mem, Vt, Freq):
        if not freq_trip_on or mem[6]:
            return mem
        vmin, vmax, low, high, f_low, f_high, _ = mem
        if Vt >= Vpr:
            if Freq < fl:
                f_low += dt
            elif Freq > fh:
                f_high += dt
            else:
                f_low = f_high = 0.0
        return (vmin, vmax, low, high, f_low, f_high,
                f_low >= tfl_thr or f_high >= tfh_thr)

    def advance(mem, Vt, Freq):
        vmin, vmax, low, high, f_low, f_high, tripped = mem
        low_expired, high_expired = low >= lo_thr, high >= hi_thr
        if Vt < Vl1:
            low += dt
        elif not low_expired:
            low = 0.0
        if Vt > Vh1:
            high += dt
        elif not high_expired:
            high = 0.0
        mem = freq_trip((Vt if Vt < vmin else vmin, Vt if Vt > vmax else vmax,
                         low, high, f_low, f_high, tripped), Vt, Freq)
        events = ()
        if mem[6] and not tripped:
            events += ("frequency_trip",)
        if low >= lo_thr and not low_expired:
            events += ("low_voltage_dwell_expired",)
        if high >= hi_thr and not high_expired:
            events += ("high_voltage_dwell_expired",)
        return mem, events

    return advance


def dera_initialize(
    Pgen0: float, Qgen0: float, Vt0: float, Freq0: float, params: DerAParams
) -> tuple[DerAState, DerARefs, DerATrackers]:
    """Algebraic flat-start equilibrium producing outputs (Pgen0, Qgen0).

    All ten derivatives vanish at (Vt0, Freq0). Raises InfeasibleInit when
    the operating point cannot be held: voltage at or below the 0.01 pu
    floor or outside the no-derating band Vl1..Vh1, power order outside
    Pmin..Pmax, commanded currents beyond the converter limit, or a
    zero integral gain that leaves the PI composite drifting.
    """
    if Vt0 <= VOLTAGE_FLOOR:
        raise InfeasibleInit(
            f"initial voltage {Vt0} pu is at or below the {VOLTAGE_FLOOR} pu floor")
    if not (params.Vl1 < Vt0 < params.Vh1):
        raise InfeasibleInit(
            f"initial voltage {Vt0} pu lies outside the no-derating band "
            f"({params.Vl1}, {params.Vh1}); the trip multiplier could not hold steady"
        )
    if not (params.Pmin <= Pgen0 <= params.Pmax):
        raise InfeasibleInit(
            f"initial power {Pgen0} pu outside the power order limits "
            f"[{params.Pmin}, {params.Pmax}]"
        )

    trackers = DerATrackers(vmin_seen=Vt0, vmax_seen=Vt0)
    s9 = Pgen0 / Vt0
    s3 = -Qgen0 / Vt0
    commands = dera_algebra(params)[0]
    s2 = s3 - commands(Vt0, 0.0, Pgen0)[4]  # raw Iq command at S2 = 0: the clipped injection

    if params.Kig > 0.0:
        e_star = Pgen0 * (1.0 - params.Kpg) / (params.Tp * params.Kig)
        if not (params.femin <= e_star <= params.femax):
            raise InfeasibleInit(
                "PI error needed to hold the operating point exceeds the "
                f"frequency-control error limits ({e_star:.4g} pu)"
            )
        pref = Pgen0 + e_star
    else:
        if abs(Pgen0 * (params.Kpg - 1.0) / params.Tp) > 1e-8:
            raise InfeasibleInit(
                "integral gain is zero and the PI composite cannot be held at "
                "equilibrium for a nonzero operating point"
            )
        pref = Pgen0

    if params.PfFlag == 1 and Pgen0 == 0.0 and s2 * Vt0 != 0.0:
        raise InfeasibleInit(
            "constant power-factor control cannot hold reactive output with zero active power"
        )
    pfaref = math.atan(s2 * Vt0 / Pgen0) if Pgen0 != 0.0 else 0.0

    state = DerAState(
        S0=Vt0, S1=Pgen0, S2=s2, S3=s3, S4=1.0,
        S5=Freq0, S6=Pgen0, S7=Pgen0, S8=Pgen0, S9=s9,
    )
    refs = DerARefs(Pref=pref, Qref=s2 * Vt0, pfaref=pfaref, Freqref=Freq0)

    # The commanded currents must survive the limiters untouched.
    _, ipcmd, iqcmd = commands(Vt0, s2, Pgen0)[:3]
    if abs(iqcmd - s3) > 1e-12:
        raise InfeasibleInit(
            f"reactive current command {s3:.4g} pu violates the current limits"
        )
    if abs(ipcmd - s9) > 1e-12:
        raise InfeasibleInit(
            f"active current command {s9:.4g} pu violates the current limits"
        )

    rhs = dera_rhs(params, refs, 1.0)  # any dt: S6 = S7 within the limits gives dS7 = 0
    residual = max(map(abs, rhs(state, trackers, Vt0, Freq0)))
    if residual > 1e-8:
        raise InfeasibleInit(f"initialisation residual {residual:.3e} exceeds 1e-8")
    return state, refs, trackers


# Preset matching the published DER_A validation setup; frequency-trip
# thresholds fl/fh/tfl/tfh keep the library defaults (not table values).
DERA_PRESETS: dict[str, DerAParams] = {
    "dera_table3": DerAParams(
        Trv=0.02, Tp=0.02, Tiq=0.02, Vref0=0.0, Kqv=5.0, Tg=0.02,
        PfFlag=1, Imax=1.2, dbd1=-99.0, dbd2=99.0, Tv=0.02,
        Vl0=0.44, Vl1=0.49, Vh0=1.2, Vh1=1.15,
        tvl0=0.16, tvl1=0.16, tvh0=0.16, tvh1=0.16, Vrfrac=0.7,
        Trf=0.02, Kpg=0.1, Kig=10.0, Ddn=20.0, Dup=0.0,
        femax=99.0, femin=-99.0, fdbd1=-0.0006, fdbd2=0.0006,
        Freqflag=0, Pmin=0.0, Pmax=1.1, Tpord=0.02, dPmin=-0.5, dPmax=0.5,
        Vtripflag=1, Iql1=-1.0, Iqh1=1.0, Xe=0.25, Ftripflag=1,
        PQflag=0, typeflag=1, Vpr=0.8,
    ),
}

# Per-unit system bases the presets were stated on; metadata only.
DERA_PRESET_BASES: dict[str, dict[str, float]] = {
    "dera_table3": {"base_kv": 12.47, "base_mva": 15.0},
}
