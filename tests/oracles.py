"""Independent straight-line reference transcriptions for oracle tests.

Everything here is written directly from the model equations as standalone
arithmetic, deliberately NOT reusing any clm_sim code: saturations and
deadbands appear inline as if/elif chains, groupings differ from the
package implementation, and each state derivative is a single expression.
These functions exist so the package can be checked against a second,
structurally different rendering of the same mathematics.
"""

from __future__ import annotations

import bisect
import math


def motor_reference_rhs(
    Eqp, Edp, Eqpp, Edpp, slip, Vd, Vq,
    rs, Ls, Lp, Lpp, Tp0, Tpp0, H, A, B, C0, D, Etrq, p, q, omega0, Tm0,
):
    """Five motor state derivatives plus (id, iq, P, Q, TL, w)."""
    den = rs * rs + Lpp * Lpp
    id_ = (rs * (Vd + Edpp) + Lpp * (Vq + Eqpp)) / den
    iq_ = (rs * (Vq + Eqpp) - Lpp * (Vd + Edpp)) / den

    w = 1.0 - slip
    w_for_exp = w if w > 0.0 else 0.0
    TL = Tm0 * (A * w * w + B * w + C0 + D * w_for_exp**Etrq)

    dEqp = (1.0 / Tp0) * (-Eqp - id_ * (Ls - Lp) - Edp * omega0 * slip * Tp0)
    dEdp = (1.0 / Tp0) * (-Edp + iq_ * (Ls - Lp) + Eqp * omega0 * slip * Tp0)
    dEqpp = (
        ((Tp0 - Tpp0) / (Tp0 * Tpp0)) * Eqp
        - ((Tpp0 * (Ls - Lp) + Tp0 * (Lp - Lpp)) / (Tp0 * Tpp0)) * id_
        - (1.0 / Tpp0) * Eqpp
        - omega0 * slip * Edpp
    )
    dEdpp = (
        ((Tp0 - Tpp0) / (Tp0 * Tpp0)) * Edp
        + ((Tpp0 * (Ls - Lp) + Tp0 * (Lp - Lpp)) / (Tp0 * Tpp0)) * iq_
        - (1.0 / Tpp0) * Edpp
        + omega0 * slip * Eqpp
    )
    dslip = -(p * Edpp * id_ + q * Eqpp * iq_ - TL) / (2.0 * H)

    P = Vd * id_ + Vq * iq_
    Q = Vq * id_ - Vd * iq_
    return (dEqp, dEdp, dEqpp, dEdpp, dslip), (id_, iq_, P, Q, TL, w)


def _sat1_ref(x):
    if x >= 0.01:
        return x
    return 0.01


def _clip_ref(x, lo, hi):
    if x >= hi:
        return hi
    if x <= lo:
        return lo
    return x


def _dbv_ref(x, dbd1, dbd2):
    # dbd1 is the lower knee (<= 0), dbd2 the upper knee (>= 0).
    if x > dbd2:
        return x - dbd2
    if x < dbd1:
        return x - dbd1
    return 0.0


def _dbf_ref(x, fdbd1, fdbd2):
    if x > fdbd2:
        return x - fdbd2
    if x < fdbd1:
        return x - fdbd1
    return 0.0


def _sat5_ref(x):
    if x <= 0.0:
        return x
    return 0.0


def _sat6_ref(x):
    if x > 0.0:
        return x
    return 0.0


def voltage_protection_reference(Vt, Vrfrac, vmin, vmax, lv_expired, hv_expired,
                                 Vl0, Vl1, Vh0, Vh1):
    """Nine-branch protection multiplier, first matching branch wins,
    result clamped into [0, 1] (the documented output contract)."""
    if Vl0 <= Vt <= vmin:
        r = (Vt - Vl0) / (Vl1 - Vl0)
    elif vmin <= Vt <= Vl1 and not lv_expired:
        r = (Vt - Vl0) / (Vl1 - Vl0)
    elif Vl1 < Vt < Vh1 and not lv_expired:
        r = 1.0
    elif Vh1 <= Vt <= Vh0 and not hv_expired:
        r = (Vh0 - Vt) / (Vh0 - Vh1)
    elif vmin <= Vt <= Vl1 and lv_expired:
        r = Vrfrac * ((Vt - vmin) / (Vl1 - Vl0))
    elif Vl1 < Vt < Vh1 and lv_expired:
        r = Vrfrac * ((Vl1 - vmin) / (Vl1 - Vl0))
    elif Vh1 <= Vt <= vmax and hv_expired:
        r = Vrfrac * ((vmax - Vt) / (Vh0 - Vh1))
    elif vmax <= Vt <= Vh0:
        r = (Vh0 - Vt) / (Vh0 - Vh1)
    else:
        r = 0.0
    if r > 1.0:
        return 1.0
    if r < 0.0:
        return 0.0
    return r


def dera_reference_rhs(S, Vt, Freq, prm, refs, vmin, vmax, lv_expired, hv_expired, dt):
    """Ten DER_A state derivatives.

    S is the state 10-tuple, prm a DerAParams-like object read field by
    field, refs a DerARefs-like object, vmin/vmax the running voltage
    extremes and lv/hv_expired the dwell-timer expiry booleans.
    """
    S0, S1, S2, S3, S4, S5, S6, S7, S8, S9 = S

    dS0 = (1.0 / prm.Trv) * (Vt - S0)
    dS1 = (1.0 / prm.Tp) * (S8 - S1)

    if prm.PfFlag == 0:
        dS2 = -S2 / prm.Tiq + refs.Qref / (prm.Tiq * _sat1_ref(S0))
    else:
        dS2 = -S2 / prm.Tiq + math.tan(refs.pfaref) * S1 / (prm.Tiq * _sat1_ref(S0))

    # Reactive path: voltage-support deadband, injection clip, command clip.
    support = _clip_ref(_dbv_ref(prm.Vref0 - S0, prm.dbd1, prm.dbd2) * prm.Kqv,
                        prm.Iql1, prm.Iqh1)
    if prm.PQflag == 0:
        iq_max = prm.Imax
        iq_min = -prm.Imax
    else:
        ip_cmd_for_iq = _clip_ref(
            _clip_ref(S8, prm.Pmin, prm.Pmax) / _sat1_ref(S0), -prm.Imax, prm.Imax
        )
        head = prm.Imax**2 - ip_cmd_for_iq**2
        iq_max = math.sqrt(head) if head > 0.0 else 0.0
        iq_min = -iq_max if prm.typeflag == 1 else 0.0
    iq_cmd = _clip_ref(S2 + support, iq_min, iq_max)
    if prm.Vtripflag == 0:
        dS3 = -(S3 - iq_cmd) / prm.Tg
    else:
        dS3 = -(S3 - iq_cmd * S4) / prm.Tg

    vp = voltage_protection_reference(S0, prm.Vrfrac, vmin, vmax, lv_expired,
                                      hv_expired, prm.Vl0, prm.Vl1, prm.Vh0, prm.Vh1)
    dS4 = (1.0 / prm.Tv) * (vp - S4)

    dS5 = (1.0 / prm.Trf) * (Freq - S5)

    fdb = _dbf_ref(refs.Freqref - S5, prm.fdbd1, prm.fdbd2)
    x = Freq - S5
    if (x < prm.fdbd1 or x > prm.fdbd2) and (prm.Ddn / prm.Trf) * x >= 0.0:
        g_dn = -(prm.Kpg * prm.Ddn / prm.Trf) * x
    else:
        g_dn = 0.0
    if (x < prm.fdbd1 or x > prm.fdbd2) and (prm.Dup / prm.Trf) * x < 0.0:
        g_up = -(prm.Kpg * prm.Dup / prm.Trf) * x
    else:
        g_up = 0.0
    dS6 = (
        prm.Kig
        * _clip_ref(
            refs.Pref - S1 + _sat5_ref(prm.Ddn * fdb) + _sat6_ref(prm.Dup * fdb),
            prm.femin, prm.femax,
        )
        + (prm.Kpg / prm.Tp) * S1
        + g_dn
        + g_up
        - S8 / prm.Tp
    )

    if prm.Freqflag == 0:
        dS7 = 0.0
    else:
        dS7 = _clip_ref((_clip_ref(S6, prm.Pmin, prm.Pmax) - S7) / dt,
                        prm.dPmin, prm.dPmax)

    dS8 = (1.0 / prm.Tpord) * (S7 - S8)

    # Active path: power-order clip over the voltage floor, command clip.
    ip_raw = _clip_ref(S8, prm.Pmin, prm.Pmax) / _sat1_ref(S0)
    if prm.PQflag == 0:
        head = prm.Imax**2 - iq_cmd**2
        ip_max = math.sqrt(head) if head > 0.0 else 0.0
        ip_min = -ip_max if prm.typeflag == 1 else 0.0
    else:
        ip_max = prm.Imax
        ip_min = -prm.Imax
    ip_cmd = _clip_ref(ip_raw, ip_min, ip_max)
    if prm.Vtripflag == 1:
        dS9 = (1.0 / prm.Tg) * (ip_cmd * S4 - S9)
    else:
        dS9 = (1.0 / prm.Tg) * (ip_cmd - S9)

    return (dS0, dS1, dS2, dS3, dS4, dS5, dS6, dS7, dS8, dS9)


def playback_voltage_reference(t, a, b, c, d, shape="verbatim"):
    """The scripted fault/recovery voltage at one time; boundaries resolve in listed order."""
    t_clear = 1.0 + b / 60.0
    t_end = 1.0 + c
    if 1.0 <= t <= t_clear:
        return a
    if t_clear <= t <= t_end:
        if shape == "ramp":
            return a + (1.0 - a) * (t - t_clear) / (t_end - t_clear)
        return (1.0 - d) * (t - c - 1.0) / (b / 60.0 - c) + 1.0
    return 1.0


def series_reference(t, ts, ys):
    """Linear interpolation of samples ys at times ts, end values held outside them."""
    if t <= ts[0]:
        return ys[0]
    if t >= ts[-1]:
        return ys[-1]
    i = bisect.bisect_right(ts, t)
    w = (t - ts[i - 1]) / (ts[i] - ts[i - 1])
    return ys[i - 1] + w * (ys[i] - ys[i - 1])
