"""Independent reference solution of the composite-load scenarios the benchmark runs.

Nothing here imports clm_sim. The right-hand sides are straight-line
transcriptions of the model equations, the parameter tables are typed in
from the published presets, the motor equilibrium is found by a linear solve
of the EMF equations inside a bracketing search on slip, and the DER_A
operating point is derived in closed form and then checked against this
module's own right-hand side. scipy's ``solve_ivp`` integrates each piece of
the playback between its breakpoints (t = 1, 1 + b/60, 1 + c) separately, so
no solver step straddles a voltage jump; the algebraic loads and the totals
are evaluated on the output grid.

Domain: playback disturbance with a verbatim recovery shape, constant
frequency, DER_A with frequency control off (Freqflag 0), a fault no deeper
than the DER's full-output break-point Vl1 and a recovery that stays below
Vh1, so the DER's dwell timers and frequency trip never run. ``solve``
raises ValueError outside that domain rather than return a wrong answer.

Run as a script to rebuild the cached references of every workload for some
seeds, or to run the self-check that two solver tolerances agree (on the
first fault_run scenario of seed 0):

    python3 bench/reference.py rebuild --seeds 0-9
    python3 bench/reference.py selfcheck
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

import workloads

OMEGA0 = 120.0 * math.pi

# Motor presets as published for the composite-load motor classes
# (rs, Ls, Lp, Lpp, Tp0, Tpp0, H, A, B, C0, D, Etrq); p = q = -1.
MOTOR_TABLE = {
    "motor_a": dict(rs=0.04, Ls=1.8, Lp=0.1, Lpp=0.083, Tp0=0.092, Tpp0=0.002, H=0.05,
                    A=0.0, B=0.0, C0=0.0, D=1.0, Etrq=0.0, p=-1.0, q=-1.0),
    "motor_b": dict(rs=0.03, Ls=1.8, Lp=0.16, Lpp=0.12, Tp0=0.1, Tpp0=0.0026, H=1.0,
                    A=0.0, B=0.0, C0=0.0, D=1.0, Etrq=2.0, p=-1.0, q=-1.0),
    "motor_c": dict(rs=0.03, Ls=1.8, Lp=0.16, Lpp=0.12, Tp0=0.1, Tpp0=0.0026, H=0.1,
                    A=0.0, B=0.0, C0=0.0, D=1.0, Etrq=2.0, p=-1.0, q=-1.0),
}

# The published DER_A validation parameter set.
DER_TABLE = dict(
    Trv=0.02, Tp=0.02, Tiq=0.02, Vref0=0.0, Kqv=5.0, Tg=0.02, PfFlag=1, Imax=1.2,
    dbd1=-99.0, dbd2=99.0, Tv=0.02, Vl0=0.44, Vl1=0.49, Vh0=1.2, Vh1=1.15,
    Vrfrac=0.7, Trf=0.02, Kpg=0.1, Kig=10.0, Ddn=20.0, Dup=0.0, femax=99.0,
    femin=-99.0, fdbd1=-0.0006, fdbd2=0.0006, Freqflag=0, Pmin=0.0, Pmax=1.1,
    Tpord=0.02, Vtripflag=1, Iql1=-1.0, Iqh1=1.0, PQflag=0, typeflag=1,
    fl=0.94, fh=1.03,
)

MOTORS = ("motor_a", "motor_b", "motor_c")
MOTOR_STATES = ("Eqp", "Edp", "Eqpp", "Edpp", "slip")

# Solver settings of the cached references; the self-check compares them
# against a run 100 times tighter.
RTOL = 1e-10
ATOL = 1e-12
METHOD = "DOP853"

CACHE_DIR = Path(__file__).resolve().parent / ".cache"


def channel_names() -> list[str]:
    """The simulator's trajectory CSV layout for the full composite model."""
    names = ["t", "V", "Freq"]
    for m in MOTORS:
        names += [f"{m}.{s}" for s in MOTOR_STATES] + [f"{m}.P", f"{m}.Q"]
    names += [f"dera.S{i}" for i in range(10)] + ["dera.P", "dera.Q", "dera.tripped"]
    names += ["zip.P", "zip.Q", "elec.P", "elec.Q", "elec.ct", "total.P", "total.Q"]
    return names


# ---------------------------------------------------------------- bus ----

def bus_voltage(t: float, a: float, b: float, c: float, d: float) -> float:
    """Playback voltage; the fault holds on the closed interval [1, 1 + b/60]."""
    tc = 1.0 + b / 60.0
    if 1.0 <= t <= tc:
        return a
    if tc < t <= 1.0 + c:
        return 1.0 + (1.0 - d) * (t - 1.0 - c) / (b / 60.0 - c)
    return 1.0


def segments(dist: dict, t_end: float) -> list[tuple[float, float]]:
    """Intervals between the playback breakpoints, clipped to [0, t_end]."""
    cuts = [0.0, 1.0, 1.0 + dist["b"] / 60.0, 1.0 + dist["c"], t_end]
    cuts = sorted({min(max(x, 0.0), t_end) for x in cuts})
    return [(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo]


def segment_voltage(lo: float, hi: float, dist: dict):
    """The bus voltage as a smooth function on the open interval (lo, hi)."""
    mid = 0.5 * (lo + hi)
    a, b, c, d = dist["a"], dist["b"], dist["c"], dist["d"]
    if 1.0 < mid < 1.0 + b / 60.0:
        return lambda t: a
    if 1.0 + b / 60.0 < mid < 1.0 + c:
        return lambda t: 1.0 + (1.0 - d) * (t - 1.0 - c) / (b / 60.0 - c)
    return lambda t: 1.0


# ------------------------------------------------------------- motors ----

def _currents(x, V, m):
    """Stator (d, q) currents at terminal voltage V on the d axis."""
    rs, Lpp = m["rs"], m["Lpp"]
    den = rs * rs + Lpp * Lpp
    return ((rs * (V + x[3]) + Lpp * x[2]) / den,
            (rs * x[2] - Lpp * (V + x[3])) / den)


def motor_pq(x, V, m):
    """(P, Q) drawn by a motor in state x at terminal voltage V."""
    i_d, i_q = _currents(x, V, m)
    return V * i_d, -V * i_q


def motor_rhs(x, V, m, Tm0):
    """Five motor derivatives at terminal voltage V (angle 0)."""
    Eqp, Edp, Eqpp, Edpp, s = x
    i_d, i_q = _currents(x, V, m)
    Lpp = m["Lpp"]
    Tp0, Tpp0, Ls, Lp = m["Tp0"], m["Tpp0"], m["Ls"], m["Lp"]
    w = 1.0 - s
    TL = Tm0 * (m["A"] * w * w + m["B"] * w + m["C0"] + m["D"] * max(w, 0.0) ** m["Etrq"])
    return (
        (-Eqp - i_d * (Ls - Lp) - Edp * OMEGA0 * s * Tp0) / Tp0,
        (-Edp + i_q * (Ls - Lp) + Eqp * OMEGA0 * s * Tp0) / Tp0,
        (Tp0 - Tpp0) / (Tp0 * Tpp0) * Eqp
        - (Tpp0 * (Ls - Lp) + Tp0 * (Lp - Lpp)) / (Tp0 * Tpp0) * i_d
        - Eqpp / Tpp0 - OMEGA0 * s * Edpp,
        (Tp0 - Tpp0) / (Tp0 * Tpp0) * Edp
        + (Tpp0 * (Ls - Lp) + Tp0 * (Lp - Lpp)) / (Tp0 * Tpp0) * i_q
        - Edpp / Tpp0 + OMEGA0 * s * Eqpp,
        -(m["p"] * Edpp * i_d + m["q"] * Eqpp * i_q - TL) / (2.0 * m["H"]),
    )


def _emfs_at_slip(s, V, m):
    """The EMFs that zero the four EMF equations at slip s (they are affine)."""
    def r(e):
        return np.array(motor_rhs((*e, s), V, m, 0.0)[:4])
    r0 = r((0.0, 0.0, 0.0, 0.0))
    M = np.column_stack([r(tuple(np.eye(4)[j])) - r0 for j in range(4)])
    return np.linalg.solve(M, -r0)


def motor_equilibrium(P0: float, V: float, m: dict):
    """(state, Tm0) drawing P0 at the lowest slip that does so (the stable branch)."""
    def p_mismatch(s):
        e = _emfs_at_slip(s, V, m)
        return motor_pq((*e, s), V, m)[0] - P0

    lo = 1e-6
    f_lo = p_mismatch(lo)
    s = lo
    while True:
        s_next = s + 1e-3
        if s_next > 0.5:
            raise ValueError(f"no motor equilibrium for P0={P0} below slip 0.5")
        f_next = p_mismatch(s_next)
        if (f_lo < 0.0) != (f_next < 0.0):
            break
        s, f_lo = s_next, f_next
    slip = brentq(p_mismatch, s, s_next, xtol=1e-16, rtol=1e-15, maxiter=200)
    e = _emfs_at_slip(slip, V, m)
    x = (*e, slip)
    w = 1.0 - slip
    poly = m["A"] * w * w + m["B"] * w + m["C0"] + m["D"] * max(w, 0.0) ** m["Etrq"]
    # Torque balance: choose Tm0 so the slip derivative vanishes.
    Tm0 = -2.0 * m["H"] * motor_rhs(x, V, m, 0.0)[4] / poly
    return np.array(x), Tm0


# --------------------------------------------------------------- DER_A ----

def _clip(x, lo, hi):
    return lo if x < lo else hi if x > hi else x


def der_rhs(S, V, F, g, Pref, pfaref, vmin):
    """Ten DER_A derivatives with constant frequency control off (Freqflag 0)."""
    S0, S1, S2, S3, S4, S5, S6, S7, S8, S9 = S
    s0f = max(S0, 0.01)
    verr = -S0 + g["Vref0"]
    verr = verr - g["dbd2"] if verr > g["dbd2"] else verr - g["dbd1"] if verr < g["dbd1"] else 0.0
    inj = _clip(g["Kqv"] * verr, g["Iql1"], g["Iqh1"])
    ip_raw = _clip(S8, g["Pmin"], g["Pmax"]) / s0f
    imax = g["Imax"]
    if g["PQflag"] == 0:
        iq = _clip(S2 + inj, -imax, imax)
        ip_hi = math.sqrt(max(imax * imax - iq * iq, 0.0))
        ip = _clip(ip_raw, -ip_hi if g["typeflag"] == 1 else 0.0, ip_hi)
    else:
        ip = _clip(ip_raw, -imax, imax)
        iq_hi = math.sqrt(max(imax * imax - ip * ip, 0.0))
        iq = _clip(S2 + inj, -iq_hi if g["typeflag"] == 1 else 0.0, iq_hi)
    k = S4 if g["Vtripflag"] == 1 else 1.0
    if g["PfFlag"] == 1:
        dS2 = (math.tan(pfaref) * S1 / s0f - S2) / g["Tiq"]
    else:
        raise ValueError("reference covers constant power-factor control only")
    # Dwell timers never run in the reference domain, so only the
    # unexpired branches of the protection characteristic can apply.
    if g["Vl0"] <= S0 <= vmin or vmin <= S0 <= g["Vl1"]:
        vp = (S0 - g["Vl0"]) / (g["Vl1"] - g["Vl0"])
    elif g["Vl1"] < S0 < g["Vh1"]:
        vp = 1.0
    elif g["Vh1"] <= S0 <= g["Vh0"]:
        vp = (g["Vh0"] - S0) / (g["Vh0"] - g["Vh1"])
    else:
        vp = 0.0
    vp = min(1.0, max(0.0, vp))
    fe = 1.0 - S5  # Freqref is the constant initial frequency, 1 pu
    fe = fe - g["fdbd2"] if fe > g["fdbd2"] else fe - g["fdbd1"] if fe < g["fdbd1"] else 0.0
    x = F - S5
    outside = x < g["fdbd1"] or x > g["fdbd2"]
    dn = -(g["Kpg"] * g["Ddn"] / g["Trf"]) * x if outside and g["Ddn"] * x >= 0.0 else 0.0
    up = -(g["Kpg"] * g["Dup"] / g["Trf"]) * x if outside and g["Dup"] * x < 0.0 else 0.0
    pi_err = Pref - S1 + min(g["Ddn"] * fe, 0.0) + max(g["Dup"] * fe, 0.0)
    return (
        (V - S0) / g["Trv"],
        (S8 - S1) / g["Tp"],
        dS2,
        (iq * k - S3) / g["Tg"],
        (vp - S4) / g["Tv"],
        (F - S5) / g["Trf"],
        g["Kig"] * _clip(pi_err, g["femin"], g["femax"]) + g["Kpg"] * S1 / g["Tp"]
        + dn + up - S8 / g["Tp"],
        0.0,
        (S7 - S8) / g["Tpord"],
        (ip * k - S9) / g["Tg"],
    )


def der_equilibrium(pgen0: float, qgen0: float, V: float, F: float, g: dict):
    """States and references holding (pgen0, qgen0) at (V, F), from the equations.

    P = V*S9 and Q = -V*S3 fix the current commands; the current filters
    then need the unclipped commands to equal them, the power filters carry
    pgen0 through S8, S7, S1 and S6, the Q integrator's steady state fixes
    the power-factor angle, and the PI balance fixes Pref.
    """
    s9 = pgen0 / V
    s3 = -qgen0 / V
    verr = g["Vref0"] - V
    verr = verr - g["dbd2"] if verr > g["dbd2"] else verr - g["dbd1"] if verr < g["dbd1"] else 0.0
    s2 = s3 - _clip(g["Kqv"] * verr, g["Iql1"], g["Iqh1"])
    S = (V, pgen0, s2, s3, 1.0, F, pgen0, pgen0, pgen0, s9)
    pfaref = math.atan2(s2 * V, pgen0)
    pref = pgen0 + pgen0 * (1.0 - g["Kpg"]) / (g["Tp"] * g["Kig"])
    res = max(abs(v) for v in der_rhs(S, V, F, g, pref, pfaref, V))
    if res > 1e-10:
        raise ValueError(f"DER operating point not held (residual {res:.3e})")
    return np.array(S), pref, pfaref


# ----------------------------------------------------------- the model ----

def _check_domain(scn: dict) -> None:
    dist, g = scn["disturbance"], DER_TABLE
    peak = 2.0 - dist["d"]
    if not (g["Vl1"] < dist["a"] < 1.0 and peak < g["Vh1"]):
        raise ValueError("fault depth or recovery peak outside the reference's domain")
    if not (g["fl"] < 1.0 < g["fh"]) or g["Freqflag"] != 0:
        raise ValueError("frequency control or tripping active; outside the domain")
    if dist["c"] <= dist["b"] / 60.0:
        raise ValueError("need c > b/60")


def solve(scn: dict, grid: np.ndarray, rtol: float = RTOL, atol: float = ATOL) -> np.ndarray:
    """The scenario's trajectory on `grid`, in the simulator's 44-channel layout.

    scn holds `mix` (f_a, f_b, f_c, f_elec, f_zip, der_scale), `motors`
    ({name: p0}), `dera` (pgen0, qgen0), `zip`, `elec` and `disturbance`
    (a, b, c, d), with the same keys as the scenario YAML.
    """
    _check_domain(scn)
    dist = scn["disturbance"]
    grid = np.asarray(grid, dtype=float)
    t_end = float(grid[-1])
    mot = [(MOTOR_TABLE[n], *motor_equilibrium(scn["motors"][n], 1.0, MOTOR_TABLE[n]))
           for n in MOTORS]
    g = DER_TABLE
    S_init, pref, pfaref = der_equilibrium(scn["dera"]["pgen0"], scn["dera"]["qgen0"],
                                           1.0, 1.0, g)
    y0 = np.concatenate([x for _, x, _ in mot] + [S_init])

    states = np.empty((grid.size, y0.size))
    for lo, hi in segments(dist, t_end):
        v_of_t = segment_voltage(lo, hi, dist)
        vmin = 1.0 if hi <= 1.0 else dist["a"]  # lowest bus voltage so far

        def rhs(t, y, v_of_t=v_of_t, vmin=vmin):
            V = v_of_t(t)
            dy = []
            for j, (m, _, Tm0) in enumerate(mot):
                dy.extend(motor_rhs(y[5 * j:5 * j + 5], V, m, Tm0))
            dy.extend(der_rhs(y[15:25], V, 1.0, g, pref, pfaref, vmin))
            return dy

        # A grid point on a breakpoint is filled by both neighbouring
        # segments; the state is continuous there, so both values agree.
        mask = (grid >= lo) & (grid <= hi)
        sol = solve_ivp(rhs, (lo, hi), y0, method=METHOD, rtol=rtol, atol=atol,
                        dense_output=True)
        if not sol.success:
            raise RuntimeError(f"reference solve failed on [{lo}, {hi}]: {sol.message}")
        if mask.any():
            states[mask] = sol.sol(grid[mask]).T
        y0 = sol.y[:, -1]

    return assemble(scn, grid, states, mot)


def assemble(scn, grid, states, mot) -> np.ndarray:
    """Outputs on the grid: bus, states, component P/Q and the mix-weighted totals."""
    dist, mix, z, e = scn["disturbance"], scn["mix"], scn["zip"], scn["elec"]
    out = np.empty((grid.size, len(channel_names())))
    for k, t in enumerate(grid):
        V = bus_voltage(t, dist["a"], dist["b"], dist["c"], dist["d"])
        y = states[k]
        row = [t, V, 1.0]
        tot_p = tot_q = 0.0
        for j, (name, (m, _, _)) in enumerate(zip(MOTORS, mot)):
            x = y[5 * j:5 * j + 5]
            p, q = motor_pq(x, V, m)
            row += list(x) + [p, q]
            w = mix[{"motor_a": "f_a", "motor_b": "f_b", "motor_c": "f_c"}[name]]
            tot_p += w * p
            tot_q += w * q
        S = y[15:25]
        p_der, q_der = V * S[9], -V * S[3]
        row += list(S) + [p_der, q_der, 0.0]
        tot_p -= mix["der_scale"] * p_der
        tot_q -= mix["der_scale"] * q_der
        r = V / z["v0"]
        p_zip = z["p0"] * (z["a_p"] * r * r + z["b_p"] * r + z["c_p"])
        q_zip = z["q0"] * (z["a_q"] * r * r + z["b_q"] * r + z["c_q"])
        # Electronic load: linear disconnection between vd1 and vd2, partial
        # (alpha) reconnection measured from the lowest voltage so far, which
        # is the fault level from t = 1 on (the recovery never dips below 1).
        vmin_e = max(e["vd2"], dist["a"] if t >= 1.0 else 1.0)
        span = e["vd1"] - e["vd2"]
        if V < e["vd2"]:
            ct = 0.0
        elif V < e["vd1"]:
            ct = (V - e["vd2"]) / span if V <= vmin_e else \
                (vmin_e - e["vd2"] + e["alpha"] * (V - vmin_e)) / span
        elif vmin_e >= e["vd1"]:
            ct = 1.0
        else:
            ct = (vmin_e - e["vd2"] + e["alpha"] * (e["vd1"] - vmin_e)) / span
        row += [p_zip, q_zip, ct * e["pe0"], ct * e["qe0"], ct]
        tot_p += mix["f_zip"] * p_zip + mix["f_elec"] * ct * e["pe0"]
        tot_q += mix["f_zip"] * q_zip + mix["f_elec"] * ct * e["qe0"]
        row += [tot_p, tot_q]
        out[k] = row
    return out


# -------------------------------------------------------------- cache ----

def cache_key(scn: dict, grid: np.ndarray) -> str:
    """Hash of the scenario, the grid, the solver settings and this file's source.

    The source is part of the key so that an edit to the equations, tables or
    assembly misses every reference cached before it.
    """
    h = hashlib.sha256(Path(__file__).read_bytes())
    h.update(json.dumps(scn, sort_keys=True).encode())
    h.update(np.ascontiguousarray(grid, dtype="<f8").tobytes())
    h.update(f"{METHOD} {RTOL} {ATOL}".encode())
    return h.hexdigest()[:24]


def cached_solve(scn: dict, grid: np.ndarray, seed: int) -> np.ndarray:
    """solve(), memoised on disk under bench/.cache/<seed>/ by scenario and grid."""
    path = CACHE_DIR / str(seed) / f"{cache_key(scn, grid)}.npy"
    if path.exists():
        return np.load(path)
    data = solve(scn, grid)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp.npy")
    np.save(tmp, data)
    os.replace(tmp, path)
    return data


def self_check(scn: dict, grid: np.ndarray) -> dict:
    """MSE of total.P/Q between the cached tolerance and one 100 times tighter."""
    a = solve(scn, grid)
    b = solve(scn, grid, rtol=RTOL / 100.0, atol=ATOL / 100.0)
    names = channel_names()
    return {c: float(np.mean((a[:, names.index(c)] - b[:, names.index(c)]) ** 2))
            for c in ("total.P", "total.Q")}


def _parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    rb = sub.add_parser("rebuild", help="recompute the cached references of some seeds")
    rb.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 1,4,7")
    sub.add_parser("selfcheck", help="compare two solver tolerances on seed 0")
    args = ap.parse_args(argv)

    if args.cmd == "rebuild":
        for seed in _parse_seeds(args.seeds):
            for name in workloads.WORKLOADS:
                t0 = time.perf_counter()
                for scn, grid in workloads.reference_jobs(name, seed):
                    path = CACHE_DIR / str(seed) / f"{cache_key(scn, grid)}.npy"
                    path.unlink(missing_ok=True)
                    cached_solve(scn, grid, seed)
                print(f"{name} seed {seed}: {time.perf_counter() - t0:.1f} s")
        return 0
    scn, grid = workloads.reference_jobs("fault_run", 0)[0]
    print(json.dumps(self_check(scn, grid), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
