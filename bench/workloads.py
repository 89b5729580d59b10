"""Seeded inputs of the three benchmark workloads.

Every draw comes from ``random.Random`` seeded with the workload name and
the seed, so a seed gives the same inputs on any platform. A scenario is a
dictionary with the keys of the scenario YAML; the simulator reads it
through ``config_doc`` and the reference solver reads it directly.

fault_run    one full composite run under the playback fault, 10 s
             horizon, writing every output the simulator has. The seed
             moves the loading and the mix by at most 3 % around the bundled
             composite_fault scenario, whose fault it keeps, so the error
             against the reference stays comparable between seeds.
param_sweep  SWEEP_LANES short (1.5 s) full-composite configs in one batch,
             writing total P/Q only. The lanes form a Latin hypercube over
             the mix fractions, motor loading, DER output, fault depth and
             fault duration, so the lane mean of a per-lane figure hardly
             moves with the seed.
ref_compare  COMPARE_SCENARIOS reference trajectories over the sweep's
             ranges, draw i in cell i of every range (what a compare costs
             does not depend on the values, and its accuracy figure then
             moves little with the seed), each written on a 1 ms grid, a
             2.5 ms grid and a PSS/E-style 1/120 s grid with timestamps
             rounded to 4 decimals. A round compares each 1 ms file with its
             2.5 ms file both ways, with itself, and with its PSS/E-style
             file.

Fault clearing (t = 1 + b/60) is always placed 0.25 ms past a whole
millisecond, and for ref_compare past a multiple of 5 ms, so it falls at
the same phase of the 1 ms (and 2.5 ms) grid in every draw: the error of
integrating or interpolating across that jump depends strongly on its
phase, and a drawn phase would make the accuracy metrics move with the
seed more than with the program.
"""

from __future__ import annotations

import random

import numpy as np

WORKLOADS = ("fault_run", "param_sweep", "ref_compare")
FAULT_T_END = 10.0
SWEEP_LANES = 12
SWEEP_T_END = 1.5
COMPARE_SCENARIOS = 4
COMPARE_T_END = 5.0
DT = 1e-3

# The bundled composite_fault scenario.
BASE = {
    "mix": {"f_a": 0.3, "f_b": 0.1, "f_c": 0.1, "f_elec": 0.2, "der_scale": 0.3},
    "motors": {"motor_a": 0.8, "motor_b": 0.6, "motor_c": 0.6},
    "dera": {"pgen0": 0.5, "qgen0": 0.1},
}
ZIP = dict(p0=1.0, q0=0.3, v0=1.0, a_p=0.4, b_p=0.3, c_p=0.3, a_q=0.5, b_q=0.25, c_q=0.25)
ELEC = dict(pe0=1.0, qe0=0.2, vd1=0.7, vd2=0.5, alpha=1.0)

# Ranges of the sweep and compare draws.
RANGES = {
    "f_a": (0.2, 0.35), "f_b": (0.05, 0.15), "f_c": (0.05, 0.15), "f_elec": (0.1, 0.25),
    "der_scale": (0.2, 0.4), "motor_a": (0.7, 0.9), "motor_b": (0.5, 0.7),
    "motor_c": (0.5, 0.7), "pgen0": (0.4, 0.6), "qgen0": (0.0, 0.15),
    "a": (0.5, 0.9), "clear_ms": (15, 145),
}


def _r(x: float) -> float:
    return round(x, 6)


def clearing_cycles(clear_ms: int) -> float:
    """Fault duration b (cycles) that clears 0.25 ms after t = 1 + clear_ms ms."""
    return _r(60.0 * (clear_ms + 0.25) * 1e-3)


def scenario(v: dict, c: float) -> dict:
    """A full-composite scenario from drawn values (keys of RANGES)."""
    f = [_r(v[k]) for k in ("f_a", "f_b", "f_c", "f_elec")]
    return {
        "mix": {"f_a": f[0], "f_b": f[1], "f_c": f[2], "f_elec": f[3],
                "f_zip": _r(1.0 - sum(f)), "der_scale": _r(v["der_scale"])},
        "motors": {m: _r(v[m]) for m in ("motor_a", "motor_b", "motor_c")},
        "dera": {"pgen0": _r(v["pgen0"]), "qgen0": _r(v["qgen0"])},
        "zip": dict(ZIP),
        "elec": dict(ELEC),
        "disturbance": {"a": _r(v["a"]), "b": clearing_cycles(int(v["clear_ms"])),
                        "c": c, "d": 0.9},
    }


def stratified(rng: random.Random, n: int, jitter: float, shuffle: bool) -> list[dict]:
    """n draws over RANGES with exactly one draw in each 1/n-th of every range.

    Each draw sits within jitter/2 of its cell's centre (jitter 1 fills the
    cell). With shuffle the cells of each range are paired at random (a Latin
    hypercube); without it draw i takes cell i of every range.
    """
    cols = {}
    for key, (lo, hi) in RANGES.items():
        cells = [lo + (hi - lo) * (i + 0.5 + jitter * (rng.random() - 0.5)) / n
                 for i in range(n)]
        if shuffle:
            rng.shuffle(cells)
        cols[key] = cells
    return [{k: cols[k][i] for k in RANGES} for i in range(n)]


def fault_scenario(seed: int) -> dict:
    rng = random.Random(f"fault_run/{seed}")
    v = {k: x * rng.uniform(0.97, 1.03)
         for part in ("mix", "motors", "dera") for k, x in BASE[part].items()}
    v.update(a=0.8, clear_ms=83)  # b = 5 cycles, as bundled, to within 0.1 ms
    return scenario(v, c=1.0)


def sweep_scenarios(seed: int) -> list[dict]:
    rng = random.Random(f"param_sweep/{seed}")
    return [scenario(v, c=0.4) for v in stratified(rng, SWEEP_LANES, 0.5, shuffle=True)]


def compare_scenarios(seed: int) -> list[dict]:
    rng = random.Random(f"ref_compare/{seed}")
    draws = stratified(rng, COMPARE_SCENARIOS, 0.2, shuffle=False)
    for v in draws:  # clear on the 5 ms lattice, common to both uniform grids
        v["clear_ms"] = 5 * round(v["clear_ms"] / 5)
    return [scenario(v, c=1.0) for v in draws]


def uniform_grid(t_end: float, dt: float) -> np.ndarray:
    """The simulator's output grid: sample i at i*dt."""
    return np.arange(int(round(t_end / dt)) + 1) * dt


def compare_grids() -> dict[str, np.ndarray]:
    """The exact sample times of the three files written per compare scenario."""
    return {
        "fine": uniform_grid(COMPARE_T_END, 1e-3),
        "coarse": uniform_grid(COMPARE_T_END, 2.5e-3),
        "psse": np.arange(int(round(COMPARE_T_END * 120)) + 1) / 120.0,
    }


def reference_jobs(workload: str, seed: int) -> list[tuple[dict, np.ndarray]]:
    """The (scenario, grid) pairs whose reference trajectories a workload needs."""
    if workload == "fault_run":
        return [(fault_scenario(seed), uniform_grid(FAULT_T_END, DT))]
    if workload == "param_sweep":
        return [(s, uniform_grid(SWEEP_T_END, DT)) for s in sweep_scenarios(seed)]
    if workload == "ref_compare":
        union = np.unique(np.concatenate(list(compare_grids().values())))
        return [(s, union) for s in compare_scenarios(seed)]
    raise ValueError(f"unknown workload {workload!r}")


def config_doc(scn: dict, t_end: float, outputs: dict) -> dict:
    """The scenario YAML document for the simulator, using its bundled presets."""
    doc = {"mix": dict(scn["mix"], p_base_mva=15.0)}
    for name, p0 in scn["motors"].items():
        doc[name] = {"preset": name, "p0": p0}
    doc["dera"] = {"preset": "dera_table3", **scn["dera"]}
    doc["zip"] = dict(scn["zip"])
    doc["elec"] = dict(scn["elec"])
    doc["disturbance"] = {"type": "playback", **scn["disturbance"]}
    doc["integrator"] = {"method": "rk4", "dt": DT, "t_end": t_end}
    doc["outputs"] = outputs
    return doc
