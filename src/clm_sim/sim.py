"""Fixed-step integration engine, trajectory recording and comparison metrics.

The integrator is deterministic: a fixed step (rk4, heun or euler), no
event location (piecewise switches are integrated through; the convergence
tests quantify the resulting error), and all simulation memory (voltage
extremes, dwell timers, trip latches, the electronic-load minimum tracker)
advanced exactly once per accepted step using end-of-step values, never
inside integrator stages. Identical inputs therefore produce bit-identical
trajectories.

The stepper drives one list of components, one per configured model, each
made for the run by its type's builder (motor_component, dera_component,
zip_component, elec_component) from the setup build_scenario initialised.
A Component has a name and mix weight, state and extra channel names, an
initial state, rhs(s, v, f) giving the derivatives of its states s at bus
voltage v and frequency f, output(s, v, f) giving (P, Q, *extra values),
limiter flag names with flags(s) giving their values, and optionally
advance(v, f), which moves the memory rhs and output read to the end of
an accepted step and returns the events it fired. The bus total is the
weighted sum of the components' P and Q.

Trajectories are channel matrices with a leading, strictly increasing time
column. CSV export writes 17 significant digits so float64 values
round-trip exactly; the binary dump is raw little-endian float64, row
major, one row per sample in channel order (interpret it with the channel
list from the CSV header or the run summary).
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Sequence
from dataclasses import astuple, dataclass, fields
from math import inf, isfinite

import numpy as np

from . import dera as dera_mod
from . import staticloads
from .composite import COMPONENT_NAMES, LoadMix, weighted_total
from .dera import DerAParams
from .errors import (
    ChannelError,
    ConfigError,
    FileFormatError,
    GridMismatch,
    NonFiniteInput,
    NonFiniteState,
    OutOfRange,
)
from .motor3 import MotorParams, motor_initialize, motor_kernel
from .staticloads import ElecParams, ZipParams

INTEGRATION_METHODS = ("rk4", "heun", "euler")

# Tolerance when deciding two time grids are the same grid.
GRID_ATOL = 1e-12

# Rows formatted per write in write_csv.
CSV_BLOCK_ROWS = 1000


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk4"
    dt: float = 1e-3        # step size (s)
    t_end: float = 5.0      # horizon (s)
    record_every: int = 1   # sample decimation (steps)
    MAX_STEPS = 10**7       # most steps, round(t_end / dt), a run may take; checked at parse

    def __post_init__(self):
        if self.method not in INTEGRATION_METHODS:
            raise ValueError(f"method must be one of {INTEGRATION_METHODS}, got {self.method!r}")
        for name in ("dt", "t_end"):
            if not 0.0 < getattr(self, name) < inf:
                raise ValueError(f"need finite {name} > 0, got {getattr(self, name)}")
        if self.record_every < 1 or int(self.record_every) != self.record_every:
            raise ValueError(f"record_every must be an integer >= 1, got {self.record_every}")


@dataclass(frozen=True)
class Component:
    """One model behind the bus, in the form the stepper drives (see the module docstring)."""

    name: str
    weight: float
    output: Callable
    states: tuple[str, ...] = ()
    extras: tuple[str, ...] = ()
    state0: Sequence[float] = ()
    rhs: Callable = lambda s, v, f: ()
    flag_names: tuple[str, ...] = ()
    flags: Callable = lambda s: ()
    advance: Callable | None = None


def motor_component(name: str, weight: float, setup, dt: float) -> Component:
    """A motor from (params, state0, init); its q-axis voltage is 0."""
    params, state0, init = setup
    algebra, _, rhs = motor_kernel(params, init)
    return Component(name, weight,
                     output=lambda s, v, f: algebra(s[2], s[3], s[4], v, 0.0)[2:4],
                     states=tuple(x.name for x in fields(state0)),
                     state0=state0.as_array().tolist(), rhs=lambda s, v, f: rhs(*s, v, 0.0),
                     flag_names=("speed_clamped",), flags=lambda s: (1.0 - s[4] <= 0.0,))


def dera_component(name: str, weight: float, setup, dt: float) -> Component:
    """The DER_A from (params, state0, refs, trackers0)."""
    params, state0, refs, trackers0 = setup
    if params.Freqflag == 1 and dt > dera_mod.FREQ_CONTROL_MAX_DT:
        raise ConfigError(f"DER frequency control needs dt <= "
                          f"{dera_mod.FREQ_CONTROL_MAX_DT} s, got {dt}", field="integrator.dt")
    rhs = dera_mod.dera_rhs(params, refs, dt)
    advance_memory = dera_mod.dera_memory(params, dt)[0]
    mem = astuple(trackers0)

    def output(s, v, f):
        p, q = dera_mod.injection(s[9], s[3], v, mem[6])
        return p, q, 1.0 if mem[6] else 0.0

    def advance(v, f):
        nonlocal mem
        mem, events = advance_memory(mem, v, f)
        return events

    return Component(name, weight, output, tuple(x.name for x in fields(state0)), ("tripped",),
                     state0.as_array().tolist(), rhs=lambda s, v, f: rhs(s, mem, v, f),
                     flag_names=dera_mod.LIMITER_FLAGS, flags=dera_mod.dera_algebra(params)[1],
                     advance=advance)


def zip_component(name: str, weight: float, params: ZipParams, dt: float) -> Component:
    """The ZIP load: algebraic, no states."""
    return Component(name, weight, lambda s, v, f: staticloads.zip_power(v, params))


def elec_component(name: str, weight: float, setup, dt: float) -> Component:
    """The electronic load from (params, initial running minimum voltage)."""
    params, vmin = setup

    def advance(v, f):
        nonlocal vmin
        vmin = staticloads.elec_vmin_update(v, vmin, params)
        return ()

    return Component(name, weight,
                     output=lambda s, v, f: staticloads.elec_power_at(v, vmin, params)[:3],
                     extras=("ct",), advance=advance)


def _motor_setup(load, v0, f0):
    params, p0, q0 = load
    return (params, *motor_initialize(p0, q0, v0, 0.0, params))


def _dera_setup(load, v0, f0):
    params, pgen0, qgen0 = load
    return (params, *dera_mod.dera_initialize(pgen0, qgen0, v0, f0, params))


# Component name -> (setup(load, v0, f0), builder), in channel order: build_scenario
# makes the setup from the configured load at the t = 0 bus values.
COMPONENT_TYPES = {
    **dict.fromkeys(("motor_a", "motor_b", "motor_c"), (_motor_setup, motor_component)),
    "dera": (_dera_setup, dera_component),
    "zip": (lambda load, v0, f0: load, zip_component),
    "elec": (lambda load, v0, f0: (load, staticloads.elec_tracker_init(v0, load).vmin_t),
             elec_component),
}


@dataclass
class Scenario:
    """A fully initialised component mix behind one scripted bus.

    parts holds (name, builder, setup) per configured component, in
    channel order; run_simulation calls builder(name, weight, setup, dt).
    """

    mix: LoadMix
    bus: object  # exposes voltage(t) and frequency(t)
    parts: list[tuple[str, Callable, object]]


def build_scenario(
    mix: LoadMix,
    bus,
    motor_loads: dict[str, tuple[MotorParams, float, float | None]] | None = None,
    dera_load: tuple[DerAParams, float, float] | None = None,
    zip_load: ZipParams | None = None,
    elec_load: ElecParams | None = None,
) -> Scenario:
    """Initialise every configured component at the bus's t = 0 conditions.

    motor_loads maps a motor slot name (motor_a / motor_b / motor_c) to
    (params, P0, Q0-or-None); dera_load is (params, Pgen0, Qgen0). A mix
    fraction may be zero for a configured component (it is simulated with
    weight zero), but a nonzero weight without its component is an error.
    """
    loads = {**(motor_loads or {}), "dera": dera_load, "zip": zip_load, "elec": elec_load}
    for name in COMPONENT_NAMES:
        weight = mix.weight(name)
        if weight != 0.0 and loads.get(name) is None:
            raise ConfigError(f"{name} has mix weight {weight} but is not configured", field=name)
    v0, f0 = bus.voltage(0.0), bus.frequency(0.0)
    parts = [(name, build, setup(loads[name], v0, f0))
             for name, (setup, build) in COMPONENT_TYPES.items() if loads.get(name) is not None]
    return Scenario(mix, bus, parts)


class Trajectory:
    """Sampled channel matrix; column 0 is time, strictly increasing, maybe unevenly."""

    def __init__(self, channels: list[str], data: np.ndarray):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[1] != len(channels):
            raise ValueError("trajectory data must be (n_samples, n_channels)")
        if not channels or channels[0] != "t":
            raise ValueError("first trajectory channel must be 't'")
        t = data[:, 0]
        if t.size >= 2 and not np.all(np.diff(t) > 0.0):
            raise ValueError("trajectory time must be strictly increasing")
        self.channels = list(channels)
        self.data = data
        self._index = {name: i for i, name in enumerate(self.channels)}

    @property
    def t(self) -> np.ndarray:
        return self.data[:, 0]

    def __len__(self) -> int:
        return self.data.shape[0]

    def channel(self, name: str) -> np.ndarray:
        try:
            return self.data[:, self._index[name]]
        except KeyError:
            raise ChannelError(f"no channel named {name!r}") from None

    def pq_channels(self) -> list[str]:
        return [c for c in self.channels if c.endswith(".P") or c.endswith(".Q")]


def grids_match(traj_a: Trajectory, traj_b: Trajectory) -> bool:
    ta, tb = traj_a.t, traj_b.t
    return ta.shape == tb.shape and float(np.max(np.abs(ta - tb))) <= GRID_ATOL


def mse(traj_a: Trajectory, traj_b: Trajectory, channel: str) -> float:
    """Mean squared difference of one channel over identical sample grids."""
    if not grids_match(traj_a, traj_b):
        raise GridMismatch(
            "trajectories are on different time grids; resample one onto the other first"
        )
    diff = traj_a.channel(channel) - traj_b.channel(channel)
    return float(np.mean(diff * diff))


def resample(traj: Trajectory, grid) -> Trajectory:
    """Linear-interpolate every channel onto the given time grid."""
    grid = np.asarray(grid, dtype=float)
    t = traj.t
    if grid.min() < t[0] - GRID_ATOL or grid.max() > t[-1] + GRID_ATOL:
        raise OutOfRange(
            f"resample grid [{grid.min()}, {grid.max()}] extends outside the "
            f"trajectory range [{t[0]}, {t[-1]}]"
        )
    out = np.empty((grid.size, len(traj.channels)))
    out[:, 0] = grid
    for j in range(1, len(traj.channels)):
        out[:, j] = np.interp(grid, t, traj.data[:, j])
    return Trajectory(traj.channels, out)


# Steppers over float lists; tests/test_reference_stepper.py checks them bit for bit.
def _rk4_step(f, t, y, h):
    hh = 0.5 * h
    k1 = f(t, y)
    k2 = f(t + hh, [a + hh * b for a, b in zip(y, k1)])
    k3 = f(t + hh, [a + hh * b for a, b in zip(y, k2)])
    k4 = f(t + h, [a + h * b for a, b in zip(y, k3)])
    h6 = h / 6.0
    return [a + h6 * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4)]


def _heun_step(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + h, [a + h * b for a, b in zip(y, k1)])
    hh = 0.5 * h
    return [a + hh * (b + c) for a, b, c in zip(y, k1, k2)]


def _euler_step(f, t, y, h):
    return [a + h * b for a, b in zip(y, f(t, y))]


_STEPPERS = {"rk4": _rk4_step, "heun": _heun_step, "euler": _euler_step}


@dataclass
class SimResult:
    trajectory: Trajectory
    summary: dict


def run_simulation(scenario: Scenario, config: IntegratorConfig) -> SimResult:
    """Integrate the scenario and collect the run summary alongside the data."""
    dt = config.dt
    n_steps = int(round(config.t_end / dt))
    every = config.record_every
    step = _STEPPERS[config.method]
    voltage, frequency = scenario.bus.voltage, scenario.bus.frequency
    components = [build(name, scenario.mix.weight(name), setup, dt)
                  for name, build, setup in scenario.parts]

    # The per-step lists, built once: each component's state slice y[a:b] and its functions.
    channels, state_names, count_names, y = ["t", "V", "Freq"], [], [], []
    derivs, flagged, outputs, residuals = [], [], [], {}
    v0, f0 = voltage(0.0), frequency(0.0)
    for c in components:
        a, b = len(y), len(y) + len(c.states)
        y += c.state0
        state_names += [f"{c.name}.{s}" for s in c.states]
        channels += [f"{c.name}.{s}" for s in (*c.states, "P", "Q", *c.extras)]
        if c.states:
            derivs.append((a, b, c.rhs))
            residuals[c.name] = max(map(abs, c.rhs(y[a:b], v0, f0)))  # 0 at equilibrium
        if c.flag_names:
            flagged.append((a, b, c.flags, len(count_names)))
            count_names += [f"{c.name}.{flag}" for flag in c.flag_names]
        outputs.append((a, b, c.output, c.weight))
    channels += ["total.P", "total.Q"]
    advances = [c.advance for c in components if c.advance is not None]

    def rhs(t, y):
        v, f = voltage(t), frequency(t)
        if not (isfinite(v) and isfinite(f)):
            raise NonFiniteInput(f"the bus gave a non-finite input at t = {t}")
        dy = []
        for a, b, c_rhs in derivs:
            dy += c_rhs(y[a:b], v, f)
        return dy

    counts = [0] * len(count_names)
    data = np.empty((n_steps // every + 1, len(channels)))
    trip_events: list[dict] = []
    diverged = "a state left the finite range during integration (instability or too large a step)"
    for i in range(n_steps + 1):
        t = i * dt
        for a, b, flags, at in flagged:  # limiter activity counts every step
            for j, flag in enumerate(flags(y[a:b]), at):
                counts[j] += flag
        if i % every == 0:
            v, f = voltage(t), frequency(t)
            row = [t, v, f]
            terms = []  # (weight, P, Q) of each component, for the composite total
            for a, b, output, w in outputs:
                s = y[a:b]
                out = output(s, v, f)
                row += (*s, *out)
                terms.append((w, out[0], out[1]))
            data[i // every] = row + list(weighted_total(terms))
        if i == n_steps:
            break
        try:
            y = step(rhs, t, y, dt)
        except (OverflowError, ZeroDivisionError):  # plain floats raise these in a stage
            raise NonFiniteState(diverged, step=i + 1) from None
        t_next = (i + 1) * dt
        if not isfinite(sum(y)) and not all(map(isfinite, y)):  # a finite sum means all finite
            first = next(name for name, x in zip(state_names, y) if not isfinite(x))
            raise NonFiniteState(f"{diverged} at t = {t_next:g} s, first in {first}", step=i + 1)
        v_next, f_next = voltage(t_next), frequency(t_next)
        for advance in advances:
            trip_events += ({"type": kind, "t": t_next} for kind in advance(v_next, f_next))

    traj = Trajectory(channels, data)
    summary = {
        "method": config.method,
        "dt": dt,
        "t_end_requested": config.t_end,
        "t_end_actual": n_steps * dt,
        "steps": n_steps,
        "samples": len(data),
        "initial_residuals": residuals,
        "trip_events": trip_events,
        "limiter_activity": dict(sorted(zip(count_names, map(int, counts)))),
    }
    return SimResult(trajectory=traj, summary=summary)


def integrate(scenario: Scenario, config: IntegratorConfig) -> Trajectory:
    """Integrate the scenario and return the recorded trajectory."""
    return run_simulation(scenario, config).trajectory


def write_csv(traj: Trajectory, path, channels: list[str] | None = None) -> None:
    """Write the trajectory as CSV: header row, time first, 17 significant digits.

    Rows are formatted a block at a time, so only one block is ever held
    as Python floats.
    """
    if channels is None:
        names, data = traj.channels, traj.data
    else:
        for c in channels:
            if c not in traj.channels:
                raise ChannelError(f"no channel named {c!r}")
        names = ["t"] + [c for c in dict.fromkeys(channels) if c != "t"]  # read_csv rejects repeats
        data = traj.data[:, [traj.channels.index(c) for c in names]]
    fmt = ",".join(["%.17g"] * len(names)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for start in range(0, len(data), CSV_BLOCK_ROWS):
            fh.write("".join([fmt % tuple(row) for row in
                              data[start:start + CSV_BLOCK_ROWS].tolist()]))


def read_table(path, what: str = "file") -> tuple[list[str] | None, np.ndarray]:
    """Read a CSV of finite floats: (header or None, (n_rows, n_fields) array).

    The first line is a header when its first field is not a number. Blank
    lines are skipped; every row must have the first line's field count.
    A bad row or value raises FileFormatError naming file:line. A file that one
    np.loadtxt call parses cleanly skips the per-line loop that defines these rules.
    """
    try:
        fh = open(path, "r", newline="")
    except OSError as exc:
        raise FileFormatError(f"cannot read {what}: {exc}") from None
    with fh:
        first = fh.readline()
        while first and not first.strip():
            first = fh.readline()
        parts = first.strip().split(",")
        try:
            float(parts[0])
            header = None
            fh.seek(0)
        except ValueError:
            header = parts
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            if data.shape[1] == len(parts) and np.isfinite(data).all():
                return header, data
        except (ValueError, Warning):
            pass  # the loop below accepts the file or names its faulty line
        fh.seek(0)
        header, rows, linenos, width = None, [], [], None
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if width is None:
                width = len(parts)
                try:
                    float(parts[0])
                except ValueError:
                    header = parts
                    continue
            elif len(parts) != width:
                raise FileFormatError(f"{path}:{lineno}: expected {width} fields, got {len(parts)}")
            try:
                rows.append(list(map(float, parts)))
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: {exc}") from None
            linenos.append(lineno)
    if width is None:
        raise FileFormatError(f"{path}: empty file")
    data = np.array(rows).reshape(len(rows), width)
    bad = ~np.isfinite(data)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise FileFormatError(f"{path}:{linenos[i]}: non-finite value {data[i, j]} "
                              f"in field {j + 1}")
    return header, data


def read_csv(path) -> Trajectory:
    """Read a trajectory CSV produced by write_csv (or any same-layout file)."""
    channels, data = read_table(path, "trajectory file")
    if channels is None or channels[0] != "t":
        raise FileFormatError(f"{path}:1: expected a header starting with 't', "
                              f"got {channels and channels[0]!r}")
    duplicates = sorted({c for c in channels if channels.count(c) > 1})
    if duplicates:
        raise FileFormatError(f"{path}:1: duplicate channel name(s) {duplicates}")
    if not len(data):
        raise FileFormatError(f"{path}: no data rows")
    try:
        return Trajectory(channels, data)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def write_binary(traj: Trajectory, path) -> None:
    """Raw little-endian float64 dump, row major, one row per sample.

    The layout carries no header; pair it with the channel list (CSV header
    or run summary) to interpret the columns.
    """
    with open(path, "wb") as fh:
        fh.write(np.ascontiguousarray(traj.data, dtype="<f8").tobytes())


def read_binary(path, channels: list[str]) -> Trajectory:
    with open(path, "rb") as fh:
        buf = fh.read()
    flat = np.frombuffer(buf, dtype="<f8")
    if flat.size % len(channels) != 0:
        raise FileFormatError(
            f"{path}: {flat.size} values do not divide into {len(channels)} channels"
        )
    return Trajectory(channels, flat.reshape(-1, len(channels)).copy())
