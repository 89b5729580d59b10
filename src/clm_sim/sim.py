"""Fixed-step integration engine, trajectory recording and comparison metrics.

The integrator is deterministic: a fixed step (rk4, heun or euler), no
event location (piecewise switches are integrated through; the convergence
tests quantify the resulting error), and all simulation memory (voltage
extremes, dwell timers, trip latches, the electronic-load minimum tracker)
advanced exactly once per accepted step using end-of-step values, never
inside integrator stages. Identical inputs therefore produce bit-identical
trajectories.

Trajectories are channel matrices with a leading, strictly increasing time
column. CSV export writes 17 significant digits so float64 values
round-trip exactly; the binary dump is raw little-endian float64, row
major, one row per sample in channel order (interpret it with the channel
list from the CSV header or the run summary).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from math import isfinite

import numpy as np

from . import dera as dera_mod
from . import staticloads
from .composite import LoadMix, weighted_total
from .dera import DerAParams, DerARefs, DerAState, DerATrackers
from .errors import (
    ChannelError,
    ConfigError,
    FileFormatError,
    GridMismatch,
    NonFiniteInput,
    NonFiniteState,
    OutOfRange,
)
from .motor3 import (
    MotorInit,
    MotorParams,
    MotorState,
    motor_derivatives,
    motor_initialize,
    motor_kernel,
)
from .staticloads import ElecParams, ZipParams

INTEGRATION_METHODS = ("rk4", "heun", "euler")

# Tolerance when deciding two time grids are the same grid.
GRID_ATOL = 1e-12

# Rows formatted per write in write_csv.
CSV_BLOCK_ROWS = 1000

MOTOR_STATE_CHANNELS = ("Eqp", "Edp", "Eqpp", "Edpp", "slip")
DERA_STATE_CHANNELS = tuple(f"S{i}" for i in range(10))


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk4"
    dt: float = 1e-3        # step size (s)
    t_end: float = 5.0      # horizon (s)
    record_every: int = 1   # sample decimation (steps)

    def __post_init__(self):
        if self.method not in INTEGRATION_METHODS:
            raise ValueError(f"method must be one of {INTEGRATION_METHODS}, got {self.method!r}")
        if self.dt <= 0.0:
            raise ValueError(f"need dt > 0, got {self.dt}")
        if self.t_end <= 0.0:
            raise ValueError(f"need t_end > 0, got {self.t_end}")
        if self.record_every < 1 or int(self.record_every) != self.record_every:
            raise ValueError(f"record_every must be an integer >= 1, got {self.record_every}")


@dataclass
class MotorSetup:
    """One initialised motor component."""

    name: str
    params: MotorParams
    state0: MotorState
    init: MotorInit
    init_residual: float = 0.0


@dataclass
class DerASetup:
    """The initialised DER component."""

    params: DerAParams
    state0: DerAState
    refs: DerARefs
    trackers0: DerATrackers
    init_residual: float = 0.0


@dataclass
class Scenario:
    """A fully initialised component mix behind one scripted bus."""

    mix: LoadMix
    bus: object  # exposes voltage(t) and frequency(t)
    motors: list[MotorSetup] = field(default_factory=list)
    dera: DerASetup | None = None
    zip_load: ZipParams | None = None
    elec: ElecParams | None = None


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
    weight zero), but a positive fraction without its component is an error.
    """
    motor_loads = motor_loads or {}
    v0 = bus.voltage(0.0)
    f0 = bus.frequency(0.0)

    for name, frac in (("motor_a", mix.f_a), ("motor_b", mix.f_b), ("motor_c", mix.f_c)):
        if frac > 0.0 and name not in motor_loads:
            raise ConfigError(f"mix gives {name} weight {frac} but it is not configured",
                              field=name)
    if mix.f_zip > 0.0 and zip_load is None:
        raise ConfigError("mix gives the ZIP load weight but it is not configured", field="zip")
    if mix.f_elec > 0.0 and elec_load is None:
        raise ConfigError("mix gives the electronic load weight but it is not configured",
                          field="elec")
    if mix.der_scale > 0.0 and dera_load is None:
        raise ConfigError("mix sets der_scale but the DER component is not configured",
                          field="dera")

    motors = []
    for name in ("motor_a", "motor_b", "motor_c"):
        if name not in motor_loads:
            continue
        params, p0, q0 = motor_loads[name]
        state0, init = motor_initialize(p0, q0, v0, 0.0, params)
        d = motor_derivatives(state0, v0, 0.0, params, init)
        residual = float(np.max(np.abs(d.as_array())))
        motors.append(MotorSetup(name, params, state0, init, residual))

    dera_setup = None
    if dera_load is not None:
        params, pgen0, qgen0 = dera_load
        state0, refs, trackers0 = dera_mod.dera_initialize(pgen0, qgen0, v0, f0, params)
        d = dera_mod.dera_derivatives(state0, trackers0, v0, f0, params, refs)
        residual = float(np.max(np.abs(d.as_array())))
        dera_setup = DerASetup(params, state0, refs, trackers0, residual)

    return Scenario(mix=mix, bus=bus, motors=motors, dera=dera_setup,
                    zip_load=zip_load, elec=elec_load)


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
    mix, der, zip_load, elec = scenario.mix, scenario.dera, scenario.zip_load, scenario.elec

    channels = ["t", "V", "Freq"]
    count_names, y = [], []
    motors = []  # (offset in y, algebra, rhs, mix weight)
    for m in scenario.motors:
        channels += [f"{m.name}.{c}" for c in (*MOTOR_STATE_CHANNELS, "P", "Q")]
        count_names.append(f"{m.name}.speed_clamped")
        algebra, _, m_rhs = motor_kernel(m.params, m.init)
        motors.append((len(y), algebra, m_rhs, mix.weight(m.name)))
        y += m.state0.as_array().tolist()
    if der is not None:
        if der.params.Freqflag == 1 and dt > dera_mod.FREQ_CONTROL_MAX_DT:
            raise ConfigError(f"DER frequency control needs dt <= "
                              f"{dera_mod.FREQ_CONTROL_MAX_DT} s, got {dt}", field="integrator.dt")
        channels += [f"dera.{c}" for c in (*DERA_STATE_CHANNELS, "P", "Q", "tripped")]
        count_names += [f"dera.{name}" for name in dera_mod.LIMITER_FLAGS]
        der_rhs = dera_mod.dera_rhs(der.params, der.refs, dt)
        der_flags = dera_mod.dera_algebra(der.params)[1]
        der_advance = dera_mod.dera_memory(der.params, dt)[0]
        der_at, der_w = len(y), mix.weight("dera")
        mem = astuple(der.trackers0)
        y += der.state0.as_array().tolist()
    if zip_load is not None:
        channels += ["zip.P", "zip.Q"]
        zip_w = mix.weight("zip")
    if elec is not None:
        channels += ["elec.P", "elec.Q", "elec.ct"]
        elec_w = mix.weight("elec")
        elec_vmin = staticloads.elec_tracker_init(voltage(0.0), elec).vmin_t
    channels += ["total.P", "total.Q"]

    def rhs(t, y):
        v, f = voltage(t), frequency(t)
        if not (isfinite(v) and isfinite(f)):
            raise NonFiniteInput(f"the bus gave a non-finite input at t = {t}")
        dy = []
        for a, _, m_rhs, _ in motors:
            dy += m_rhs(*y[a:a + 5], v, 0.0)
        if der is not None:
            dy += der_rhs(y[der_at:], mem, v, f)
        return dy

    counts = [0] * len(count_names)

    def observe(t, y, record):
        """Count the active limiters; return the row if record."""
        for j, (a, _, _, _) in enumerate(motors):
            counts[j] += 1.0 - y[a + 4] <= 0.0
        if der is not None:
            for j, flag in enumerate(der_flags(y[der_at:]), len(motors)):
                counts[j] += flag
        if not record:
            return None
        v, f = voltage(t), frequency(t)
        row = [t, v, f]
        terms = []  # (weight, P, Q) of each component, for the composite total
        for a, algebra, _, w in motors:
            s = y[a:a + 5]
            _, _, p, q, _ = algebra(s[2], s[3], s[4], v, 0.0)
            row += (*s, p, q)
            terms.append((w, p, q))
        if der is not None:
            s = y[der_at:]
            p, q = dera_mod.injection(s[9], s[3], v, mem[6])
            row += (*s, p, q, 1.0 if mem[6] else 0.0)
            terms.append((der_w, p, q))
        if zip_load is not None:
            p, q = staticloads.zip_power(v, zip_load)
            row += (p, q)
            terms.append((zip_w, p, q))
        if elec is not None:
            p, q, ct, _ = staticloads.elec_power_at(v, elec_vmin, elec)
            row += (p, q, ct)
            terms.append((elec_w, p, q))
        return row + list(weighted_total(terms))

    data = np.empty((n_steps // every + 1, len(channels)))
    trip_events: list[dict] = []
    for i in range(n_steps + 1):
        t = i * dt
        row = observe(t, y, i % every == 0)
        if row is not None:
            data[i // every] = row
        if i == n_steps:
            break
        try:
            y = step(rhs, t, y, dt)
            # Plain floats raise on overflow or division by zero; a finite sum means all finite.
            diverged = not isfinite(sum(y)) and not all(map(isfinite, y))
        except (OverflowError, ZeroDivisionError):
            diverged = True
        if diverged:
            raise NonFiniteState("a state left the finite range during integration "
                                 "(instability or too large a step)", step=i + 1)
        t_next = (i + 1) * dt
        v_next = voltage(t_next)
        if der is not None:
            mem, events = der_advance(mem, v_next, frequency(t_next))
            trip_events += ({"type": kind, "t": t_next} for kind in events)
        if elec is not None:
            elec_vmin = staticloads.elec_vmin_update(v_next, elec_vmin, elec)

    traj = Trajectory(channels, data)
    residuals = {m.name: m.init_residual for m in scenario.motors}
    if der is not None:
        residuals["dera"] = der.init_residual
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
    A bad row or value raises FileFormatError naming file:line.
    """
    try:
        fh = open(path, "r", newline="")
    except OSError as exc:
        raise FileFormatError(f"cannot read {what}: {exc}") from None
    header, rows, linenos, width = None, [], [], None
    with fh:
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
