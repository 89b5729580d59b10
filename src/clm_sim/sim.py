"""Fixed-step integration engine, trajectory recording and comparison metrics.

The integrator is deterministic: a fixed step (rk4, heun or euler), split
at the bus's breakpoints (see below) but with no event location for the
models' own switches (limiters and deadbands are integrated through), and
all simulation memory (voltage extremes, dwell timers, trip latches, the
electronic-load minimum tracker) advanced exactly once per accepted step
using end-of-step values, never inside integrator stages. Identical inputs
therefore produce bit-identical trajectories. Each method's step is written
out for a component's number of states, made on first use, with the float
operations in the order of the array form that
tests/test_reference_stepper.py checks it against bit for bit.

The stepper drives one list of components, one per configured model, each
made for the run by the builder that its type's initialiser in
config.COMPONENTS gave the scenario. A Component is pure: the stepper
holds every state vector s and memory m (the discrete logic that changes
only between steps: DER_A voltage extremes, dwell timers and trip latch,
the electronic-load minimum), each starting from the component's state0
and memory0 in every run. rhs(s, m, v, f) gives the derivatives of s at
bus voltage v and frequency f, output(s, m, v, f) gives (P, Q, *extra
values), flags(s) gives the limiter flag values, and advance(m, v, f)
gives (the memory at the end of an accepted step, the events it fired).
The bus total is the weighted sum of the components' P and Q.

The run goes STEP_BLOCK steps at a time. For each block the bus is read as
arrays, one voltage and one frequency call over every time the method uses
(each stage time, each step's end and each sub-step's stage time, below),
so a bus must accept an array of times (see composite.py). That read gives
each step its plan, the sub-steps it runs as one flat list of floats: per
sub-step its h, then V and F at each stage time. A step whose closed
interval [t, t + dt] holds one of the bus's breakpoints() is split: it runs
as one sub-step per piece between its interior breakpoints, each stage
reading the bus at its time clamped to just inside its piece (the one-sided
limits at a jump), so no stage reads the bus across a jump or a kink; any
other step is one sub-step of dt. The method's step runs a whole plan, so a
component takes one step call per step, split or not. The rows, the
end-of-step memory advance and every other step are as without the split.
The steps whose inputs equal the step before's bit for bit are marked, and
each component is stepped through the block on its own, in channel order. A
component whose last computed step left its state and memory bit for bit as
they were skips to the next step whose inputs change, its rows and limiter
flags repeated: outputs are unchanged. Every component computes a split
step and the step after it, so a split step never starts such a skip.
Limiter activity is counted by runs of equal flags, added up when the flags
change and at the end. A run that fails raises the error of its earliest
failing step: a non-finite bus value at a stage time (a split step's
included), else a stage overflow, else the first non-finite state in
channel order. Each block's rows, totals included, are either kept in the
run's trajectory or handed to a writer (run_simulation's write) once the
block is stepped, in one block-sized buffer: a streamed run's memory does
not depend on its length. `clm-sim run` streams every run to its files this
way; a run that fails or is interrupted there leaves no file and no
directory that it made.

Trajectories are channel matrices with a leading, strictly increasing time
column. BlockWriter appends blocks of rows to the CSV and binary files, and
write_csv and write_binary write a whole trajectory through it. CSV export
writes 17 significant digits (float64 round-trips), a changed cell
formatted once for all files of a block; the binary dump is raw
little-endian float64, row major, one row per sample in channel order
(interpret it with the channel list from the CSV header or the run summary).
"""

from __future__ import annotations

import logging
import re
import struct
import warnings
from collections.abc import Callable, Sequence
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cache
from itertools import chain, pairwise
from math import inf, isfinite, nextafter
from operator import is_

import numpy as np

from .errors import (
    ChannelError,
    FieldError,
    FileFormatError,
    GridMismatch,
    NonFiniteInput,
    NonFiniteState,
    OutOfRange,
)

INTEGRATION_METHODS = ("rk4", "heun", "euler")

# Tolerance when deciding two time grids are the same grid.
GRID_ATOL = 1e-12

# Steps per block in run_simulation, whose bus table and rows are the stepper's peak memory,
# and rows per block in write_csv, whose text is the writer's.
STEP_BLOCK = 250


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk4"
    dt: float = 1e-3        # step size (s)
    t_end: float = 5.0      # horizon (s)
    record_every: int = 1   # sample decimation (steps)
    MAX_STEPS = 10**7       # most steps, round(t_end / dt), a run may take

    def __post_init__(self):
        if self.method not in INTEGRATION_METHODS:
            raise FieldError(f"method must be one of {INTEGRATION_METHODS}, got {self.method!r}",
                             "method")
        for name in ("dt", "t_end"):
            if not 0.0 < getattr(self, name) < inf:
                raise FieldError(f"need finite {name} > 0, got {getattr(self, name)}", name)
        if (steps := self.t_end / self.dt) > self.MAX_STEPS + 0.5:  # round(t_end / dt) > MAX_STEPS
            raise FieldError(f"t_end / dt is {steps:.3g} steps, more than {self.MAX_STEPS}",
                             "t_end")
        if round(steps) < 1:  # a run of int(round(t_end / dt)) steps would take none
            raise FieldError(f"t_end / dt is {steps:.3g} steps, which rounds to 0", "t_end")
        if not isinstance(every := self.record_every, int) or isinstance(every, bool) or every < 1:
            raise FieldError(f"record_every must be an integer >= 1, got {every!r}", "record_every")


@dataclass(frozen=True)
class Component:
    """One model behind the bus, as pure functions the stepper drives (see the module docstring).

    rhs and output take (s, m, v, f), flags takes s, and advance takes
    (m, v, f) and returns (memory, events); memory0 is the memory at t = 0.
    """

    name: str
    weight: float
    output: Callable
    states: tuple[str, ...] = ()
    extras: tuple[str, ...] = ()
    state0: Sequence[float] = ()
    rhs: Callable = lambda s, m, v, f: ()
    flag_names: tuple[str, ...] = ()
    flags: Callable = lambda s: ()
    memory0: tuple = ()
    advance: Callable | None = None


def same_bits(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether two float sequences are equal bit for bit (0.0 and -0.0 differ)."""
    if len(a) == len(b) and all(map(is_, a, b)):  # the very same floats: no bytes to pack
        return True
    return a == b and struct.pack(f"{len(a)}d", *a) == struct.pack(f"{len(b)}d", *b)


@dataclass
class Scenario:
    """A fully initialised component mix behind one scripted bus.

    parts holds (name, weight, build) per configured component, in channel
    order; components(dt) calls build(name, weight, dt).
    """

    bus: object  # voltage(t) and frequency(t) at each time of an array t
    parts: list[tuple[str, float, Callable]]

    def components(self, dt: float) -> list[Component]:
        return [build(name, weight, dt) for name, weight, build in self.parts]


def channel_names(components: Sequence[Component]) -> list[str]:
    """A run's trajectory channels: t, the bus, each component's states and outputs, the total."""
    channels = ["t", "V", "Freq"]
    for c in components:
        channels += [f"{c.name}.{s}" for s in (*c.states, "P", "Q", *c.extras)]
    return channels + ["total.P", "total.Q"]


def require_channels(names, available, where: str) -> None:
    """Raise ChannelError naming the first of names that is not in available, and where."""
    missing = [c for c in names if c not in available]
    if missing:
        raise ChannelError(f"no channel named {missing[0]!r} in {where}")


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


# Each method's stage times (fractions of h), then the lines of a piece's step after k1 = <b#>,
# ending in its new y, which _step writes out for n states: "<...>" once per state, "#" its
# index, joined by ", ".
_STEPPERS = {
    "rk4": ((0.0, 0.5, 1.0), "hh = 0.5 * h", "<c#>, = rhs((<y# + hh * b#>,), m, v1, f1)",
            "<d#>, = rhs((<y# + hh * c#>,), m, v1, f1)", "<e#>, = rhs((<y# + h * d#>,), m, v2, f2)",
            "h6 = h / 6.0", "y = [<y# + h6 * (b# + 2.0 * c# + 2.0 * d# + e#)>]"),
    "heun": ((0.0, 1.0), "<c#>, = rhs((<y# + h * b#>,), m, v1, f1)", "hh = 0.5 * h",
             "y = [<y# + hh * (b# + c#)>]"),
    "euler": ((0.0,), "y = [<y# + h * b#>]"),
}


@cache
def _step(method: str, n: int) -> Callable:
    """step(rhs, y, m, plan) -> the n states after the plan's pieces, each from the one before.

    plan is flat: per piece h, then V and F at each of its stage times (see
    _read_bus), rhs(y, m, v, f) called at each stage's bus.
    """
    stages, *lines = _STEPPERS[method]
    width = 1 + 2 * len(stages)  # a piece: h, then (V, F) at each stage time
    piece = ", ".join(["h", *(f"v{j}, f{j}" for j in range(len(stages)))])
    body = [f"{piece} = plan[k:k + {width}]", f"k += {width}", "<y#>, = y",
            "<b#>, = rhs(y, m, v0, f0)", *lines]
    code = "\n    ".join(["def step(rhs, y, m, plan):", "k = 0", "while k < len(plan):",
                           *("    " + line for line in body), "return y"])
    exec(re.sub("<(.*?)>", lambda x: ", ".join(x[1].replace("#", f"{i}") for i in range(n)), code),
         scope := {})
    return scope["step"]


def _read_bus(bus, stages: tuple, breaks: list[float], dt: float, i0: int, n: int,
              last: np.ndarray) -> tuple:
    """The bus over the n steps from step i0, read once per signal, as each step's plan.

    Returns (at_t, vf, plan, changed, last, bad). at_t holds (t, V, F) at the
    n + 1 step boundaries, vf its (V, F) per boundary as a list. plan[r] is
    step r's plan, the flat list of floats that _step's step runs: per piece
    its h, then V and F at each stage time. A grid step is one piece, (dt,
    the bus at t + stage * dt). A step whose closed interval [t, t + dt]
    holds one of breaks is split: its plan is its pieces [lo, hi] between
    its ends and its interior breakpoints, one after the other, each (hi -
    lo, the bus at lo + stage * (hi - lo) clamped to [nextafter(lo, inf),
    nextafter(hi, -inf)]), the one-sided limits at a jump, even at a grid
    point. Every plan is a row of one stacked array's tolist(), a split
    step's its pieces' rows joined. changed[r] says whether step r's grid
    inputs (at its stage times and its end) differ from the step before's
    bit for bit, the first step's from last, which is returned for the next
    block. It is also set for row n, for a split step and for the step after
    one, in the next block too: a split step never starts a run of repeats.
    bad is (r, t) for the earliest step r with a non-finite V or F at a
    stage time (a split step's grid ones too), t the earliest such time in
    it, or None. (Kept out of run_simulation's long body, where tracemalloc
    traces an allocation far slower: it finds the line by scanning the
    function's line table.)
    """
    edges = np.arange(i0 - 1, i0 + n + 1) * dt  # t of the step before the block, of each, the end
    left, right = np.searchsorted(breaks, edges), np.searchsorted(breaks, edges, "right")
    split = right[1:] > left[:-1]  # steps i0 - 1 to i0 + n - 1: a breakpoint in [t, t + dt]
    bounds = edges.tolist()
    pieces = {r: list(pairwise([bounds[r + 1], *breaks[right[r + 1]:left[r + 2]], bounds[r + 2]]))
              for r in np.flatnonzero(split[1:]).tolist()}  # each split step's [lo, hi]
    spans = [span for own in pieces.values() for span in own]  # every piece, in step order
    t, width = edges[1:], len(stages)
    times = np.concatenate([(t[:n, None] + np.multiply(stages, dt)).ravel(), [
        min(max(lo + h * (hi - lo), nextafter(lo, inf)), nextafter(hi, -inf))
        for lo, hi in spans for h in stages], t[n:]])
    V, F = bus.voltage(times), bus.frequency(times)
    vf = np.stack([V, F], 1)
    args = vf[:-1].reshape(-1, 2 * width)  # per step, then per piece: (V, F) at each stage
    at = np.concatenate([vf[:n * width:width], vf[-1:]])  # at each boundary
    bits = np.hstack([args[:n], at[1:]]).view(np.uint64)
    changed = (np.diff(bits, axis=0, prepend=last) != 0).any(axis=1) | split[1:] | split[:-1]
    rows = np.column_stack([[dt] * n + [hi - lo for lo, hi in spans], args]).tolist()
    plan, sub = rows[:n], iter(rows[n:])
    for r, own in pieces.items():  # a split step's pieces, one after the other
        plan[r] = [x for _ in own for x in next(sub)]
    owner = [*range(n), *(r for r, own in pieces.items() for _ in own)]  # each piece's step
    failed = np.flatnonzero(~(np.isfinite(V[:-1]) & np.isfinite(F[:-1]))).tolist()  # stage times
    bad = min(((owner[j // width], float(times[j])) for j in failed), default=None)
    return (np.column_stack([t, at]), at.tolist(), plan, changed.tolist() + [True],
            bits[-1:] if n else last, bad)


@dataclass
class SimResult:
    trajectory: Trajectory | None  # None when the run's rows went to a writer
    summary: dict


def run_simulation(scenario: Scenario, config: IntegratorConfig,
                   write: Callable | None = None) -> SimResult:
    """Integrate the scenario and collect the run summary alongside the data.

    Without write, the result's trajectory holds every sample. With write,
    each block's samples (rows of every channel, totals included; none in a
    block between two samples when record_every > STEP_BLOCK) are passed to
    write(rows) once that block is stepped, in order, in one buffer that the
    next block reuses, and the result's trajectory is None.
    """
    dt, every = config.dt, config.record_every
    n_steps = int(round(config.t_end / dt))
    samples = n_steps // every + 1
    stages = _STEPPERS[config.method][0]
    breaks = sorted(map(float, getattr(scenario.bus, "breakpoints", tuple)()))
    components = scenario.components(dt)
    channels = channel_names(components)
    # Every sample, or the samples of one block: at most ceil(STEP_BLOCK / every).
    data = np.empty((samples if write is None else min(samples, -(-STEP_BLOCK // every)),
                     len(channels)))
    totals = [(c.weight, channels.index(f"{c.name}.P")) for c in components]
    v0, f0 = float(scenario.bus.voltage(0.0)), float(scenario.bus.frequency(0.0))
    residuals = {c.name: max(map(abs, c.rhs(c.state0, c.memory0, v0, f0)))
                 for c in components if c.states}  # 0 at equilibrium

    # Each component's data columns, then what it carries from block to block: its
    # state, memory, repeat flag (its last step left both as they were), the row held
    # at that fixed point, its limiter counts up to the current run of equal flags,
    # and that run's flags and first step.
    runs, count_names, col = [], [], 3
    for c in components:
        width = len(c.states) + 2 + len(c.extras)
        runs.append([slice(col, col + width), list(c.state0), c.memory0, False, None,
                     [0] * len(c.flag_names), (False,) * len(c.flag_names), 0])
        count_names += [f"{c.name}.{flag}" for flag in c.flag_names]
        col += width
    diverged = "a state left the finite range during integration (instability or too large a step)"
    events, repeated, last = [], 0, np.zeros((1, 2 * len(stages) + 2), np.uint64)
    for i0 in range(0, n_steps + 1, STEP_BLOCK):
        rows = min(STEP_BLOCK, n_steps + 1 - i0)  # rows i0 + r of the trajectory
        n = min(rows, n_steps - i0)  # the steps among them: the row at t_end has none
        at_t, vf, plan, changed, last, bad = _read_bus(scenario.bus, stages, breaks, dt, i0, n,
                                                       last)
        stop = bad[0] if bad else rows
        fails = []
        lo, hi = -(-i0 // every), -(-(i0 + rows) // every)  # the samples of this block
        block = data[lo:hi] if write is None else data[:hi - lo]  # sample lo in its row 0
        block[:, :3] = at_t[lo * every - i0:rows:every]
        for k, (c, run) in enumerate(zip(components, runs)):
            cols, s, m, repeat, held, counts, flagged, since = run
            out = block[:, cols]
            rhs, output, flags, advance = c.rhs, c.output, c.flags, c.advance
            step = _step(config.method, len(c.states)) if c.states else lambda rhs, s, m, plan: s
            recorded, r = {}, 0  # data row -> the row of a computed step
            while r < stop:
                i = i0 + r
                if repeat and not changed[r]:  # steps r to j - 1 repeat the fixed point
                    j = changed.index(True, r)  # changed ends with True: t_end or the next block
                    out[-(-i // every) - lo:-(-(i0 + j) // every) - lo] = held  # flags' run goes on
                    repeated, r = repeated + j - r, j
                    continue
                raised = flags(s)  # limiter activity: each run of equal flags counted at its end
                if raised != flagged:
                    counts = [a + b * (i - since) for a, b in zip(counts, flagged)]
                    flagged, since = raised, i
                if i % every == 0:
                    recorded[i // every - lo] = row = (*s, *output(s, m, *vf[r]))
                if i == n_steps:
                    break
                try:
                    new = step(rhs, s, m, plan[r])
                except (OverflowError, ZeroDivisionError):  # plain floats raise these in a stage
                    fails.append((r, 0, k, NonFiniteState(diverged, step=i + 1)))
                    break
                if not isfinite(sum(new)) and not all(map(isfinite, new)):  # finite sum: all finite
                    first = next(f"{c.name}.{x}" for x, y in zip(c.states, new) if not isfinite(y))
                    fails.append((r, 1, k, NonFiniteState(
                        f"{diverged} at t = {(i + 1) * dt:g} s, first in {first}", step=i + 1)))
                    break
                repeat = new is s or (new == s and same_bits(new, s))  # s itself: no states
                if advance is not None:
                    mem, fired = advance(m, *vf[r + 1])
                    if fired:
                        events += ((i, k, kind) for kind in fired)
                    repeat = repeat and not fired and same_bits(mem, m)
                    m = mem
                s = new
                if repeat:
                    held = row if i % every == 0 else (*s, *output(s, m, *vf[r]))
                r += 1
            if fails:  # later components need only reach the earliest failing step
                stop = min(fails)[0] + 1
            if recorded:  # one flat array of the rows' floats, as one slice if the rows are
                keys = list(recorded)  # consecutive: no list of tuples to convert, no index
                values = np.fromiter(chain.from_iterable(recorded.values()), float)
                at = slice(keys[0], keys[-1] + 1) if keys[-1] - keys[0] == len(keys) - 1 else keys
                out[at] = values.reshape(len(keys), -1)
            run[1:] = s, m, repeat, held, counts, flagged, since
        if fails:
            raise min(fails)[-1]
        if bad:
            raise NonFiniteInput(f"the bus gave a non-finite input at t = {bad[1]}")
        with np.errstate(all="ignore"):  # inf and nan as plain floats give them, without a warning
            P = Q = 0.0  # the weighted total, added in channel order
            for weight, j in totals:
                P, Q = P + weight * block[:, j], Q + weight * block[:, j + 1]
            block[:, -2], block[:, -1] = P, Q
        if write is not None:
            write(block)
    logging.getLogger(__name__).info("repeated %d of %d steps at a fixed point",
                                     repeated, n_steps * len(components))
    events.sort(key=lambda e: e[:2])  # by step, then channel order

    counts = [a + b * (n_steps + 1 - since)  # the runs at t_end end there
              for *_, tally, flagged, since in runs for a, b in zip(tally, flagged)]
    summary = {
        "method": config.method,
        "dt": dt,
        "t_end_requested": config.t_end,
        "t_end_actual": n_steps * dt,
        "steps": n_steps,
        "samples": samples,
        "initial_residuals": residuals,
        "trip_events": [{"type": kind, "t": (i + 1) * dt} for i, k, kind in events],
        "limiter_activity": dict(sorted(zip(count_names, map(int, counts)))),
    }
    return SimResult(Trajectory(channels, data) if write is None else None, summary)


def _column_text(block: np.ndarray) -> list[list[str]]:
    """%.17g text of block's rows (columns): a cell is formatted at 0 or where its bits change."""
    bits = block.view(np.uint64)
    new = np.ones(bits.shape, dtype=bool)
    np.not_equal(bits[:, 1:], bits[:, :-1], out=new[:, 1:])
    # One % call formats them all, from a tuple that is gone before the text is split.
    text = np.array((("%.17g," * np.count_nonzero(new))[:-1] % tuple(block[new].tolist()))
                    .split(","), dtype=object)
    runs = np.diff(np.flatnonzero(new), append=new.size)  # the rows each text fills
    return np.repeat(text, runs).reshape(bits.shape).tolist()


class BlockWriter:
    """Appends blocks of a run's rows to CSV files and a binary file as they come.

    channels names the rows' columns. files maps each CSV path to its channel
    list (t put first, a repeat dropped) or None for every channel, all
    checked before any file is opened; binary is the raw float64 file's path,
    or None. write(rows) formats each column that a CSV uses once (see
    _column_text), each CSV joining its rows from its columns' text, and
    appends rows to the binary from the array's own buffer. A row's text does
    not depend on where its block starts, so the files hold the same bytes
    however the rows are split into blocks. Close it, or use it in a with.
    """

    def __init__(self, channels: list[str], files: dict, binary=None):
        layouts = []  # (path, header, column of each header name)
        for path, names in files.items():
            require_channels(names or (), channels, "the trajectory")
            names = channels if names is None else ["t"] + [
                c for c in dict.fromkeys(names) if c != "t"]  # read_csv rejects repeats
            layouts.append((path, names, [channels.index(c) for c in names]))
        self._used = sorted({j for _, _, cols in layouts for j in cols})
        with ExitStack() as stack:  # a file that fails to open closes those before it
            self._csvs = []
            for path, names, cols in layouts:
                fh = stack.enter_context(open(path, "w", newline=""))
                fh.write(",".join(names) + "\n")
                self._csvs.append((fh, [self._used.index(j) for j in cols]))
            self._binary = binary and stack.enter_context(open(binary, "wb"))
            self._files = stack.pop_all()

    def write(self, rows: np.ndarray) -> None:
        if self._csvs and len(rows):
            cells = _column_text(rows[:, self._used].T)
            for fh, cols in self._csvs:
                fh.write("\n".join(map(",".join, zip(*[cells[k] for k in cols]))))
                fh.write("\n")
        if self._binary:
            self._binary.write(np.ascontiguousarray(rows, dtype="<f8"))

    def close(self) -> None:
        self._files.close()

    def __enter__(self) -> BlockWriter:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_csv(traj: Trajectory, files: dict) -> None:
    """Write CSV files of the trajectory: header row, time first, 17 significant digits.

    files maps each path to its channel list (t put first, a repeat dropped)
    or None for every channel, all checked before any file is opened. The
    rows go to a BlockWriter STEP_BLOCK at a time, as a streamed run hands
    them over, so one block's text is the writer's peak memory: the bytes of
    formatting every row on its own.
    """
    with BlockWriter(traj.channels, files) as writer:
        for start in range(0, len(traj), STEP_BLOCK):
            writer.write(traj.data[start:start + STEP_BLOCK])


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
    with BlockWriter(traj.channels, {}, path) as writer:
        writer.write(traj.data)


def read_binary(path, channels: list[str]) -> Trajectory:
    with open(path, "rb") as fh:
        buf = fh.read()
    flat = np.frombuffer(buf, dtype="<f8")
    if flat.size % len(channels) != 0:
        raise FileFormatError(
            f"{path}: {flat.size} values do not divide into {len(channels)} channels"
        )
    return Trajectory(channels, flat.reshape(-1, len(channels)).copy())
