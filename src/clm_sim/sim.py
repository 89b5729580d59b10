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
lists, one voltage and one frequency call over every time the method uses
(each stage time, each step's end and each sub-step's stage time, below),
so a bus must accept a list of times (see composite.py); a block that lies
in a stretch where the bus's held(lo, hi) gives its (V, F) is read by that
one call, its steps sharing one plan. That read gives
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
channel order. Each block's rows, lists of floats with the totals, are
handed to a writer (run_simulation's write) once the block is stepped: a
streamed run's memory does not depend on its length. `clm-sim run` streams
every run to its files this way; a run that fails or is interrupted there
leaves no file and no directory that it made. A run without a writer keeps
its rows as its trajectory, each block converted to an array as it comes.
Only that trajectory and the read side (Trajectory, read_csv, read_binary,
resample, mse) use numpy, imported where they are called.

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
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Sequence
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cache
from itertools import chain, compress, pairwise, repeat, starmap
from math import inf, isfinite, nextafter
from operator import is_, is_not, itemgetter, ne, sub

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

    bus: object  # voltage(t) and frequency(t) at each time of a list t (see composite.py)
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
        import numpy as np  # the read side's: a run that writes its rows loads no numpy
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
    import numpy as np
    ta, tb = traj_a.t, traj_b.t
    return ta.shape == tb.shape and float(np.max(np.abs(ta - tb))) <= GRID_ATOL


def mse(traj_a: Trajectory, traj_b: Trajectory, channel: str) -> float:
    """Mean squared difference of one channel over identical sample grids."""
    import numpy as np
    if not grids_match(traj_a, traj_b):
        raise GridMismatch(
            "trajectories are on different time grids; resample one onto the other first"
        )
    diff = traj_a.channel(channel) - traj_b.channel(channel)
    return float(np.mean(diff * diff))


def resample(traj: Trajectory, grid) -> Trajectory:
    """Linear-interpolate every channel onto the given time grid."""
    import numpy as np
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
    _read_bus), rhs(y, m, v, f) called at each stage's bus. A plan is only
    read: the steps of a held block share one.
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
              last: bytes) -> tuple:
    """The bus over the n steps from step i0, read once per signal, as each step's plan.

    Returns (t, vf, plan, changed, last, bad): t and vf hold the n + 1 step
    boundaries' times and (V, F). plan[r] is step r's plan, the flat list
    of floats that _step's step runs: per piece its h, then V and F at each
    stage time. A grid step is one piece, (dt, the bus at t + stage * dt). A
    step whose closed interval [t, t + dt] holds one of breaks is split: its
    plan is its pieces [lo, hi] between its ends and its interior
    breakpoints, one after the other, each (hi - lo, the bus at lo + stage *
    (hi - lo) clamped to [nextafter(lo, inf), nextafter(hi, -inf)]), the
    one-sided limits at a jump, even at a grid point. changed[r] says whether
    step r's grid inputs (at its stage times and its end) differ from the
    step before's bit for bit, the first step's from last, their bytes, which
    is returned for the next block. It is also set for row n, for a split
    step and for the step after one, in the next block too: a split step
    never starts a run of repeats. bad is (r, t) for the earliest step r with
    a non-finite V or F at a stage time (a split step's grid ones too), t the
    earliest such time in it, or None. A block with no split step, nor one
    before it, whose times lie where the bus's held(lo, hi) gives its (V, F)
    takes them from that one call, its steps sharing one plan. (Kept out of
    run_simulation's long body, where tracemalloc traces an allocation far
    slower: it finds the line by scanning the function's line table.)
    """
    width, offsets = len(stages), [h * dt for h in stages]
    end = (i0 + n) * dt
    top = max(end, (i0 + n - 1) * dt + offsets[-1]) if n else end  # the latest time read
    held = getattr(bus, "held", None)
    if (held and bisect_left(breaks, (i0 - 1) * dt) == bisect_right(breaks, end)
            and (vf := held(i0 * dt, top))):
        key = struct.pack(f"{2 * width + 2}d", *vf * (width + 1))
        changed = [key != last] + [False] * (n - 1) + [True] if n else [True]
        return ([k * dt for k in range(i0, i0 + n + 1)], [vf] * (n + 1), [[dt, *vf * width]] * n,
                changed, key if n else last, None)

    edges = [k * dt for k in range(i0 - 1, i0 + n + 1)]  # the step before the block's t, then each
    split = set()  # the steps with a breakpoint in [t, t + dt], by their index in edges
    for b in breaks[bisect_left(breaks, edges[0]):bisect_right(breaks, edges[-1])]:
        split.update(range(max(bisect_left(edges, b) - 1, 0), min(bisect_right(edges, b), n + 1)))
    pieces = {j - 1: list(pairwise([edges[j], *breaks[bisect_right(breaks, edges[j]):
                                                       bisect_left(breaks, edges[j + 1])],
                                    edges[j + 1]]))
              for j in sorted(split) if j}  # each split step's [lo, hi], by its row
    grid = len(times := [t + h for t in edges[1:-1] for h in offsets] + edges[-1:])
    times += [min(max(lo + h * (hi - lo), nextafter(lo, inf)), nextafter(hi, -inf))
              for own in pieces.values() for lo, hi in own for h in stages]
    V, F = bus.voltage(times), bus.frequency(times)
    vf = list(zip(V[:grid:width], F[:grid:width]))  # at each boundary
    args = list(chain.from_iterable(zip(V, F)))  # per time, (V, F)
    plan = list(map(list, zip(repeat(dt, n), *(x[j:n * width:width]
                                               for j in range(width) for x in (V, F)))))
    k = grid  # the pieces' times follow the grid's
    for r, own in pieces.items():
        plan[r] = []
        for lo, hi in own:
            plan[r] += [hi - lo, *args[2 * k:2 * (k + width)]]
            k += width
    packed, size = struct.pack(f"{2 * grid}d", *args[:2 * grid]), 16 * width
    keys = [packed[a:a + size + 16] for a in range(0, n * size, size)]  # a step's inputs, its end's
    changed = [*map(ne, keys, [last, *keys]), True]
    for j in split:  # a split step (row j - 1) and the step after it (row j)
        changed[max(j - 1, 0)] = changed[j] = True
    bad = None
    if not isfinite(sum(V) + sum(F)):  # a finite sum: every value finite
        owner = [r for r in range(n) for _ in offsets] + [None] + [
            r for r, own in pieces.items() for _ in own for _ in offsets]
        bad = min(((owner[j], times[j]) for j, (v, f) in enumerate(zip(V, F))
                   if j != grid - 1 and not (isfinite(v) and isfinite(f))), default=None)
    return edges[1:], vf, plan, changed, keys[-1] if n else last, bad


@cache
def _row(n: int) -> Callable:
    """row(t, vf, part_1, ..., part_n, total) -> [t, *vf, *part_1, ..., *total]."""
    parts = [f"p{k}" for k in range(n)] + ["total"]
    return eval(f"lambda t, vf, {', '.join(parts)}: [t, *vf, *{', *'.join(parts)}]")


@dataclass
class SimResult:
    trajectory: Trajectory | None  # None when the run's rows went to a writer
    summary: dict


class _Kept:
    """A writer that keeps a run's rows as its trajectory, each block an array as it comes."""

    def __init__(self, channels: list[str]):
        import numpy as np
        self.np, self.channels, self.blocks = np, channels, []

    def write(self, rows: list[list[float]]) -> None:
        self.blocks.append(self.np.array(rows, dtype=float).reshape(-1, len(self.channels)))

    def trajectory(self) -> Trajectory:
        return Trajectory(self.channels, self.np.concatenate(self.blocks))


def run_simulation(scenario: Scenario, config: IntegratorConfig,
                   write: Callable | None = None) -> SimResult:
    """Integrate the scenario and collect the run summary alongside the data.

    Each block's samples (rows of every channel, totals included, as lists
    of floats; none in a block between two samples when record_every >
    STEP_BLOCK) are passed to write(rows) once that block is stepped, in
    order, and the result's trajectory is None. Without write, the rows are
    kept, and the result's trajectory holds every sample.
    """
    dt, every = config.dt, config.record_every
    n_steps = int(round(config.t_end / dt))
    samples = n_steps // every + 1
    stages = _STEPPERS[config.method][0]
    breaks = sorted(map(float, getattr(scenario.bus, "breakpoints", tuple)()))
    components = scenario.components(dt)
    channels = channel_names(components)
    kept = None if write else _Kept(channels)  # without a writer, the rows are kept
    write = write or kept.write
    totals = [(c.weight, len(c.states)) for c in components]  # where P is in a component's row
    v0, f0 = float(scenario.bus.voltage(0.0)), float(scenario.bus.frequency(0.0))
    residuals = {c.name: max(map(abs, c.rhs(c.state0, c.memory0, v0, f0)))
                 for c in components if c.states}  # 0 at equilibrium

    # What each component carries from block to block: its state, memory, repeat flag
    # (its last step left both as they were), the row held at that fixed point, its
    # limiter counts up to the current run of equal flags, and that run's flags and
    # first step.
    runs, count_names = [], []
    for c in components:
        runs.append([list(c.state0), c.memory0, False, None, [0] * len(c.flag_names),
                     (False,) * len(c.flag_names), 0])
        count_names += [f"{c.name}.{flag}" for flag in c.flag_names]
    diverged = "a state left the finite range during integration (instability or too large a step)"
    events, repeated, last, above, total = [], 0, b"", None, None
    for i0 in range(0, n_steps + 1, STEP_BLOCK):
        rows = min(STEP_BLOCK, n_steps + 1 - i0)  # rows i0 + r of the trajectory
        n = min(rows, n_steps - i0)  # the steps among them: the row at t_end has none
        t, vf, plan, changed, last, bad = _read_bus(scenario.bus, stages, breaks, dt, i0, n,
                                                    last)
        stop = bad[0] if bad else rows
        fails = []
        lo, hi = -(-i0 // every), -(-(i0 + rows) // every)  # the samples of this block
        outs = []  # per component, its row at each sample, sample lo first
        for k, (c, run) in enumerate(zip(components, runs)):
            s, m, repeat, held, counts, flagged, since = run
            out = [None] * (hi - lo)
            rhs, output, flags, advance = c.rhs, c.output, c.flags, c.advance
            step = _step(config.method, len(c.states)) if c.states else lambda rhs, s, m, plan: s
            r = 0
            while r < stop:
                i = i0 + r
                if repeat and not changed[r]:  # steps r to j - 1 repeat the fixed point
                    j = changed.index(True, r)  # changed ends with True: t_end or the next block
                    p0, p1 = -(-i // every) - lo, -(-(i0 + j) // every) - lo
                    out[p0:p1] = [held] * (p1 - p0)  # the flags' run goes on
                    repeated, r = repeated + j - r, j
                    continue
                raised = flags(s)  # limiter activity: each run of equal flags counted at its end
                if raised != flagged:
                    counts = [a + b * (i - since) for a, b in zip(counts, flagged)]
                    flagged, since = raised, i
                if i % every == 0:
                    out[i // every - lo] = row = (*s, *output(s, m, *vf[r]))
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
            outs.append(out)
            run[:] = s, m, repeat, held, counts, flagged, since
        if fails:
            raise min(fails)[-1]
        if bad:
            raise NonFiniteInput(f"the bus gave a non-finite input at t = {bad[1]}")
        sums = []  # each row's weighted total, added in channel order
        for parts in zip(*outs) if outs else [()] * (hi - lo):
            if parts != above:  # equal rows, equal bits: sums from 0.0 are never -0.0
                P = Q = 0.0
                for (weight, j), part in zip(totals, parts):
                    P, Q = P + weight * part[j], Q + weight * part[j + 1]
                total = P, Q
            sums.append(total)
            above = parts
        at = slice(lo * every - i0, rows, every)  # the samples' boundaries
        write(list(map(_row(len(outs)), t[at], vf[at], *outs, sums)))
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
    return SimResult(kept and kept.trajectory(), summary)


def _items(indices: list[int]) -> Callable:
    """A function giving a sequence's items at indices, as a tuple (one index too)."""
    get = itemgetter(*indices)
    return get if len(indices) > 1 else lambda seq: (get(seq),)


class BlockWriter:
    """Appends blocks of a run's rows to CSV files and a binary file as they come.

    channels names the rows' columns. files maps each CSV path to its channel
    list (t put first, a repeat dropped) or None for every channel, all
    checked before any file is opened; binary is the raw float64 file's path,
    or None. write(rows) takes a list of rows, each a sequence of floats. It
    makes the %.17g text of each cell that a CSV uses once, each CSV joining
    its rows from that text, and a cell takes the text of the cell above it
    (the block before's last row, for a block's first) when the two are the
    same float or equal and nonzero: the same bits. Each row goes to the
    binary as little-endian float64 (struct). A cell's text depends on its value
    alone, so the files hold the same bytes however the rows are split into
    blocks. Close it, or use it in a with.
    """

    def __init__(self, channels: list[str], files: dict, binary=None):
        layouts = []  # (path, header, column of each header name)
        for path, names in files.items():
            require_channels(names or (), channels, "the trajectory")
            names = channels if names is None else ["t"] + [
                c for c in dict.fromkeys(names) if c != "t"]  # read_csv rejects repeats
            layouts.append((path, names, [channels.index(c) for c in names]))
        self._used = used = sorted({j for _, _, cols in layouts for j in cols})
        self._pick = _items(used) if 0 < len(used) < len(channels) else None  # None: every one
        self._pack = struct.Struct(f"<{len(channels)}d").pack  # a row's bytes in the binary
        self._above = [None] * len(used), [""] * len(used)  # no float is None: all new
        with ExitStack() as stack:  # a file that fails to open closes those before it
            self._csvs = []
            for path, names, cols in layouts:
                fh = stack.enter_context(open(path, "w", newline=""))
                fh.write(",".join(names) + "\n")
                self._csvs.append((fh, _items([used.index(j) for j in cols])))
            self._binary = binary and stack.enter_context(open(binary, "wb"))
            self._files = stack.pop_all()

    def write(self, rows: list) -> None:
        if self._csvs and rows:
            n, text = len(rows), []  # per used column, its text: one str if it holds throughout
            for col, y, was in zip(zip(*(rows if self._pick is None else map(self._pick, rows))),
                                   *self._above):
                x = col[0]
                if x and col.count(x) == n:  # one nonzero value throughout: the same bits
                    text.append(was if x is y or x == y else "%.17g" % x)
                    continue
                differs = is_not if 0.0 in col or y == 0.0 else ne  # 0.0 == -0.0: the same float
                at = list(compress(range(n), map(differs, col, chain((y,), col))))
                if not at:
                    text.append(was)
                    continue
                new = ("%.17g," * len(at))[:-1] % tuple(map(col.__getitem__, at))
                new = new.split(",") if at[0] == 0 else [was, *new.split(",")]
                at = at if at[0] == 0 else [0, *at]
                text.append(new if len(at) == n else list(chain.from_iterable(
                    map(repeat, new, map(sub, at[1:] + [n], at)))))  # each text over its rows
            self._above = ([rows[-1][j] for j in self._used],
                           [t if isinstance(t, str) else t[-1] for t in text])
            for fh, cols in self._csvs:
                fields = []  # the file's columns, each run of held ones joined once
                for t in cols(text):
                    if isinstance(t, str) and fields and isinstance(fields[-1], str):
                        fields[-1] += "," + t
                    else:
                        fields.append(t)
                fh.write("\n".join(map(",".join, zip(*(
                    [t] * n if isinstance(t, str) else t for t in fields)))))
                fh.write("\n")
        if self._binary:
            self._binary.write(b"".join(starmap(self._pack, rows)))

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
            writer.write(traj.data[start:start + STEP_BLOCK].tolist())


def read_table(path, what: str = "file") -> tuple[list[str] | None, np.ndarray]:
    """Read a CSV of finite floats: (header or None, (n_rows, n_fields) array).

    The first line is a header when its first field is not a number. Blank
    lines are skipped; every row must have the first line's field count.
    A bad row or value raises FileFormatError naming file:line. A file that one
    np.loadtxt call parses cleanly skips the per-line loop that defines these rules.
    """
    import numpy as np
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
        for start in range(0, len(traj), STEP_BLOCK):
            writer.write(traj.data[start:start + STEP_BLOCK].tolist())


def read_binary(path, channels: list[str]) -> Trajectory:
    import numpy as np
    with open(path, "rb") as fh:
        buf = fh.read()
    flat = np.frombuffer(buf, dtype="<f8")
    if flat.size % len(channels) != 0:
        raise FileFormatError(
            f"{path}: {flat.size} values do not divide into {len(channels)} channels"
        )
    return Trajectory(channels, flat.reshape(-1, len(channels)).copy())
