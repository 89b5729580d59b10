"""Per-layer timers for the traced benchmark run, kept outside the program.

``Tracer.install`` replaces public functions of clm_sim at the names their
callers resolve at call time (``clm_sim.sim.motor_derivatives`` is what the
stepper calls, ``clm_sim.cli.load_config`` what ``cmd_run`` calls) with
wrappers that count calls and time them as nested spans. A span's self
time is its duration minus the time of the wrapped spans it encloses.
Spans are aggregated in memory per (name) and call counts per (enclosing
span, name), which is what the ratios below need; nothing is written
while the program runs. A name that a later version of the program no
longer has is skipped and reports 0 calls.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

# (module, attribute, span name). The span is named after the module that
# defines the function; the attribute is where its callers look it up.
TARGETS = [
    ("clm_sim.cli", "cmd_run", "cli.cmd_run"),
    ("clm_sim.cli", "cmd_compare", "cli.cmd_compare"),
    ("clm_sim.cli", "load_config", "config.load_config"),
    ("clm_sim.config", "build_scenario", "sim.build_scenario"),
    ("clm_sim.sim", "motor_initialize", "motor3.motor_initialize"),
    ("clm_sim.dera", "dera_initialize", "dera.dera_initialize"),
    ("clm_sim.sim", "run_simulation", "sim.run_simulation"),
    ("clm_sim.sim", "motor_derivatives", "motor3.motor_derivatives"),
    ("clm_sim.sim", "motor_algebra", "motor3.motor_algebra"),
    ("clm_sim.dera", "dera_derivatives", "dera.dera_derivatives"),
    ("clm_sim.dera", "current_limits", "dera.current_limits"),
    ("clm_sim.dera", "dera_outputs", "dera.dera_outputs"),
    ("clm_sim.dera", "dera_limiter_flags", "dera.dera_limiter_flags"),
    ("clm_sim.dera", "advance_trackers", "dera.advance_trackers"),
    ("clm_sim.staticloads", "zip_power", "staticloads.zip_power"),
    ("clm_sim.staticloads", "elec_power", "staticloads.elec_power"),
    ("clm_sim.staticloads", "elec_tracker_update", "staticloads.elec_tracker_update"),
    ("clm_sim.sim", "composite_outputs", "composite.composite_outputs"),
    ("clm_sim.composite", "PlaybackBus.voltage", "composite.bus_voltage"),
    ("clm_sim.sim", "write_csv", "sim.write_csv"),
    ("clm_sim.sim", "write_binary", "sim.write_binary"),
    ("clm_sim.sim", "read_csv", "sim.read_csv"),
    ("clm_sim.sim", "resample", "sim.resample"),
    ("clm_sim.sim", "mse", "sim.mse"),
]


def _steps(args, result):
    return int(getattr(result, "summary", {}).get("steps", 0))


def _rows_in(args, result):
    return len(args[0])


def _rows_out(args, result):
    return len(result)


# Work counted by a span besides its calls: integration steps, rows.
EXTRA = {"sim.run_simulation": _steps, "sim.write_csv": _rows_in, "sim.read_csv": _rows_out}

# (metric, unit); every one is reported for every workload, 0 where unused.
LAYER_METRICS = [
    ("sim.run_simulation.s", "s"),
    ("sim.run_simulation.us_per_step", "us"),
    ("sim.run_simulation.self_s", "s"),
    ("sim.steps", "count"),
    ("motor3.motor_derivatives.calls", "count"),
    ("motor3.motor_derivatives.us_per_call", "us"),
    ("motor3.motor_derivatives.calls_per_step", "calls/step"),
    ("dera.dera_derivatives.calls", "count"),
    ("dera.dera_derivatives.us_per_call", "us"),
    ("dera.dera_derivatives.calls_per_step", "calls/step"),
    ("motor3.motor_algebra.calls", "count"),
    ("motor3.motor_algebra.us_per_call", "us"),
    ("dera.dera_outputs.us_per_call", "us"),
    ("staticloads.zip_power.us_per_call", "us"),
    ("staticloads.elec_power.us_per_call", "us"),
    ("composite.composite_outputs.us_per_call", "us"),
    ("dera.dera_limiter_flags.us_per_call", "us"),
    ("dera.advance_trackers.us_per_call", "us"),
    ("staticloads.elec_tracker_update.us_per_call", "us"),
    ("dera.current_limits.calls_per_rhs", "calls/rhs"),
    ("composite.bus_voltage.calls_per_step", "calls/step"),
    ("sim.write_csv.s", "s"),
    ("sim.write_csv.rows_per_s", "rows/s"),
    ("sim.write_binary.s", "s"),
    ("config.load_config.ms_per_call", "ms"),
    ("sim.build_scenario.ms_per_call", "ms"),
    ("motor3.motor_initialize.us_per_call", "us"),
    ("dera.dera_initialize.us_per_call", "us"),
    ("cli.cmd_run.self_s", "s"),
    ("sim.read_csv.s", "s"),
    ("sim.read_csv.rows_per_s", "rows/s"),
    ("sim.resample.s", "s"),
    ("sim.mse.s", "s"),
    ("cli.cmd_compare.self_s", "s"),
    ("trace.overhead_s", "s"),
]

# Metrics made of call counts only; they must repeat exactly.
COUNT_METRICS = {name for name, unit in LAYER_METRICS
                 if unit in ("count", "calls/step", "calls/rhs")}


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # [span name, time of enclosed spans]
        self._saved: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.under = Counter()  # (enclosing span or None, span) -> calls
        self.extra = Counter()

    def _wrap(self, name: str, fn):
        stack, clock, extra = self._stack, time.perf_counter, EXTRA.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.total[name] += dt
                self.self_time[name] += dt - frame[1]
                self.calls[name] += 1
                self.under[(parent[0] if parent else None, name)] += 1
                if parent is not None:
                    parent[1] += dt
            if extra is not None:
                self.extra[name] += extra(args, result)
            return result

        return span

    def install(self) -> None:
        for module, attr, name in TARGETS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = vars(owner).get(leaf) if owner is not None else None
            if not callable(fn):
                continue
            self._saved.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, fn = self._saved.pop()
            setattr(owner, leaf, fn)

    def metrics(self) -> dict[str, float]:
        """The layer metrics of the spans recorded since the last reset."""
        tot, calls, under = self.total, self.calls, self.under
        steps = self.extra["sim.run_simulation"]

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        def per_call(name, scale):
            return per(tot[name], calls[name], scale)

        def per_step(name):
            return per(under[("sim.run_simulation", name)], steps)

        m = {
            "sim.run_simulation.s": tot["sim.run_simulation"],
            "sim.run_simulation.us_per_step": per(tot["sim.run_simulation"], steps, 1e6),
            "sim.run_simulation.self_s": self.self_time["sim.run_simulation"],
            "sim.steps": steps,
            "dera.current_limits.calls_per_rhs": per(
                under[("dera.dera_derivatives", "dera.current_limits")],
                calls["dera.dera_derivatives"]),
            "composite.bus_voltage.calls_per_step": per_step("composite.bus_voltage"),
            "sim.write_csv.s": tot["sim.write_csv"],
            "sim.write_csv.rows_per_s": per(self.extra["sim.write_csv"], tot["sim.write_csv"]),
            "sim.write_binary.s": tot["sim.write_binary"],
            "config.load_config.ms_per_call": per_call("config.load_config", 1e3),
            "sim.build_scenario.ms_per_call": per_call("sim.build_scenario", 1e3),
            "cli.cmd_run.self_s": self.self_time["cli.cmd_run"],
            "sim.read_csv.s": tot["sim.read_csv"],
            "sim.read_csv.rows_per_s": per(self.extra["sim.read_csv"], tot["sim.read_csv"]),
            "sim.resample.s": tot["sim.resample"],
            "sim.mse.s": tot["sim.mse"],
            "cli.cmd_compare.self_s": self.self_time["cli.cmd_compare"],
        }
        for name in ("motor3.motor_derivatives", "dera.dera_derivatives"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.us_per_call"] = per_call(name, 1e6)
            m[f"{name}.calls_per_step"] = per_step(name)
        m["motor3.motor_algebra.calls"] = calls["motor3.motor_algebra"]
        for name in ("motor3.motor_algebra", "dera.dera_outputs", "staticloads.zip_power",
                     "staticloads.elec_power", "composite.composite_outputs",
                     "dera.dera_limiter_flags", "dera.advance_trackers",
                     "staticloads.elec_tracker_update", "motor3.motor_initialize",
                     "dera.dera_initialize"):
            m[f"{name}.us_per_call"] = per_call(name, 1e6)
        return m
