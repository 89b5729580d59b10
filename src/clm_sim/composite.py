"""Composite-load assembly and scripted bus disturbances.

A composite load is a weighted mix of the three motor classes, the
electronic load and the ZIP load behind one bus, with an aggregate DER
riding on the same bus. Load fractions sum to 1; the DER contribution is
scaled separately (der_scale) and subtracts from net load. No feeder,
transformer or shunt is modelled: every component sees the bus signal
directly.

Bus disturbances are playback signals, i.e. scripted voltage/frequency
time series with no network solution: the piecewise fault/recovery voltage
generator, a constant bus, or an externally supplied sampled series.
A bus maps times to values: voltage(t) and frequency(t) take a list of
times and give a list of floats, one per time. A bus may also give
breakpoints(), the times at which a signal jumps or its slope does: the
stepper takes sub-steps there, so that no integrator stage reads the bus
across one (a bus without the method has none, as SeriesBus, whose knots
are stepped through), and held(lo, hi), the (V, F) that voltage() and
frequency() give at every time of [lo, hi], or None where they may vary
there: the stepper reads such a stretch once, and only there does a
component at its fixed point repeat its steps (a bus without the method,
as SeriesBus, holds nowhere, and is computed at every step). PlaybackBus
and ConstantBus are frozen dataclasses whose fields are the YAML keys of
their disturbance types, checked as the bus is made, every float finite.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .errors import require_finite
from .staticloads import FRACTION_SUM_TOL

PLAYBACK_SHAPES = ("verbatim", "ramp")


@dataclass(frozen=True)
class LoadMix:
    """Component weights (the mix_keys of config.COMPONENTS) plus reporting metadata."""

    f_a: float = 0.0        # motor A fraction
    f_b: float = 0.0        # motor B fraction
    f_c: float = 0.0        # motor C fraction
    f_elec: float = 0.0     # electronic load fraction
    f_zip: float = 0.0      # ZIP load fraction
    der_scale: float = 0.0  # DER MVA base fraction (subtracts from net load)
    p_base_mva: float = 1.0  # total base power, reporting only

    def __post_init__(self):
        fracs = (self.f_a, self.f_b, self.f_c, self.f_elec, self.f_zip)
        if not all(f >= 0.0 for f in (*fracs, self.der_scale)):
            raise ValueError("mix fractions must be >= 0")
        if not abs(sum(fracs) - 1.0) <= FRACTION_SUM_TOL:
            raise ValueError(f"load fractions must sum to 1, got {sum(fracs)!r}")
        if not self.p_base_mva > 0.0:
            raise ValueError("need p_base_mva > 0")
        require_finite(self)


def _check_freq(bus) -> None:
    """Every bus's frequency (pu) must be positive and finite."""
    if not bus.freq > 0.0:
        raise ValueError(f"need freq > 0, got {bus.freq}")
    if not math.isfinite(bus.freq):
        raise ValueError(f"need finite freq, got {bus.freq}")


@dataclass(frozen=True)
class PlaybackBus:
    """Fault/recovery voltage script: dip to `a` for `b` cycles at t = 1 s; constant frequency.

    shape "verbatim" keeps the printed recovery segment
    (1-d)*(t-c-1)/(b/60-c) + 1, which with the stock values starts at 1.1
    right after fault clearing and decays linearly to 1.0 at t = 1+c (the
    denominator b/60 - c is negative, so this is an overshoot-then-decay
    shape, not a ramp from `a`). shape "ramp" instead rises linearly from
    `a` at clearing to 1.0 at t = 1+c for users wanting a monotone recovery.
    """

    a: float      # fault voltage (pu)
    b: float      # fault duration (cycles at 60 Hz)
    c: float      # recovery end-time offset (s)
    d: float      # recovery shape parameter (pu)
    shape: str = "verbatim"
    freq: float = 1.0  # bus frequency (pu)

    def __post_init__(self):
        if not (0.0 < self.a < 1.0):
            raise ValueError(f"need 0 < a < 1, got {self.a}")
        if self.b <= 0.0:
            raise ValueError(f"need b > 0, got {self.b}")
        if self.c <= self.b / 60.0:
            raise ValueError(f"need c > b/60, got c={self.c}, b/60={self.b / 60.0}")
        if not (0.0 < self.d <= 1.0):
            raise ValueError(f"need d in (0, 1], got {self.d}")
        if self.shape not in PLAYBACK_SHAPES:
            raise ValueError(f"shape must be one of {PLAYBACK_SHAPES}, got {self.shape!r}")
        _check_freq(self)
        require_finite(self)

    def voltage(self, t):
        """The scripted voltage at each time; branch boundaries resolve in listed order."""
        a, b, c, d = self.a, self.b, self.c, self.d
        t_clear, t_end = 1.0 + b / 60.0, 1.0 + c
        # The recovery as base + k * (t - t0 - t1) / span, the bits of both printed forms:
        # a + (1 - a)(t - t_clear)/(t_end - t_clear) for "ramp" (t - t_clear - 0.0 is
        # t - t_clear), else (1 - d)(t - c - 1)/(b/60 - c) + 1.
        base, k, t0, t1, span = ((a, 1.0 - a, t_clear, 0.0, t_end - t_clear) if self.shape == "ramp"
                                 else (1.0, 1.0 - d, c, 1.0, b / 60.0 - c))
        return [a if 1.0 <= x <= t_clear else base + k * (x - t0 - t1) / span
                if t_clear <= x <= t_end else 1.0 for x in t]

    def frequency(self, t):
        return [self.freq] * len(t)

    def breakpoints(self) -> tuple[float, ...]:
        """The fault's start, its clearing and the recovery's end, as voltage() computes them."""
        return 1.0, 1.0 + self.b / 60.0, 1.0 + self.c

    def held(self, lo: float, hi: float) -> tuple[float, float] | None:
        """(V, F) on all of [lo, hi] inside the fault or wholly before or after it, else None."""
        if 1.0 <= lo and hi <= 1.0 + self.b / 60.0:  # voltage()'s first branch
            return self.a, self.freq
        if hi < 1.0 or 1.0 + self.c < lo:  # neither the fault's nor the recovery's
            return 1.0, self.freq
        return None


@dataclass(frozen=True)
class ConstantBus:
    """Fixed voltage and frequency."""

    v: float = 1.0
    freq: float = 1.0

    def __post_init__(self):
        if not self.v >= 0.0:
            raise ValueError(f"need v >= 0, got {self.v}")
        _check_freq(self)
        require_finite(self)

    def voltage(self, t):
        return [self.v] * len(t)

    def frequency(self, t):
        return [self.freq] * len(t)

    def breakpoints(self) -> tuple[float, ...]:
        return ()

    def held(self, lo: float, hi: float) -> tuple[float, float]:
        return self.v, self.freq


class SeriesBus:
    """Sampled (t, V[, F]) series with linear interpolation between samples.

    Outside the sampled span the end values are held. Frequency falls back
    to a constant when the series has no frequency column. The samples are
    checked as the bus is made, by a series file's rules (a ValueError): one
    1-D shape, at least two samples, strictly increasing finite t, finite
    V >= 0, finite F > 0 and finite freq > 0.
    """

    def __init__(self, t, v, f=None, freq: float = 1.0):
        import numpy as np  # only where a series is made: a run of another bus loads no numpy

        t, v = np.asarray(t, dtype=float), np.asarray(v, dtype=float)
        f = None if f is None else np.asarray(f, dtype=float)
        self.freq = freq
        if t.ndim != 1 or any(y.shape != t.shape for y in (v, f) if y is not None):
            raise ValueError("need t, V and F of one 1-D shape")
        if t.size < 2:
            raise ValueError("need at least two samples")
        back = np.flatnonzero(~(np.diff(t) > 0.0))  # a nan is out of order too
        if back.size:
            raise ValueError(f"time must be strictly increasing, got "
                             f"{t[back[0] + 1]:.17g} after {t[back[0]]:.17g}")
        if (rows := np.flatnonzero(~np.isfinite(t))).size:  # inf - x > 0 passes the rule above
            raise ValueError(f"need finite t, got {t[rows[0]]:.17g}")
        for name, ys, rule, ok in (("V", v, "V >= 0", np.greater_equal),
                                   ("F", f, "F > 0", np.greater)):
            if ys is None:
                continue
            for need, bad in ((rule, ~ok(ys, 0.0)), (f"finite {name}", ~np.isfinite(ys))):
                if (rows := np.flatnonzero(bad)).size:  # a nan fails the range first
                    raise ValueError(f"need {need}, got {ys[rows[0]]:.17g} "
                                     f"at t = {t[rows[0]]:.17g}")
        _check_freq(self)
        self.t, self.v = t.tolist(), v.tolist()
        self.f = None if f is None else f.tolist()

    def _interp(self, t, ys: list[float]):
        """ys linearly interpolated at each time of t, found by bisection on the knots."""
        ts, last = self.t, len(self.t) - 1

        def at(x):
            if x <= ts[0]:
                return ys[0]
            if x >= ts[-1]:
                return ys[-1]
            i = min(bisect_right(ts, x), last)  # a nan time bisects past the end
            w = (x - ts[i - 1]) / (ts[i] - ts[i - 1])
            return ys[i - 1] + w * (ys[i] - ys[i - 1])
        return [at(x) for x in t]

    def voltage(self, t):
        return self._interp(t, self.v)

    def frequency(self, t):
        return [self.freq] * len(t) if self.f is None else self._interp(t, self.f)
