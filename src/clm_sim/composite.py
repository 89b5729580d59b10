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
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

COMPONENT_NAMES = ("motor_a", "motor_b", "motor_c", "elec", "zip", "dera")

FRACTION_SUM_TOL = 1e-12

PLAYBACK_SHAPES = ("verbatim", "ramp")


@dataclass(frozen=True)
class LoadMix:
    """Component weights on the common pu base plus reporting metadata."""

    f_a: float = 0.0        # motor A fraction
    f_b: float = 0.0        # motor B fraction
    f_c: float = 0.0        # motor C fraction
    f_elec: float = 0.0     # electronic load fraction
    f_zip: float = 0.0      # ZIP load fraction
    der_scale: float = 0.0  # DER MVA base fraction (subtracts from net load)
    p_base_mva: float = 1.0  # total base power, reporting only

    def __post_init__(self):
        fracs = (self.f_a, self.f_b, self.f_c, self.f_elec, self.f_zip)
        if any(f < 0.0 for f in fracs) or self.der_scale < 0.0:
            raise ValueError("mix fractions must be >= 0")
        if abs(sum(fracs) - 1.0) > FRACTION_SUM_TOL:
            raise ValueError(f"load fractions must sum to 1, got {sum(fracs)!r}")
        if self.p_base_mva <= 0.0:
            raise ValueError("need p_base_mva > 0")

    def weight(self, name: str) -> float:
        return {
            "motor_a": self.f_a,
            "motor_b": self.f_b,
            "motor_c": self.f_c,
            "elec": self.f_elec,
            "zip": self.f_zip,
            "dera": -self.der_scale,
        }[name]


def composite_outputs(
    component_pq: dict[str, tuple[float, float]], mix: LoadMix
) -> tuple[float, float]:
    """Net (P, Q) of the composite: fraction-weighted loads minus DER injection."""
    for name in component_pq:
        if name not in COMPONENT_NAMES:
            raise ValueError(f"unknown component {name!r}")
    return weighted_total([(mix.weight(name), p, q) for name, (p, q) in component_pq.items()])


def weighted_total(terms) -> tuple[float, float]:
    """(sum of w*p, sum of w*q) over (w, p, q) terms, added in the given order."""
    P = Q = 0.0
    for w, p, q in terms:
        P += w * p
        Q += w * q
    return P, Q


@dataclass(frozen=True)
class PlaybackParams:
    """Fault/recovery voltage script: dip to `a` for `b` cycles at t = 1 s.

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


def playback_voltage(t: float, params: PlaybackParams) -> float:
    """Scripted bus voltage at time t; branch boundaries resolve in listed order."""
    t_clear = 1.0 + params.b / 60.0
    t_end = 1.0 + params.c
    if 1.0 <= t <= t_clear:
        return params.a
    if t_clear <= t <= t_end:
        if params.shape == "ramp":
            return params.a + (1.0 - params.a) * (t - t_clear) / (t_end - t_clear)
        return (1.0 - params.d) * (t - params.c - 1.0) / (params.b / 60.0 - params.c) + 1.0
    return 1.0


class PlaybackBus:
    """Playback-voltage bus with constant frequency."""

    def __init__(self, playback: PlaybackParams, freq: float = 1.0):
        self.playback = playback
        self.freq = freq

    def voltage(self, t: float) -> float:
        return playback_voltage(t, self.playback)

    def frequency(self, t: float) -> float:
        return self.freq


class ConstantBus:
    """Fixed voltage and frequency."""

    def __init__(self, v: float = 1.0, freq: float = 1.0):
        self.v = v
        self.freq = freq

    def voltage(self, t: float) -> float:
        return self.v

    def frequency(self, t: float) -> float:
        return self.freq


class SeriesBus:
    """Sampled (t, V[, F]) series with linear interpolation between samples.

    Outside the sampled span the end values are held. Frequency falls back
    to a constant when the series has no frequency column.
    """

    def __init__(self, t, v, f=None, freq: float = 1.0):
        self.t = np.asarray(t, dtype=float)
        self.v = np.asarray(v, dtype=float)
        if self.t.ndim != 1 or self.t.shape != self.v.shape or self.t.size < 2:
            raise ConfigError("series disturbance needs matching 1-D t and V with >= 2 samples")
        if not np.all(np.diff(self.t) > 0.0):
            raise ConfigError("series disturbance times must be strictly increasing")
        self.f = None if f is None else np.asarray(f, dtype=float)
        if self.f is not None and self.f.shape != self.t.shape:
            raise ConfigError("series disturbance frequency column length mismatch")
        self.freq = freq
        self._t_list = self.t.tolist()
        self._v_list = self.v.tolist()
        self._f_list = None if self.f is None else self.f.tolist()

    def _interp(self, t: float, ys: list) -> float:
        ts = self._t_list
        if t <= ts[0]:
            return ys[0]
        if t >= ts[-1]:
            return ys[-1]
        i = bisect.bisect_right(ts, t)
        w = (t - ts[i - 1]) / (ts[i] - ts[i - 1])
        return ys[i - 1] + w * (ys[i] - ys[i - 1])

    def voltage(self, t: float) -> float:
        return self._interp(t, self._v_list)

    def frequency(self, t: float) -> float:
        if self._f_list is None:
            return self.freq
        return self._interp(t, self._f_list)
