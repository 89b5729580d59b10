"""Algebraic load models: ZIP static load and electronic load.

The ZIP load is a quadratic in V/V0 whose coefficients are the constant
impedance / constant current / constant power fractions of base power.
The electronic load scales its base power by a coefficient in [0, 1] that
disconnects linearly between two voltage thresholds and partially recovers
(fraction alpha) based on the lowest voltage seen so far; that running
minimum is the only memory either model has.
"""

from __future__ import annotations

from dataclasses import dataclass

FRACTION_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ZipParams:
    P0: float   # base active power (pu)
    Q0: float   # base reactive power (pu)
    V0: float   # nominal voltage (pu)
    ap: float   # active constant-impedance fraction
    bp: float   # active constant-current fraction
    cp: float   # active constant-power fraction
    aq: float   # reactive constant-impedance fraction
    bq: float   # reactive constant-current fraction
    cq: float   # reactive constant-power fraction

    def __post_init__(self):
        if abs(self.ap + self.bp + self.cp - 1.0) > FRACTION_SUM_TOL:
            raise ValueError(
                f"active ZIP fractions must sum to 1, got {self.ap + self.bp + self.cp!r}"
            )
        if abs(self.aq + self.bq + self.cq - 1.0) > FRACTION_SUM_TOL:
            raise ValueError(
                f"reactive ZIP fractions must sum to 1, got {self.aq + self.bq + self.cq!r}"
            )
        if self.V0 <= 0.0:
            raise ValueError(f"need V0 > 0, got {self.V0}")


def zip_power(V: float, params: ZipParams) -> tuple[float, float]:
    """(P, Q) drawn by the ZIP load at voltage V."""
    r = V / params.V0
    P = params.P0 * (params.ap * r * r + params.bp * r + params.cp)
    Q = params.Q0 * (params.aq * r * r + params.bq * r + params.cq)
    return P, Q


@dataclass(frozen=True)
class ElecParams:
    PE0: float    # base active power (pu)
    QE0: float    # base reactive power (pu)
    Vd1: float    # upper voltage threshold (pu); full output at or above it
    Vd2: float    # lower voltage threshold (pu); zero output below it
    alpha: float  # fraction of tripped load that reconnects on recovery

    def __post_init__(self):
        if not (self.Vd1 > self.Vd2 > 0.0):
            raise ValueError(f"need Vd1 > Vd2 > 0, got ({self.Vd1}, {self.Vd2})")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"need alpha in [0, 1], got {self.alpha}")


@dataclass(frozen=True)
class ElecTracker:
    vmin_t: float  # lowest voltage seen, floored at Vd2 (pu)


def elec_tracker_init(V0: float, params: ElecParams) -> ElecTracker:
    return ElecTracker(vmin_t=max(params.Vd2, V0))


def elec_tracker_update(Vt: float, tracker: ElecTracker, params: ElecParams) -> ElecTracker:
    """One-step minimum-voltage recursion: max(Vd2, min(Vt, previous))."""
    return ElecTracker(vmin_t=elec_vmin_update(Vt, tracker.vmin_t, params))


def elec_vmin_update(Vt: float, vmin_t: float, params: ElecParams) -> float:
    """elec_tracker_update on the tracker's plain-float running minimum."""
    return max(params.Vd2, min(Vt, vmin_t))


def elec_coefficient(Vt: float, tracker: ElecTracker, params: ElecParams) -> tuple[float, int]:
    """Load coefficient ct and the mode (1..5) that produced it.

    Modes: 1 disconnected below Vd2; 2 linear disconnection while the
    voltage is still at its running minimum; 3 partial (alpha) reconnection
    while recovering inside the band; 4 full output with no low-voltage
    history; 5 partial recovery above Vd1 after a dip. The tracker must
    already reflect this sample's voltage. Ties at the thresholds follow
    the comparisons exactly as written in elec_power_at.
    """
    return elec_power_at(Vt, tracker.vmin_t, params)[2:]


def elec_power(Vt: float, tracker: ElecTracker, params: ElecParams) -> tuple:
    """(P, Q, ct, mode) of the electronic load at this sample."""
    return elec_power_at(Vt, tracker.vmin_t, params)


def elec_power_at(Vt: float, vmin_t: float, params: ElecParams) -> tuple:
    """elec_power on the tracker's plain-float running minimum vmin_t."""
    span = params.Vd1 - params.Vd2
    if Vt < params.Vd2:
        ct, mode = 0.0, 1
    elif Vt < params.Vd1:
        if Vt <= vmin_t:
            ct, mode = (Vt - params.Vd2) / span, 2
        else:
            ct, mode = (vmin_t - params.Vd2 + params.alpha * (Vt - vmin_t)) / span, 3
    elif vmin_t >= params.Vd1:
        ct, mode = 1.0, 4
    else:
        ct, mode = (vmin_t - params.Vd2 + params.alpha * (params.Vd1 - vmin_t)) / span, 5
    return ct * params.PE0, ct * params.QE0, ct, mode
