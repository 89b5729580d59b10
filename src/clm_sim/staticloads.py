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


def elec_vmin_update(Vt: float, vmin_t: float, params: ElecParams) -> float:
    """The running minimum vmin_t after a step ending at Vt: max(Vd2, min(Vt, vmin_t))."""
    return max(params.Vd2, min(Vt, vmin_t))


def elec_power_at(Vt: float, vmin_t: float, params: ElecParams) -> tuple:
    """(P, Q, ct, mode) of the electronic load at Vt, vmin_t already updated with Vt.

    ct scales the base power; mode names its branch: 1 disconnected below Vd2; 2 linear
    disconnection while Vt is at its running minimum; 3 partial (alpha) reconnection while
    recovering below Vd1; 4 full output with no dip below Vd1; 5 partial recovery at or above
    Vd1 after a dip. Ties: Vt = Vd2 is mode 2 (ct 0), Vt = Vd1 mode 4 or 5, Vt = vmin_t mode 2.
    """
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
