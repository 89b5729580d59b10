"""Algebraic load models: ZIP static load and electronic load.

The ZIP load is a quadratic in V/v0 whose coefficients are the constant
impedance / constant current / constant power fractions of base power.
The electronic load scales its base power by a coefficient in [0, 1] that
disconnects linearly between two voltage thresholds and partially recovers
(fraction alpha) based on the lowest voltage seen so far; that running
minimum is the only memory either model has.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import require_finite

FRACTION_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ZipParams:
    p0: float   # base active power (pu)
    q0: float   # base reactive power (pu)
    a_p: float  # active constant-impedance fraction
    b_p: float  # active constant-current fraction
    c_p: float  # active constant-power fraction
    a_q: float  # reactive constant-impedance fraction
    b_q: float  # reactive constant-current fraction
    c_q: float  # reactive constant-power fraction
    v0: float = 1.0  # nominal voltage (pu)

    def __post_init__(self):
        require_finite(self, ("p0", "q0"))
        if not abs(self.a_p + self.b_p + self.c_p - 1.0) <= FRACTION_SUM_TOL:
            raise ValueError(
                f"active ZIP fractions must sum to 1, got {self.a_p + self.b_p + self.c_p!r}"
            )
        if not abs(self.a_q + self.b_q + self.c_q - 1.0) <= FRACTION_SUM_TOL:
            raise ValueError(
                f"reactive ZIP fractions must sum to 1, got {self.a_q + self.b_q + self.c_q!r}"
            )
        if not self.v0 > 0.0:
            raise ValueError(f"need v0 > 0, got {self.v0}")


def zip_power(V: float, params: ZipParams) -> tuple[float, float]:
    """(P, Q) drawn by the ZIP load at voltage V."""
    r = V / params.v0
    P = params.p0 * (params.a_p * r * r + params.b_p * r + params.c_p)
    Q = params.q0 * (params.a_q * r * r + params.b_q * r + params.c_q)
    return P, Q


@dataclass(frozen=True)
class ElecParams:
    pe0: float    # base active power (pu)
    qe0: float    # base reactive power (pu)
    vd1: float    # upper voltage threshold (pu); full output at or above it
    vd2: float    # lower voltage threshold (pu); zero output below it
    alpha: float  # fraction of tripped load that reconnects on recovery

    def __post_init__(self):
        require_finite(self, ("pe0", "qe0"))
        if not (self.vd1 > self.vd2 > 0.0):
            raise ValueError(f"need vd1 > vd2 > 0, got ({self.vd1}, {self.vd2})")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"need alpha in [0, 1], got {self.alpha}")


def elec_vmin_update(Vt: float, vmin_t: float, params: ElecParams) -> float:
    """The running minimum vmin_t after a step ending at Vt: max(vd2, min(Vt, vmin_t))."""
    return max(params.vd2, min(Vt, vmin_t))


def elec_power_at(Vt: float, vmin_t: float, params: ElecParams) -> tuple:
    """(P, Q, ct, mode) of the electronic load at Vt, vmin_t already updated with Vt.

    ct scales the base power; mode names its branch: 1 disconnected below vd2; 2 linear
    disconnection while Vt is at its running minimum; 3 partial (alpha) reconnection while
    recovering below vd1; 4 full output with no dip below vd1; 5 partial recovery at or above
    vd1 after a dip. Ties: Vt = vd2 is mode 2 (ct 0), Vt = vd1 mode 4 or 5, Vt = vmin_t mode 2.
    """
    span = params.vd1 - params.vd2
    if Vt < params.vd2:
        ct, mode = 0.0, 1
    elif Vt < params.vd1:
        if Vt <= vmin_t:
            ct, mode = (Vt - params.vd2) / span, 2
        else:
            ct, mode = (vmin_t - params.vd2 + params.alpha * (Vt - vmin_t)) / span, 3
    elif vmin_t >= params.vd1:
        ct, mode = 1.0, 4
    else:
        ct, mode = (vmin_t - params.vd2 + params.alpha * (params.vd1 - vmin_t)) / span, 5
    return ct * params.pe0, ct * params.qe0, ct, mode
