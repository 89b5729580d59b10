"""Shared scenario builders for the simulation and acceptance tests."""

from __future__ import annotations

import dataclasses

import numpy as np

from clm_sim.composite import LoadMix, PlaybackBus
from clm_sim.config import DeraSection, MotorSection, build_scenario
from clm_sim.sim import Scenario
from clm_sim.staticloads import ElecParams, ZipParams

TABLE_PLAYBACK = PlaybackBus(a=0.8, b=5.0, c=1.0, d=0.9)

ZIP = ZipParams(p0=1.0, q0=0.3, v0=1.0, a_p=0.4, b_p=0.3, c_p=0.3,
                a_q=0.5, b_q=0.25, c_q=0.25)
ELEC = ElecParams(pe0=1.0, qe0=0.2, vd1=0.7, vd2=0.5, alpha=1.0)


class SmoothDipBus:
    """Value- and derivative-continuous voltage dip; constant frequency.

    Keeps every limiter, deadband and protection branch away from its
    switching boundary so fixed-step integration shows its clean order.
    """

    def __init__(self, depth=0.25, center=1.25, width=0.2):
        self.depth = depth
        self.center = center
        self.width = width

    def voltage(self, t):
        z = (np.asarray(t) - self.center) / self.width
        return (1.0 - self.depth * np.exp(-z * z)).tolist()

    def frequency(self, t):
        return np.ones(np.shape(t)).tolist()


class StepFrequencyBus:
    """Constant voltage with a frequency step at a given time."""

    def __init__(self, f_after=0.97, t_step=0.5, v=1.0):
        self.f_after = f_after
        self.t_step = t_step
        self.v = v

    def voltage(self, t):
        return np.full(np.shape(t), self.v).tolist()

    def frequency(self, t):
        return np.where(np.asarray(t) >= self.t_step, self.f_after, 1.0).tolist()


def motor_playback_scenario(p0: float = 0.8, shape: str = "verbatim") -> Scenario:
    return build_scenario(
        LoadMix(f_a=1.0),
        dataclasses.replace(TABLE_PLAYBACK, shape=shape),
        {"motor_a": MotorSection(preset="motor_a", p0=p0)},
    )


def dera_playback_scenario(pgen0: float = 0.5, qgen0: float = 0.1,
                           playback: PlaybackBus = TABLE_PLAYBACK) -> Scenario:
    zero_zip = ZipParams(p0=0.0, q0=0.0, v0=1.0, a_p=0.0, b_p=0.0, c_p=1.0,
                         a_q=0.0, b_q=0.0, c_q=1.0)
    return build_scenario(
        LoadMix(f_zip=1.0, der_scale=1.0),
        playback,
        {"dera": DeraSection(preset="dera_table3", pgen0=pgen0, qgen0=qgen0), "zip": zero_zip},
    )


def full_composite_scenario(bus) -> Scenario:
    """Every component active behind the given bus."""
    return build_scenario(
        LoadMix(f_a=0.3, f_b=0.1, f_c=0.1, f_elec=0.2, f_zip=0.3, der_scale=0.3,
                p_base_mva=15.0),
        bus,
        {
            "motor_a": MotorSection(preset="motor_a", p0=0.8),
            "motor_b": MotorSection(preset="motor_b", p0=0.6),
            "motor_c": MotorSection(preset="motor_c", p0=0.6),
            "dera": DeraSection(preset="dera_table3", pgen0=0.5, qgen0=0.1),
            "zip": ZIP,
            "elec": ELEC,
        },
    )
