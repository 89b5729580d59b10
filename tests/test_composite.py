"""Load mix algebra, the run's weighted total and the scripted bus disturbances."""

import dataclasses
import math

import numpy as np
import pytest

from clm_sim.composite import (
    PLAYBACK_SHAPES,
    ConstantBus,
    LoadMix,
    PlaybackBus,
    SeriesBus,
)
from clm_sim.config import COMPONENTS
from clm_sim.dera import DERA_PRESETS
from clm_sim.errors import FieldError
from clm_sim.motor3 import MOTOR_PRESETS
from clm_sim.sim import Component, IntegratorConfig, Scenario, run_simulation
from clm_sim.staticloads import ElecParams, ZipParams

from oracles import playback_voltage_reference, series_reference

PB = PlaybackBus(a=0.8, b=5.0, c=1.0, d=0.9)


def _voltage(t, bus):
    return bus.voltage(t)


def test_playback_pre_fault_is_nominal():
    assert _voltage(0.5, PB) == 1.0
    assert _voltage(0.0, PB) == 1.0


def test_playback_fault_window_holds_a():
    assert _voltage(1.04, PB) == 0.8
    assert _voltage(1.0, PB) == 0.8  # boundary belongs to the fault branch
    assert _voltage(1.0 + PB.b / 60.0, PB) == 0.8  # first match wins


def test_playback_recovery_end_rejoins_nominal():
    # The recovery branch evaluates to exactly 1 at t = 1 + c.
    t = 1.0 + PB.c
    expected = (1.0 - PB.d) * (t - PB.c - 1.0) / (PB.b / 60.0 - PB.c) + 1.0
    assert expected == 1.0
    assert _voltage(t, PB) == 1.0
    assert _voltage(t + 1e-9, PB) == 1.0


def test_playback_post_recovery_nominal():
    assert _voltage(3.0, PB) == 1.0


def test_playback_recovery_branch_value_just_after_clearing():
    # The printed recovery expression starts at 1 + (1-d) = 1.1 right after
    # fault clearing (overshoot-then-decay), not at the fault level a.
    t = 1.0 + PB.b / 60.0 + 1e-12
    v = _voltage(t, PB)
    assert v == pytest.approx(1.1, abs=1e-9)


def test_playback_clearing_discontinuity_measured():
    t_clear = 1.0 + PB.b / 60.0
    before = _voltage(t_clear, PB)
    after = _voltage(np.nextafter(t_clear, 2.0), PB)
    jump = after - before
    assert before == 0.8
    assert jump == pytest.approx(0.3, abs=1e-9)  # documented, not assumed continuous


def test_playback_ramp_shape_is_continuous_at_clearing():
    ramp = PlaybackBus(a=0.8, b=5.0, c=1.0, d=0.9, shape="ramp")
    t_clear = 1.0 + ramp.b / 60.0
    assert _voltage(t_clear, ramp) == 0.8
    assert _voltage(np.nextafter(t_clear, 2.0), ramp) == pytest.approx(0.8, abs=1e-9)
    assert _voltage(1.0 + ramp.c, ramp) == pytest.approx(1.0, abs=1e-12)
    mid = 1.0 + (ramp.b / 60.0 + ramp.c) / 2.0
    v = _voltage(mid, ramp)
    assert 0.8 < v < 1.0


def test_playback_param_validation():
    with pytest.raises(ValueError):
        PlaybackBus(a=1.2, b=5.0, c=1.0, d=0.9)
    with pytest.raises(ValueError):
        PlaybackBus(a=0.8, b=5.0, c=0.01, d=0.9)  # c must exceed b/60
    with pytest.raises(ValueError):
        PlaybackBus(a=0.8, b=5.0, c=1.0, d=0.9, shape="spline")


def test_mix_fraction_sum_enforced():
    with pytest.raises(ValueError):
        LoadMix(f_a=0.5, f_zip=0.4)
    with pytest.raises(ValueError):
        LoadMix(f_a=1.2, f_zip=-0.2)
    LoadMix(f_a=0.5, f_zip=0.5)  # valid


ZIP_FRACTIONS = {"p0": 1.0, "q0": 0.3, "a_p": 0.4, "b_p": 0.3, "c_p": 0.3,
                 "a_q": 0.5, "b_q": 0.25, "c_q": 0.25}
NAN_MAKERS = {  # each model object from valid values, with the fields given replaced
    "LoadMix": lambda **kw: LoadMix(**{"f_zip": 1.0, **kw}),
    "ZipParams": lambda **kw: ZipParams(**{**ZIP_FRACTIONS, **kw}),
    "ElecParams": lambda **kw: ElecParams(**{"pe0": 1.0, "qe0": 0.2, "vd1": 0.7, "vd2": 0.5,
                                             "alpha": 1.0, **kw}),
    "MotorParams": lambda **kw: dataclasses.replace(MOTOR_PRESETS["motor_a"], **kw),
    "DerAParams": lambda **kw: dataclasses.replace(DERA_PRESETS["dera_table3"], **kw),
}


@pytest.mark.parametrize("owner, field, message", [
    # LoadMix's sum check is reached by no nan: a nan fraction fails the sign check first.
    ("LoadMix", "f_zip", "mix fractions must be >= 0"),
    ("LoadMix", "der_scale", "mix fractions must be >= 0"),
    ("LoadMix", "p_base_mva", "need p_base_mva > 0"),
    ("ZipParams", "a_p", "active ZIP fractions must sum to 1, got nan"),
    ("ZipParams", "c_q", "reactive ZIP fractions must sum to 1, got nan"),
    ("ZipParams", "v0", "need v0 > 0, got nan"),
    ("MotorParams", "H", "need H > 0, got nan"),
    ("MotorParams", "rs", "need rs >= 0, got nan"),
    ("MotorParams", "Etrq", "need Etrq >= 0, got nan"),
    ("DerAParams", "Tg", "time constant Tg must be > 0"),
    # A nan Trf fails the time-constant check before the Trf >= 0.02 one.
    ("DerAParams", "Trf", "time constant Trf must be > 0"),
    ("DerAParams", "Pmin", "need Pmin <= Pmax"),
    ("DerAParams", "Pmax", "need Pmin <= Pmax"),
    ("DerAParams", "Imax", "need Imax > 0"),
    ("DerAParams", "Iql1", "need Iql1 <= Iqh1"),
    ("DerAParams", "Iqh1", "need Iql1 <= Iqh1"),
    ("DerAParams", "Ddn", "droop gains must be >= 0"),
    ("DerAParams", "Dup", "droop gains must be >= 0"),
])
def test_model_objects_refuse_nan(owner, field, message):
    # A config file's nan is refused when it is read; an object built in Python is checked
    # by its own rules, each written so that a nan fails it.
    with pytest.raises(ValueError) as exc_info:
        NAN_MAKERS[owner](**{field: math.nan})
    assert str(exc_info.value) == message


# The fields that no rule of their object covers: each has a check of its own.
UNCHECKED_FIELDS = {
    "ZipParams": ("p0", "q0"),
    "ElecParams": ("pe0", "qe0"),
    "MotorParams": ("A", "B", "C0", "D", "p", "q", "omega0"),
    "DerAParams": ("Vref0", "Kqv", "tvl0", "tvl1", "tvh0", "tvh1", "Kpg", "Kig", "Xe", "Vpr",
                   "fl", "fh", "tfl", "tfh"),
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("owner, field", [
    (owner, field) for owner, fields in UNCHECKED_FIELDS.items() for field in fields])
def test_model_objects_refuse_non_finite_fields(owner, field, value):
    # A nan p0 would run to an all-nan total, a nan Vpr would never arm the frequency trip:
    # an object built in Python refuses them as a config file's values are refused.
    with pytest.raises(ValueError) as exc_info:
        NAN_MAKERS[owner](**{field: value})
    assert str(exc_info.value) == f"{field} must be finite, got {value}"


FINITE_MAKERS = {
    **NAN_MAKERS,
    "PlaybackBus": lambda **kw: PlaybackBus(**{"a": 0.8, "b": 5.0, "c": 1.0, "d": 0.9, **kw}),
    "ConstantBus": ConstantBus,
}


@pytest.mark.parametrize("owner, field, value", [
    ("PlaybackBus", "b", math.nan),  # would run with no fault at all
    ("PlaybackBus", "c", math.nan),  # the recovery segment would never apply
    ("ConstantBus", "v", math.inf),  # would fail at init as NO_EQUILIBRIUM
    ("LoadMix", "der_scale", math.inf),  # would give total.P = -inf
    ("LoadMix", "p_base_mva", math.inf),
    ("MotorParams", "Ls", math.inf),
    ("DerAParams", "Pmax", math.inf),
    ("DerAParams", "femax", math.inf),
])
def test_values_that_pass_every_range_rule_must_be_finite(owner, field, value):
    # Every float field of a model or bus object is finite: the one rule runs after the
    # object's range rules, which these values pass.
    with pytest.raises(FieldError) as exc_info:
        FINITE_MAKERS[owner](**{field: value})
    assert exc_info.value.key == field
    assert str(exc_info.value) == f"{field} must be finite, got {value}"


@pytest.mark.parametrize("make", [
    lambda: ConstantBus(freq=math.inf),
    lambda: PlaybackBus(a=0.8, b=5.0, c=1.0, d=0.9, freq=math.inf),
    lambda: SeriesBus([0, 1], [1, 1], freq=math.inf),
], ids=["constant", "playback", "series"])
def test_every_bus_refuses_an_infinite_freq(make):
    with pytest.raises(ValueError, match="^need finite freq, got inf$"):
        make()


def _total(pq, mix):
    """(total.P, total.Q) at t = 0 of a run whose components output the given fixed (P, Q)."""
    def fixed(p, q):
        return lambda name, weight, dt: Component(name, weight, lambda s, m, v, f: (p, q))
    parts = [(name, kind.sign * getattr(mix, kind.mix_key), fixed(*pq[name]))
             for name, kind in COMPONENTS.items() if name in pq]
    traj = run_simulation(Scenario(ConstantBus(), parts),
                          IntegratorConfig(dt=0.1, t_end=0.1)).trajectory
    return float(traj.channel("total.P")[0]), float(traj.channel("total.Q")[0])


def test_composite_single_component_passthrough():
    mix = LoadMix(f_zip=1.0)
    assert _total({"zip": (1.2, 0.4)}, mix) == (1.2, 0.4)


def test_composite_der_sign_convention():
    mix = LoadMix(f_zip=1.0, der_scale=0.5)
    p, q = _total({"zip": (0.0, 0.0), "dera": (0.5, 0.1)}, mix)
    assert p == -0.25  # generation reduces net load
    assert q == -0.05


def test_composite_hand_summed_mix():
    mix = LoadMix(f_a=0.5, f_zip=0.5, der_scale=0.2)
    pq = {"motor_a": (0.8, 0.6), "zip": (1.0, 0.3), "dera": (0.5, -0.1)}
    p, q = _total(pq, mix)
    # Added in channel order: motor_a, dera, zip.
    assert p == 0.5 * 0.8 - 0.2 * 0.5 + 0.5 * 1.0
    assert q == 0.5 * 0.6 - 0.2 * (-0.1) + 0.5 * 0.3


def test_composite_linear_in_each_component():
    mix = LoadMix(f_a=0.3, f_b=0.2, f_zip=0.5, der_scale=0.1)
    base = {"motor_a": (0.5, 0.2), "motor_b": (0.4, 0.3), "zip": (1.0, 0.1),
            "dera": (0.6, 0.0)}
    p0, q0 = _total(base, mix)
    bumped = dict(base)
    bumped["motor_a"] = (base["motor_a"][0] + 1.0, base["motor_a"][1])
    p1, q1 = _total(bumped, mix)
    assert p1 - p0 == pytest.approx(mix.f_a, abs=1e-15)
    assert q1 == q0


def test_constant_bus():
    bus = ConstantBus(v=0.95, freq=1.01)
    assert bus.voltage(123.0) == 0.95
    assert bus.frequency(0.0) == 1.01


def test_series_bus_interpolates_and_holds_ends():
    t = [0.0, 1.0, 2.0]
    v = [1.0, 0.8, 1.0]
    f = [1.0, 0.99, 1.0]
    bus = SeriesBus(t, v, f)
    assert bus.voltage(0.5) == pytest.approx(0.9, abs=1e-15)
    assert bus.voltage(-1.0) == 1.0 and bus.voltage(5.0) == 1.0
    assert bus.frequency(1.5) == pytest.approx(0.995, abs=1e-15)
    assert bus.voltage(1.0) == 0.8  # exact at the samples


def test_series_bus_without_frequency_column():
    bus = SeriesBus([0.0, 1.0], [1.0, 0.9], None, freq=1.02)
    assert bus.frequency(0.5) == 1.02


@pytest.mark.parametrize("args, freq, message", [
    (([0, 1], [1, -0.5], [1, -1]), 0.0, "need V >= 0, got -0.5 at t = 1"),
    (([0, 1], [1, np.nan]), 1.0, "need V >= 0, got nan at t = 1"),
    (([0, 0.5, 1], [1, 1, 1], [1, 0, -1]), 1.0, "need F > 0, got 0 at t = 0.5"),
    (([0, 1], [1, 1]), 0.0, "need freq > 0, got 0.0"),
    (([0], [1]), 1.0, "need at least two samples"),
    (([0, 1, 1], [1, 1, 1]), 1.0, "time must be strictly increasing, got 1 after 1"),
    (([0, 1], [1, 1, 1]), 1.0, "need t, V and F of one 1-D shape"),
    (([0, 1], [1, 1], [1]), 1.0, "need t, V and F of one 1-D shape"),
    (([[0, 1]], [[1, 1]]), 1.0, "need t, V and F of one 1-D shape"),
    (([0, 1], [1, np.inf]), 1.0, "need finite V, got inf at t = 1"),  # else NON_FINITE_INPUT
    (([0, 1], [1, 1], [1, np.inf]), 1.0, "need finite F, got inf at t = 1"),
    (([0, 1], [1, -np.inf]), 1.0, "need V >= 0, got -inf at t = 1"),
    (([0, np.inf], [1, 0.5]), 1.0, "need finite t, got inf"),
    (([-np.inf, 0], [1, 1]), 1.0, "need finite t, got -inf"),
])
def test_series_bus_checks_its_samples_as_a_series_file_is_checked(args, freq, message):
    with pytest.raises(ValueError) as exc_info:
        SeriesBus(*args, freq=freq)
    assert str(exc_info.value) == message


def test_playback_bus_wraps_generator():
    bus = PlaybackBus(a=0.8, b=5.0, c=1.0, d=0.9, freq=1.0)
    assert bus.voltage(1.05) == 0.8
    assert bus.frequency(1.05) == 1.0


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _with_neighbours(*times):
    return [x for t in times for x in (np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf))]


def _read(signal, times):
    """(the signal over the array of times, the signal at each time on its own), as bits."""
    return _bits(signal(np.array(times))), _bits([signal(t) for t in times])


# The rk4 stage times of a 1 ms grid over 3 s, as run_simulation makes them.
GRID = np.arange(3001) * 1e-3
RK4_TIMES = np.concatenate([GRID, GRID + 0.5 * 1e-3, GRID + 1.0 * 1e-3]).tolist()


# The bundled fault, and one cleared 0.25 ms past a whole millisecond, as the benchmark clears.
@pytest.mark.parametrize("shape", PLAYBACK_SHAPES)
@pytest.mark.parametrize("params", [PB, PlaybackBus(a=0.55, b=5.0115, c=0.4, d=0.9)])
def test_playback_bus_gives_the_scalar_branches_bit_for_bit(params, shape):
    p = dataclasses.replace(params, shape=shape)
    times = _with_neighbours(1.0, 1.0 + p.b / 60.0, 1.0 + p.c) + RK4_TIMES
    want = _bits([playback_voltage_reference(t, p.a, p.b, p.c, p.d, shape) for t in times])
    assert _read(p.voltage, times) == (want, want)
    at_101 = dataclasses.replace(p, freq=1.01)
    assert _read(at_101.frequency, times) == (_bits([1.01] * len(times)),) * 2


@pytest.mark.parametrize("with_f", [True, False])
def test_series_bus_gives_the_scalar_interpolation_bit_for_bit(with_f):
    # Samples spread over six decades: at a knot, interpolating from the knot before
    # rounds to other bits than the knot's own sample for many of them.
    rng = np.random.default_rng(23)
    ts = np.cumsum(rng.uniform(0.01, 0.3, 40)) - 0.5
    vs, fs = 10.0 ** rng.uniform(-3.0, 3.0, (2, 40))
    bus = SeriesBus(ts, vs, fs if with_f else None, freq=1.01)
    knots = ts.tolist()
    between = rng.uniform(knots[0], knots[-1], 300).tolist()
    times = _with_neighbours(*knots) + between + [knots[0] - 1.0, knots[-1] + 1.0]
    assert _read(bus.voltage, times) == (
        (_bits([series_reference(t, knots, vs.tolist()) for t in times]),) * 2)
    f_want = (_bits([series_reference(t, knots, fs.tolist()) for t in times]) if with_f
              else _bits([1.01] * len(times)))
    assert _read(bus.frequency, times) == (f_want, f_want)


def test_constant_bus_gives_its_values_at_every_time():
    bus, times = ConstantBus(v=0.95, freq=1.01), [-1.0, 0.0, 0.5, 1e9]
    assert _read(bus.voltage, times) == (_bits([0.95] * 4),) * 2
    assert _read(bus.frequency, times) == (_bits([1.01] * 4),) * 2
