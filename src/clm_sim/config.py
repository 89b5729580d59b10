"""Scenario configuration: one YAML document per experiment.

Parsing is strict: unknown keys are rejected at every level (no silent
defaulting of misspelled fields), referenced presets must exist, and every
numeric field is type-checked. A parsed ScenarioConfig serialises back to
a semantically identical dictionary, so configs are diff-able and
reproducible.

Units follow the models: powers and voltages in pu on the component base,
time constants and times in seconds, fractions dimensionless.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass

import numpy as np
import yaml

from .composite import (
    ConstantBus,
    LoadMix,
    PlaybackBus,
    PlaybackParams,
    SeriesBus,
)
from .dera import DERA_PRESETS, DerAParams
from .errors import ConfigError, FileFormatError, PresetError
from .motor3 import MOTOR_PRESETS, MotorParams
from .sim import IntegratorConfig, Scenario, build_scenario, read_table
from .staticloads import ElecParams, ZipParams

PRESET_NAMES = (*MOTOR_PRESETS, *DERA_PRESETS)

# YAML key -> field name, for the sections whose keys differ from their fields.
ZIP_KEYS = {"p0": "P0", "q0": "Q0", "v0": "V0", "a_p": "ap", "b_p": "bp", "c_p": "cp",
            "a_q": "aq", "b_q": "bq", "c_q": "cq"}
ELEC_KEYS = {"pe0": "PE0", "qe0": "QE0", "vd1": "Vd1", "vd2": "Vd2", "alpha": "alpha"}


def get_motor_preset(name: str) -> MotorParams:
    try:
        return MOTOR_PRESETS[name]
    except KeyError:
        raise PresetError(f"unknown motor preset {name!r}; available: "
                          f"{sorted(MOTOR_PRESETS)}") from None


def get_dera_preset(name: str) -> DerAParams:
    try:
        return DERA_PRESETS[name]
    except KeyError:
        raise PresetError(f"unknown DER preset {name!r}; available: "
                          f"{sorted(DERA_PRESETS)}") from None


def _require_mapping(node, where: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"expected a mapping, got {type(node).__name__}", field=where)
    return node


def _reject_unknown(node: dict, allowed, where: str) -> None:
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown}", field=where)


def _finite(v, field: str) -> float:
    # The comparison is false for nan and inf, and exact for an int beyond the float range.
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ConfigError(f"expected a finite number, got {v!r}", field=field)
    return float(v)


def _number(node: dict, key: str, where: str, default=None, required=False):
    v = node.get(key)
    if v is None:  # absent or explicit null
        if required:
            raise ConfigError("missing required key", field=f"{where}.{key}")
        return default
    return _finite(v, f"{where}.{key}")


def _parse_numeric(node, where: str, cls, keys=None, **defaults):
    """Parse a section of numbers into the dataclass cls.

    keys maps YAML keys to field names (default: the field names
    themselves); required keys and defaults come from the fields, and
    defaults adds YAML-only defaults by key.
    """
    node = _require_mapping(node, where)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    keys = keys or {name: name for name in fields}
    _reject_unknown(node, keys, where)
    values = {}
    for key, name in keys.items():
        default = defaults.get(key, fields[name].default)
        values[name] = _number(node, key, where, default,
                               required=default is dataclasses.MISSING)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(str(exc), field=where) from None


def _section_dict(obj, keys) -> dict:
    return {key: getattr(obj, name) for key, name in keys.items()}


@dataclass
class MotorSection:
    preset: str | None
    overrides: dict
    p0: float
    q0: float | None = None

    def params(self) -> MotorParams:
        if self.preset is not None:
            base = get_motor_preset(self.preset)
            return dataclasses.replace(base, **self.overrides) if self.overrides else base
        return MotorParams(**self.overrides)


@dataclass
class DeraSection:
    preset: str | None
    overrides: dict
    pgen0: float
    qgen0: float = 0.0

    def params(self) -> DerAParams:
        if self.preset is not None:
            base = get_dera_preset(self.preset)
            return dataclasses.replace(base, **self.overrides) if self.overrides else base
        return DerAParams(**self.overrides)


@dataclass
class DisturbanceSection:
    type: str                     # playback | constant | series
    playback: PlaybackParams | None = None
    freq: float = 1.0
    v: float = 1.0                # constant type only
    file: str | None = None       # series type only

    def make_bus(self):
        if self.type == "playback":
            return PlaybackBus(self.playback, freq=self.freq)
        if self.type == "constant":
            return ConstantBus(v=self.v, freq=self.freq)
        t, v, f = read_series_file(self.file)
        return SeriesBus(t, v, f, freq=self.freq)


@dataclass
class OutputsSection:
    out_dir: str = "."
    trajectory_csv: str = "trajectory.csv"
    summary_json: str = "summary.json"
    binary: str | None = None
    channels: list[str] | None = None
    figure_csvs: bool = False


@dataclass
class ScenarioConfig:
    mix: LoadMix
    disturbance: DisturbanceSection
    integrator: IntegratorConfig
    motors: dict[str, MotorSection]
    dera: DeraSection | None
    zip_load: ZipParams | None
    elec: ElecParams | None
    outputs: OutputsSection

    def to_dict(self) -> dict:
        """Serialise back to the (normalised) config document."""
        doc: dict = {
            "mix": dataclasses.asdict(self.mix),
            "disturbance": self._disturbance_dict(),
            "integrator": dataclasses.asdict(self.integrator),
            "outputs": dataclasses.asdict(self.outputs),
        }
        for name, sec in self.motors.items():
            doc[name] = dataclasses.asdict(sec)
        if self.dera is not None:
            doc["dera"] = dataclasses.asdict(self.dera)
        if self.zip_load is not None:
            doc["zip"] = _section_dict(self.zip_load, ZIP_KEYS)
        if self.elec is not None:
            doc["elec"] = _section_dict(self.elec, ELEC_KEYS)
        return doc

    def _disturbance_dict(self) -> dict:
        d = self.disturbance
        if d.type == "playback":
            return {"type": "playback", **dataclasses.asdict(d.playback), "freq": d.freq}
        if d.type == "constant":
            return {"type": "constant", "v": d.v, "freq": d.freq}
        return {"type": "series", "file": d.file, "freq": d.freq}

    def build(self) -> Scenario:
        bus = self.disturbance.make_bus()
        motor_loads = {
            name: (sec.params(), sec.p0, sec.q0) for name, sec in self.motors.items()
        }
        dera_load = None
        if self.dera is not None:
            dera_load = (self.dera.params(), self.dera.pgen0, self.dera.qgen0)
        return build_scenario(self.mix, bus, motor_loads, dera_load,
                              self.zip_load, self.elec)


def _parse_overrides(node, where: str, param_cls) -> dict:
    node = _require_mapping(node, where)
    fields = {f.name: f for f in dataclasses.fields(param_cls)}
    _reject_unknown(node, fields, where)
    out = {}
    for key, value in node.items():
        value = _finite(value, f"{where}.{key}")
        if fields[key].type != "int":
            out[key] = value
        elif value.is_integer():  # DER flags
            out[key] = int(value)
        else:
            raise ConfigError(f"expected a whole number, got {value!r}", field=f"{where}.{key}")
    return out


def _parse_preset_section(node, where: str, section_cls, param_cls):
    """Parse a motor or DER section: a preset and/or overrides plus its initial loading."""
    node = _require_mapping(node, where)
    fields = dataclasses.fields(section_cls)
    _reject_unknown(node, [f.name for f in fields], where)
    preset = node.get("preset")
    if preset is not None and not isinstance(preset, str):
        raise ConfigError(f"preset must be a string, got {preset!r}", field=f"{where}.preset")
    overrides = _parse_overrides(node.get("overrides", {}), f"{where}.overrides", param_cls)
    if preset is None:
        required = {f.name for f in dataclasses.fields(param_cls) if f.default is dataclasses.MISSING}
        missing = sorted(required - set(overrides))
        if missing:
            raise ConfigError(f"no preset given and parameters missing: {missing}", field=where)
    loading = {f.name: _number(node, f.name, where, f.default,
                               required=f.default is dataclasses.MISSING)
               for f in fields[2:]}  # the fields after preset and overrides
    sec = section_cls(preset, overrides, **loading)
    try:
        sec.params()
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc), field=where) from None
    return sec


def _parse_disturbance(node, where="disturbance") -> DisturbanceSection:
    node = _require_mapping(node, where)
    dtype = node.get("type")
    if dtype == "playback":
        _reject_unknown(node, ("type", "a", "b", "c", "d", "shape", "freq"), where)
        shape = node.get("shape", "verbatim")
        if not isinstance(shape, str):
            raise ConfigError(f"shape must be a string, got {shape!r}", field=f"{where}.shape")
        try:
            playback = PlaybackParams(
                a=_number(node, "a", where, required=True),
                b=_number(node, "b", where, required=True),
                c=_number(node, "c", where, required=True),
                d=_number(node, "d", where, required=True),
                shape=shape,
            )
        except ValueError as exc:
            raise ConfigError(str(exc), field=where) from None
        return DisturbanceSection(type="playback", playback=playback,
                                  freq=_number(node, "freq", where, 1.0))
    if dtype == "constant":
        _reject_unknown(node, ("type", "v", "freq"), where)
        return DisturbanceSection(type="constant", v=_number(node, "v", where, 1.0),
                                  freq=_number(node, "freq", where, 1.0))
    if dtype == "series":
        _reject_unknown(node, ("type", "file", "freq"), where)
        file = node.get("file")
        if not isinstance(file, str):
            raise ConfigError("series disturbance needs a 'file' path",
                              field=f"{where}.file")
        return DisturbanceSection(type="series", file=file,
                                  freq=_number(node, "freq", where, 1.0))
    raise ConfigError(
        f"type must be one of ['playback', 'constant', 'series'], got {dtype!r}",
        field=f"{where}.type",
    )


def parse_integrator(node, where="integrator") -> IntegratorConfig:
    """Parse an integrator section; `clm-sim run` checks its --dt/--t-end overrides here too."""
    node = _require_mapping(node, where)
    _reject_unknown(node, ("method", "dt", "t_end", "record_every"), where)
    method = node.get("method", "rk4")
    if not isinstance(method, str):
        raise ConfigError(f"method must be a string, got {method!r}", field=f"{where}.method")
    record_every = _number(node, "record_every", where, 1.0)
    if not record_every.is_integer():
        raise ConfigError(f"expected a whole number of steps, got {record_every!r}",
                          field=f"{where}.record_every")
    dt, t_end = _number(node, "dt", where, 1e-3), _number(node, "t_end", where, 5.0)
    for key, value in (("dt", dt), ("t_end", t_end)):
        if not value > 0.0:
            raise ConfigError(f"need {key} > 0, got {value!r}", field=f"{where}.{key}")
    if t_end / dt > IntegratorConfig.MAX_STEPS + 0.5:  # round(t_end / dt) > MAX_STEPS
        raise ConfigError(f"t_end / dt is {t_end / dt:.3g} steps, more than "
                          f"{IntegratorConfig.MAX_STEPS}", field=f"{where}.t_end")
    try:
        return IntegratorConfig(method=method, dt=dt, t_end=t_end, record_every=int(record_every))
    except ValueError as exc:
        raise ConfigError(str(exc), field=where) from None


def _parse_outputs(node, where="outputs") -> OutputsSection:
    node = _require_mapping(node, where)
    _reject_unknown(node, ("out_dir", "trajectory_csv", "summary_json",
                           "binary", "channels", "figure_csvs"), where)
    channels = node.get("channels")
    if channels is not None and (
        not isinstance(channels, list) or not all(isinstance(c, str) for c in channels)
    ):
        raise ConfigError("channels must be a list of strings", field=f"{where}.channels")
    figure_csvs = node.get("figure_csvs", False)
    if not isinstance(figure_csvs, bool):
        raise ConfigError("figure_csvs must be a boolean", field=f"{where}.figure_csvs")
    out = OutputsSection(
        out_dir=node.get("out_dir", "."),
        trajectory_csv=node.get("trajectory_csv", "trajectory.csv"),
        summary_json=node.get("summary_json", "summary.json"),
        binary=node.get("binary"),
        channels=list(channels) if channels is not None else None,
        figure_csvs=figure_csvs,
    )
    for key in ("out_dir", "trajectory_csv", "summary_json"):
        if not isinstance(getattr(out, key), str):
            raise ConfigError("expected a string", field=f"{where}.{key}")
    if out.binary is not None and not isinstance(out.binary, str):
        raise ConfigError("expected a string or null", field=f"{where}.binary")
    return out


TOP_LEVEL_KEYS = ("mix", "motor_a", "motor_b", "motor_c", "dera", "zip", "elec",
                  "disturbance", "integrator", "outputs")


def parse_config(doc: dict) -> ScenarioConfig:
    doc = _require_mapping(doc, "<top level>")
    _reject_unknown(doc, TOP_LEVEL_KEYS, "<top level>")
    for key in ("mix", "disturbance", "integrator"):
        if key not in doc:
            raise ConfigError("missing required section", field=key)
    motors = {}
    for name in ("motor_a", "motor_b", "motor_c"):
        if name in doc:
            motors[name] = _parse_preset_section(doc[name], name, MotorSection, MotorParams)
    return ScenarioConfig(
        mix=_parse_numeric(doc["mix"], "mix", LoadMix),
        disturbance=_parse_disturbance(doc["disturbance"]),
        integrator=parse_integrator(doc["integrator"]),
        motors=motors,
        dera=(_parse_preset_section(doc["dera"], "dera", DeraSection, DerAParams)
              if "dera" in doc else None),
        zip_load=(_parse_numeric(doc["zip"], "zip", ZipParams, ZIP_KEYS, v0=1.0)
                  if "zip" in doc else None),
        elec=_parse_numeric(doc["elec"], "elec", ElecParams, ELEC_KEYS) if "elec" in doc else None,
        outputs=_parse_outputs(doc.get("outputs", {})),
    )


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, "r") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from None
    if doc is None:
        raise ConfigError(f"config {path} is empty")
    return parse_config(doc)


def read_series_file(path) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Read an external disturbance series: (t, V) or (t, V, F) CSV.

    The table rules are read_table's (optional header, one field count,
    finite values). Values are linearly interpolated between samples at
    run time.
    """
    _, data = read_table(path, "series file")
    if data.shape[1] not in (2, 3):
        raise FileFormatError(f"{path}: expected 2 or 3 columns, got {data.shape[1]}")
    if len(data) < 2:
        raise FileFormatError(f"{path}: need at least two samples")
    f = data[:, 2] if data.shape[1] == 3 else None
    return data[:, 0], data[:, 1], f
