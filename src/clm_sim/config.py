"""Scenario configuration: one YAML document per experiment.

Parsing is strict: unknown and repeated keys are rejected at every level
(no silent defaulting of misspelled fields, no last value taken), referenced
presets must exist, and every numeric field is type-checked. Each section
parses straight into its object, whose field names are the section's keys:
LoadMix, ZipParams, ElecParams, a preset section, or the disturbance's bus
(a series bus reads its file here, as the config loads). A parsed
ScenarioConfig serialises back to a semantically identical dictionary, so
configs are diff-able and reproducible.

Units follow the models: powers and voltages in pu on the component base,
time constants and times in seconds, fractions dimensionless.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from functools import partial
from typing import ClassVar

import numpy as np
import yaml

from .composite import ConstantBus, LoadMix, PlaybackBus, SeriesBus, _check_freq
from .dera import DERA_PRESETS, DerAParams
from .errors import ConfigError, FileFormatError, PresetError
from .motor3 import MOTOR_PRESETS, MotorParams
from .sim import INTEGRATION_METHODS, IntegratorConfig, Scenario, build_scenario, read_table
from .staticloads import ElecParams, ZipParams

PRESETS = {**MOTOR_PRESETS, **DERA_PRESETS}


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


def _parse_numeric(node, where: str, cls):
    """Parse a section of numbers and strings into the dataclass cls, whose fields are its keys.

    Required keys and defaults come from the fields. A str field given as
    null is not a string; a number field given as null takes its default.
    """
    node = _require_mapping(node, where)
    fields = dataclasses.fields(cls)
    _reject_unknown(node, [f.name for f in fields], where)
    values = {}
    for f in fields:
        key = f.name
        if f.type != "str" or key not in node:
            values[key] = _number(node, key, where, f.default,
                                  required=f.default is dataclasses.MISSING)
        elif isinstance(node[key], str):
            values[key] = node[key]
        else:
            raise ConfigError(f"{key} must be a string, got {node[key]!r}", field=f"{where}.{key}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(str(exc), field=where) from None


@dataclass
class PresetSection:
    """A motor or DER section: a preset and/or overrides, then its initial loading fields."""

    PARAMS: ClassVar[type]   # the parameter dataclass
    PRESETS: ClassVar[dict]  # preset name -> parameters
    KIND: ClassVar[str]      # the kind an unknown-preset message names

    preset: str | None
    overrides: dict

    def params(self):
        if self.preset is None:
            return self.PARAMS(**self.overrides)
        if self.preset not in self.PRESETS:
            raise PresetError(f"unknown {self.KIND} preset {self.preset!r}; "
                              f"available: {sorted(self.PRESETS)}")
        base = self.PRESETS[self.preset]
        return dataclasses.replace(base, **self.overrides) if self.overrides else base

    def load(self) -> tuple:
        """(params, *the initial loading): the load build_scenario takes for this component."""
        return (self.params(), *(getattr(self, f.name) for f in dataclasses.fields(self)[2:]))


@dataclass
class MotorSection(PresetSection):
    PARAMS, PRESETS, KIND = MotorParams, MOTOR_PRESETS, "motor"
    p0: float
    q0: float | None = None


@dataclass
class DeraSection(PresetSection):
    PARAMS, PRESETS, KIND = DerAParams, DERA_PRESETS, "DER"
    pgen0: float
    qgen0: float = 0.0


@dataclass
class SeriesSection(SeriesBus):
    """A series bus whose samples are read from its file (see read_series_file) as it is made."""

    file: str
    freq: float = 1.0  # used only when the file has no F column

    def __post_init__(self):
        _check_freq(self)
        SeriesBus.__init__(self, *read_series_file(self.file), freq=self.freq)


# Disturbance type name -> its bus: the YAML keys besides type are its fields.
DISTURBANCES = {"playback": PlaybackBus, "constant": ConstantBus, "series": SeriesSection}


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
    """A parsed scenario document.

    components maps each configured component's section name (a key of
    SECTIONS) to its parsed section: a MotorSection or DeraSection, or the
    ZipParams or ElecParams themselves. disturbance is the bus, of one of
    the DISTURBANCES types.
    """

    mix: LoadMix
    disturbance: object
    integrator: IntegratorConfig
    components: dict[str, object]
    outputs: OutputsSection

    def to_dict(self) -> dict:
        """Serialise back to the (normalised) config document."""
        dtype = next(name for name, cls in DISTURBANCES.items() if type(self.disturbance) is cls)
        return {
            "mix": dataclasses.asdict(self.mix),
            "disturbance": {"type": dtype, **dataclasses.asdict(self.disturbance)},
            "integrator": dataclasses.asdict(self.integrator),
            "outputs": dataclasses.asdict(self.outputs),
            **{name: dataclasses.asdict(sec) for name, sec in self.components.items()},
        }

    def build(self) -> Scenario:
        loads = {name: sec.load() if isinstance(sec, PresetSection) else sec
                 for name, sec in self.components.items()}
        return build_scenario(self.mix, self.disturbance, loads)


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


def _parse_preset_section(node, where: str, section_cls):
    """Parse a motor or DER section: a preset and/or overrides plus its initial loading."""
    node = _require_mapping(node, where)
    fields = dataclasses.fields(section_cls)
    _reject_unknown(node, [f.name for f in fields], where)
    preset = node.get("preset")
    if preset is not None and not isinstance(preset, str):
        raise ConfigError(f"preset must be a string, got {preset!r}", field=f"{where}.preset")
    param_cls = section_cls.PARAMS
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


def _parse_disturbance(node, where="disturbance"):
    node = _require_mapping(node, where)
    dtype = node.get("type")
    if not isinstance(dtype, str) or dtype not in DISTURBANCES:  # str first: a list is unhashable
        raise ConfigError(f"type must be one of {list(DISTURBANCES)}, got {dtype!r}",
                          field=f"{where}.type")
    return _parse_numeric({k: v for k, v in node.items() if k != "type"}, where, DISTURBANCES[dtype])


def parse_integrator(node, where="integrator") -> IntegratorConfig:
    """Parse an integrator section; `clm-sim run` checks its --dt/--t-end overrides here too."""
    node = _require_mapping(node, where)
    _reject_unknown(node, ("method", "dt", "t_end", "record_every"), where)
    method = node.get("method", "rk4")
    if not isinstance(method, str) or method not in INTEGRATION_METHODS:
        raise ConfigError(f"method must be one of {INTEGRATION_METHODS}, got {method!r}",
                          field=f"{where}.method")
    record_every = _number(node, "record_every", where, 1.0)
    if not (record_every.is_integer() and record_every >= 1):
        raise ConfigError(f"expected a whole number of steps >= 1, got {record_every!r}",
                          field=f"{where}.record_every")
    dt, t_end = _number(node, "dt", where, 1e-3), _number(node, "t_end", where, 5.0)
    for key, value in (("dt", dt), ("t_end", t_end)):
        if not value > 0.0:
            raise ConfigError(f"need {key} > 0, got {value!r}", field=f"{where}.{key}")
    try:  # all IntegratorConfig has left to refuse is the step count, round(t_end / dt)
        return IntegratorConfig(method=method, dt=dt, t_end=t_end, record_every=int(record_every))
    except ValueError as exc:
        raise ConfigError(str(exc), field=f"{where}.t_end") from None


def parse_outputs(node, where="outputs") -> OutputsSection:
    """Parse an outputs section; `clm-sim run` checks its --out-dir/--channels here too."""
    node = _require_mapping(node, where)
    _reject_unknown(node, [f.name for f in dataclasses.fields(OutputsSection)], where)
    out = OutputsSection(**node)
    if out.channels is not None:
        if not (isinstance(out.channels, list) and all(isinstance(c, str) for c in out.channels)
                and set(out.channels) - {"t"}):  # t is always written, first
            raise ConfigError("channels must be a list of strings naming a channel besides t",
                              field=f"{where}.channels")
        out.channels = list(out.channels)
    if not isinstance(out.figure_csvs, bool):
        raise ConfigError("figure_csvs must be a boolean", field=f"{where}.figure_csvs")
    for key in ("out_dir", "trajectory_csv", "summary_json"):
        if not isinstance(getattr(out, key), str):
            raise ConfigError("expected a string", field=f"{where}.{key}")
    if out.binary is not None and not isinstance(out.binary, str):
        raise ConfigError("expected a string or null", field=f"{where}.binary")
    for key in ("trajectory_csv", "summary_json", "binary"):
        if getattr(out, key) == "":
            raise ConfigError("expected a file name, got an empty string", field=f"{where}.{key}")
    return out


# Component section name -> parse(node, where), giving the section object; its fields
# are the section's YAML keys.
SECTIONS = {
    **dict.fromkeys(("motor_a", "motor_b", "motor_c"),
                    partial(_parse_preset_section, section_cls=MotorSection)),
    "dera": partial(_parse_preset_section, section_cls=DeraSection),
    "zip": partial(_parse_numeric, cls=ZipParams),
    "elec": partial(_parse_numeric, cls=ElecParams),
}

TOP_LEVEL_KEYS = ("mix", *SECTIONS, "disturbance", "integrator", "outputs")


def parse_config(doc: dict) -> ScenarioConfig:
    doc = _require_mapping(doc, "<top level>")
    _reject_unknown(doc, TOP_LEVEL_KEYS, "<top level>")
    for key in ("mix", "disturbance", "integrator"):
        if key not in doc:
            raise ConfigError("missing required section", field=key)
    return ScenarioConfig(
        mix=_parse_numeric(doc["mix"], "mix", LoadMix),
        disturbance=_parse_disturbance(doc["disturbance"]),
        integrator=parse_integrator(doc["integrator"]),
        components={name: parse(doc[name], name)
                    for name, parse in SECTIONS.items() if name in doc},
        outputs=parse_outputs(doc.get("outputs", {})),
    )


def load_config(path) -> ScenarioConfig:
    class Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):  # refuses a repeated key
        def construct_mapping(self, node, deep=False):
            seen = set()
            for key, _ in node.value:  # the mapping's own keys, before a << merge adds any
                if key.tag == "tag:yaml.org,2002:str":  # every config key is a string
                    if key.value in seen:
                        raise yaml.constructor.ConstructorError(
                            "while constructing a mapping", node.start_mark,
                            f"found repeated key {key.value!r}", key.start_mark)
                    seen.add(key.value)
            return super().construct_mapping(node, deep=deep)

    try:
        with open(path, "r") as fh:
            doc = yaml.load(fh, Loader=Loader)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except yaml.YAMLError as exc:  # its text has a line per part, joined to keep one error line
        raise ConfigError(f"cannot parse config {path}: {' '.join(str(exc).split())}") from None
    if doc is None:
        raise ConfigError(f"config {path} is empty")
    return parse_config(doc)


def read_series_file(path) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Read an external disturbance series: (t, V) or (t, V, F) CSV.

    The table rules are read_table's (optional header, one field count,
    finite values); V must be >= 0 and F > 0, as constant's v and freq.
    Values are linearly interpolated between samples at run time.
    """
    _, data = read_table(path, "series file")
    if data.shape[1] not in (2, 3):
        raise FileFormatError(f"{path}: expected 2 or 3 columns, got {data.shape[1]}")
    if len(data) < 2:
        raise FileFormatError(f"{path}: need at least two samples")
    back = np.flatnonzero(np.diff(data[:, 0]) <= 0.0)
    if back.size:
        raise FileFormatError(f"{path}: time must be strictly increasing, got "
                              f"{data[back[0] + 1, 0]:.17g} after {data[back[0], 0]:.17g}")
    for j, rule, bad in ((1, "V >= 0", np.less), (2, "F > 0", np.less_equal))[:data.shape[1] - 1]:
        rows = np.flatnonzero(bad(data[:, j], 0.0))
        if rows.size:
            raise FileFormatError(f"{path}: need {rule}, got {data[rows[0], j]:.17g} "
                                  f"at t = {data[rows[0], 0]:.17g}")
    f = data[:, 2] if data.shape[1] == 3 else None
    return data[:, 0], data[:, 1], f
