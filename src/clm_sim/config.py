"""Scenario configuration: one YAML document per experiment.

Parsing is strict: unknown and repeated keys are rejected at every level
(no silent defaulting of misspelled fields, no last value taken), and
referenced presets must exist. Every section parses by one rule
(_parse_section) straight into its object, whose field names are the
section's keys: LoadMix, a motor or DER section (a PresetSection),
ZipParams, ElecParams, the disturbance's bus (a series bus reads its file
as it is made, as the config loads), IntegratorConfig or OutputsSection.
Each value is converted by its field's type: a float is a finite number,
an int a whole one (DER flags, record_every), and str, bool, list[str] and
dict are what they say; a type `T | None` also takes null. A key left
out, or a number given as null, takes the field's default; a field
without one is required. A preset section converts its own overrides by
the same rule, by the types of its parameter class's fields. The objects
check their own values as they are made: a check about one key raises
errors.FieldError and is reported on <section>.<key> (an override's on
<section>.overrides.<name>), any other ValueError on the section. A
parsed ScenarioConfig serialises back to a semantically identical
dictionary, so configs are diff-able and reproducible.

Units follow the models: powers and voltages in pu on the component base,
time constants and times in seconds, fractions dimensionless.
"""

from __future__ import annotations

import dataclasses
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import ClassVar

import yaml

from .composite import ConstantBus, LoadMix, PlaybackBus, SeriesBus, _check_freq
from .dera import DERA_PRESETS, DerAParams
from .errors import ConfigError, FieldError, FileFormatError, PresetError
from .motor3 import MOTOR_PRESETS, MotorParams
from .sim import IntegratorConfig, Scenario, build_scenario, read_table
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


def _finite(v, key: str) -> float:
    # The comparison is false for nan and inf, and exact for an int beyond the float range.
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise FieldError(f"expected a finite number, got {v!r}", key)
    return float(v)


def _value(value, ftype: str, key: str):
    """value converted to the field type ftype (the annotation's text); else a FieldError on key."""
    kind, _, none = ftype.partition(" | ")
    if value is None and none:  # T | None
        return None
    if kind in ("float", "int"):
        number = _finite(value, key)
        if kind == "float":
            return number
        if not number.is_integer():
            raise FieldError(f"expected a whole number, got {number!r}", key)
        return int(number)
    fits, what = {  # per other type: whether value is one, and what the error says it must be
        "str": (isinstance(value, str), "a string"),
        "bool": (isinstance(value, bool), "a boolean"),
        "list[str]": (isinstance(value, list) and all(isinstance(s, str) for s in value),
                      "a list of strings"),
        "dict": (isinstance(value, dict), "a mapping"),
    }[kind]
    if not fits:
        raise FieldError(f"{key} must be {what}, got {value!r}", key)
    return list(value) if kind == "list[str]" else value


@contextmanager
def _reported(where: str):
    """A FieldError as a ConfigError on <where>.<key>, and any other ValueError on where."""
    try:
        yield
    except FieldError as exc:
        raise ConfigError(str(exc), field=f"{where}.{exc.key}") from None
    except ValueError as exc:
        raise ConfigError(str(exc), field=where) from None


def _parse_section(node, where: str, cls):
    """Parse the section node into the dataclass cls by the rule in the module docstring."""
    node = _require_mapping(node, where)
    fields = dataclasses.fields(cls)
    _reject_unknown(node, [f.name for f in fields], where)
    with _reported(where):
        values = {}
        for f in fields:
            value = node.get(f.name)
            if value is None and (f.name not in node or f.type in ("float", "int")):
                if f.default is f.default_factory is dataclasses.MISSING:  # else cls gives it
                    raise FieldError("missing required key", f.name)
            else:
                values[f.name] = _value(value, f.type, f.name)
        return cls(**values)


@dataclass(kw_only=True)
class PresetSection:
    """A motor or DER section: a preset and/or overrides, then its initial loading fields.

    Each override is converted by the type of its PARAMS field, as a section's
    keys are by theirs, and a name that is no PARAMS field is refused.
    """

    PARAMS: ClassVar[type]   # the parameter dataclass
    PRESETS: ClassVar[dict]  # preset name -> parameters
    KIND: ClassVar[str]      # the kind an unknown-preset message names

    preset: str | None = None
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        types = {f.name: f.type for f in dataclasses.fields(self.PARAMS)}
        overrides = _value(self.overrides, "dict", "overrides")
        unknown = sorted(set(overrides) - set(types))
        if unknown:
            raise FieldError(f"unknown key(s) {unknown}", "overrides")
        self.overrides = {key: _value(value, types[key], f"overrides.{key}")
                          for key, value in overrides.items()}
        if self.preset is None:
            missing = sorted(f.name for f in dataclasses.fields(self.PARAMS)
                             if f.default is dataclasses.MISSING and f.name not in self.overrides)
            if missing:
                raise ValueError(f"no preset given and parameters missing: {missing}")
        self.params()  # the parameter class checks the values; an unknown preset is a PresetError

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
    """A series bus whose samples are read from its file as it is made.

    The file is a (t, V) or (t, V, F) CSV by read_table's rules (optional
    header, one field count, finite values), with 2 or 3 columns; its samples
    break a SeriesBus rule as a FileFormatError on the file.
    """

    file: str
    freq: float = 1.0  # used only when the file has no F column

    def __post_init__(self):
        _check_freq(self)  # a config error, found before the file is read
        _, data = read_table(self.file, "series file")
        if data.shape[1] not in (2, 3):
            raise FileFormatError(f"{self.file}: expected 2 or 3 columns, got {data.shape[1]}")
        try:
            SeriesBus.__init__(self, *data.T, freq=self.freq)
        except ValueError as exc:  # the samples break a series rule: the file is at fault
            raise FileFormatError(f"{self.file}: {exc}") from None


# Disturbance type name -> its bus: the YAML keys besides type are its fields.
DISTURBANCES = {"playback": PlaybackBus, "constant": ConstantBus, "series": SeriesSection}


@dataclass
class OutputsSection:
    out_dir: str = "."
    trajectory_csv: str = "trajectory.csv"
    summary_json: str = "summary.json"
    binary: str | None = None
    channels: list[str] | None = None  # None for every channel; t is always written, first
    figure_csvs: bool = False

    def __post_init__(self):
        if self.channels is not None and not set(self.channels) - {"t"}:
            raise FieldError(f"channels must name a channel besides t, got {self.channels!r}",
                             "channels")
        for key in ("trajectory_csv", "summary_json", "binary"):
            if getattr(self, key) == "":
                raise FieldError("expected a file name, got an empty string", key)


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


def _parse_disturbance(node, where="disturbance"):
    node = _require_mapping(node, where)
    dtype = node.get("type")
    if not isinstance(dtype, str) or dtype not in DISTURBANCES:  # str first: a list is unhashable
        raise ConfigError(f"type must be one of {list(DISTURBANCES)}, got {dtype!r}",
                          field=f"{where}.type")
    return _parse_section({k: v for k, v in node.items() if k != "type"}, where,
                          DISTURBANCES[dtype])


# `clm-sim run` checks its --dt/--t-end and --out-dir/--channels options through these too.
parse_integrator = partial(_parse_section, where="integrator", cls=IntegratorConfig)
parse_outputs = partial(_parse_section, where="outputs", cls=OutputsSection)


# Component section name -> the class of its section object, whose fields are its YAML keys.
SECTIONS = {
    **dict.fromkeys(("motor_a", "motor_b", "motor_c"), MotorSection),
    "dera": DeraSection,
    "zip": ZipParams,
    "elec": ElecParams,
}

TOP_LEVEL_KEYS = ("mix", *SECTIONS, "disturbance", "integrator", "outputs")


def parse_config(doc: dict) -> ScenarioConfig:
    doc = _require_mapping(doc, "<top level>")
    _reject_unknown(doc, TOP_LEVEL_KEYS, "<top level>")
    for key in ("mix", "disturbance", "integrator"):
        if key not in doc:
            raise ConfigError("missing required section", field=key)
    return ScenarioConfig(
        mix=_parse_section(doc["mix"], "mix", LoadMix),
        disturbance=_parse_disturbance(doc["disturbance"]),
        integrator=parse_integrator(doc["integrator"]),
        components={name: _parse_section(doc[name], name, cls)
                    for name, cls in SECTIONS.items() if name in doc},
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

