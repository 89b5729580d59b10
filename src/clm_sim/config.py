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
from .sim import IntegratorConfig, Scenario, build_scenario
from .staticloads import ElecParams, ZipParams

PRESET_NAMES = ("motor_a", "motor_b", "motor_c", "dera_table3")


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


def _number(node: dict, key: str, where: str, default=None, required=False):
    v = node.get(key)
    if v is None:  # absent or explicit null
        if required:
            raise ConfigError("missing required key", field=f"{where}.{key}")
        return default
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"expected a number, got {v!r}", field=f"{where}.{key}")
    return float(v)


@dataclass
class MotorSection:
    preset: str | None
    overrides: dict
    p0: float
    q0: float | None

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
    qgen0: float

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
            "mix": {
                "f_a": self.mix.f_a, "f_b": self.mix.f_b, "f_c": self.mix.f_c,
                "f_elec": self.mix.f_elec, "f_zip": self.mix.f_zip,
                "der_scale": self.mix.der_scale, "p_base_mva": self.mix.p_base_mva,
            },
            "disturbance": self._disturbance_dict(),
            "integrator": {
                "method": self.integrator.method, "dt": self.integrator.dt,
                "t_end": self.integrator.t_end,
                "record_every": self.integrator.record_every,
            },
            "outputs": {
                "out_dir": self.outputs.out_dir,
                "trajectory_csv": self.outputs.trajectory_csv,
                "summary_json": self.outputs.summary_json,
                "binary": self.outputs.binary,
                "channels": self.outputs.channels,
                "figure_csvs": self.outputs.figure_csvs,
            },
        }
        for name, sec in self.motors.items():
            doc[name] = {"preset": sec.preset, "overrides": dict(sec.overrides),
                         "p0": sec.p0, "q0": sec.q0}
        if self.dera is not None:
            doc["dera"] = {"preset": self.dera.preset,
                           "overrides": dict(self.dera.overrides),
                           "pgen0": self.dera.pgen0, "qgen0": self.dera.qgen0}
        if self.zip_load is not None:
            z = self.zip_load
            doc["zip"] = {"p0": z.P0, "q0": z.Q0, "v0": z.V0,
                          "a_p": z.ap, "b_p": z.bp, "c_p": z.cp,
                          "a_q": z.aq, "b_q": z.bq, "c_q": z.cq}
        if self.elec is not None:
            e = self.elec
            doc["elec"] = {"pe0": e.PE0, "qe0": e.QE0, "vd1": e.Vd1,
                           "vd2": e.Vd2, "alpha": e.alpha}
        return doc

    def _disturbance_dict(self) -> dict:
        d = self.disturbance
        if d.type == "playback":
            p = d.playback
            return {"type": "playback", "a": p.a, "b": p.b, "c": p.c, "d": p.d,
                    "shape": p.shape, "freq": d.freq}
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


def _parse_mix(node, where="mix") -> LoadMix:
    node = _require_mapping(node, where)
    _reject_unknown(node, ("f_a", "f_b", "f_c", "f_elec", "f_zip",
                           "der_scale", "p_base_mva"), where)
    try:
        return LoadMix(
            f_a=_number(node, "f_a", where, 0.0),
            f_b=_number(node, "f_b", where, 0.0),
            f_c=_number(node, "f_c", where, 0.0),
            f_elec=_number(node, "f_elec", where, 0.0),
            f_zip=_number(node, "f_zip", where, 0.0),
            der_scale=_number(node, "der_scale", where, 0.0),
            p_base_mva=_number(node, "p_base_mva", where, 1.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), field=where) from None


def _parse_overrides(node, where: str, param_cls) -> dict:
    node = _require_mapping(node, where)
    valid = {f.name for f in dataclasses.fields(param_cls)}
    _reject_unknown(node, valid, where)
    out = {}
    for key, value in node.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"expected a number, got {value!r}", field=f"{where}.{key}")
        flag_like = key in ("PfFlag", "Freqflag", "Vtripflag", "Ftripflag",
                            "PQflag", "typeflag")
        out[key] = int(value) if flag_like else float(value)
    return out


def _parse_motor(node, where: str) -> MotorSection:
    node = _require_mapping(node, where)
    _reject_unknown(node, ("preset", "overrides", "p0", "q0"), where)
    preset = node.get("preset")
    if preset is not None and not isinstance(preset, str):
        raise ConfigError(f"preset must be a string, got {preset!r}", field=f"{where}.preset")
    overrides = _parse_overrides(node.get("overrides", {}), f"{where}.overrides", MotorParams)
    if preset is None:
        required = {f.name for f in dataclasses.fields(MotorParams) if f.default is dataclasses.MISSING}
        missing = sorted(required - set(overrides))
        if missing:
            raise ConfigError(f"no preset given and parameters missing: {missing}", field=where)
    sec = MotorSection(
        preset=preset,
        overrides=overrides,
        p0=_number(node, "p0", where, required=True),
        q0=_number(node, "q0", where, default=None),
    )
    try:
        sec.params()
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc), field=where) from None
    return sec


def _parse_dera(node, where="dera") -> DeraSection:
    node = _require_mapping(node, where)
    _reject_unknown(node, ("preset", "overrides", "pgen0", "qgen0"), where)
    preset = node.get("preset")
    if preset is not None and not isinstance(preset, str):
        raise ConfigError(f"preset must be a string, got {preset!r}", field=f"{where}.preset")
    overrides = _parse_overrides(node.get("overrides", {}), f"{where}.overrides", DerAParams)
    if preset is None:
        required = {f.name for f in dataclasses.fields(DerAParams) if f.default is dataclasses.MISSING}
        missing = sorted(required - set(overrides))
        if missing:
            raise ConfigError(f"no preset given and parameters missing: {missing}", field=where)
    sec = DeraSection(
        preset=preset,
        overrides=overrides,
        pgen0=_number(node, "pgen0", where, required=True),
        qgen0=_number(node, "qgen0", where, 0.0),
    )
    try:
        sec.params()
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc), field=where) from None
    return sec


def _parse_zip(node, where="zip") -> ZipParams:
    node = _require_mapping(node, where)
    _reject_unknown(node, ("p0", "q0", "v0", "a_p", "b_p", "c_p", "a_q", "b_q", "c_q"), where)
    try:
        return ZipParams(
            P0=_number(node, "p0", where, required=True),
            Q0=_number(node, "q0", where, required=True),
            V0=_number(node, "v0", where, 1.0),
            ap=_number(node, "a_p", where, required=True),
            bp=_number(node, "b_p", where, required=True),
            cp=_number(node, "c_p", where, required=True),
            aq=_number(node, "a_q", where, required=True),
            bq=_number(node, "b_q", where, required=True),
            cq=_number(node, "c_q", where, required=True),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), field=where) from None


def _parse_elec(node, where="elec") -> ElecParams:
    node = _require_mapping(node, where)
    _reject_unknown(node, ("pe0", "qe0", "vd1", "vd2", "alpha"), where)
    try:
        return ElecParams(
            PE0=_number(node, "pe0", where, required=True),
            QE0=_number(node, "qe0", where, required=True),
            Vd1=_number(node, "vd1", where, required=True),
            Vd2=_number(node, "vd2", where, required=True),
            alpha=_number(node, "alpha", where, required=True),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), field=where) from None


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


def _parse_integrator(node, where="integrator") -> IntegratorConfig:
    node = _require_mapping(node, where)
    _reject_unknown(node, ("method", "dt", "t_end", "record_every"), where)
    method = node.get("method", "rk4")
    if not isinstance(method, str):
        raise ConfigError(f"method must be a string, got {method!r}", field=f"{where}.method")
    record_every = _number(node, "record_every", where, 1.0)
    if not record_every.is_integer():
        raise ConfigError(f"expected a whole number of steps, got {record_every!r}",
                          field=f"{where}.record_every")
    try:
        return IntegratorConfig(
            method=method,
            dt=_number(node, "dt", where, 1e-3),
            t_end=_number(node, "t_end", where, 5.0),
            record_every=int(record_every),
        )
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
            motors[name] = _parse_motor(doc[name], name)
    return ScenarioConfig(
        mix=_parse_mix(doc["mix"]),
        disturbance=_parse_disturbance(doc["disturbance"]),
        integrator=_parse_integrator(doc["integrator"]),
        motors=motors,
        dera=_parse_dera(doc["dera"]) if "dera" in doc else None,
        zip_load=_parse_zip(doc["zip"]) if "zip" in doc else None,
        elec=_parse_elec(doc["elec"]) if "elec" in doc else None,
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

    A header row is permitted and skipped when its first field is not a
    number. Values are linearly interpolated between samples at run time.
    """
    rows = []
    ncols = None
    try:
        with open(path, "r", newline="") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if lineno == 1:
                    try:
                        float(parts[0])
                    except ValueError:
                        continue  # header row
                if len(parts) not in (2, 3):
                    raise FileFormatError(
                        f"{path}:{lineno}: expected 2 or 3 columns, got {len(parts)}"
                    )
                if ncols is None:
                    ncols = len(parts)
                elif len(parts) != ncols:
                    raise FileFormatError(f"{path}:{lineno}: inconsistent column count")
                try:
                    rows.append([float(p) for p in parts])
                except ValueError as exc:
                    raise FileFormatError(f"{path}:{lineno}: {exc}") from None
    except OSError as exc:
        raise FileFormatError(f"cannot read series file: {exc}") from None
    if len(rows) < 2:
        raise FileFormatError(f"{path}: need at least two samples")
    arr = np.array(rows)
    f = arr[:, 2] if arr.shape[1] == 3 else None
    return arr[:, 0], arr[:, 1], f
