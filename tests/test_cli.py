"""CLI and config layer: runs, validation errors, determinism, presets."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import clm_sim
from clm_sim import cli, config
from clm_sim.cli import main
from clm_sim.composite import LoadMix
from clm_sim.config import (
    COMPONENTS,
    DISTURBANCES,
    TOP_LEVEL_KEYS,
    OutputsSection,
    load_config,
    parse_config,
    parse_integrator,
)
from clm_sim.errors import ChannelError, ConfigError, FieldError, FileFormatError
from clm_sim.sim import (
    Trajectory,
    mse,
    read_csv,
    resample,
    run_simulation,
    write_binary,
    write_csv,
)
from clm_sim.staticloads import ElecParams, ZipParams

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


BASE_DOC = {
    "mix": {"f_a": 1.0, "p_base_mva": 15.0},
    "motor_a": {"preset": "motor_a", "p0": 0.8},
    "disturbance": {"type": "playback", "a": 0.8, "b": 5.0, "c": 1.0, "d": 0.9},
    "integrator": {"method": "rk4", "dt": 0.001, "t_end": 1.0},
    "outputs": {"trajectory_csv": "traj.csv", "summary_json": "summary.json"},
}


def _write_config(tmp_path, doc, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


def test_run_produces_artifacts(tmp_path, capsys):
    cfg = _write_config(tmp_path, BASE_DOC)
    rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    traj = read_csv(tmp_path / "out" / "traj.csv")
    assert {"t", "V", "motor_a.P", "motor_a.Q", "total.P"} <= set(traj.channels)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["initial_residuals"]["motor_a"] < 1e-8
    assert summary["samples"] == len(traj)
    assert "config" in summary


def test_run_twice_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, BASE_DOC)
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "traj.csv").read_bytes()
    b = (tmp_path / "b" / "traj.csv").read_bytes()
    assert a == b


def test_run_figure_csvs(tmp_path):
    doc = dict(BASE_DOC)
    doc["outputs"] = dict(BASE_DOC["outputs"], figure_csvs=True)
    cfg = _write_config(tmp_path, doc)
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    fig = read_csv(tmp_path / "out" / "figure_motor_a.csv")
    assert fig.channels == ["t", "V", "motor_a.P", "motor_a.Q"]


def test_every_figure_file_holds_its_components_layout(tmp_path):
    doc = yaml.safe_load((SCENARIOS / "composite_fault.yaml").read_text())
    doc["outputs"]["figure_csvs"] = True
    out = tmp_path / "out"
    argv = ["run", "--config", str(_write_config(tmp_path, doc)), "--out-dir", str(out)]
    assert main(argv + ["--t-end", "0.01"]) == 0
    headers = {path.name: path.read_text().splitlines()[0] for path in out.glob("figure_*.csv")}
    assert headers == {
        "figure_motor_a.csv": "t,V,motor_a.P,motor_a.Q",
        "figure_motor_b.csv": "t,V,motor_b.P,motor_b.Q",
        "figure_motor_c.csv": "t,V,motor_c.P,motor_c.Q",
        "figure_dera.csv": "t,V,Freq,dera.P,dera.Q",
        "figure_zip.csv": "t,V,zip.P,zip.Q",
        "figure_elec.csv": "t,V,elec.P,elec.Q",
    }


def test_run_prints_written_paths_in_order(tmp_path, capsys):
    doc = dict(DER_DOC, outputs=dict(DER_DOC["outputs"], binary="traj.bin", figure_csvs=True))
    out = tmp_path / "out"
    assert main(["run", "--config", str(_write_config(tmp_path, doc)), "--out-dir", str(out)]) == 0
    names = ["traj.csv", "traj.bin", "summary.json", "figure_dera.csv", "figure_zip.csv"]
    assert capsys.readouterr().out.splitlines() == [str(out / name) for name in names]
    assert read_csv(out / "figure_dera.csv").channels == ["t", "V", "Freq", "dera.P", "dera.Q"]


@pytest.mark.parametrize("bad", [0, 2])
def test_write_csv_checks_every_file_before_opening_any(tmp_path, bad):
    traj = Trajectory(["t", "x.P"], np.array([[0.0, 1.0], [1.0, 2.0]]))
    subsets = [None, ["x.P"], ["x.P"]]
    subsets[bad] = ["x.P", "nope"]
    with pytest.raises(ChannelError, match="'nope'"):
        write_csv(traj, {tmp_path / f"{k}.csv": channels for k, channels in enumerate(subsets)})
    assert list(tmp_path.iterdir()) == []


def test_run_channel_subset_and_overrides(tmp_path):
    cfg = _write_config(tmp_path, BASE_DOC)
    rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
               "--channels", "total.P,total.Q", "--t-end", "0.5", "--dt", "0.0005"])
    assert rc == 0
    traj = read_csv(tmp_path / "out" / "traj.csv")
    assert traj.channels == ["t", "total.P", "total.Q"]
    assert traj.t[-1] == pytest.approx(0.5, abs=1e-9)
    assert traj.t[1] - traj.t[0] == pytest.approx(5e-4, abs=1e-12)


def test_run_repeated_channel_written_once(tmp_path):
    cfg = _write_config(tmp_path, BASE_DOC)
    rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
               "--channels", "total.P,total.P,t", "--t-end", "0.1"])
    assert rc == 0
    assert read_csv(tmp_path / "out" / "traj.csv").channels == ["t", "total.P"]


def test_bad_fraction_sum_names_field(tmp_path, capsys):
    doc = dict(BASE_DOC)
    doc["mix"] = {"f_a": 0.9}
    cfg = _write_config(tmp_path, doc)
    rc = main(["run", "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: CONFIG_INVALID:")
    assert "mix" in err and err.count("\n") == 1


def test_negative_torque_exponent_rejected_at_load(tmp_path, capsys):
    # With the speed clamped to 0, w**Etrq has no value for Etrq < 0.
    doc = dict(BASE_DOC, motor_a={"preset": "motor_a", "p0": 2.5,
                                  "overrides": {"Etrq": -1.0, "D": 1.0}},
               disturbance={"type": "constant", "v": 0.95})
    out = tmp_path / "out"
    assert main(["run", "--config", str(_write_config(tmp_path, doc)), "--out-dir", str(out)]) == 2
    assert (_single_error_line(capsys, "CONFIG_INVALID")
            == "error: CONFIG_INVALID: need Etrq >= 0, got -1.0 (field: motor_a)")
    assert not out.exists()


def test_unknown_key_rejected(tmp_path, capsys):
    doc = dict(BASE_DOC)
    doc["integrator"] = dict(BASE_DOC["integrator"], dtt=0.001)
    cfg = _write_config(tmp_path, doc)
    rc = main(["run", "--config", str(cfg)])
    assert rc == 2
    assert "dtt" in capsys.readouterr().err


def test_unknown_preset_rejected(tmp_path, capsys):
    doc = dict(BASE_DOC)
    doc["motor_a"] = {"preset": "motor_x", "p0": 0.5}
    cfg = _write_config(tmp_path, doc)
    rc = main(["run", "--config", str(cfg)])
    assert rc == 2
    assert "PRESET_UNKNOWN" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["motor_a", "motor_b", "motor_c", "dera", "zip", "elec"])
def test_missing_component_for_weight(tmp_path, capsys, name):
    # The bundled composite gives all six components a weight; drop one of them.
    doc = yaml.safe_load((SCENARIOS / "composite_fault.yaml").read_text())
    doc.pop(name)
    cfg = _write_config(tmp_path, doc)
    rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert _single_error_line(capsys, "CONFIG_INVALID").endswith(f"(field: {name})")


def test_infeasible_operating_point_exit_code(tmp_path, capsys):
    doc = dict(BASE_DOC)
    doc["mix"] = {"f_zip": 1.0, "der_scale": 1.0}
    doc.pop("motor_a")
    doc["zip"] = {"p0": 0.0, "q0": 0.0, "a_p": 0.0, "b_p": 0.0, "c_p": 1.0,
                  "a_q": 0.0, "b_q": 0.0, "c_q": 1.0}
    doc["dera"] = {"preset": "dera_table3", "pgen0": 1.0, "qgen0": 0.9}
    cfg = _write_config(tmp_path, doc)
    rc = main(["run", "--config", str(cfg)])
    assert rc == 3
    assert "INFEASIBLE_INIT" in capsys.readouterr().err


@pytest.mark.parametrize("disturbance, keys", [
    ({"type": "playback", "a": 0.8, "b": 5.0, "c": 1.0, "d": 0.9, "shape": "ramp", "freq": 1.0},
     {"type", "a", "b", "c", "d", "shape", "freq"}),
    ({"type": "constant", "v": 0.95}, {"type", "v", "freq"}),
    ({"type": "series", "file": "vf.csv"}, {"type", "file", "freq"}),
], ids=["playback", "constant", "series"])
def test_config_round_trip_semantically_identical(tmp_path, monkeypatch, disturbance, keys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "vf.csv").write_text("t,V,F\n0.0,1.0,1.0\n1.0,0.9,0.99\n")  # series reads it
    doc = {
        "mix": {"f_a": 0.4, "f_zip": 0.6, "der_scale": 0.25, "p_base_mva": 15.0},
        "motor_a": {"preset": "motor_a", "overrides": {"H": 0.06}, "p0": 0.7},
        "dera": {"preset": "dera_table3", "pgen0": 0.5, "qgen0": 0.1},
        "zip": {"p0": 1.0, "q0": 0.3, "v0": 1.0, "a_p": 0.4, "b_p": 0.3, "c_p": 0.3,
                "a_q": 0.5, "b_q": 0.25, "c_q": 0.25},
        "elec": {"pe0": 1.0, "qe0": 0.2, "vd1": 0.7, "vd2": 0.5, "alpha": 1.0},
        "disturbance": disturbance,
        "integrator": {"method": "heun", "dt": 0.0005, "t_end": 2.0, "record_every": 2},
        "outputs": {"trajectory_csv": "x.csv", "figure_csvs": True},
    }
    first = parse_config(doc)
    second = parse_config(first.to_dict())
    assert first.to_dict() == second.to_dict()
    assert second.components["motor_a"].params().H == 0.06
    assert second.integrator.method == "heun"
    # Each given key keeps its value (a playback's shape: ramp too); freq defaults to 1.0.
    assert second.to_dict()["disturbance"] == {"freq": 1.0, **disturbance}
    assert set(second.to_dict()["disturbance"]) == keys


def test_series_disturbance_from_file(tmp_path):
    series = tmp_path / "vf.csv"
    series.write_text("t,V,F\n0.0,1.0,1.0\n0.5,1.0,1.0\n0.6,0.8,0.99\n2.0,0.8,0.99\n")
    doc = dict(BASE_DOC)
    doc["disturbance"] = {"type": "series", "file": str(series)}
    cfg = _write_config(tmp_path, doc)
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    traj = read_csv(tmp_path / "out" / "traj.csv")
    v = traj.channel("V")
    f = traj.channel("Freq")
    assert v[0] == 1.0 and v[-1] == pytest.approx(0.8, abs=1e-12)
    assert f[-1] == pytest.approx(0.99, abs=1e-12)


def test_preset_list_exact(capsys):
    assert main(["preset", "list"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["motor_a", "motor_b", "motor_c", "dera_table3"]


def test_preset_show_values(capsys):
    assert main(["preset", "show", "motor_a"]) == 0
    out = capsys.readouterr().out
    assert "H: 0.05" in out and "rs: 0.04" in out and "Ls: 1.8" in out
    assert main(["preset", "show", "dera_table3"]) == 0
    out = capsys.readouterr().out
    assert "Trv: 0.02" in out and "Kqv: 5.0" in out and "Vrfrac: 0.7" in out
    assert "base_mva: 15.0" in out and "base_kv: 12.47" in out


def test_preset_show_unknown(capsys):
    rc = main(["preset", "show", "nonsense"])
    assert rc == 2
    assert "PRESET_UNKNOWN" in capsys.readouterr().err


def test_preset_show_without_a_name(capsys):
    assert main(["preset", "show"]) == 2
    assert _single_error_line(capsys, "PRESET_UNKNOWN") == (
        "error: PRESET_UNKNOWN: preset show needs a preset name")


def test_config_without_integrator_is_config_invalid():
    doc = {k: v for k, v in BASE_DOC.items() if k != "integrator"}
    with pytest.raises(ConfigError, match=r"^missing required section \(field: integrator\)$"):
        parse_config(doc)


def test_empty_config_file_is_config_invalid(tmp_path, capsys):
    path = tmp_path / "empty.yaml"
    path.write_text("# nothing here\n")
    assert main(["run", "--config", str(path)]) == 2
    assert _single_error_line(capsys, "CONFIG_INVALID").endswith(f"config {path} is empty")


def test_compare_header_that_does_not_start_with_t_is_file_format(tmp_path, capsys):
    path = tmp_path / "time.csv"
    path.write_text("time,x.P\n0,1\n0.1,2\n")
    assert main(["compare", str(path), str(path)]) == 3
    assert _single_error_line(capsys, "FILE_FORMAT") == (
        f"error: FILE_FORMAT: {path}:1: expected a header starting with 't', got 'time'")


def test_compare_self_zero(tmp_path, capsys):
    cfg = _write_config(tmp_path, BASE_DOC)
    main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    capsys.readouterr()  # drop the run artifact listing
    path = str(tmp_path / "out" / "traj.csv")
    assert main(["compare", path, path]) == 0
    out = capsys.readouterr().out
    for line in out.splitlines()[1:]:
        assert line.split()[-1] == "0.0000e+00"


def test_compare_same_file_reads_it_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "traj.csv"
    path.write_text("t,x.P,x.Q\n0,1,2\n0.1,2,3\n")
    reads = []
    monkeypatch.setattr(cli.sim, "read_csv", lambda p: reads.append(p) or read_csv(p))
    assert main(["compare", str(path), str(path)]) == 0
    assert reads == [str(path)]
    assert [line.split()[-1] for line in capsys.readouterr().out.splitlines()[1:]] == [
        "0.0000e+00", "0.0000e+00"]


def test_compare_known_offset(tmp_path, capsys):
    t = np.arange(11) * 0.1
    a_path = tmp_path / "a.csv"
    b_path = tmp_path / "b.csv"
    header = "t,load.P\n"
    a_path.write_text(header + "".join(f"{ti:.17g},0\n" for ti in t))
    b_path.write_text(header + "".join(f"{ti:.17g},0.01\n" for ti in t))
    assert main(["compare", str(a_path), str(b_path), "--channels", "load.P"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1].split()[-1] == "1.0000e-04"


def test_compare_resamples_different_grids(tmp_path, capsys):
    a_path = tmp_path / "a.csv"
    b_path = tmp_path / "b.csv"
    ta = np.arange(0.0, 1.01, 0.1)
    tb = np.arange(0.0, 1.001, 0.05)
    a_path.write_text("t,x.P\n" + "".join(f"{ti:.17g},{2*ti:.17g}\n" for ti in ta))
    b_path.write_text("t,x.P\n" + "".join(f"{ti:.17g},{2*ti:.17g}\n" for ti in tb))
    assert main(["compare", str(a_path), str(b_path), "--channels", "x.P"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert float(out[-1].split()[-1]) < 1e-28  # linear channel resamples exactly


def test_compare_resamples_only_the_compared_channels(tmp_path, capsys, monkeypatch):
    # b is on a finer grid, in another column order, with columns the P/Q compare skips.
    ta, tb = np.arange(11) * 0.1, np.arange(21) * 0.05
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    a_path.write_text("t,V,x.P,x.Q\n" + "".join(
        f"{t:.17g},1,{t * t:.17g},{-t:.17g}\n" for t in ta))
    b_path.write_text("t,x.Q,V,x.S,x.P\n" + "".join(
        f"{t:.17g},{np.sin(t):.17g},0.9,{t:.17g},{t**3:.17g}\n" for t in tb))
    a, b = read_csv(a_path), read_csv(b_path)
    b_on_a = resample(b, a.t)  # every column, as compare resampled before
    want = [f"{c}  {mse(a, b_on_a, c):.4e}" for c in ("x.P", "x.Q")]
    seen = []
    monkeypatch.setattr(cli.sim, "resample",
                        lambda traj, grid: seen.append(traj.channels) or resample(traj, grid))
    assert main(["compare", str(a_path), str(b_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["channel  mean squared error", *want]
    assert seen == [["t", "x.P", "x.Q"]]


def test_compare_missing_file(tmp_path, capsys):
    rc = main(["compare", str(tmp_path / "none.csv"), str(tmp_path / "none.csv")])
    assert rc != 0


@pytest.mark.parametrize("unbuffered", [True, False])
def test_compare_into_a_closed_pipe_ends_quietly(tmp_path, unbuffered):
    # stdout is a pipe whose read end is closed before the command starts, as `| head -1`
    # leaves it: the first print (unbuffered) or the flush of the buffered table meets a
    # broken pipe. The command ends with exit 1 and writes nothing to stderr.
    path = tmp_path / "traj.csv"
    path.write_text("t,x.P,x.Q\n0,1,2\n0.1,2,3\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "clm_sim", "compare", str(path), str(path)],
                              stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert proc.stderr == b""
    assert proc.returncode == 1


def test_batch_runs_multiple(tmp_path):
    cfg1 = _write_config(tmp_path, BASE_DOC, "one.yaml")
    doc2 = dict(BASE_DOC)
    doc2["integrator"] = dict(BASE_DOC["integrator"], t_end=0.5)
    cfg2 = _write_config(tmp_path, doc2, "two.yaml")
    rc = main(["batch", str(cfg1), str(cfg2), "--out-dir", str(tmp_path / "runs")])
    assert rc == 0
    assert (tmp_path / "runs" / "one" / "traj.csv").exists()
    assert (tmp_path / "runs" / "two" / "traj.csv").exists()


def test_batch_refuses_two_configs_with_one_output_directory(tmp_path, capsys):
    # a/x.yaml and b/x.yaml would both write <out-dir>/x/traj.csv: the second run would
    # overwrite the first's files.
    configs = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        configs.append(str(_write_config(tmp_path / sub, BASE_DOC, name="x.yaml")))
    runs = tmp_path / "runs"
    assert main(["batch", *configs, "--out-dir", str(runs)]) == 2
    assert _single_error_line(capsys, "CONFIG_INVALID") == (f"error: CONFIG_INVALID: {configs[0]} "
                                                           f"and {configs[1]} would both write "
                                                           f"{runs / 'x' / 'traj.csv'}")
    assert not runs.exists()


def test_batch_reports_failures(tmp_path, capsys):
    good = _write_config(tmp_path, BASE_DOC, "good.yaml")
    bad_doc = dict(BASE_DOC)
    bad_doc["mix"] = {"f_a": 0.5}
    bad = _write_config(tmp_path, bad_doc, "bad.yaml")
    rc = main(["batch", str(good), str(bad), "--out-dir", str(tmp_path / "runs")])
    assert rc == 1
    assert "CONFIG_INVALID" in capsys.readouterr().err


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.yaml")


def test_full_params_without_preset(tmp_path):
    motor_params = {
        "rs": 0.04, "Ls": 1.8, "Lp": 0.1, "Lpp": 0.083, "Tp0": 0.092,
        "Tpp0": 0.002, "H": 0.05, "A": 0.0, "B": 0.0, "C0": 0.0, "D": 1.0,
        "Etrq": 0.0,
    }
    doc = dict(BASE_DOC)
    doc["motor_a"] = {"overrides": motor_params, "p0": 0.5}
    cfg = parse_config(doc)
    assert cfg.components["motor_a"].params().rs == 0.04


def test_incomplete_params_without_preset_rejected(tmp_path):
    doc = dict(BASE_DOC)
    doc["motor_a"] = {"overrides": {"rs": 0.04}, "p0": 0.5}
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_fractional_record_every_rejected(tmp_path, capsys):
    doc = dict(BASE_DOC)
    doc["integrator"] = dict(BASE_DOC["integrator"], record_every=2.5)
    with pytest.raises(ConfigError) as exc_info:
        parse_config(doc)
    assert exc_info.value.field == "integrator.record_every"
    cfg = _write_config(tmp_path, doc)
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: CONFIG_INVALID:")
    assert "integrator.record_every" in err and err.count("\n") == 1


@pytest.mark.parametrize("key, value", [("method", "rk5"), ("record_every", 0),
                                        ("record_every", -3)])
def test_bad_integrator_value_names_its_key(key, value):
    with pytest.raises(ConfigError) as exc_info:
        parse_integrator(dict(BASE_DOC["integrator"], **{key: value}))
    assert exc_info.value.field == f"integrator.{key}"


@pytest.mark.parametrize("section, key, value", [
    ("outputs", "figure_csvs", 3),
    ("outputs", "out_dir", 3),
    ("outputs", "binary", 3),
    ("outputs", "channels", "total.P"),
    ("outputs", "channels", [1]),
    ("integrator", "method", None),
    ("integrator", "record_every", True),
    ("integrator", "dt", "1"),
    ("integrator", "dt", 0),
])
def test_bad_integrator_or_outputs_value_is_one_error_line_on_its_key(tmp_path, capsys, section,
                                                                      key, value):
    doc = dict(BASE_DOC, **{section: dict(BASE_DOC[section], **{key: value})})
    out = tmp_path / "out"
    assert main(["run", "--config", str(_write_config(tmp_path, doc)), "--out-dir", str(out)]) == 2
    assert _single_error_line(capsys, "CONFIG_INVALID").endswith(f"(field: {section}.{key})")
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("trajectory_csv", ""), ("summary_json", ""),
                                        ("binary", ""), ("channels", ["t"]), ("channels", [])])
def test_outputs_section_built_in_python_checks_its_values(key, value):
    with pytest.raises(ValueError) as exc_info:
        OutputsSection(**{key: value})
    assert exc_info.value.key == key


# ------------------------------------------------------ compare on foreign files

def _single_error_line(capsys, code):
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {code}:")
    return lines[0]


def test_compare_rounded_time_grid(tmp_path, capsys):
    # A 1/120 s grid with its times printed to 4 decimals, as exported by
    # other simulators: increasing, but not evenly spaced.
    fine = tmp_path / "fine.csv"
    rounded = tmp_path / "rounded.csv"
    t = np.arange(1001) * 1e-3
    fine.write_text("t,x.P\n" + "".join(f"{ti:.17g},{2 * ti:.17g}\n" for ti in t))
    tr = np.arange(121) / 120.0
    rounded.write_text("t,x.P\n" + "".join(f"{ti:.4f},{2 * ti:.17g}\n" for ti in tr))
    assert main(["compare", str(fine), str(rounded), "--channels", "x.P"]) == 0
    assert main(["compare", str(rounded), str(fine), "--channels", "x.P"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    for line in captured.out.splitlines()[1::2]:
        assert float(line.split()[-1]) < 1e-8  # 5e-5 s of rounding on slope 2


def test_compare_duplicate_channel_is_file_format(tmp_path, capsys):
    path = tmp_path / "dup.csv"
    path.write_text("t,x.P,x.P\n0,1,2\n0.1,1,2\n")
    assert main(["compare", str(path), str(path)]) == 3
    line = _single_error_line(capsys, "FILE_FORMAT")
    assert "dup.csv" in line and "x.P" in line


def test_compare_non_increasing_time_is_file_format(tmp_path, capsys):
    path = tmp_path / "back.csv"
    path.write_text("t,x.P\n0,1\n0.1,2\n0.1,3\n")
    assert main(["compare", str(path), str(path)]) == 3
    assert "back.csv" in _single_error_line(capsys, "FILE_FORMAT")


# ------------------------------------------------------------------ divergence

@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_rk4_run_reports_non_finite_state(tmp_path, capsys):
    # motor_a (Tpp0 = 2 ms) is unstable under rk4 at dt = 10 ms.
    cfg = _write_config(tmp_path, BASE_DOC)
    rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
               "--dt", "0.01"])
    assert rc == 4
    # The message names the time and the first non-finite state channel.
    line = _single_error_line(capsys, "NON_FINITE_STATE")
    assert line.endswith(" at t = 0.14 s, first in motor_a.Eqp (step 14)")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_torque_overflow_reports_non_finite_state(tmp_path, capsys, monkeypatch):
    # A motor B with a tiny inertia, driven as a generator, runs away after
    # the fault: its speed grows until w**Etrq (Etrq = 2) overflows inside
    # an rk4 stage, which plain floats raise as OverflowError.
    doc = dict(BASE_DOC, mix={"f_b": 1.0},
               motor_b={"preset": "motor_b", "overrides": {"H": 0.001}, "p0": -0.6})
    doc.pop("motor_a")
    doc["integrator"] = dict(BASE_DOC["integrator"], t_end=2.0)
    doc["outputs"] = dict(BASE_DOC["outputs"], binary="t.bin", figure_csvs=True)
    cfg = _write_config(tmp_path, doc)
    blocks, write = [], cli.sim.BlockWriter.write

    def counted(self, rows):
        blocks.append(len(rows))
        write(self, rows)
    monkeypatch.setattr(cli.sim.BlockWriter, "write", counted)
    rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "a" / "b")])
    assert rc == 4
    assert _single_error_line(capsys, "NON_FINITE_STATE").endswith("(step 1018)")
    # Four blocks of 250 steps were written before step 1018 failed: no file of
    # them is left, nor a directory that the run made.
    assert blocks == [250] * 4
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.yaml"]


# ------------------------------------------------------------ input validation

@pytest.mark.parametrize("text", [
    "t,V\n0.0,1.0\n0.4,1.0\n0.5,nan\n1.0,1.0\n",  # the third sample
    "0.0,1.0\n\n0.5,1.0\nnan,1.0\n",               # no header, a blank line before
])
def test_series_nan_is_file_format_at_load(tmp_path, capsys, text):
    series = tmp_path / "nan.csv"
    series.write_text(text)
    doc = dict(BASE_DOC, disturbance={"type": "series", "file": str(series)})
    cfg = _write_config(tmp_path, doc)
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 3
    assert "nan.csv:4:" in _single_error_line(capsys, "FILE_FORMAT")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", [
    "t,V,F\n0.0,1.0\n1.0,1.0\n",        # header wider than the rows
    "0.0,1.0\n0.5,1.0,1.0\n1.0,1.0\n",  # a row wider than the first
    "t,V,F,G\n0,1,1,1\n1,1,1,1\n",      # four columns
    "t,V\n0.0,1.0\n",                   # one sample
    "t,V\n0,1\n1,1\n0.5,1\n",            # time goes back
])
def test_series_file_shape_rejected(tmp_path, capsys, text):
    series = tmp_path / "bad.csv"
    series.write_text(text)
    doc = dict(BASE_DOC, disturbance={"type": "series", "file": str(series)})
    cfg = _write_config(tmp_path, doc)
    assert main(["run", "--config", str(cfg)]) == 3
    assert "bad.csv" in _single_error_line(capsys, "FILE_FORMAT")


@pytest.mark.parametrize("text, message", [
    ("t,V\n0,1\n0.25,0\n0.5,-0.25\n1,-1\n", "need V >= 0, got -0.25 at t = 0.5"),  # 0 is in range
    ("t,V,F\n0,1,1\n0.5,1,0\n1,1,-1\n", "need F > 0, got 0 at t = 0.5"),
], ids=["V", "F"])
def test_series_value_out_of_range_is_file_format_at_load(tmp_path, capsys, text, message):
    series = tmp_path / "range.csv"
    series.write_text(text)
    doc = dict(BASE_DOC, disturbance={"type": "series", "file": str(series)})
    cfg = _write_config(tmp_path, doc)
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 3
    assert _single_error_line(capsys, "FILE_FORMAT").endswith(f"range.csv: {message}")
    assert not (tmp_path / "out").exists()


PLAYBACK = BASE_DOC["disturbance"]


@pytest.mark.parametrize("disturbance, message, field", [
    ({"a": 0.8}, "type must be one of ['playback', 'constant', 'series'], got None",
     "disturbance.type"),
    ({"type": 3}, "type must be one of ['playback', 'constant', 'series'], got 3",
     "disturbance.type"),
    ({"type": ["playback"]},
     "type must be one of ['playback', 'constant', 'series'], got ['playback']",
     "disturbance.type"),
    ({k: v for k, v in PLAYBACK.items() if k != "a"}, "missing required key", "disturbance.a"),
    (dict(PLAYBACK, shape=3), "shape must be a string, got 3", "disturbance.shape"),
    (dict(PLAYBACK, shape=None), "shape must be a string, got None", "disturbance.shape"),
    (dict(PLAYBACK, shape="spline"),
     "shape must be one of ('verbatim', 'ramp'), got 'spline'", "disturbance"),
    (dict(PLAYBACK, a=1.2), "need 0 < a < 1, got 1.2", "disturbance"),
    (dict(PLAYBACK, v=1.0), "unknown key(s) ['v']", "disturbance"),
    ({"type": "constant", "a": 0.5}, "unknown key(s) ['a']", "disturbance"),
    ({"type": "series", "file": "vf.csv", "x": 1}, "unknown key(s) ['x']", "disturbance"),
    ({"type": "constant", "v": "1"}, "expected a finite number, got '1'", "disturbance.v"),
    ({"type": "series"}, "missing required key", "disturbance.file"),
    ({"type": "series", "file": 3}, "file must be a string, got 3", "disturbance.file"),
    ([PLAYBACK], "expected a mapping, got list", "disturbance"),
])
def test_disturbance_load_error_line(tmp_path, capsys, disturbance, message, field):
    cfg = _write_config(tmp_path, dict(BASE_DOC, disturbance=disturbance))
    assert main(["run", "--config", str(cfg)]) == 2
    assert (_single_error_line(capsys, "CONFIG_INVALID")
            == f"error: CONFIG_INVALID: {message} (field: {field})")


@pytest.mark.parametrize("disturbance, message", [
    ({"type": "constant", "v": -1}, "need v >= 0, got -1.0"),
    ({"type": "constant", "freq": 0}, "need freq > 0, got 0.0"),
    (dict(PLAYBACK, freq=-1), "need freq > 0, got -1.0"),
    ({"type": "series", "file": "vf.csv", "freq": 0}, "need freq > 0, got 0.0"),
])
def test_negative_voltage_or_frequency_rejected_at_load(tmp_path, capsys, disturbance, message):
    doc = dict(DER_DOC, disturbance=disturbance)
    out = tmp_path / "out"
    assert main(["run", "--config", str(_write_config(tmp_path, doc)), "--out-dir", str(out)]) == 2
    assert (_single_error_line(capsys, "CONFIG_INVALID")
            == f"error: CONFIG_INVALID: {message} (field: disturbance)")
    assert not out.exists()


def test_zero_voltage_bus_runs_a_zip_load(tmp_path):
    # v = 0 is accepted at load; motors and the DER refuse it at init with their own codes.
    zip_load = {"p0": 1.0, "q0": 0.0, "a_p": 0.5, "b_p": 0.3, "c_p": 0.2,
                "a_q": 0.0, "b_q": 0.0, "c_q": 1.0}
    doc = dict(BASE_DOC, mix={"f_zip": 1.0}, zip=zip_load,
               disturbance={"type": "constant", "v": 0})
    doc.pop("motor_a")
    assert main(["run", "--config", str(_write_config(tmp_path, doc)),
                 "--out-dir", str(tmp_path / "out"), "--t-end", "0.01"]) == 0
    traj = read_csv(tmp_path / "out" / "traj.csv")
    assert (traj.channel("V") == 0.0).all()
    assert traj.channel("zip.P") == pytest.approx(0.2, abs=1e-15)  # the constant-power part


def test_compare_infinite_value_is_file_format(tmp_path, capsys):
    path = tmp_path / "inf.csv"
    path.write_text("t,x.P\n0,1\n0.1,inf\n0.2,3\n")
    assert main(["compare", str(path), str(path)]) == 3
    assert "inf.csv:3:" in _single_error_line(capsys, "FILE_FORMAT")


@pytest.mark.parametrize("text, message", [
    ("t,x.P\n", "no data rows"),
    ("t,x.P\n\n  \n", "no data rows"),
    ("", "empty file"),
    ("\n \n", "empty file"),
])
def test_compare_file_without_data_is_file_format(tmp_path, capsys, text, message):
    path = tmp_path / "nodata.csv"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["compare", str(path), str(path)]) == 3
    assert not caught  # numpy's "input contained no data" stays inside read_table
    assert _single_error_line(capsys, "FILE_FORMAT") == f"error: FILE_FORMAT: {path}: {message}"


@pytest.mark.parametrize("other, channels", [("t,y.P\n0,1\n0.1,2\n", None),
                                             ("t,x.P\n0,1\n0.1,2\n", "")])
def test_compare_with_nothing_to_compare_is_channel_unknown(tmp_path, capsys, other, channels):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("t,x.P\n0,1\n0.1,2\n")
    b.write_text(other)
    argv = ["compare", str(a), str(b)] + ([] if channels is None else ["--channels", channels])
    assert main(argv) == 3
    line = _single_error_line(capsys, "CHANNEL_UNKNOWN")
    assert str(a) in line and str(b) in line
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("lacking", ["a", "b"])
def test_compare_channel_missing_from_one_file_names_it_before_printing(tmp_path, capsys,
                                                                         lacking):
    paths = {"a": tmp_path / "a.csv", "b": tmp_path / "b.csv"}
    for key, path in paths.items():
        path.write_text("t,x.P\n0,1\n0.1,2\n" if key == lacking else
                        "t,x.P,y.P\n0,1,1\n0.1,2,2\n")
    assert main(["compare", str(paths["a"]), str(paths["b"]), "--channels", "x.P,y.P"]) == 3
    out, err = capsys.readouterr()
    assert out == ""  # no partial table
    assert err == f"error: CHANNEL_UNKNOWN: no channel named 'y.P' in {paths[lacking]}\n"


def test_run_empty_channel_list_is_config_invalid_at_load(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.sim, "run_simulation", lambda *a: pytest.fail("run started"))
    cfg = _write_config(tmp_path, BASE_DOC)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out), "--channels", " , "]) == 2
    assert _single_error_line(capsys, "CONFIG_INVALID").endswith("(field: outputs.channels)")
    doc = dict(BASE_DOC, outputs=dict(BASE_DOC["outputs"], channels=[]))
    assert main(["run", "--config", str(_write_config(tmp_path, doc)), "--out-dir", str(out)]) == 2
    assert _single_error_line(capsys, "CONFIG_INVALID").endswith("(field: outputs.channels)")
    assert not out.exists()


@pytest.mark.parametrize("option, listed", [("t", None), ("t,t", None), (None, ["t"])])
def test_run_time_only_channel_list_is_config_invalid_at_load(tmp_path, capsys, monkeypatch,
                                                               option, listed):
    monkeypatch.setattr(cli.sim, "run_simulation", lambda *a: pytest.fail("run started"))
    doc = dict(BASE_DOC, outputs=dict(BASE_DOC["outputs"], channels=listed))
    out = tmp_path / "out"
    argv = ["run", "--config", str(_write_config(tmp_path, doc)), "--out-dir", str(out)]
    assert main(argv + ([] if option is None else ["--channels", option])) == 2
    assert _single_error_line(capsys, "CONFIG_INVALID").endswith("(field: outputs.channels)")
    assert not out.exists()


def test_run_unknown_channel_fails_before_the_first_step(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.sim, "run_simulation", lambda *a: pytest.fail("run started"))
    cfg = _write_config(tmp_path, BASE_DOC)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out),
                 "--channels", "total.P,nope"]) == 3
    assert _single_error_line(capsys, "CHANNEL_UNKNOWN").startswith(
        "error: CHANNEL_UNKNOWN: no channel named 'nope'")
    assert not out.exists()


def test_run_unknown_channel_is_refused_by_the_block_writer(tmp_path, capsys, monkeypatch):
    # cmd_run has no channel check of its own: the writer's, made before it opens a file.
    monkeypatch.setattr(cli.sim, "run_simulation", lambda *a: pytest.fail("run started"))
    out = tmp_path / "out"
    argv = ["run", "--config", str(_write_config(tmp_path, BASE_DOC)), "--out-dir", str(out)]
    assert main(argv + ["--channels", "V,nope"]) == 3
    assert _single_error_line(capsys, "CHANNEL_UNKNOWN") == (
        "error: CHANNEL_UNKNOWN: no channel named 'nope' in the trajectory")
    assert not out.exists()


def test_every_component_table_names_the_same_components():
    assert set(COMPONENTS) <= set(TOP_LEVEL_KEYS)
    mix = LoadMix(f_a=0.5, f_zip=0.5, der_scale=0.25)
    assert {name: kind.sign * getattr(mix, kind.mix_key) for name, kind in COMPONENTS.items()} == {
        "motor_a": 0.5, "motor_b": 0.0, "motor_c": 0.0, "dera": -0.25, "zip": 0.5, "elec": 0.0}


DER_DOC = {
    "mix": {"f_zip": 1.0, "der_scale": 1.0},
    "zip": {"p0": 0.0, "q0": 0.0, "a_p": 0.0, "b_p": 0.0, "c_p": 1.0,
            "a_q": 0.0, "b_q": 0.0, "c_q": 1.0},
    "dera": {"preset": "dera_table3", "overrides": {"Freqflag": 1}, "pgen0": 0.5},
    "disturbance": {"type": "constant"},
    "integrator": {"method": "rk4", "dt": 0.005, "t_end": 0.1},
    "outputs": {"trajectory_csv": "traj.csv", "summary_json": "summary.json"},
}


def test_der_frequency_control_step_bound(tmp_path, capsys):
    cfg = _write_config(tmp_path, DER_DOC)
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "ok")]) == 0
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--dt", "0.02"]) == 2
    assert "integrator.dt" in _single_error_line(capsys, "CONFIG_INVALID")
    doc = dict(DER_DOC, integrator=dict(DER_DOC["integrator"], dt=0.02))
    assert main(["run", "--config", str(_write_config(tmp_path, doc, "coarse.yaml"))]) == 2
    assert "integrator.dt" in _single_error_line(capsys, "CONFIG_INVALID")


@pytest.mark.parametrize("option, value, field", [
    ("--dt", "0", "integrator.dt"),
    ("--dt", "-1", "integrator.dt"),
    ("--dt", "nan", "integrator.dt"),
    ("--dt", "inf", "integrator.dt"),
    ("--t-end", "0", "integrator.t_end"),
    ("--t-end", "nan", "integrator.t_end"),
    ("--t-end", "1e400", "integrator.t_end"),
    ("--t-end", "1e300", "integrator.t_end"),  # more steps than IntegratorConfig.MAX_STEPS
    ("--dt", "1e-300", "integrator.t_end"),
])
def test_bad_step_override_is_config_invalid(tmp_path, capsys, option, value, field):
    cfg = _write_config(tmp_path, BASE_DOC)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out), option, value]) == 2
    assert _single_error_line(capsys, "CONFIG_INVALID").endswith(f"(field: {field})")
    assert not out.exists()


def test_step_count_bound_at_parse():
    # 10**7 steps is the most a run may take; t_end in the config is checked as --t-end is.
    assert parse_integrator({"dt": 1e-3, "t_end": 1e4}).t_end == 1e4
    with pytest.raises(ConfigError) as exc_info:
        parse_integrator({"dt": 1e-3, "t_end": 10000.001})
    assert exc_info.value.field == "integrator.t_end"


@pytest.mark.parametrize("t_end", [0.0004, 0.0005])
def test_run_of_zero_steps_fails_at_parse(tmp_path, capsys, t_end):
    # round(t_end / dt) is 0 (round(0.5) is 0): the run would record t = 0 alone.
    with pytest.raises(ConfigError) as exc_info:
        parse_integrator({"dt": 1e-3, "t_end": t_end})
    assert str(exc_info.value) == (f"t_end / dt is {t_end / 1e-3:.3g} steps, which rounds to 0 "
                                   "(field: integrator.t_end)")
    assert parse_integrator({"dt": 1e-3, "t_end": 0.0006}).t_end == 0.0006  # 1 step
    cfg = _write_config(tmp_path, BASE_DOC)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out), "--t-end", str(t_end)]) == 2
    assert _single_error_line(capsys, "CONFIG_INVALID").endswith("(field: integrator.t_end)")
    assert not out.exists()


def test_step_count_bound_at_parse_names_the_field():
    # The parser reports IntegratorConfig's bound on integrator.t_end.
    with pytest.raises(ConfigError) as exc_info:
        parse_integrator({"dt": 1e-3, "t_end": 1e300})
    assert str(exc_info.value) == ("t_end / dt is 1e+303 steps, more than 10000000 "
                                   "(field: integrator.t_end)")


def test_der_step_bound_only_with_frequency_control(tmp_path):
    doc = dict(DER_DOC, dera=dict(DER_DOC["dera"], overrides={"Freqflag": 0}))
    cfg = _write_config(tmp_path, doc)
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
                 "--dt", "0.02"]) == 0


@pytest.mark.parametrize("section, key, field", [
    ("zip", "p0", "zip.p0"),
    ("zip", "c_q", "zip.c_q"),
    ("elec", "vd2", "elec.vd2"),
])
def test_missing_key_names_yaml_field(section, key, field):
    doc = dict(BASE_DOC, zip=dict(DER_DOC["zip"]),
               elec={"pe0": 1.0, "qe0": 0.2, "vd1": 0.7, "vd2": 0.5, "alpha": 1.0})
    doc[section] = {k: v for k, v in doc[section].items() if k != key}
    with pytest.raises(ConfigError) as exc_info:
        parse_config(doc)
    assert exc_info.value.field == field
    assert str(exc_info.value) == f"missing required key (field: {field})"


def test_numeric_sections_reject_unknown_and_non_numbers():
    with pytest.raises(ConfigError, match=r"unknown key\(s\) \['P0'\] \(field: zip\)"):
        parse_config(dict(BASE_DOC, zip=dict(DER_DOC["zip"], P0=1.0)))
    with pytest.raises(ConfigError) as exc_info:
        parse_config(dict(BASE_DOC, mix={"f_a": "1"}))
    assert exc_info.value.field == "mix.f_a"
    cfg = parse_config(dict(BASE_DOC, zip=DER_DOC["zip"]))
    assert cfg.components["zip"].v0 == 1.0  # v0 default


def test_zip_and_elec_keys_map_to_fields():
    doc = dict(BASE_DOC,
               zip={"p0": 1.0, "q0": 0.3, "v0": 0.9, "a_p": 0.5, "b_p": 0.3, "c_p": 0.2,
                    "a_q": 0.6, "b_q": 0.1, "c_q": 0.3},
               elec={"pe0": 0.8, "qe0": 0.2, "vd1": 0.7, "vd2": 0.5, "alpha": 0.25})
    cfg = parse_config(doc)
    assert cfg.components["zip"] == ZipParams(p0=1.0, q0=0.3, v0=0.9, a_p=0.5, b_p=0.3, c_p=0.2,
                                              a_q=0.6, b_q=0.1, c_q=0.3)
    assert cfg.components["elec"] == ElecParams(pe0=0.8, qe0=0.2, vd1=0.7, vd2=0.5, alpha=0.25)
    assert cfg.to_dict()["zip"] == doc["zip"] and cfg.to_dict()["elec"] == doc["elec"]


def test_each_section_takes_its_fields_as_keys(tmp_path):
    # Every key of every section, as given: the parsed object's fields, with no other name.
    series = tmp_path / "vf.csv"
    series.write_text("t,V\n0,1\n1,0.9\n")
    components = {
        **{name: {"preset": name, "overrides": {"H": 0.06}, "p0": 0.7, "q0": 0.2}
           for name in ("motor_a", "motor_b", "motor_c")},
        "dera": {"preset": "dera_table3", "overrides": {"Freqflag": 1}, "pgen0": 0.5,
                 "qgen0": 0.1},
        "zip": {"p0": 1.0, "q0": 0.3, "a_p": 0.5, "b_p": 0.3, "c_p": 0.2,
                "a_q": 0.6, "b_q": 0.1, "c_q": 0.3, "v0": 0.9},
        "elec": {"pe0": 0.8, "qe0": 0.2, "vd1": 0.7, "vd2": 0.5, "alpha": 0.25},
    }
    disturbances = {
        "playback": {"a": 0.8, "b": 5.0, "c": 1.0, "d": 0.9, "shape": "ramp", "freq": 1.01},
        "constant": {"v": 0.95, "freq": 1.01},
        "series": {"file": str(series), "freq": 1.01},
    }
    sections = {
        "integrator": {"method": "heun", "dt": 0.002, "t_end": 0.5, "record_every": 2},
        "outputs": {"out_dir": "o", "trajectory_csv": "a.csv", "summary_json": "s.json",
                    "binary": "b.bin", "channels": ["total.P"], "figure_csvs": True},
    }
    assert set(components) == set(COMPONENTS) and set(disturbances) == set(DISTURBANCES)
    doc = dict(BASE_DOC, **components, **sections)
    cfg = parse_config(doc)
    for name, section in {**components, **sections}.items():
        parsed = cfg.components[name] if name in COMPONENTS else getattr(cfg, name)
        assert set(section) == {f.name for f in dataclasses.fields(parsed)}
        assert cfg.to_dict()[name] == dataclasses.asdict(parsed) == section
        with pytest.raises(ConfigError, match=rf"unknown key\(s\) \['x'\] \(field: {name}\)"):
            parse_config(dict(doc, **{name: dict(section, x=1.0)}))
    for dtype, section in disturbances.items():
        cfg = parse_config(dict(doc, disturbance={"type": dtype, **section}))
        bus = cfg.disturbance
        assert type(bus) is DISTURBANCES[dtype]
        assert set(section) == {f.name for f in dataclasses.fields(bus)}
        assert cfg.to_dict()["disturbance"] == {"type": dtype, **dataclasses.asdict(bus)}
        assert dataclasses.asdict(bus) == section
        with pytest.raises(ConfigError, match=r"unknown key\(s\) \['x'\] \(field: disturbance\)"):
            parse_config(dict(doc, disturbance={"type": dtype, **section, "x": 1.0}))


def test_fractional_der_flag_rejected():
    doc = dict(DER_DOC, dera=dict(DER_DOC["dera"], overrides={"Freqflag": 0.7}))
    with pytest.raises(ConfigError) as exc_info:
        parse_config(doc)
    assert exc_info.value.field == "dera.overrides.Freqflag"
    doc["dera"]["overrides"] = {"Freqflag": 1.0}
    assert parse_config(doc).components["dera"].params().Freqflag == 1


@pytest.mark.parametrize("section, key, field", [
    ("mix", "f_a", "mix.f_a"),
    ("integrator", "t_end", "integrator.t_end"),
    ("motor_a", "p0", "motor_a.p0"),
])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400])
def test_non_finite_config_number_rejected(tmp_path, capsys, section, key, field, value):
    doc = dict(BASE_DOC, **{section: dict(BASE_DOC[section], **{key: value})})
    assert main(["run", "--config", str(_write_config(tmp_path, doc))]) == 2
    assert field in _single_error_line(capsys, "CONFIG_INVALID")


def test_preset_section_converts_its_own_overrides():
    # Built in Python, a section converts and checks its overrides as the config does.
    with pytest.raises(ValueError) as exc_info:
        config.MotorSection(preset="motor_a", p0=0.8, overrides={"H": "0.06"})
    assert exc_info.value.key == "overrides.H"
    with pytest.raises(ValueError, match=r"unknown key\(s\) \['Hx'\]") as exc_info:
        config.MotorSection(preset="motor_a", p0=0.8, overrides={"Hx": 1.0})
    assert exc_info.value.key == "overrides"
    section = config.MotorSection(preset="motor_a", p0=0.8, overrides={"H": 1})
    assert section.overrides == {"H": 1.0} and type(section.overrides["H"]) is float
    assert section.params().H == 1.0
    assert config.DeraSection(pgen0=0.5, preset="dera_table3").overrides == {}


@pytest.mark.parametrize("make, key, value", [
    (lambda v: config.MotorSection(preset="motor_a", p0=v), "p0", "0.8"),
    (lambda v: config.MotorSection(preset="motor_a", p0=v), "p0", float("nan")),
    (lambda v: config.DeraSection(preset="dera_table3", pgen0=0.5, qgen0=v), "qgen0", "0.1"),
])
def test_preset_section_converts_its_own_loading_fields(make, key, value):
    # Built in Python, a section checks its loading fields as the config does: a string or a
    # nan is refused on its key, not met later by the equilibrium solve.
    with pytest.raises(FieldError) as exc_info:
        make(value)
    assert exc_info.value.key == key
    assert str(exc_info.value) == f"expected a finite number, got {value!r}"


def test_preset_section_stores_a_whole_loading_number_as_a_float():
    section = config.MotorSection(preset="motor_a", p0=1)
    assert section.p0 == 1.0 and type(section.p0) is float


def test_a_section_built_in_python_runs_as_its_parsed_config():
    # A configured component has one form, its section: built in Python and given to
    # build_scenario, it runs the same as the config that parses into it.
    cfg = load_config(SCENARIOS / "motor_a_playback.yaml")
    section = config.MotorSection(preset="motor_a", p0=cfg.components["motor_a"].p0)
    runs = [run_simulation(scenario, cfg.integrator) for scenario in (
        cfg.build(), config.build_scenario(cfg.mix, cfg.disturbance, {"motor_a": section}))]
    assert runs[0].trajectory.data.tobytes() == runs[1].trajectory.data.tobytes()
    assert runs[0].summary == runs[1].summary
    assert clm_sim.build_scenario is clm_sim.config.build_scenario


def test_non_mapping_overrides_are_refused_as_a_wrong_type():
    doc = dict(BASE_DOC, motor_a=dict(BASE_DOC["motor_a"], overrides=[1]))
    with pytest.raises(ConfigError, match=r"^overrides must be a mapping, got \[1\] "
                                          r"\(field: motor_a.overrides\)$"):
        parse_config(doc)


def test_non_finite_override_rejected():
    doc = dict(BASE_DOC, motor_a=dict(BASE_DOC["motor_a"], overrides={"H": float("nan")}))
    with pytest.raises(ConfigError) as exc_info:
        parse_config(doc)
    assert exc_info.value.field == "motor_a.overrides.H"


ZIP_DOC = {
    "mix": {"f_zip": 1.0},
    "zip": DER_DOC["zip"],
    "disturbance": {"type": "constant"},
    "integrator": {"method": "rk4", "dt": 0.01, "t_end": 0.05},
}


@pytest.mark.parametrize("mix, message", [
    ({"f_zip": 1.0, "der_scale": 0.3},
     "mix.der_scale is 0.3 but dera is not configured (field: dera)"),
    ({"f_a": 0.5, "f_zip": 0.5}, "mix.f_a is 0.5 but motor_a is not configured (field: motor_a)"),
], ids=["dera", "motor_a"])
def test_run_names_the_mix_key_of_an_unconfigured_component(tmp_path, capsys, mix, message):
    cfg = _write_config(tmp_path, dict(ZIP_DOC, mix=mix))
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert _single_error_line(capsys, "CONFIG_INVALID") == f"error: CONFIG_INVALID: {message}"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("outputs, path", [
    ({"trajectory_csv": "summary.json"}, "summary.json"),
    ({"binary": "trajectory.csv"}, "trajectory.csv"),
    ({"trajectory_csv": "figure_zip.csv", "figure_csvs": True}, "figure_zip.csv"),
    ({"trajectory_csv": "../out/summary.json"}, "../out/summary.json"),
])
def test_run_colliding_output_names_are_config_invalid(tmp_path, capsys, monkeypatch,
                                                       outputs, path):
    monkeypatch.setattr(cli.sim, "run_simulation", lambda *a: pytest.fail("run started"))
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, dict(ZIP_DOC, outputs=outputs))
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert _single_error_line(capsys, "CONFIG_INVALID") == (
        f"error: CONFIG_INVALID: two outputs would both be written to {out / path} "
        "(field: outputs)")
    assert not out.exists()


@pytest.mark.parametrize("key", ["trajectory_csv", "summary_json", "binary"])
def test_run_empty_output_name_is_config_invalid_at_load(tmp_path, capsys, key):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, dict(ZIP_DOC, outputs={key: ""}))
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert _single_error_line(capsys, "CONFIG_INVALID").endswith(f"(field: outputs.{key})")
    assert not out.exists()


def test_run_unwritable_out_dir_is_one_error_line(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    cfg = _write_config(tmp_path, ZIP_DOC)
    assert main(["run", "--config", str(cfg), "--out-dir", str(taken)]) == 2
    line = _single_error_line(capsys, "CONFIG_INVALID")
    assert line.startswith("error: CONFIG_INVALID: cannot write outputs: ") and str(taken) in line


def test_batch_counts_an_unwritable_out_dir_and_goes_on(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    configs = [str(_write_config(tmp_path, ZIP_DOC, f"{name}.yaml")) for name in ("one", "two")]
    assert main(["batch", *configs, "--out-dir", str(taken)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 3
    assert [line.split(": ")[:3] for line in lines[:2]] == [
        ["error", "CONFIG_INVALID", configs[0]], ["error", "CONFIG_INVALID", configs[1]]]
    assert lines[2] == "batch: 2 of 2 scenario(s) failed"


def _files_under(path):
    return sorted(str(p.relative_to(path)) for p in path.rglob("*") if p.is_file())


def test_failed_output_write_leaves_no_file_of_the_run(tmp_path, capsys):
    # The binary's directory does not exist: the CSVs before it must not stay behind.
    out = tmp_path / "out"
    outputs = {"binary": "nosuch/t.bin", "figure_csvs": True}
    cfg = _write_config(tmp_path, dict(ZIP_DOC, outputs=outputs))
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
    line = _single_error_line(capsys, "CONFIG_INVALID")
    assert line.startswith("error: CONFIG_INVALID: cannot write outputs: ") and "nosuch" in line
    assert _files_under(out) == []


def test_run_and_batch_leave_only_their_outputs(tmp_path, capsys):
    outputs = {"binary": "traj.bin", "figure_csvs": True}
    cfg = _write_config(tmp_path, dict(ZIP_DOC, outputs=outputs))
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]) == 0
    written = ["figure_zip.csv", "summary.json", "traj.bin", "trajectory.csv"]
    assert _files_under(tmp_path / "run") == written
    two = _write_config(tmp_path, dict(ZIP_DOC, outputs=outputs), "two.yaml")
    assert main(["batch", str(cfg), str(two), "--out-dir", str(tmp_path / "runs")]) == 0
    assert _files_under(tmp_path / "runs") == [f"{stem}/{name}" for stem in ("scenario", "two")
                                               for name in written]


SWEEP_LANE_YAML = """\
mix: {f_a: 0.281436, f_b: 0.111579, f_c: 0.054397, f_elec: 0.19164, f_zip: 0.360948,
      der_scale: 0.309548, p_base_mva: 15.0}
motor_a: {preset: motor_a, p0: 0.845312}
motor_b: {preset: motor_b, p0: 0.544166}
motor_c: {preset: motor_c, p0: 0.637514}
dera: {preset: dera_table3, pgen0: 0.411724, qgen0: 0.119779}
zip: {p0: 1.0, q0: 0.3, v0: 1.0, a_p: 0.4, b_p: 0.3, c_p: 0.3, a_q: 0.5, b_q: 0.25, c_q: 0.25}
elec: {pe0: 1.0, qe0: 0.2, vd1: 0.7, vd2: 0.5, alpha: 1.0}
disturbance: {type: playback, a: 0.754324, b: 1.035, c: 0.4, d: 0.9}
integrator: {method: rk4, dt: 0.001, t_end: 1.5}
outputs:
  trajectory_csv: pq.csv
  summary_json: summary.json
  channels:
  - total.P
  - total.Q
"""


def test_pure_python_yaml_loader_gives_the_same_config(tmp_path, monkeypatch):
    lane = tmp_path / "lane.yaml"
    lane.write_text(SWEEP_LANE_YAML)
    paths = [*sorted(SCENARIOS.glob("*.yaml")), lane]
    assert len(paths) == 4
    fast = [load_config(path) for path in paths]
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert [load_config(path) for path in paths] == fast
    assert fast[-1].outputs.channels == ["total.P", "total.Q"]


@pytest.mark.parametrize("libyaml", [True, False])
@pytest.mark.parametrize("text, key, line", [
    ("integrator: {t_end: 0.01, dt: 0.001, dt: 0.002}\nmix: {f_a: 1.0}\n", "dt", 1),
    ("mix: {f_a: 1.0}\nintegrator: {t_end: 0.01}\nmix: {f_a: 1.0}\n", "mix", 3),
], ids=["in a section", "at the top level"])
def test_repeated_yaml_key_is_config_invalid_under_both_loaders(tmp_path, capsys, monkeypatch,
                                                                 libyaml, text, key, line):
    # A repeated key would otherwise take its last value silently, in a section or at the top.
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    cfg = tmp_path / "repeated.yaml"
    cfg.write_text(text + "motor_a: {preset: motor_a, p0: 0.8}\ndisturbance: {type: constant}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
    error = _single_error_line(capsys, "CONFIG_INVALID")
    assert f"found repeated key {key!r} in \"{cfg}\", line {line}," in error
    assert not out.exists()


def test_yaml_merge_key_is_not_a_repeated_key(tmp_path):
    # Only a mapping's own keys must be unique: outputs' own type overrides the merged type, and
    # parsing goes on to refuse the merged keys as unknown to outputs.
    cfg = tmp_path / "merge.yaml"
    cfg.write_text("mix: {f_a: 1.0}\nmotor_a: {preset: motor_a, p0: 0.8}\n"
                   "disturbance: &bus {type: constant, v: 0.9}\n"
                   "integrator: {t_end: 0.01}\noutputs: {<<: *bus, type: x}\n")
    with pytest.raises(ConfigError, match=r"unknown key\(s\) \['type', 'v'\]"):
        load_config(cfg)


@pytest.mark.parametrize("libyaml", [True, False])
def test_malformed_yaml_is_config_invalid_under_both_loaders(tmp_path, capsys, monkeypatch,
                                                             libyaml):
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("mix: {f_a: 1.0\nintegrator: [\n")
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert _single_error_line(capsys, "CONFIG_INVALID").startswith(
        f"error: CONFIG_INVALID: cannot parse config {cfg}: ")


# ------------------------------------------------------------ streamed outputs

def _composite_doc(disturbance, **integrator):
    """The bundled composite_fault scenario behind another disturbance."""
    doc = yaml.safe_load((SCENARIOS / "composite_fault.yaml").read_text())
    doc["integrator"].update(integrator)
    return dict(doc, disturbance=disturbance)


@pytest.mark.parametrize("every", [1, 3, 7, 300])
@pytest.mark.parametrize("method", ["rk4", "heun", "euler"])
def test_streamed_outputs_are_what_the_kept_trajectory_writes(tmp_path, method, every):
    # 250 steps to a block: 249 and 250 steps end in a block of 250 rows and of one row;
    # with a sample every 300 steps, a block may hold none.
    series = tmp_path / "dip.csv"  # moving in every block
    series.write_text("t,V\n0,1\n0.1,1\n0.2,0.85\n0.5,0.95\n")
    outputs = {"trajectory_csv": "t.csv", "binary": "t.bin", "figure_csvs": True}
    for n in (249, 250, 251, 500):
        doc = _composite_doc({"type": "series", "file": str(series)},
                             method=method, t_end=n / 1000, record_every=every)
        cfg = _write_config(tmp_path, dict(doc, outputs=outputs), f"{method}_{every}_{n}.yaml")
        streamed, kept = tmp_path / f"streamed_{n}", tmp_path / f"kept_{n}"
        assert main(["run", "--config", str(cfg), "--out-dir", str(streamed)]) == 0
        loaded = load_config(cfg)
        scenario = loaded.build()
        result = run_simulation(scenario, loaded.integrator)
        traj = result.trajectory
        assert result.summary["steps"] == n and len(traj) == n // every + 1
        kept.mkdir()
        figures = {kept / f"figure_{c}.csv": [*COMPONENTS[c].figure, f"{c}.P", f"{c}.Q"]
                   for c, _, _ in scenario.parts}
        write_csv(traj, {kept / "t.csv": None, **figures})
        write_binary(traj, kept / "t.bin")
        for path in kept.iterdir():
            assert (streamed / path.name).read_bytes() == path.read_bytes(), (n, path.name)
        summary = json.loads((streamed / "summary.json").read_text())
        assert summary["channels"] == traj.channels
        assert {key: summary[key] for key in result.summary} == json.loads(
            json.dumps(result.summary))


def test_run_memory_does_not_grow_with_run_length(tmp_path):
    # 24,001 rows of 44 channels: 8.4 MB as one array. A flat bus leaves every component at
    # its fixed point, so the run is mostly repeated steps.
    doc = _composite_doc({"type": "constant"}, t_end=24.0)
    cfg = _write_config(tmp_path, dict(doc, outputs={"channels": ["total.P"], "binary": "t.bin"}))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out / "t.bin").stat().st_size == 24001 * 44 * 8
    assert peak < 2 * 2**20


@pytest.mark.parametrize("error, status", [(KeyboardInterrupt, None),
                                           (OSError(28, "No space left on device"), 2)])
def test_run_stopped_mid_write_leaves_nothing(tmp_path, capsys, monkeypatch, error, status):
    blocks, write = [], cli.sim.BlockWriter.write

    def second_fails(self, rows):
        blocks.append(len(rows))
        if len(blocks) == 2:
            raise error
        write(self, rows)
    monkeypatch.setattr(cli.sim.BlockWriter, "write", second_fails)
    outputs = dict(BASE_DOC["outputs"], binary="t.bin", figure_csvs=True)
    cfg = _write_config(tmp_path, dict(BASE_DOC, outputs=outputs))
    out = tmp_path / "out" / "deeper"
    if status is None:
        with pytest.raises(KeyboardInterrupt):
            main(["run", "--config", str(cfg), "--out-dir", str(out)])
    else:
        assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == status
        assert _single_error_line(capsys, "CONFIG_INVALID").endswith("No space left on device")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.yaml"]


def test_run_keeps_an_out_dir_that_was_there(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "mine").mkdir(parents=True)
    cfg = _write_config(tmp_path, BASE_DOC)  # motor_a diverges under rk4 at dt = 10 ms
    assert main(["run", "--config", str(cfg), "--out-dir", str(out / "new"), "--dt", "0.01"]) == 4
    assert [p.name for p in out.iterdir()] == ["mine"]


def test_batch_refuses_two_configs_that_write_one_file(tmp_path, capsys):
    # f1/c1.yaml and f2/c2.yaml both write shared/summary.json and shared/traj.csv.
    shared = tmp_path / "shared"
    configs = []
    for k, v in ((1, 0.9), (2, 0.95)):
        (tmp_path / f"f{k}").mkdir()
        doc = dict(ZIP_DOC, disturbance={"type": "constant", "v": v},
                   outputs={"out_dir": str(shared), "trajectory_csv": "traj.csv"})
        configs.append(str(_write_config(tmp_path / f"f{k}", doc, f"c{k}.yaml")))
    assert main(["batch", *configs]) == 2
    assert _single_error_line(capsys, "CONFIG_INVALID") == (
        f"error: CONFIG_INVALID: {configs[0]} and {configs[1]} "
        f"would both write {shared / 'traj.csv'}")
    assert not shared.exists()


def test_batch_leaves_a_config_that_does_not_load_to_its_run(tmp_path, capsys):
    good = _write_config(tmp_path, dict(ZIP_DOC, outputs={"out_dir": str(tmp_path / "out")}),
                         "good.yaml")
    bad = _write_config(tmp_path, dict(ZIP_DOC, mix={"f_zip": 0.5}), "bad.yaml")
    assert main(["batch", str(bad), str(good)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(": ")[:3] for line in lines[:1]] == [["error", "CONFIG_INVALID", str(bad)]]
    assert lines[1:] == ["batch: 1 of 2 scenario(s) failed"]
    assert _files_under(tmp_path / "out") == ["summary.json", "trajectory.csv"]


@pytest.mark.parametrize("text", [None, "t,V\n0,1\n0.5,nan\n1,1\n"], ids=["missing", "nan"])
def test_series_file_is_read_when_the_config_loads(tmp_path, capsys, monkeypatch, text):
    series = tmp_path / "vf.csv"
    if text is not None:
        series.write_text(text)
    doc = dict(ZIP_DOC, disturbance={"type": "series", "file": str(series)})
    bad = _write_config(tmp_path, doc, "bad.yaml")
    with monkeypatch.context() as m:
        m.setattr(config, "build_scenario", lambda *args: pytest.fail("built"))
        with pytest.raises(FileFormatError, match="vf.csv"):
            load_config(bad)
    good = _write_config(tmp_path, ZIP_DOC, "good.yaml")
    runs = tmp_path / "runs"
    assert main(["batch", str(bad), str(good), "--out-dir", str(runs)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(": ")[:3] for line in lines[:1]] == [["error", "FILE_FORMAT", str(bad)]]
    assert lines[1:] == ["batch: 1 of 2 scenario(s) failed"]
    assert _files_under(runs) == ["good/summary.json", "good/trajectory.csv"]


def test_batch_runs_two_configs_sharing_an_out_dir_with_different_names(tmp_path):
    shared = tmp_path / "shared"
    configs = [str(_write_config(tmp_path, dict(ZIP_DOC, outputs={
        "out_dir": str(shared), "trajectory_csv": f"{k}.csv", "summary_json": f"{k}.json"}),
        f"{k}.yaml")) for k in ("one", "two")]
    assert main(["batch", *configs]) == 0
    assert _files_under(shared) == ["one.csv", "one.json", "two.csv", "two.json"]


# ------------------------------------------------------------- numpy stays out of run

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs `clm-sim <args>` in a fresh interpreter, then prints whether numpy was imported.
_MAIN_THEN_NUMPY = ("import sys; from clm_sim.cli import main; status = main(sys.argv[1:]); "
                    "print('numpy' in sys.modules); sys.exit(status)")


def _fresh_cli(*args, cwd=None, **env):
    """(exit status, whether numpy was loaded) of `clm-sim args` in a new process."""
    proc = subprocess.run([sys.executable, "-c", _MAIN_THEN_NUMPY, *map(str, args)], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": str(SRC), **env},
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout.splitlines()[-1]


def test_run_batch_and_preset_load_no_numpy(tmp_path):
    doc = yaml.safe_load((SCENARIOS / "composite_fault.yaml").read_text())
    doc["outputs"].update(binary="t.bin", figure_csvs=True)
    cfg = _write_config(tmp_path, doc)
    assert _fresh_cli("run", "--config", cfg, "--out-dir", tmp_path / "run") == (0, "False")
    assert (tmp_path / "run" / "t.bin").exists() and (tmp_path / "run" / "figure_dera.csv").exists()
    configs = sorted(SCENARIOS.glob("*.yaml"))
    assert _fresh_cli("batch", *configs, "--out-dir", tmp_path / "batch") == (0, "False")
    assert _fresh_cli("preset", "list") == (0, "False")


def test_compare_still_loads_numpy(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(SCENARIOS / "motor_a_playback.yaml"), "--out-dir",
                 str(out), "--t-end", "0.5"]) == 0
    csv = next(out.glob("*.csv"))
    assert _fresh_cli("compare", csv, csv) == (0, "True")


def _blas_is_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 2 has no dict form
        return False
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(not _blas_is_openblas(), reason="numpy's BLAS is not OpenBLAS")
def test_a_motor_run_does_not_depend_on_the_openblas_kernel(tmp_path):
    # Two kernels that give the numpy 5x5 solve different bits on an x86-64 CPU; the
    # equilibrium solve runs on plain floats, so the trajectories are equal byte for byte.
    files = []
    for core in ("Haswell", "Sandybridge"):
        out = tmp_path / core
        assert _fresh_cli("run", "--config", SCENARIOS / "motor_a_playback.yaml", "--out-dir", out,
                          "--t-end", "1.5", OPENBLAS_CORETYPE=core)[0] == 0
        files.append(next(out.glob("*.csv")).read_bytes())
    assert files[0] == files[1]
