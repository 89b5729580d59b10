"""CLI and config layer: runs, validation errors, determinism, presets."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from clm_sim import cli
from clm_sim.cli import main
from clm_sim.config import load_config, parse_config, parse_integrator
from clm_sim.errors import ConfigError
from clm_sim.sim import read_csv
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


def test_config_round_trip_semantically_identical(tmp_path):
    doc = {
        "mix": {"f_a": 0.4, "f_zip": 0.6, "der_scale": 0.25, "p_base_mva": 15.0},
        "motor_a": {"preset": "motor_a", "overrides": {"H": 0.06}, "p0": 0.7},
        "dera": {"preset": "dera_table3", "pgen0": 0.5, "qgen0": 0.1},
        "zip": {"p0": 1.0, "q0": 0.3, "v0": 1.0, "a_p": 0.4, "b_p": 0.3, "c_p": 0.3,
                "a_q": 0.5, "b_q": 0.25, "c_q": 0.25},
        "elec": {"pe0": 1.0, "qe0": 0.2, "vd1": 0.7, "vd2": 0.5, "alpha": 1.0},
        "disturbance": {"type": "playback", "a": 0.8, "b": 5.0, "c": 1.0, "d": 0.9,
                        "shape": "ramp", "freq": 1.0},
        "integrator": {"method": "heun", "dt": 0.0005, "t_end": 2.0, "record_every": 2},
        "outputs": {"trajectory_csv": "x.csv", "figure_csvs": True},
    }
    first = parse_config(doc)
    second = parse_config(first.to_dict())
    assert first.to_dict() == second.to_dict()
    assert second.motors["motor_a"].params().H == 0.06
    assert second.integrator.method == "heun"
    assert second.disturbance.playback.shape == "ramp"


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


def test_compare_missing_file(tmp_path, capsys):
    rc = main(["compare", str(tmp_path / "none.csv"), str(tmp_path / "none.csv")])
    assert rc != 0


def test_batch_runs_multiple(tmp_path):
    cfg1 = _write_config(tmp_path, BASE_DOC, "one.yaml")
    doc2 = dict(BASE_DOC)
    doc2["integrator"] = dict(BASE_DOC["integrator"], t_end=0.5)
    cfg2 = _write_config(tmp_path, doc2, "two.yaml")
    rc = main(["batch", str(cfg1), str(cfg2), "--out-dir", str(tmp_path / "runs")])
    assert rc == 0
    assert (tmp_path / "runs" / "one" / "traj.csv").exists()
    assert (tmp_path / "runs" / "two" / "traj.csv").exists()


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
    assert cfg.motors["motor_a"].params().rs == 0.04


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
def test_torque_overflow_reports_non_finite_state(tmp_path, capsys):
    # A motor B with a tiny inertia, driven as a generator, runs away after
    # the fault: its speed grows until w**Etrq (Etrq = 2) overflows inside
    # an rk4 stage, which plain floats raise as OverflowError.
    doc = dict(BASE_DOC, mix={"f_b": 1.0},
               motor_b={"preset": "motor_b", "overrides": {"H": 0.001}, "p0": -0.6})
    doc.pop("motor_a")
    doc["integrator"] = dict(BASE_DOC["integrator"], t_end=2.0)
    cfg = _write_config(tmp_path, doc)
    rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert rc == 4
    assert _single_error_line(capsys, "NON_FINITE_STATE").endswith("(step 1017)")


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
])
def test_series_file_shape_rejected(tmp_path, capsys, text):
    series = tmp_path / "bad.csv"
    series.write_text(text)
    doc = dict(BASE_DOC, disturbance={"type": "series", "file": str(series)})
    cfg = _write_config(tmp_path, doc)
    assert main(["run", "--config", str(cfg)]) == 3
    assert "bad.csv" in _single_error_line(capsys, "FILE_FORMAT")


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
    assert parse_config(dict(BASE_DOC, zip=DER_DOC["zip"])).zip_load.V0 == 1.0  # v0 default


def test_zip_and_elec_keys_map_to_fields():
    doc = dict(BASE_DOC,
               zip={"p0": 1.0, "q0": 0.3, "v0": 0.9, "a_p": 0.5, "b_p": 0.3, "c_p": 0.2,
                    "a_q": 0.6, "b_q": 0.1, "c_q": 0.3},
               elec={"pe0": 0.8, "qe0": 0.2, "vd1": 0.7, "vd2": 0.5, "alpha": 0.25})
    cfg = parse_config(doc)
    assert cfg.zip_load == ZipParams(P0=1.0, Q0=0.3, V0=0.9, ap=0.5, bp=0.3, cp=0.2,
                                     aq=0.6, bq=0.1, cq=0.3)
    assert cfg.elec == ElecParams(PE0=0.8, QE0=0.2, Vd1=0.7, Vd2=0.5, alpha=0.25)
    assert cfg.to_dict()["zip"] == doc["zip"] and cfg.to_dict()["elec"] == doc["elec"]


def test_fractional_der_flag_rejected():
    doc = dict(DER_DOC, dera=dict(DER_DOC["dera"], overrides={"Freqflag": 0.7}))
    with pytest.raises(ConfigError) as exc_info:
        parse_config(doc)
    assert exc_info.value.field == "dera.overrides.Freqflag"
    doc["dera"]["overrides"] = {"Freqflag": 1.0}
    assert parse_config(doc).dera.params().Freqflag == 1


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


def test_non_finite_override_rejected():
    doc = dict(BASE_DOC, motor_a=dict(BASE_DOC["motor_a"], overrides={"H": float("nan")}))
    with pytest.raises(ConfigError) as exc_info:
        parse_config(doc)
    assert exc_info.value.field == "motor_a.overrides.H"
