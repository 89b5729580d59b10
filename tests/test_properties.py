"""Property tests: config documents and trajectory files round-trip exactly;
write_csv's reuse of repeated cell text, shared by all files of one call,
writes the bytes of per-row formatting; read_table's bulk parse agrees with
the per-line parse."""

import os
import tempfile
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from clm_sim.config import parse_config  # noqa: E402
from clm_sim.errors import FileFormatError  # noqa: E402
from clm_sim.sim import (  # noqa: E402
    INTEGRATION_METHODS,
    STEP_BLOCK,
    IntegratorConfig,
    Trajectory,
    read_binary,
    read_csv,
    read_table,
    write_binary,
    write_csv,
)

unit = st.floats(0.0, 1.0)
finite = st.floats(allow_nan=False, allow_infinity=False)


def fractions(names):
    """Non-negative fractions under the given keys, summing to 1 (within an ulp or two)."""
    def normalise(weights):
        total = sum(weights)
        return {n: w / total for n, w in zip(names, weights)}
    return st.lists(unit, min_size=len(names), max_size=len(names)).filter(
        lambda ws: sum(ws) > 0.0).map(normalise)


@st.composite
def mix_sections(draw):
    section = draw(fractions(["f_a", "f_b", "f_c", "f_elec", "f_zip"]))
    section.update(draw(st.fixed_dictionaries({}, optional={
        "der_scale": st.floats(0.0, 10.0), "p_base_mva": st.floats(1e-3, 1e4)})))
    return section


@st.composite
def zip_sections(draw):
    section = {"p0": draw(finite), "q0": draw(finite)}
    section.update(draw(fractions(["a_p", "b_p", "c_p"])))
    section.update(draw(fractions(["a_q", "b_q", "c_q"])))
    section.update(draw(st.fixed_dictionaries({}, optional={"v0": st.floats(1e-3, 2.0)})))
    return section


@st.composite
def elec_sections(draw):
    vd2 = draw(st.floats(1e-3, 1.0))
    return {"pe0": draw(finite), "qe0": draw(finite), "vd1": vd2 + draw(st.floats(1e-3, 1.0)),
            "vd2": vd2, "alpha": draw(unit)}


names = st.text("abcdefghijklmnopqrstuvwxyz_.0123456789", min_size=1, max_size=12)

integrator_sections = st.fixed_dictionaries({}, optional={
    "method": st.sampled_from(INTEGRATION_METHODS),
    "dt": st.floats(1e-6, 0.1),
    "t_end": st.floats(1e-3, 100.0),
    "record_every": st.integers(1, 1000),
}).filter(  # fewer than one step, or more than a run may take, is rejected
    lambda s: 1 <= round(s.get("t_end", 5.0) / s.get("dt", 1e-3)) <= IntegratorConfig.MAX_STEPS)

outputs_sections = st.fixed_dictionaries({}, optional={
    "out_dir": names,
    "trajectory_csv": names,
    "summary_json": names,
    "binary": st.none() | names,
    # a list naming no channel besides t ([] or ["t"]) is rejected
    "channels": st.none() | st.lists(names, min_size=1, max_size=5).filter(
        lambda channels: set(channels) - {"t"}),
    "figure_csvs": st.booleans(),
})


@given(mix=mix_sections(), zip_load=st.none() | zip_sections(),
       elec=st.none() | elec_sections(), integrator=integrator_sections,
       outputs=outputs_sections)
def test_config_round_trip(mix, zip_load, elec, integrator, outputs):
    doc = {"mix": mix, "disturbance": {"type": "constant"}, "integrator": integrator,
           "outputs": outputs}
    if zip_load is not None:
        doc["zip"] = zip_load
    if elec is not None:
        doc["elec"] = elec
    normalised = parse_config(doc).to_dict()
    assert parse_config(normalised).to_dict() == normalised
    for section in ("mix", "zip", "elec", "integrator", "outputs"):
        for key, value in doc.get(section, {}).items():
            assert normalised[section][key] == value, f"{section}.{key}"


@st.composite
def trajectories(draw):
    n_rows = draw(st.integers(1, 30))
    extra = draw(st.lists(names.filter(lambda c: c != "t"), max_size=6, unique=True))
    t = sorted(draw(st.lists(st.floats(-1e300, 1e300), min_size=n_rows, max_size=n_rows,
                             unique=True)))
    columns = [t] + [draw(st.lists(finite, min_size=n_rows, max_size=n_rows)) for _ in extra]
    return Trajectory(["t", *extra], np.array(columns).T.reshape(n_rows, len(columns)))


@given(trajectories())
def test_trajectory_files_round_trip_exactly(traj):
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, bin_path = os.path.join(tmp, "traj.csv"), os.path.join(tmp, "traj.bin")
        write_csv(traj, {csv_path: None})
        write_binary(traj, bin_path)
        from_csv = read_csv(csv_path)
        from_bin = read_binary(bin_path, traj.channels)
    assert from_csv.channels == traj.channels
    assert from_csv.data.tobytes() == traj.data.tobytes()  # also tells -0.0 from 0.0
    assert from_bin.data.tobytes() == traj.data.tobytes()



def per_row_csv(traj, channels=None) -> bytes:
    """What write_csv must write: a header, then every row formatted on its own."""
    names = traj.channels if channels is None else ["t", *channels]
    fmt = ",".join(["%.17g"] * len(names)) + "\n"
    rows = traj.data[:, [traj.channels.index(c) for c in names]].tolist()
    return (",".join(names) + "\n" + "".join(fmt % tuple(row) for row in rows)).encode()


def written_csvs(traj, subsets) -> list[bytes]:
    """The files one write_csv call writes, one per channel subset (None: every channel)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"traj{k}.csv") for k in range(len(subsets))]
        write_csv(traj, dict(zip(paths, subsets)))
        texts = []
        for path in paths:
            with open(path, "rb") as fh:
                texts.append(fh.read())
        return texts


@st.composite
def repeating_trajectories(draw):
    """Trajectories whose rows after t often repeat the row above, or differ from it
    only in one value or in the signs of its zeros."""
    extra = draw(st.lists(names.filter(lambda c: c != "t"), max_size=4, unique=True))
    value = st.sampled_from([0.0, -0.0]) | finite
    row = st.lists(value, min_size=len(extra), max_size=len(extra))
    rows = [draw(row)]
    for _ in range(draw(st.integers(0, 40))):
        step = draw(st.sampled_from(["repeat", "repeat", "flip zeros", "one value", "new"]))
        rows.append(draw(row) if step == "new" else
                    [-x if x == 0.0 and step == "flip zeros" else x for x in rows[-1]])
        if step == "one value" and extra:
            rows[-1][draw(st.integers(0, len(extra) - 1))] = draw(value)
    t = np.cumsum(draw(st.lists(st.floats(1e-3, 1.0), min_size=len(rows), max_size=len(rows))))
    return Trajectory(["t", *extra],
                      np.column_stack([t, np.array(rows).reshape(len(rows), len(extra))]))


@given(repeating_trajectories(), st.data(), st.integers(1, 5))
def test_write_csv_matches_per_row_formatting(traj, data, block_rows):
    extra = traj.channels[1:]
    subset = st.none() | (st.lists(st.sampled_from(extra), unique=True) if extra else st.just([]))
    subsets = data.draw(st.lists(subset, min_size=1, max_size=4))  # the files of one call
    with mock.patch("clm_sim.sim.STEP_BLOCK", block_rows):  # cells repeat across blocks
        texts = written_csvs(traj, subsets)
    for channels, text in zip(subsets, texts):
        assert text == per_row_csv(traj, channels)


@pytest.mark.parametrize("channels", [None, ["b"], []])
def test_write_csv_reuse_across_a_block_boundary(channels):
    n = STEP_BLOCK
    a = np.arange(2 * n + 1) * 0.25
    a[n] = a[n - 1]  # a's first cell in the second block repeats the first block's last
    b = np.where(np.arange(2 * n + 1) % 2, -0.0, 0.0)  # b flips between 0.0 and -0.0
    traj = Trajectory(["t", "a", "b"], np.column_stack([np.arange(2 * n + 1) * 1e-3, a, b]))
    expected = per_row_csv(traj, channels)
    assert written_csvs(traj, [channels]) == [expected]
    assert expected.count(b",-0\n") == (0 if channels == [] else n)
    both = per_row_csv(traj, ["a"]).split(b"\n")[n:n + 2]  # rows n - 1 and n
    assert [line.split(b",")[1] for line in both] == [b"%.17g" % a[n]] * 2


def per_line_table(path):
    """The per-line CSV parse that defines read_table's accepted inputs and errors."""
    header, rows, linenos, width = None, [], [], None
    with open(path, "r", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if width is None:
                width = len(parts)
                try:
                    float(parts[0])
                except ValueError:
                    header = parts
                    continue
            elif len(parts) != width:
                raise FileFormatError(f"{path}:{lineno}: expected {width} fields, got {len(parts)}")
            try:
                rows.append(list(map(float, parts)))
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: {exc}") from None
            linenos.append(lineno)
    if width is None:
        raise FileFormatError(f"{path}: empty file")
    data = np.array(rows).reshape(len(rows), width)
    bad = ~np.isfinite(data)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise FileFormatError(f"{path}:{linenos[i]}: non-finite value {data[i, j]} "
                              f"in field {j + 1}")
    return header, data


# Fields the bulk parse may read differently from float(), or not at all.
ODD_FIELDS = ["-0.0", "5e-324", "2.2250738585072014e-308", "1e-400", "1e309", "-1e309",
              "nan", "inf", "-inf", "1_0", "\u0663", "\u0661.\u0665", "+.5", "1.", " 7 ",
              "\t8", "0x10", "", "x"]
ODD_LINES = ["", "  ", "\t", "1,2,", ","]


@st.composite
def table_texts(draw):
    """CSV text: mostly well-formed tables of printed doubles, with a few odd edits."""
    width = draw(st.integers(1, 4))
    style = draw(st.sampled_from(["%r", "%.17g", "%.6g"]))
    cell = st.floats(allow_nan=False, allow_infinity=False).map(lambda x: style % x)
    rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width), max_size=8))
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["field", "field", "line", "ragged", "trailing comma"]))
        if not lines or edit == "line":
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(ODD_LINES)))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split(",")
        if edit == "field":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(ODD_FIELDS))
        elif edit == "ragged":
            fields = fields[:-1] if len(fields) > 1 and draw(st.booleans()) else fields + ["1"]
        else:
            fields.append("")
        lines[i] = ",".join(fields)
    if draw(st.booleans()):
        n_names = draw(st.sampled_from([width, width, width, width - 1 or 1, width + 1]))
        lines.insert(0, ",".join(draw(st.sampled_from(["t", "x.P", " V "]))
                                 for _ in range(n_names)))
    if draw(st.booleans()):
        lines = [" " + line.replace(",", " , ") for line in lines]  # padded fields
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(max_examples=300)
@given(table_texts())
def test_read_table_matches_per_line_parse(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        try:
            expected = per_line_table(path)
        except FileFormatError as exc:
            with pytest.raises(FileFormatError) as exc_info:
                read_table(path)
            assert str(exc_info.value) == str(exc)
            return
        header, data = read_table(path)
    assert header == expected[0]
    assert data.dtype == expected[1].dtype and data.shape == expected[1].shape
    assert data.tobytes() == expected[1].tobytes()  # also tells -0.0 from 0.0
