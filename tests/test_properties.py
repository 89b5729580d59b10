"""Property tests: config documents and trajectory files round-trip exactly."""

import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from clm_sim.config import parse_config  # noqa: E402
from clm_sim.sim import (  # noqa: E402
    INTEGRATION_METHODS,
    Trajectory,
    read_binary,
    read_csv,
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
})

outputs_sections = st.fixed_dictionaries({}, optional={
    "out_dir": names,
    "trajectory_csv": names,
    "summary_json": names,
    "binary": st.none() | names,
    "channels": st.none() | st.lists(names, max_size=5),
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
        write_csv(traj, csv_path)
        write_binary(traj, bin_path)
        from_csv = read_csv(csv_path)
        from_bin = read_binary(bin_path, traj.channels)
    assert from_csv.channels == traj.channels
    assert from_csv.data.tobytes() == traj.data.tobytes()  # also tells -0.0 from 0.0
    assert from_bin.data.tobytes() == traj.data.tobytes()
