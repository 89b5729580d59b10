"""Golden outputs: the bundled scenarios' trajectory CSVs, byte for byte.

Each bundled scenario runs through `clm-sim run` under rk4, heun and euler,
and its trajectory CSV must have the SHA-256 recorded below; so must the
figure CSVs of composite_fault under rk4, which take write_csv's
channel-subset path. The tables pin the full write path (integration,
recording, CSV formatting). An intended change of the outputs updates the
tables and says why in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest
import yaml

from clm_sim.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN_CSV_SHA256 = {
    "composite_fault/rk4": "3c35717a60064ef9f2302ebfb02ba9141bb86db034e74958c4cc4a6b07141ff0",
    "composite_fault/heun": "e14786d8e9891706e7d27b428457cddbe63280dc425212a53b27c45d51c9cdce",
    "composite_fault/euler": "7320077e8821d2cf8d00caea4836d7b2bc115c268c7989a8307707497e11ba88",
    "dera_playback/rk4": "6c85512d9b6b3b294b372a8c5d0f4c7a2b3f6e5b83352af9cc4f13c3c01b83df",
    "dera_playback/heun": "26460c9ac49339423a7aafce7b5412a998e64ea75cc7c526f18f583612fcf14b",
    "dera_playback/euler": "6cc133a2572b1a032d6f214e6d634db5cee141dd695175c4e21eded204f6daa5",
    "motor_a_playback/rk4": "ab1c31d7645ba2ff84caa6a733643326dc39ab29475cdcc0087b8008a37f8d3c",
    "motor_a_playback/heun": "76a9b506887c37fde6c5fa01d427e299e2f0ed15a4e88a56c6e07624a82e949f",
    "motor_a_playback/euler": "6cf04d93b4ddf910bd554780d639407328193bbdb13a1ccbb097f4763d588912",
}

GOLDEN_FIGURE_SHA256 = {
    "figure_motor_a.csv": "b4a9373b570627e2f81e111e8fcb4577bd72fdd34fcc78c82ac29c6b7461b2a3",
    "figure_motor_b.csv": "69e89694e1e1dd08e5acb9c5990947d720364ebfb76d80599e97883a17a7eead",
    "figure_motor_c.csv": "d493de495320b69943ae6ecf721c1c49f7690c5b3b39a19cf84c026f5f28a8fd",
    "figure_dera.csv": "301d730747f3577e0d75dcc461189896e6026c264b14fff5dcac3757f0fca3b8",
    "figure_zip.csv": "b8550a9d5324ccea574cf63357bba76bef1134b30faf71eb578304268a7925f7",
    "figure_elec.csv": "7505670878584d2777bb799f5f0274740452c68f001bc096faf841f9051f8338",
}


def _run(tmp_path, run, **outputs):
    """Run a bundled scenario under a method; return its output directory and document."""
    name, method = run.split("/")
    doc = yaml.safe_load((SCENARIOS / f"{name}.yaml").read_text())
    doc["integrator"]["method"] = method
    doc["outputs"].update(outputs)
    config = tmp_path / f"{name}.yaml"
    config.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 0
    return out, doc


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("run", sorted(GOLDEN_CSV_SHA256))
def test_bundled_trajectory_csv_matches_golden_hash(tmp_path, run):
    out, doc = _run(tmp_path, run)
    assert _sha256(out / doc["outputs"]["trajectory_csv"]) == GOLDEN_CSV_SHA256[run]


def test_bundled_figure_csvs_match_golden_hashes(tmp_path):
    out, _ = _run(tmp_path, "composite_fault/rk4", figure_csvs=True)
    assert {p.name: _sha256(p) for p in out.glob("figure_*.csv")} == GOLDEN_FIGURE_SHA256
