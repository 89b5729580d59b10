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
    "composite_fault/rk4": "f0f93380f5e64d659171d87ae197998c6b4e37269a79041cf66ac1f94092735f",
    "composite_fault/heun": "2edb3ebb7cfedc78fecdc8a897e75b3bd6a234d752a9dc564a545694a9147a0e",
    "composite_fault/euler": "11834787c4888a9747bbada8ed54ed54e0974050ab6824bcae176bb7d28b4926",
    "dera_playback/rk4": "6c85512d9b6b3b294b372a8c5d0f4c7a2b3f6e5b83352af9cc4f13c3c01b83df",
    "dera_playback/heun": "26460c9ac49339423a7aafce7b5412a998e64ea75cc7c526f18f583612fcf14b",
    "dera_playback/euler": "6cc133a2572b1a032d6f214e6d634db5cee141dd695175c4e21eded204f6daa5",
    "motor_a_playback/rk4": "fa8c35bc569f092e43ff3e1a6964355aa05434c4f82de9df9c8f56c477455511",
    "motor_a_playback/heun": "efe3d4e0449662e3d56b721ece3546d8a958e1a2ab6ddd6054db3e6f5a17d06a",
    "motor_a_playback/euler": "569e74898365a943f7d67559b73863590798ea32bf202f26b9b770df44bb4230",
}

GOLDEN_FIGURE_SHA256 = {
    "figure_motor_a.csv": "4783aa97cbc3a0d7702126b3f3f8474d7e1cee122ef068ee2e5a8a1a88927c73",
    "figure_motor_b.csv": "0d1326cda59318aaccca9ed3f9e27654d95624d7b60b4edb49b88d4a3c203494",
    "figure_motor_c.csv": "c91326c65cf67bfe20ed923aab326c186d21adc7b3e782804722b94dd6e336f7",
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
