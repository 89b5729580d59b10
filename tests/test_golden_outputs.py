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
    "composite_fault/rk4": "1b14b78df72b1f5e8099fd4e36bfb6b956a84d61787f13b19ffe2b356d9d9e93",
    "composite_fault/heun": "d4644548c5305d69f55f6644043bd6b2500cb1fc33b232fc0ef53eba53e6013d",
    "composite_fault/euler": "7583e1361c85c2d805ce1bb6ea31c78b60ea34dd36272cb9329227e08e5c8bdd",
    "dera_playback/rk4": "e3e43426e27585981850479c97603df4d1fd23341e6e73b25d7d9f5ace2213ed",
    "dera_playback/heun": "76e5eac01904d9ac39898599a946d25f2fff77ede8b99fe3a0d0f99a6b9473b5",
    "dera_playback/euler": "aeb280e1e2f397239025c1a10029472664239404515914d0203fb4dcea8e018e",
    "motor_a_playback/rk4": "ab8c2bff7dfb879516abb7dac25775386b29627338edf03cdd20ed08ac730565",
    "motor_a_playback/heun": "4aad4b07404ff6e1e352232e0e4b321c940f7e24bb5f99cce5bb3cab7d5fd368",
    "motor_a_playback/euler": "b6dc4b457e8d34c45033aad713c48806e4ab387bdce9f3304b87df221aac2663",
}

GOLDEN_FIGURE_SHA256 = {
    "figure_motor_a.csv": "64fd649042f329fb4c796159c9569e10c9ef0ae0f69d30fb13256d2f0629ef08",
    "figure_motor_b.csv": "633729ed025397abdf6831e81fb87fe9576bab4aceeab2e1184c18aaf02d25f4",
    "figure_motor_c.csv": "dc4cecdd8763284f0fd8a6736821bcfbe075e877ef85fd8038536d6ba3dc898a",
    "figure_dera.csv": "829104f3ede09e306d8d1c89724dd9591ea58d52a132253a88d07ebeb38667aa",
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
