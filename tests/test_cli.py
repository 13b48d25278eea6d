import json
import random

import pytest

from rydmis.cli import main, verify_manifest


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    code = main(["pipeline", "--instance", "Q1D_4", "--method", "adglb", "--samples", "20",
                 "--shots", "50", "--out-dir", str(out)])
    assert code == 0
    return out


def _sample(state_path, out_path) -> int:
    return main(["sample", "--state", str(state_path), "--shots", "100", "--spam",
                 "--seed", "3", "--instance", "Q1D_4", "--out", str(out_path)])


def test_pipeline_writes_a_verifiable_manifest(pipeline_dir):
    assert verify_manifest(pipeline_dir)
    manifest = json.loads((pipeline_dir / "manifest.json").read_text())
    assert set(manifest["runs"][0]["artifacts"]) == {
        "gap_csv", "schedule_json", "evolution_csv", "state_json", "histogram_json"}


def test_sample_from_the_pipeline_state(pipeline_dir, tmp_path):
    out = tmp_path / "shots.json"
    assert _sample(pipeline_dir / "state.json", out) == 0
    payload = json.loads(out.read_text())
    assert sum(payload["counts"].values()) == 100
    assert payload["report"]["p_mis"] == payload["p_mis"]


def test_shuffled_state_file_samples_the_same(pipeline_dir, tmp_path):
    data = json.loads((pipeline_dir / "state.json").read_text())
    random.Random(0).shuffle(data["entries"])
    shuffled = tmp_path / "shuffled.json"
    shuffled.write_text(json.dumps(data))
    assert _sample(pipeline_dir / "state.json", tmp_path / "a.json") == 0
    assert _sample(shuffled, tmp_path / "b.json") == 0
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()


@pytest.mark.parametrize("defect", ["duplicate", "length", "non_binary"])
def test_malformed_state_file_exits_1(pipeline_dir, tmp_path, capsys, defect):
    data = json.loads((pipeline_dir / "state.json").read_text())
    entries = data["entries"]
    if defect == "duplicate":
        # split one amplitude over two entries, so the norm stays 1
        half = {**entries[0], "re": entries[0]["re"] / 2**0.5, "im": entries[0]["im"] / 2**0.5}
        entries[0] = half
        entries.append(dict(half))
    elif defect == "length":
        entries[1]["bits"] += "0"
    else:
        entries[1]["bits"] = "2" + entries[1]["bits"][1:]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert _sample(bad, tmp_path / "out.json") == 1
    message = {"duplicate": "more than once", "length": "length", "non_binary": "0 and 1"}
    assert message[defect] in capsys.readouterr().err
