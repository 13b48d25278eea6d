import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("cli_pairs", ROOT / "tools" / "cli_pairs.py")
cli_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_pairs)


def test_two_pairs_of_one_tree_alternate_and_agree(tmp_path):
    src, report = str(ROOT / "src"), tmp_path / "p.json"
    argv = [src, src, "--pairs", "2", "--json", str(report), "--", "isets", "--instance", "Q1D_4"]
    assert cli_pairs.main(argv) == 0
    data = json.loads(report.read_text())
    runs = data["runs"]
    assert len(runs) == 4 and all(run["exit_code"] == 0 for run in runs)
    first = {run["pair"]: run["side"] for run in runs if run["first"]}
    assert first == {1: "old", 2: "new"}
    assert data["identical"] is True
    assert all({"median_s", "iqr_s"} <= set(data["summary"][side]) for side in ("old", "new"))
