import importlib.util
from pathlib import Path

import pytest

ORACLE = Path(__file__).resolve().parents[1] / "tools" / "artifact_oracle.py"
spec = importlib.util.spec_from_file_location("artifact_oracle", ORACLE)
artifact_oracle = importlib.util.module_from_spec(spec)
spec.loader.exec_module(artifact_oracle)


@pytest.mark.parametrize("new, report", [
    ("t,p\n0,1.000000001\n1,0.5\n", "1 numeric cells differ, by at most 1.0e-09"),
    ("t,p\n0,1.0\n1,nan\n", "1 numeric cells differ, by at most inf"),
    ("t,q\n0,1.0\n1,0.25\n", "1 numeric cells differ, by at most 2.5e-01, "
                             "1 non-numeric cells differ"),
    ("t,p\n0,1.0\n", "rows or cells differ in number"),
], ids=["last_digit", "nan", "header", "rows"])
def test_differing_csv_reports_how_far_it_differs(tmp_path, new, report):
    old_path, new_path = tmp_path / "old.csv", tmp_path / "new.csv"
    old_path.write_text("t,p\n0,1.0\n1,0.5\n")
    new_path.write_text(new)
    assert artifact_oracle.compare_csv(old_path, new_path) == report


def test_a_differing_csv_still_fails(tmp_path, capsys):
    for side, value in (("old", "1.0"), ("new", "1.000000001")):
        (tmp_path / side).mkdir()
        (tmp_path / side / "a.csv").write_text(f"p\n{value}\n")
    assert not artifact_oracle.compare_trees(tmp_path / "old", tmp_path / "new")
    report = "a.csv: DIFFERENT (1 numeric cells differ, by at most 1.0e-09)"
    assert report in capsys.readouterr().out
