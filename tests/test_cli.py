import csv
import hashlib
import json
import logging
import multiprocessing
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rydmis.cli
import rydmis.forks
import rydmis.isets
from rydmis import PhysicalParams, PulseSchedule, standard_schedule
from rydmis.cli import main
from rydmis.geometry import STOCK_MHZ, builtin_instance, is_builtin_name

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    code = main(["pipeline", "--instance", "Q1D_4", "--method", "adglb", "--samples", "20",
                 "--shots", "50", "--out-dir", str(out)])
    assert code == 0
    return out


def _hashes_hold(out_dir: Path) -> bool:
    """Every artifact hash that a pipeline manifest records matches its file."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return all(hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == digest
               for name, digest in manifest["hashes"].items())


def _sample(state_path, out_path, instance=("--instance", "Q1D_4")) -> int:
    return main(["sample", "--state", str(state_path), "--shots", "100", "--spam",
                 "--seed", "3", *instance, "--out", str(out_path)])


def test_pipeline_writes_a_verifiable_manifest(pipeline_dir):
    assert _hashes_hold(pipeline_dir)
    manifest = json.loads((pipeline_dir / "manifest.json").read_text())
    assert set(manifest["runs"][0]["artifacts"]) == {
        "gap_csv", "schedule_json", "evolution_csv", "state_json", "histogram_json"}


def test_sample_from_the_pipeline_state(pipeline_dir, tmp_path):
    out, bare = tmp_path / "shots.json", tmp_path / "bare.json"
    assert _sample(pipeline_dir / "state.json", out) == 0
    assert _sample(pipeline_dir / "state.json", bare, instance=()) == 0
    payload, bare_payload = json.loads(out.read_text()), json.loads(bare.read_text())
    assert sum(payload["counts"].values()) == 100
    assert payload["p_mis"] == payload["class_counts"]["mis"] / payload["n_shots"]
    assert "report" not in payload and list(payload)[-1] == "counts"
    assert list(bare_payload) == ["n_shots", "seed", "spam", "counts"]
    assert all(bare_payload[key] == payload[key] for key in bare_payload)


# pipeline file: the subcommand that writes it alone, on the pipeline_dir run's flags
STAGES = {
    "gap.csv": ["gap", "--schedule", "std", "--samples", "20"],
    "schedule.json": ["design", "--method", "adglb", "--samples", "20"],
    "evolution.csv": ["evolve", "--schedule", "adglb", "--samples", "20",
                      "--state-out", "{tmp}/state.json"],
    "histogram.json": ["sample", "--shots", "50", "--state", "{pipeline}/state.json"],
}


def test_each_stage_writes_its_pipeline_file(pipeline_dir, tmp_path, capsys):
    for name, argv in STAGES.items():
        argv = [a.format(tmp=tmp_path, pipeline=pipeline_dir) for a in argv]
        assert main([*argv, "--instance", "Q1D_4", "--out", str(tmp_path / name)]) == 0
    for name in (*STAGES, "state.json"):
        assert (tmp_path / name).read_bytes() == (pipeline_dir / name).read_bytes(), name
    capsys.readouterr()
    assert main(["isets", "--instance", "Q1D_4"]) == 0
    manifest = json.loads((pipeline_dir / "manifest.json").read_text())
    assert json.loads(capsys.readouterr().out) == manifest["instance_stats"]


def test_shuffled_state_file_samples_the_same(pipeline_dir, tmp_path):
    data = json.loads((pipeline_dir / "state.json").read_text())
    random.Random(0).shuffle(data["entries"])
    shuffled = tmp_path / "shuffled.json"
    shuffled.write_text(json.dumps(data))
    assert _sample(pipeline_dir / "state.json", tmp_path / "a.json") == 0
    assert _sample(shuffled, tmp_path / "b.json") == 0
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()


@pytest.mark.parametrize("defect", ["duplicate", "length", "non_binary", "amplitude",
                                    "null_amplitude", "bool_amplitude", "bool_n", "bits_number",
                                    "array", "too_wide", "null_kind", "cut"])
def test_malformed_state_file_exits_1(pipeline_dir, tmp_path, capsys, defect):
    data = json.loads((pipeline_dir / "state.json").read_text())
    entries = data["entries"]
    instance = ("--instance", "Q1D_4")
    if defect == "duplicate":
        # split one amplitude over two entries, so the norm stays 1
        half = {**entries[0], "re": entries[0]["re"] / 2**0.5, "im": entries[0]["im"] / 2**0.5}
        entries[0] = half
        entries.append(dict(half))
    elif defect == "length":
        entries[1]["bits"] += "0"
    elif defect == "non_binary":
        entries[1]["bits"] = "2" + entries[1]["bits"][1:]
    elif defect == "bits_number":
        entries[1]["bits"] = 5
    elif defect == "bool_amplitude":
        entries[1]["re"] = True
    elif defect == "bool_n":
        data["n"] = True
    elif defect == "array":
        data = entries
    elif defect == "null_kind":
        data["kind"] = None
    elif defect == "too_wide":
        # without a graph nothing else checks the width; int64 has 63 bits below the sign
        data = {"n": 70, "kind": "full", "entries": [{"bits": "1" + "0" * 69, "re": 1.0,
                                                      "im": 0.0}]}
        instance = ()
    elif defect in ("amplitude", "null_amplitude"):
        entries[1]["re"] = "abc" if defect == "amplitude" else None
    bad = tmp_path / "bad.json"
    text = json.dumps(data)
    bad.write_text(text[:text.index('"entries"')] if defect == "cut" else text)
    assert _sample(bad, tmp_path / "out.json", instance) == 1
    message = {"duplicate": "more than once", "length": "length", "non_binary": "0 and 1",
               "amplitude": "must be numbers", "null_amplitude": "must be numbers",
               "bool_amplitude": "must be numbers", "bool_n": "an integer 'n'",
               "bits_number": "bits must be strings", "array": "must be an object",
               "too_wide": "at most 63", "null_kind": "a string 'kind'", "cut": "Expecting"}
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and message[defect] in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("bits", ["1" + "0" * 62, "1" * 63, "0" * 62 + "1"])
def test_a_63_atom_state_file_samples_its_bits(tmp_path, bits):
    state, out = tmp_path / "state.json", tmp_path / "shots.json"
    state.write_text(json.dumps({"n": 63, "entries": [{"bits": bits, "re": 0.0, "im": 1.0}]}))
    assert main(["sample", "--state", str(state), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["counts"] == {bits: 300}


def _csv(path):
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert rows and all(len(row) == len(header) for row in rows)
    return header, rows


GAP_HEADER = ["t_us", "delta_over_2pi_MHz", "e0", "e1", "gap"]


@pytest.mark.parametrize("schedule", ["std", "adglb"])
def test_gap_writes_the_profile(tmp_path, capsys, schedule):
    out = tmp_path / "gap.csv"
    assert main(["gap", "--instance", "Q1D_4", "--schedule", schedule, "--samples", "20",
                 "--out", str(out)]) == 0
    header, rows = _csv(out)
    assert header == GAP_HEADER
    assert len(rows) in (20, 21)  # the refined minimum is inserted unless it is a sample
    assert "gap minimum: t_min =" in capsys.readouterr().out


@pytest.mark.parametrize("method", ["std", "adglb", "transfer"])
def test_design_saves_a_loadable_schedule(tmp_path, method):
    out = tmp_path / "sched.json"
    assert main(["design", "--instance", "Q1D_4", "--method", method, "--samples", "20",
                 "--out", str(out)]) == 0
    sched = PulseSchedule.from_json(json.loads(out.read_text()))
    labels = {"std": "standard", "adglb": "adglb(j=1.8)", "transfer": "transfer(nu_d_mhz=0)"}
    assert sched.kind == labels[method]
    assert sched.total_time == 5.0
    times = [p["t_us"] for p in json.loads(out.read_text())["points"]]
    assert [p["t_us"] for p in sched.to_json()["points"]] == times
    program = tmp_path / "ahs.json"
    assert main(["export-ahs", "--schedule", str(out), "--out", str(program)]) == 0
    assert json.loads(program.read_text())["detuning"]["times_s"] == [t * 1e-6 for t in times]


def test_evolve_writes_series_and_state(tmp_path):
    out, state = tmp_path / "evo.csv", tmp_path / "state.json"
    assert main(["evolve", "--instance", "Q1D_4", "--n-output", "7", "--out", str(out),
                 "--state-out", str(state)]) == 0
    header, rows = _csv(out)
    assert header == ["t_us", "p_e0", "p_leak", "mis_overlap"]
    assert len(rows) == 7 and float(rows[-1][0]) == 5.0
    data = json.loads(state.read_text())
    assert data["n"] == 4 and data["kind"] == "full"
    assert sum(e["re"] ** 2 + e["im"] ** 2 for e in data["entries"]) == pytest.approx(1.0)


@pytest.mark.parametrize("n_output", ["1", "0"])
def test_evolve_rejects_fewer_than_two_output_times(tmp_path, capsys, n_output):
    out = tmp_path / "evo.csv"
    assert main(["evolve", "--instance", "Q1D_4", "--n-output", n_output,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n_output" in err
    assert not out.exists()


def test_twolevel_writes_the_leakage_series(tmp_path):
    out = tmp_path / "two.csv"
    assert main(["twolevel", "--instance", "Q1D_4", "--samples", "20", "--out", str(out)]) == 0
    header, rows = _csv(out)
    assert header == ["t_us", "gap", "coupling", "p_e1"]
    assert len(rows) == 400 and float(rows[0][3]) == 0.0


def test_isets_prints_the_census(capsys):
    assert main(["isets", "--instance", "Q1D_7"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == 7 and out["mis_size"] == 3
    assert list(map(int, out["r"])) == list(range(out["mis_size"] + 1))


def test_a_path_named_like_a_builtin_does_not_hide_it(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "Q1D_4").mkdir()  # as `pipeline --out-dir Q1D_4` leaves behind
    (tmp_path / "Q1D_10").write_text("{}")
    for name, n in (("Q1D_4", 4), ("Q1D_10", 10)):
        assert main(["isets", "--instance", name]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == n


# the names of one rule: geometry's builtin_instance makes exactly these, and the
# CLI reads every other reference as a file path
BUILTIN = ["Q1D_10", "TD_25", "TH_37", "Qp1D_23", "Q1D_4", "Q1D_7", "Q1D_12"]
NOT_BUILTIN = ["Q1D_1_0", "Q1D_ 7", "Q1D_+7", "Q1D_07", "Q1D_-7", "Q1D_7 ", "Q1D_\u0667",
               "q1d_7", "Q1D_", "TD_25.json"]


@pytest.mark.parametrize("name", BUILTIN + NOT_BUILTIN)
def test_one_rule_names_the_builtins(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(json.dumps({"name": "file", "positions_um": [[0, 0], [8, 0]]}))
    assert is_builtin_name(name) == (name in BUILTIN)
    if name in BUILTIN:
        assert builtin_instance(name).name == name
    else:
        with pytest.raises(ValueError, match="unknown instance"):
            builtin_instance(name)
    assert main(["isets", "--instance", name]) == 0
    printed = json.loads(capsys.readouterr().out)["instance"]
    assert printed == (name if name in BUILTIN else "file")


@pytest.mark.parametrize("shape, code", [((8, 8), 1), ((7, 9), 0)], ids=["64", "63"])
def test_an_instance_holds_at_most_63_atoms(tmp_path, capsys, shape, code):
    # 1 um apart, every pair but the two far corners blockades
    grid = [[x, y] for x in range(shape[0]) for y in range(shape[1])]
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"name": "grid", "positions_um": grid}))
    assert main(["isets", "--instance", str(path)]) == code
    out, err = capsys.readouterr()
    if code:
        assert err.startswith("error:") and "at most 63" in err
    else:
        assert json.loads(out)["mis_size"] == 2


@pytest.mark.parametrize("missing", ["name", "positions_um"])
def test_instance_file_without_a_field_exits_1(tmp_path, capsys, missing):
    data = {"name": "pair", "positions_um": [[0, 0], [8, 0]]}
    del data[missing]
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(data))
    assert main(["isets", "--instance", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"no {missing!r} field" in err


@pytest.mark.parametrize("text, field", [
    ("5", "must be an object"),
    ('{"name": "x", "positions_um": 7}', "'positions_um'"),
    ('{"name": "x", "positions_um": [[0, 0, 0]]}', "'positions_um'"),
    ('{"name": "x", "positions_um": [[0, null], [8, 0]]}', "'positions_um'"),
    ('{"name": "x", "positions_um": [[true, 0], [8, 0]]}', "'positions_um'"),
    ('{"name": null, "positions_um": [[0, 0], [8, 0]]}', "'name' must be a string"),
    ('{"name": 5, "positions_um": [[0, 0], [8, 0]]}', "'name' must be a string"),
    ('{"name": "x", "positions_um": [[0, 0], [8', "Expecting ',' delimiter"),
], ids=["number", "positions_number", "position_triple", "position_null", "position_bool",
        "name_null", "name_number", "cut"])
def test_instance_file_of_the_wrong_type_exits_1(tmp_path, capsys, text, field):
    path = tmp_path / "bad.json"
    path.write_text(text)
    out = tmp_path / "run"
    assert main(["pipeline", "--instance", str(path), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith(f"error: {path}: ") and field in err
    assert not out.exists()


def test_verbose_logs_costs_to_stderr_only(tmp_path, capsys):
    argv = ["evolve", "--instance", "Q1D_4", "--n-output", "3"]
    assert main([*argv, "--out", str(tmp_path / "quiet.csv")]) == 0
    quiet = capsys.readouterr()
    assert main(["-v", *argv, "--out", str(tmp_path / "loud.csv")]) == 0
    loud = capsys.readouterr()
    assert loud.out == quiet.out.replace("quiet.csv", "loud.csv")
    assert (tmp_path / "loud.csv").read_text() == (tmp_path / "quiet.csv").read_text()
    assert "evolve dim 16" in loud.err and "convergence-check delta" in loud.err
    assert "evolve dim" not in quiet.err
    log = logging.getLogger("rydmis")
    assert log.level == logging.NOTSET and not log.handlers


def test_verbose_tags_each_line_with_its_process(tmp_path, monkeypatch, capfd):
    # the scan's odd chain runs in the forked child, whose lines reach the same stderr
    monkeypatch.setattr(rydmis.forks, "_may_fork", lambda: True)
    assert main(["-v", "gap", "--instance", "Q1D_7", "--samples", "20",
                 "--out", str(tmp_path / "gap.csv")]) == 0
    tags = {line.split(": ", 1)[0] for line in capfd.readouterr().err.splitlines()
            if "Lanczos" in line}
    assert "MainProcess" in tags and any(tag.startswith("ForkProcess-") for tag in tags)


def test_isets_above_the_guard_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(rydmis.isets, "BLOCKADE_BASIS_MAX_STATES", 13_321)
    assert main(["isets", "--instance", "TD_25"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "13321-state guard" in err


def test_export_ahs_writes_hardware_programs(tmp_path):
    sched = tmp_path / "sched.json"
    assert main(["design", "--instance", "Q1D_4", "--method", "adglb", "--samples", "20",
                 "--out", str(sched)]) == 0
    for spec in ("std", "transfer", str(sched)):
        out = tmp_path / "ahs.json"
        assert main(["export-ahs", "--schedule", spec, "--out", str(out)]) == 0
        program = json.loads(out.read_text())
        assert program and all(isinstance(key, str) for key in program)


def test_export_ahs_adglb_points_to_design(tmp_path, capsys):
    assert main(["export-ahs", "--schedule", "adglb", "--out", str(tmp_path / "a.json")]) == 1
    assert "rydmis design" in capsys.readouterr().err
    assert not (tmp_path / "a.json").exists()


def _bad_schedule(path: Path, defect: str) -> str:
    """A standard-sweep schedule file with one value set to NaN, one number set to
    a bool, one shape defect, or its text cut short."""
    data = standard_schedule(PhysicalParams.default()).to_json()
    if defect == "omega0":
        data["omega0_over_2pi_MHz"] = float("nan")
    elif defect == "omega0_bool":
        data["omega0_over_2pi_MHz"] = True
    elif defect == "t_us_bool":
        data["points"][0]["t_us"] = False
    elif defect == "piece_coefficient":
        data["points"][1]["poly_over_2pi_MHz"][0] = float("nan")
    elif defect == "array":
        data = data["points"]
    elif defect == "points_string":
        data["points"] = "abc"
    elif defect == "no_points":
        del data["points"]
    elif defect == "null_kind":
        data["kind"] = None
    elif defect == "cut":
        text = json.dumps(data)
        path.write_text(text[:text.index('"points"')])
        return str(path)
    else:  # a table value of a file without piece coefficients, NaN or missing
        for point in data["points"]:
            point.pop("poly_over_2pi_MHz", None)
        if defect == "table_value":
            data["points"][2]["delta_over_2pi_MHz"] = float("nan")
        else:
            del data["points"][2]["delta_over_2pi_MHz"]
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("command, defect, field", [
    ("design", "--j nan", "j = nan"),
    ("design", "--j inf", "j = inf"),
    ("export-ahs", "piece_coefficient", "coeffs"),
    ("export-ahs", "table_value", "coeffs"),
    ("export-ahs", "omega0", "omega0"),
    ("export-ahs", "omega0_bool", "schedule file must hold"),
    ("export-ahs", "t_us_bool", "schedule file must hold"),
    ("evolve", "piece_coefficient", "coeffs"),
    ("evolve", "omega0", "omega0"),
    ("export-ahs", "array", "must be an object"),
    ("export-ahs", "points_string", "schedule file must hold"),
    ("export-ahs", "no_points", "schedule file must hold"),
    ("export-ahs", "no_table_value", "schedule file must hold"),
    ("evolve", "no_table_value", "schedule file must hold"),
    ("export-ahs", "null_kind", "schedule file must hold"),
    ("export-ahs", "cut", "bad.json: Expecting"),
    ("evolve", "cut", "bad.json: Expecting"),
], ids=["design_j_nan", "design_j_inf", "export_coefficient", "export_table_value",
        "export_omega0", "export_omega0_bool", "export_t_us_bool", "evolve_coefficient",
        "evolve_omega0", "export_array", "export_points_string", "export_no_points",
        "export_no_table_value", "evolve_no_table_value", "export_null_kind", "export_cut",
        "evolve_cut"])
def test_non_finite_schedule_input_exits_1(tmp_path, capsys, command, defect, field):
    out = tmp_path / "out.json"
    if command == "design":
        flags = ["--instance", "Q1D_4", "--method", "adglb", "--samples", "20", *defect.split()]
    else:
        flags = ["--schedule", _bad_schedule(tmp_path / "bad.json", defect)]
        flags += ["--instance", "Q1D_4", "--n-output", "3"] if command == "evolve" else []
    assert main([command, *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith("error:") and field in err
    assert not out.exists()


@pytest.mark.parametrize("name", list(STOCK_MHZ))
def test_sample_refuses_physical_flags_without_an_instance(pipeline_dir, tmp_path, capsys,
                                                           name):
    # without a graph the shots are not classified, so the flag would change nothing
    out, flag = tmp_path / "shots.json", "--" + name.replace("_", "-")
    args = ["sample", "--state", str(pipeline_dir / "state.json"), "--out", str(out),
            flag, str(STOCK_MHZ[name])]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err and "--instance" in err
    assert not out.exists()
    assert main([*args, "--instance", "Q1D_4"]) == 0


def test_a_physical_flag_that_is_not_finite_or_positive_exits_1(pipeline_dir, tmp_path, capsys):
    # an Omega0 or C6 of NaN or C6 <= 0 used to give an edgeless graph and exit 0
    out = tmp_path / "shots.json"
    sample = ["sample", "--state", str(pipeline_dir / "state.json"), "--out", str(out)]
    for flag, value in [("--c6-mhz-um6", "nan"), ("--c6-mhz-um6", "0"), ("--c6-mhz-um6", "-1"),
                        ("--omega0-mhz", "nan")]:
        for argv in (["isets"], sample):
            assert main([*argv, "--instance", "Q1D_4", flag, value]) == 1
            printed = capsys.readouterr()
            assert printed.err.count("error:") == 1 and printed.err.startswith("error:")
            assert not printed.out and not out.exists()


@pytest.mark.parametrize("instance", [["--instance", "Q1D_4"], []],
                         ids=["with-instance", "without-instance"])
def test_sample_rejects_zero_shots(pipeline_dir, tmp_path, capsys, instance):
    out = tmp_path / "shots.json"
    code = main(["sample", "--state", str(pipeline_dir / "state.json"), "--shots", "0",
                 "--out", str(out), *instance])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "shot" in err
    assert not out.exists()


def test_reproduce_fig2(tmp_path, capsys):
    assert main(["reproduce", "--figure", "fig2", "--out-dir", str(tmp_path)]) == 0
    header, rows = _csv(tmp_path / "fig2_overlap.csv")
    assert header == ["t_us", "overlap_e0", "overlap_e1"]
    assert len(rows) in (240, 241)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3 and all(line.startswith("[PASS]") for line in printed)


@pytest.mark.parametrize("figure", ["fig1cd", "fig3a", "fig6a"])
def test_reproduce_figure_passes(figure, tmp_path, capsys):
    # scan, adglb design and evolution on Q1D_4, Q1D_7 and Q1D_10
    assert main(["reproduce", "--figure", figure, "--out-dir", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed and all(line.startswith("[PASS]") for line in printed)
    assert list(tmp_path.glob("*.csv"))


def test_j_grid_pipeline_scans_once_and_fans_out(tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"instance": "Q1D_4", "method": "adglb", "j_grid": [1.0, 2.0],
                                  "samples": 20, "n_output": 5, "shots": 20}))
    manifests = []
    # both sides of the fork rule: serial, and split with a forked child
    for fork in (False, True):
        monkeypatch.setattr(rydmis.forks, "_may_fork",
                            lambda: fork and multiprocessing.parent_process() is None)
        out = tmp_path / ("forked" if fork else "serial")
        assert main(["pipeline", "--config", str(config), "--out-dir", str(out)]) == 0
        assert _hashes_hold(out)
        assert sorted(p.name for p in out.glob("gap*.csv")) == ["gap.csv"]
        manifests.append(json.loads((out / "manifest.json").read_text()))
    assert manifests[0] == manifests[1]
    runs = manifests[0]["runs"]
    assert [r["tag"] for r in runs] == ["_j1", "_j2"]
    assert all(r["artifacts"]["gap_csv"] == "gap.csv" for r in runs)
    assert runs[0]["final_p_e0"] != runs[1]["final_p_e0"]
    # the forked children are gone
    assert multiprocessing.active_children() == []


def test_config_values_are_read_as_their_field_types(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"instance": "Q1D_4", "samples": "20", "j": "1.5",
                                  "n_output": 5, "shots": 20}))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(config), "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["samples"] == 20 and manifest["config"]["j"] == 1.5
    config.write_text(json.dumps({"instance": "Q1D_4", "samples": "twenty"}))
    assert main(["pipeline", "--config", str(config), "--out-dir", str(tmp_path / "bad")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "samples" in err


@pytest.mark.parametrize("text, message", [
    ('["instance"]', "JSON object"),
    ("5", "JSON object"),
    ('{"instance": "Q1D_4", "samples": ', "Expecting value"),
], ids=["list", "number", "cut"])
def test_config_that_is_not_an_object_exits_1(tmp_path, capsys, text, message):
    config = tmp_path / "config.json"
    config.write_text(text)
    assert main(["pipeline", "--config", str(config), "--out-dir", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ") and message in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("config, flags, field", [
    ({}, ["--shots", "0"], "shots"),
    ({}, ["--seed", "-1"], "seed"),
    ({"n_output": 1}, [], "n_output"),
    ({}, ["--j", "-1"], "j > 0"),
    ({}, ["--samples", "5"], "n_samples"),
    ({}, ["--method", "transfer", "--nu-d-mhz", "5"], "waypoint"),
    ({}, ["--instance", "NOPE"], "NOPE"),
    ({"basis": "bogus"}, [], "basis"),
    ({"basis": "bogus"}, ["--method", "std"], "basis"),
    ({"method": "std", "j_grid": [1.0, 2.0], "n_output": 5, "shots": 20}, [], "j_grid"),
    ({"j_grid": [1.0, 2.0]}, ["--method", "transfer"], "j_grid"),
    ({"method": "adglb", "j_grid": [1.0, 1.0], "n_output": 5, "shots": 20, "samples": 20}, [],
     "j_grid lists two exponents with the run tag _j1"),
    ({"j_grid": [1.0, 1.0000001]}, [], "j_grid lists two exponents with the run tag _j1"),
    ({"instance": None}, [], "config.json: config field 'instance'"),
    ({"method": True}, [], "config.json: config field 'method'"),
], ids=["shots_flag", "negative_seed", "n_output_config", "negative_j", "few_samples",
        "transfer_nu_d", "unknown_instance", "basis_config", "basis_config_std", "j_grid_std",
        "j_grid_transfer_flag", "j_grid_same_tag", "j_grid_tag_collision", "instance_null",
        "method_bool"])
def test_pipeline_that_cannot_finish_writes_nothing(tmp_path, capsys, config, flags, field):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"instance": "Q1D_4", **config}))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(path), *flags, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--method", "std", "--samples", "-3", "--shots", "5"],
    ["--method", "adglb", "--samples", "8"],
], ids=["std_negative", "adglb_8"])
def test_pipeline_rejects_too_few_samples_before_its_first_stage(tmp_path, capsys, monkeypatch,
                                                                 flags):
    monkeypatch.setattr(rydmis.cli, "blockade_graph",
                        lambda *args: pytest.fail("a stage ran before the config was checked"))
    out = tmp_path / "run"
    assert main(["pipeline", "--instance", "Q1D_4", *flags, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith("error: samples = ")
    assert "n_samples >= 16" in err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_instance_file_with_a_non_finite_atom_exits_1(tmp_path, capsys, bad):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"name": "x", "positions_um": [[0, 0], [{bad}, 0], [8, 0]]}}')
    out = tmp_path / "run"
    assert main(["pipeline", "--instance", str(path), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "atom 2 has a non-finite coordinate" in err
    assert not out.exists()


def test_pipeline_classifies_each_histogram_once(tmp_path, monkeypatch):
    calls = []
    enumerate_all = rydmis.isets.independent_configs
    monkeypatch.setattr(rydmis.isets, "independent_configs",
                        lambda g: calls.append(g) or enumerate_all(g))
    assert main(["pipeline", "--instance", "Q1D_4", "--method", "std", "--shots", "50",
                 "--out-dir", str(tmp_path / "run")]) == 0
    # the manifest's census, evolve's MIS positions and the histogram report
    assert len(calls) == 3


SUBCOMMANDS = ("isets", "gap", "design", "evolve", "twolevel", "sample", "pipeline",
               "reproduce", "export-ahs")


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_subcommand_help_exits_0(command):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "rydmis.cli", command, "--help"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"usage: rydmis {command}")


@pytest.mark.parametrize("argv", [
    ["gap", "--instance", "Q1D_4", "--basis", "bogus", "--out", "x.csv"],
    ["gap", "--out", "x.csv"],
    ["gap", "--instance", "Q1D_4", "--out", "x.csv", "--bogus"],
    ["pipeline", "--jobs", "2", "--instance", "Q1D_4", "--out-dir", "x.csv"],
], ids=["bad_choice", "missing_required", "unknown_flag", "pipeline_jobs"])
def test_usage_error_exits_1(tmp_path, argv):
    # exit 2 is kept for a missed reproduction target
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "rydmis.cli", *argv], cwd=tmp_path,
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 1
    assert proc.stderr.startswith("usage: rydmis") and "error:" in proc.stderr
    assert not (tmp_path / "x.csv").exists()
