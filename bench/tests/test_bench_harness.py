"""Tests of the benchmark harness itself, on Q1D_4 so they run in seconds."""

import json
import re
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from bench import harness, layers  # noqa: E402
from bench.tracing import Tracer  # noqa: E402
from bench.workloads import (  # noqa: E402
    Pass, Workload, build_inputs, expected_share, popcount, smoke_workloads)

rydmis = harness.import_package()
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced():
    """Every smoke workload run once traced: name -> (Pass, wall, Tracer)."""
    out = {}
    for name, workload in smoke_workloads().items():
        inputs = build_inputs(rydmis, workload.instance, seed=7)
        run, wall, error, tracer = harness.run_traced(rydmis, workload, inputs)
        assert error is None, f"{name}: {error}"
        out[name] = (run, wall, tracer)
    return out


def test_metric_names_are_valid_and_match_the_spec(traced):
    spec = _spec()
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for name in end_to_end + per_layer:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(end_to_end + per_layer)) == len(end_to_end) + len(per_layer)
    for run, wall, tracer in traced.values():
        metrics, missing = layers.layer_metrics(tracer, run.facts, wall, 0.0)
        assert not missing
        assert sorted(metrics) == sorted(per_layer)


def test_units_match_the_spec(traced):
    units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    run, wall, tracer = traced["anneal"]
    metrics, _ = layers.layer_metrics(tracer, run.facts, wall, 0.0)
    assert {k: u for k, (_, u) in metrics.items()} == units


def test_every_wrapper_is_exercised_and_then_removed(traced):
    seen = set()
    for _, _, tracer in traced.values():
        assert not tracer.missing
        seen |= {s.name for s in tracer.spans} | {k for k, v in tracer.hot.items() if v.calls}
    assert {w.name for w in layers.WRAPS} <= seen
    # the tracer put every original back
    assert rydmis.dynamics.eigenpairs_lowest2 is rydmis.spectrum.eigenpairs_lowest2
    assert rydmis.dynamics.assemble is rydmis.hamiltonian.assemble
    assert not hasattr(rydmis.HamiltonianTerms.matvec, "__wrapped__")
    assert not hasattr(rydmis.PulseSchedule.omega, "__wrapped__")
    assert not hasattr(rydmis.measurement.classify_bitstring, "__wrapped__")


def test_spans_nest_and_self_times_are_nonnegative(traced):
    for run, wall, tracer in traced.values():
        spans = tracer.spans
        assert spans[0].name == "workload" and spans[0].parent is None
        for s in spans:
            assert s.duration >= 0 and s.self_s >= -1e-9, s.name
            if s.parent is not None:
                parent = spans[s.parent]
                assert parent.start <= s.start and s.end <= parent.end, s.name
        self_s = layers.layer_self_times(tracer)
        assert all(v >= 0 for v in self_s.values())
        assert sum(self_s.values()) <= wall + 1e-6


def test_ground_projections_are_eigensolves_under_evolve(traced):
    run, wall, tracer = traced["anneal"]
    metrics, _ = layers.layer_metrics(tracer, run.facts, wall, 0.0)
    assert metrics["spectrum.ground_proj_calls"][0] == metrics["spectrum.eig_calls"][0] > 0
    assert (metrics["dynamics.matvecs.standard"][0] + metrics["dynamics.matvecs.transfer"][0]
            == metrics["hamiltonian.matvecs"][0])


def test_missing_wrap_target_reports_missing_not_zero():
    import types

    tracer = Tracer()
    tracer.wrap("dynamics.eigenpairs_lowest2", types.SimpleNamespace(), "eigenpairs_lowest2",
                "spectrum.eigenpairs_lowest2", "spectrum", hot=False)
    metrics, missing = layers.layer_metrics(tracer, {}, 1.0, 0.0)
    # the eigensolves' time would land in dynamics, the caller, so its self time goes too
    for name in ("spectrum.ground_proj_calls", "spectrum.eig_calls", "spectrum.self_s",
                 "dynamics.self_s"):
        assert name in missing and name not in metrics
    assert metrics["hamiltonian.assemble_calls"] == (0, "count")
    assert "hamiltonian.self_s" in metrics and "measurement.self_s" in metrics


def test_result_line_has_the_documented_shape(monkeypatch):
    monkeypatch.setattr(harness, "WORKLOADS", smoke_workloads())
    monkeypatch.setattr(harness, "measure_setup", lambda workload, seed: [0.5, 0.4, 0.6])
    for trace, kinds in ((False, "end_to_end"), (True, "per_layer")):
        report, result = harness.run_benchmark("scale", 3, 0.0, trace, (0.0, 0.0, 0.0))
        line = json.loads(json.dumps(result))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        expected = {m["name"] for m in _spec()[kinds]}
        assert set(line["metrics"]) == expected
        for m in line["metrics"].values():
            assert set(m) == {"value", "unit"} and isinstance(m["value"], (int, float))
        assert report["fail_frac"] == 0.0
        assert report["provenance"]["seed"] == 3
    assert result["metrics"]["trace.wall_s"]["value"] > 0


def test_failed_check_fails_the_operation():
    inputs = build_inputs(rydmis, "Q1D_4", seed=0)
    run = Pass(rydmis)
    with pytest.raises(Exception, match="check failed"):
        run.call("hamiltonian", "build_basis", inputs.graph, "full")
        run.check(False, "forced")
    assert (run.attempted, run.failed) == (1, 1)


def test_a_check_that_raises_fails_the_operation():
    def body(run, inputs):
        run.call("hamiltonian", "build_basis", inputs.graph, "full")
        run.check({}["absent"], "never reached")

    inputs = build_inputs(rydmis, "Q1D_4", seed=0)
    run, _, error = harness.run_pass(rydmis, Workload("Q1D_4", body), inputs)
    assert "KeyError" in error and (run.attempted, run.failed) == (1, 1)


def test_deferred_checks_run_after_the_clock_stops():
    def body(run, inputs):
        run.call("hamiltonian", "build_basis", inputs.graph, "full")
        run.defer(lambda: time.sleep(0.5))
        run.defer(lambda: run.check(False, "deferred"))

    inputs = build_inputs(rydmis, "Q1D_4", seed=0)
    run, wall, error = harness.run_pass(rydmis, Workload("Q1D_4", body), inputs)
    assert wall < 0.5
    assert error == "check failed: deferred" and (run.attempted, run.failed) == (1, 1)


def test_popcount_counts_set_bits():
    import numpy as np

    values = np.array([0, 1, 0b1011, (1 << 37) - 1, 1 << 36], dtype=np.int64)
    assert popcount(values, 37).tolist() == [int(v).bit_count() for v in values]


def test_expected_share_without_spam_is_the_born_weight():
    import numpy as np

    states = np.array([0b000, 0b101, 0b010], dtype=np.int64)
    probs = np.array([0.2, 0.5, 0.3])
    assert expected_share(states, probs, states[1:2], 3, 0.0, 0.0) == pytest.approx(0.5)
    # one r read as g turns 101 into 100 or 001
    flipped = expected_share(states, probs, np.array([0b100, 0b001]), 3, 0.1, 0.0)
    assert flipped == pytest.approx(0.5 * 2 * 0.1 * 0.9)
