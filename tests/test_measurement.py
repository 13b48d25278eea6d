import numpy as np
import pytest

from rydmis import (
    QuantumState,
    ShotHistogram,
    SpamModel,
    blockade_graph,
    build_basis,
    builtin_instance,
    classify_bitstring,
    count_isets,
    histogram_report,
    sample_shots,
)


def _random_state(basis, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    return QuantumState(basis=basis, amplitudes=amps / np.linalg.norm(amps))


@pytest.fixture(scope="module")
def td25(params):
    g = blockade_graph(builtin_instance("TD_25"), params)
    return g, build_basis(g, "blockade")


def test_fixed_seed_reproduces_the_histogram(td25):
    g, basis = td25
    state = _random_state(basis, 0)
    first = sample_shots(state, 2000, SpamModel(), seed=5, graph=g)
    again = sample_shots(state, 2000, SpamModel(), seed=5, graph=g)
    other = sample_shots(state, 2000, SpamModel(), seed=6, graph=g)
    assert first.counts == again.counts and first.p_mis == again.p_mis
    assert first.counts != other.counts
    assert sum(first.counts.values()) == first.n_shots == 2000


def test_basis_state_without_spam_reads_itself(td25):
    g, basis = td25
    k = basis.dim // 3
    amps = np.zeros(basis.dim, dtype=complex)
    amps[k] = 1j
    hist = sample_shots(QuantumState(basis=basis, amplitudes=amps), 500, seed=1)
    assert hist.counts == {format(int(basis.states[k]), f"0{g.n}b"): 500}


@pytest.mark.parametrize("rates", [(-0.01, 0.05), (0.1, 1.2), (1.5, -2.0)])
def test_spam_model_rejects_probabilities_outside_unit_interval(rates):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        SpamModel(p_g_given_r=rates[0], p_r_given_g=rates[1])


def test_report_classes_match_per_bitstring_reference(td25):
    g, basis = td25
    stats = count_isets(g)
    hist = sample_shots(_random_state(basis, 2), 20_000, SpamModel(), seed=3, graph=g)
    report = histogram_report(hist, g)

    want = dict.fromkeys(("mis", "mis_minus_1", "other_independent", "non_independent"), 0)
    for bits, cnt in hist.counts.items():
        c = classify_bitstring(g, bits, stats)
        if not c["is_independent"]:
            want["non_independent"] += cnt
        elif c["is_mis"]:
            want["mis"] += cnt
        elif c["is_mis_minus_1"]:
            want["mis_minus_1"] += cnt
        else:
            want["other_independent"] += cnt
    assert report["class_counts"] == want
    assert want["non_independent"] > 0 and want["mis_minus_1"] > 0
    assert hist.p_mis == report["p_mis"]
    assert hist.p_mis_minus_1 == report["p_mis_minus_1"]
    bars = [(b["bits"], b["probability"]) for b in report["bars_mis_minus_1"]]
    assert bars == sorted(bars, key=lambda item: (-item[1], item[0]))
    assert sum(p for _, p in bars) == pytest.approx(want["mis_minus_1"] / hist.n_shots)


def test_report_rejects_malformed_bitstrings(td25):
    g, basis = td25
    hist = sample_shots(_random_state(basis, 4), 100, seed=0)
    bad = dict(hist.counts)
    bad["2" + "0" * (g.n - 1)] = 1
    with pytest.raises(ValueError, match="only 0 and 1"):
        histogram_report(ShotHistogram(counts=bad, n_shots=101, n_atoms=g.n, seed=0), g)
    short = {"0" * (g.n - 1): 1}
    with pytest.raises(ValueError, match="length"):
        histogram_report(ShotHistogram(counts=short, n_shots=1, n_atoms=g.n, seed=0), g)
