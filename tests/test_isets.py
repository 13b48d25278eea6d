import numpy as np
import pytest

import rydmis.isets
from rydmis import (
    AtomArray,
    BlockadeGraph,
    DimensionLimitError,
    EvolveOptions,
    blockade_graph,
    build_basis,
    builtin_instance,
    classify_bitstring,
    count_isets,
    evolve,
    generate_kpxp_chain,
    hamiltonian_terms,
    mis_projector_support,
    standard_schedule,
)
from rydmis.configs import bits_to_configs, configs_to_bits

from oracles import oracle_iset_counts, oracle_mis_bitstrings


def _pair_graph(params):
    arr = AtomArray(name="pair", positions=((0.0, 0.0), (5.0, 0.0)))
    return blockade_graph(arr, params)


def test_blockaded_pair_census(params):
    stats = count_isets(_pair_graph(params))
    assert stats.mis_size == 1
    assert stats.r == {0: 1, 1: 2}
    assert stats.hp == pytest.approx(0.5)
    assert configs_to_bits(stats.mis_configs, 2) == ["01", "10"]


def test_triangle_projector_support(params):
    arr = AtomArray(name="k3", positions=((0.0, 0.0), (6.0, 0.0), (3.0, 5.0)))
    g = blockade_graph(arr, params)
    assert len(g.edges) == 3
    stats = count_isets(g)
    assert stats.mis_size == 1
    assert mis_projector_support(g, stats) == ("001", "010", "100")


def test_counts_match_bruteforce_oracle(params):
    for name in ("Q1D_4", "Q1D_7", "Q1D_10", "Q1D_13", "Q1D_16"):
        arr = builtin_instance(name)
        stats = count_isets(blockade_graph(arr, params))
        oracle = oracle_iset_counts(arr.positions, params.blockade_radius)
        assert stats.r == oracle, name


def test_counts_match_oracle_on_random_scatters(params):
    rng = np.random.default_rng(11)
    for trial in range(6):
        n = int(rng.integers(6, 13))
        pos = tuple(
            (float(x), float(y)) for x, y in rng.uniform(0, 30, size=(n, 2))
        )
        arr = AtomArray(name=f"rand{trial}", positions=pos)
        g = blockade_graph(arr, params)
        assert count_isets(g).r == oracle_iset_counts(pos, params.blockade_radius)
        assert list(mis_projector_support(g)) == oracle_mis_bitstrings(
            pos, params.blockade_radius
        )


def test_hp_identity_recoverable_from_counts(params):
    for name in ("Q1D_10", "TD_25", "Qp1D_23"):
        stats = count_isets(blockade_graph(builtin_instance(name), params))
        m = stats.mis_size
        assert stats.hp == pytest.approx(stats.r[m - 1] / (m * stats.r[m]))
        assert stats.r[0] == 1
        assert stats.r[1] == builtin_instance(name).n


def test_published_hardness_values(params):
    expected = {
        "Q1D_4": 2.0,
        "Q1D_7": 11 / 3,
        "Q1D_10": 6.5,
        "TD_25": 111 / 18,
        "TH_37": 70 / 13,
        "Qp1D_23": 308 / 9,
    }
    for name, hp in expected.items():
        stats = count_isets(blockade_graph(builtin_instance(name), params))
        assert stats.hp == pytest.approx(hp, abs=1e-12), name


def test_adding_edge_never_increases_counts(params):
    rng = np.random.default_rng(3)
    for trial in range(5):
        n = int(rng.integers(5, 10))
        pos = tuple((float(x), float(y)) for x, y in rng.uniform(0, 25, size=(n, 2)))
        g = blockade_graph(AtomArray(name="g", positions=pos), params)
        non_edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if (i, j) not in g.edges
        ]
        if not non_edges:
            continue
        extra = non_edges[int(rng.integers(len(non_edges)))]
        g2 = BlockadeGraph(n=n, edges=g.edges | {extra}, u_per_edge=g.u_per_edge)
        r1, r2 = count_isets(g).r, count_isets(g2).r
        for k, v in r2.items():
            assert v <= r1.get(k, 0)


def test_classify_bitstrings_on_n7_chain(params):
    g = blockade_graph(generate_kpxp_chain(7), params)
    stats = count_isets(g)
    c = classify_bitstring(g, bits_to_configs(["1001001", "0000000", "1100000"], g.n), stats)
    assert {k: v.tolist() for k, v in c.items()} == {
        "is_independent": [True, True, False],
        "is_mis": [True, False, False],
        "is_mis_minus_1": [False, False, False],
    }


def test_n7_mis_is_rggrggr(params):
    g = blockade_graph(generate_kpxp_chain(7), params)
    assert mis_projector_support(g) == ("1001001",)


def test_projector_support_matches_oracle(params):
    for name in ("Q1D_7", "Q1D_10"):
        arr = builtin_instance(name)
        g = blockade_graph(arr, params)
        assert list(mis_projector_support(g)) == oracle_mis_bitstrings(
            arr.positions, params.blockade_radius
        )


def test_census_guard(params, monkeypatch):
    g = blockade_graph(builtin_instance("TD_25"), params)
    monkeypatch.setattr(rydmis.isets, "BLOCKADE_BASIS_MAX_STATES", 13_321)
    with pytest.raises(DimensionLimitError, match="13321-state guard"):
        count_isets(g)
    monkeypatch.setattr(rydmis.isets, "BLOCKADE_BASIS_MAX_STATES", 13_322)
    assert sum(count_isets(g).r.values()) == 13_322


def test_mis_retention_cap(params):
    # eight far-separated blockaded pairs: 2^8 = 256 maximum independent sets
    pos = []
    for k in range(8):
        pos += [(100.0 * k, 0.0), (100.0 * k + 5.0, 0.0)]
    g = blockade_graph(AtomArray(name="pairs", positions=tuple(pos)), params)
    stats = count_isets(g)
    assert stats.r[8] == 256
    # each pair contributes "01" or "10"; ascending configurations sort the strings
    want = sorted("".join("10"[mask >> k & 1] + "01"[mask >> k & 1] for k in range(8))
                  for mask in range(256))
    assert configs_to_bits(stats.mis_configs, g.n) == want
    assert mis_projector_support(g, stats) == tuple(want)


def test_classify_array_matches_each_bitstring(params):
    g = blockade_graph(generate_kpxp_chain(7), params)
    stats = count_isets(g)
    configs = np.arange(1 << g.n)
    arrays = classify_bitstring(g, configs, stats)
    for key, values in arrays.items():
        assert values.shape == configs.shape
        assert values.tolist() == [
            classify_bitstring(g, bits_to_configs([format(c, "07b")], g.n), stats)[key].item()
            for c in range(1 << g.n)
        ]
    # a list of bitstrings would otherwise be read as decimal integers
    for bad in (np.array([-1]), np.array([1 << g.n]), np.array([0.5]), ["1001001"]):
        with pytest.raises(ValueError, match="integers in"):
            classify_bitstring(g, bad, stats)


def _count_enumerations(monkeypatch):
    """The graphs passed to independent_configs from here on."""
    calls = []
    enumerate_all = rydmis.isets.independent_configs

    def spy(g):
        calls.append(g)
        return enumerate_all(g)

    monkeypatch.setattr(rydmis.isets, "independent_configs", spy)
    return calls


def test_projector_support_reads_the_census(params, monkeypatch):
    g = blockade_graph(builtin_instance("Q1D_10"), params)
    stats = count_isets(g)
    calls = _count_enumerations(monkeypatch)
    bits = mis_projector_support(g, stats)
    assert calls == []
    assert bits_to_configs(bits, g.n).tolist() == stats.mis_configs.tolist()


def test_evolve_enumerates_once(params, monkeypatch):
    g = blockade_graph(builtin_instance("Q1D_4"), params)
    h = hamiltonian_terms(g, build_basis(g, "full"))
    calls = _count_enumerations(monkeypatch)
    res = evolve(h, standard_schedule(params), EvolveOptions(n_output=2))
    assert len(calls) == 1
    # the MIS overlap is the population of the census's configurations
    positions = h.basis.position_of(count_isets(g).mis_configs)
    assert res.final_p_mis == pytest.approx(
        float(np.sum(np.abs(res.final_state.amplitudes[positions]) ** 2)), abs=1e-15)
