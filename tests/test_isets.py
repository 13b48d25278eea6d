import numpy as np
import pytest

from rydmis import (
    AtomArray,
    BlockadeGraph,
    ResourceLimitError,
    blockade_graph,
    builtin_instance,
    classify_bitstring,
    count_isets,
    generate_kpxp_chain,
    mis_projector_support,
)

from oracles import oracle_iset_counts, oracle_mis_bitstrings


def _pair_graph(params):
    arr = AtomArray(name="pair", positions=((0.0, 0.0), (5.0, 0.0)))
    return blockade_graph(arr, params)


def test_blockaded_pair_census(params):
    stats = count_isets(_pair_graph(params))
    assert stats.mis_size == 1
    assert stats.r == {0: 1, 1: 2}
    assert stats.hp == pytest.approx(0.5)
    assert stats.mis_sets == ((0,), (1,))


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
        g2 = BlockadeGraph(
            n=n, edges=g.edges | {extra}, r_b=g.r_b, u_per_edge=g.u_per_edge
        )
        r1, r2 = count_isets(g).r, count_isets(g2).r
        for k, v in r2.items():
            assert v <= r1.get(k, 0)


def test_classify_bitstrings_on_n7_chain(params):
    g = blockade_graph(generate_kpxp_chain(7, 8.0), params)
    stats = count_isets(g)
    c = classify_bitstring(g, "1001001", stats)
    assert c == {
        "is_independent": True, "size": 3, "is_mis": True, "is_mis_minus_1": False
    }
    zeros = classify_bitstring(g, "0000000", stats)
    assert zeros["is_independent"] and zeros["size"] == 0 and not zeros["is_mis"]
    adjacent = classify_bitstring(g, "1100000", stats)
    assert not adjacent["is_independent"] and not adjacent["is_mis"]
    with pytest.raises(ValueError, match="length"):
        classify_bitstring(g, "101", stats)
    with pytest.raises(ValueError):
        classify_bitstring(g, "100100x", stats)


def test_n7_mis_is_rggrggr(params):
    g = blockade_graph(generate_kpxp_chain(7, 8.0), params)
    assert mis_projector_support(g) == ("1001001",)


def test_projector_support_matches_oracle(params):
    for name in ("Q1D_7", "Q1D_10"):
        arr = builtin_instance(name)
        g = blockade_graph(arr, params)
        assert list(mis_projector_support(g)) == oracle_mis_bitstrings(
            arr.positions, params.blockade_radius
        )


def test_node_budget_enforced(params):
    g = blockade_graph(builtin_instance("TH_37"), params)
    with pytest.raises(ResourceLimitError, match="node budget"):
        count_isets(g, node_budget=10)


def test_mis_retention_cap(params):
    # eight far-separated blockaded pairs: 2^8 = 256 maximum independent sets
    pos = []
    for k in range(8):
        pos += [(100.0 * k, 0.0), (100.0 * k + 5.0, 0.0)]
    g = blockade_graph(AtomArray(name="pairs", positions=tuple(pos)), params)
    stats = count_isets(g, mis_cap=10)
    assert stats.r[8] == 256 and stats.mis_sets is None
    with pytest.raises(ResourceLimitError, match="retention cap"):
        mis_projector_support(g, stats)
    full = count_isets(g)
    assert full.mis_sets is not None and len(full.mis_sets) == 256


def test_classify_array_matches_each_bitstring(params):
    g = blockade_graph(generate_kpxp_chain(7, 8.0), params)
    stats = count_isets(g)
    configs = np.arange(1 << g.n)
    arrays = classify_bitstring(g, configs, stats)
    for key, values in arrays.items():
        assert values.shape == configs.shape
        assert values.tolist() == [
            classify_bitstring(g, format(c, "07b"), stats)[key] for c in range(1 << g.n)
        ]
    # a list of bitstrings would otherwise be read as decimal integers
    for bad in (np.array([-1]), np.array([1 << g.n]), np.array([0.5]), ["1001001"]):
        with pytest.raises(ValueError, match="integers in"):
            classify_bitstring(g, bad, stats)
