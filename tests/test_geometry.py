import json
import math

import numpy as np
import pytest

from rydmis import (
    AtomArray,
    PhysicalParams,
    blockade_graph,
    builtin_instance,
    from_mhz,
    generate_kpxp_chain,
    to_mhz,
)
from rydmis.geometry import STOCK_MHZ

from oracles import oracle_edges


def test_builtin_coordinate_spot_checks():
    q10 = builtin_instance("Q1D_10")
    assert q10.n == 10
    assert q10.positions[0] == (6.93, 8.00)
    assert q10.positions[-1] == (34.64, 0.00)

    td = builtin_instance("TD_25")
    assert td.n == 25
    assert td.positions[0] == (27.71, 4.00)
    assert td.positions[24] == (27.71, 36.00)

    th = builtin_instance("TH_37")
    assert th.n == 37
    assert th.positions[0] == (20.78, 0.00)
    assert th.positions[36] == (20.78, 48.00)

    qp = builtin_instance("Qp1D_23")
    assert qp.n == 23
    assert qp.positions[22] == (48.50, 32.00)


def test_unknown_instance_rejected():
    with pytest.raises(ValueError, match="unknown instance"):
        builtin_instance("T_99")
    with pytest.raises(ValueError):
        builtin_instance("Q1D_x")


def test_kpxp_chain_matches_published_table_as_multiset():
    gen = generate_kpxp_chain(10)
    table = builtin_instance("Q1D_10")
    unmatched = list(table.positions)
    for p in gen.positions:
        hit = min(unmatched, key=lambda q: math.dist(p, q))
        assert math.dist(p, hit) <= 0.011  # one table entry truncates 13.8564
        unmatched.remove(hit)
    assert not unmatched


def test_kpxp_chain_spine_indices():
    # the chain walk puts the middle-row spine at atoms 1, 4, 7, ...
    for n in (4, 7, 10):
        arr = generate_kpxp_chain(n)
        ys = [y for _, y in arr.positions]
        assert all(ys[i] == 4.0 for i in range(0, n, 3))


def test_kpxp_chain_preconditions():
    with pytest.raises(ValueError):
        generate_kpxp_chain(1)


def test_blockade_radius_value(params):
    # r_b = (C6/Omega)^(1/6) evaluated directly
    assert params.blockade_radius == pytest.approx(863000.0 ** (1 / 6), rel=1e-12)
    assert params.blockade_radius == pytest.approx(9.757, abs=5e-3)


def test_interaction_strength_published_value(params):
    g = blockade_graph(builtin_instance("Q1D_10"), params)
    assert to_mhz(g.u_per_edge) == pytest.approx(3.29, abs=0.01)
    # ideal-lattice chain gives exactly C6 / 8^6
    g2 = blockade_graph(generate_kpxp_chain(10), params)
    assert g2.u_per_edge == pytest.approx(params.c6 / 8.0**6, rel=1e-12)


def test_edges_match_bruteforce_oracle(params):
    for name in ("Q1D_4", "Q1D_7", "Q1D_10", "TD_25", "TH_37", "Qp1D_23"):
        arr = builtin_instance(name)
        g = blockade_graph(arr, params)
        assert set(g.edges) == oracle_edges(arr.positions, params.blockade_radius)


def test_nearest_neighbors_blockaded_next_nearest_not(params):
    for name in ("Q1D_10", "TD_25", "TH_37", "Qp1D_23"):
        arr = builtin_instance(name)
        g = blockade_graph(arr, params)
        edges = set(g.edges)
        for i in range(arr.n):
            for j in range(i + 1, arr.n):
                d = math.dist(arr.positions[i], arr.positions[j])
                if d < 8.1:
                    assert (i, j) in edges
                elif 13.0 < d < 14.0:
                    assert (i, j) not in edges


def test_graph_invariant_under_rigid_motion(params):
    rng = np.random.default_rng(7)
    arr = builtin_instance("Q1D_10")
    ref = blockade_graph(arr, params).edges
    for _ in range(5):
        theta = rng.uniform(0, 2 * np.pi)
        dx, dy = rng.uniform(-50, 50, size=2)
        c, s = np.cos(theta), np.sin(theta)
        moved = AtomArray(
            name="moved",
            positions=tuple(
                (c * x - s * y + dx, s * x + c * y + dy) for x, y in arr.positions
            ),
        )
        assert blockade_graph(moved, params).edges == ref


def test_distant_pair_has_no_edges(params):
    arr = AtomArray(name="pair", positions=((0.0, 0.0), (20.0, 0.0)))
    g = blockade_graph(arr, params)
    assert not g.edges
    assert g.u_per_edge == 0.0  # as for a single atom: no edge reads it
    with pytest.raises(ValueError, match="no edges"):
        blockade_graph(arr, params, require_mis_encoding=True)


def test_mis_encoding_requires_delta_f_below_u():
    # spacing 9 um is inside the blockade radius but pushes U below delta_f
    p = PhysicalParams.from_mhz(863000.0, 1.0, -2.5, 2.0, 5.0, 0.5)
    arr = AtomArray(name="pair", positions=((0.0, 0.0), (9.5, 0.0)))
    assert to_mhz(blockade_graph(arr, p).u_per_edge) < 2.0
    with pytest.raises(ValueError, match="delta_f < U"):
        blockade_graph(arr, p, require_mis_encoding=True)


def test_instance_json_roundtrip():
    arr = builtin_instance("Q1D_7")
    text = json.dumps({"name": arr.name, "positions_um": [list(p) for p in arr.positions]})
    assert AtomArray.from_json(json.loads(text)) == arr


def test_physical_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams.from_mhz(863000.0, -1.0, -2.5, 2.5, 5.0, 0.5)
    with pytest.raises(ValueError):
        PhysicalParams.from_mhz(863000.0, 1.0, -2.5, 2.5, 1.0, 0.5)
    with pytest.raises(ValueError):
        PhysicalParams.from_mhz(863000.0, 1.0, 2.5, 2.5, 5.0, 0.5)
    for bad in [{"c6_mhz_um6": 0.0}, {"c6_mhz_um6": -1.0},
                *({name: value} for name in STOCK_MHZ for value in (math.nan, math.inf))]:
        with pytest.raises(ValueError, match="must be (finite|positive)"):
            PhysicalParams.from_mhz(**{**STOCK_MHZ, **bad})


def test_coincident_atoms_rejected():
    with pytest.raises(ValueError, match="coincide"):
        AtomArray(name="bad", positions=((0.0, 0.0), (0.0, 0.0)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_atom_rejected(bad):
    with pytest.raises(ValueError, match="atom 2 has a non-finite coordinate"):
        AtomArray(name="bad", positions=((0.0, 0.0), (8.0, bad), (bad, 0.0)))


def test_unit_conversions():
    assert from_mhz(1.0) == pytest.approx(2 * np.pi)
    assert to_mhz(from_mhz(3.29)) == pytest.approx(3.29)
