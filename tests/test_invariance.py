"""Invariance oracles: a transform that leaves the physics alone must leave
every reported number alone.

Each case rebuilds Q1D_7 from transformed coordinates and compares the gap
minimum, the final ground and MIS populations, the hardness parameter and
the MIS size against the untransformed instance.  A new transform is one
more entry of TRANSFORMS; a new basis kind one more entry of BASES.
"""

import numpy as np
import pytest

from rydmis import (
    AtomArray,
    EvolveOptions,
    blockade_graph,
    build_basis,
    builtin_instance,
    count_isets,
    evolve,
    hamiltonian_terms,
    scan_gap,
    standard_schedule,
)

RTOL = 1e-12
RELABEL = [3, 0, 6, 2, 5, 1, 4]
ANGLE, SHIFT = 0.7, np.array([3.1, -1.7])
ROTATION = np.array([[np.cos(ANGLE), -np.sin(ANGLE)], [np.sin(ANGLE), np.cos(ANGLE)]])

# name: positions (n, 2) in um -> transformed positions
TRANSFORMS = {
    "relabel": lambda xy: xy[RELABEL],
    "rigid_motion": lambda xy: xy @ ROTATION.T + SHIFT,
}
BASES = ("full",)
Q1D_7 = np.asarray(builtin_instance("Q1D_7").positions)


def _facts(xy: np.ndarray, params, basis: str) -> dict[str, float]:
    arr = AtomArray(name="Q1D_7", positions=tuple(map(tuple, xy.tolist())))
    g = blockade_graph(arr, params, require_mis_encoding=True)
    h = hamiltonian_terms(g, build_basis(g, basis))
    sched = standard_schedule(params)
    profile = scan_gap(h, sched, store_vectors=False)
    res = evolve(h, sched, EvolveOptions(n_output=2))
    stats = count_isets(g)
    return {"t_min": profile.t_min, "g_min": profile.g_min, "p_e0": res.final_p_e0,
            "p_mis": res.final_p_mis, "hp": stats.hp, "mis_size": stats.mis_size}


@pytest.fixture(scope="module", params=BASES)
def basis(request):
    return request.param


@pytest.fixture(scope="module")
def reference(params, basis):
    """Facts of the untransformed Q1D_7, once per basis kind."""
    return _facts(Q1D_7, params, basis)


@pytest.mark.parametrize("transform", TRANSFORMS)
def test_transform_leaves_the_physics_unchanged(params, basis, reference, transform):
    got = _facts(TRANSFORMS[transform](Q1D_7), params, basis)
    assert got == pytest.approx(reference, rel=RTOL, abs=0.0)
