"""Invariance oracles: a transform that leaves the physics alone must leave
every reported number alone.

Each case rebuilds Q1D_7 from transformed coordinates and parameters and
compares the gap minimum, the final ground and MIS populations, the
hardness parameter and the MIS size against the untransformed instance.
Times are read in units of T and gaps in units of 1/T, so a time rescale
leaves them alone too.  A new transform is one more entry of TRANSFORMS;
a new basis kind one more entry of BASES.
"""

import numpy as np
import pytest

from rydmis import (
    AtomArray,
    EvolveOptions,
    PhysicalParams,
    blockade_graph,
    build_basis,
    builtin_instance,
    count_isets,
    evolve,
    hamiltonian_terms,
    scan_gap,
    standard_schedule,
)
from rydmis.geometry import STOCK_MHZ

RTOL = 1e-12
RELABEL = [3, 0, 6, 2, 5, 1, 4]
ANGLE, SHIFT = 0.7, np.array([3.1, -1.7])
ROTATION = np.array([[np.cos(ANGLE), -np.sin(ANGLE)], [np.sin(ANGLE), np.cos(ANGLE)]])
SCALE = 1.5


def _rescale_time(lam):
    """The transform that multiplies t_r and T by lam and divides every
    frequency, C6 too, by lam."""
    times = ("total_time_us", "ramp_time_us")
    return lambda xy, mhz: (xy, {k: v * lam if k in times else v / lam for k, v in mhz.items()})


# name: (positions (n, 2) in um, PhysicalParams.from_mhz keywords) -> transformed pair
TRANSFORMS = {
    "relabel": lambda xy, mhz: (xy[RELABEL], mhz),
    "rigid_motion": lambda xy, mhz: (xy @ ROTATION.T + SHIFT, mhz),
    "joint_scale": lambda xy, mhz: (SCALE * xy,
                                    {**mhz, "c6_mhz_um6": SCALE**6 * mhz["c6_mhz_um6"]}),
    "time_rescale": _rescale_time(0.5),
    "time_rescale_x2": _rescale_time(2.0),
}
BASES = ("full",)
Q1D_7 = np.asarray(builtin_instance("Q1D_7").positions)


def _facts(xy: np.ndarray, mhz: dict, basis: str) -> dict[str, float]:
    params = PhysicalParams.from_mhz(**mhz)
    arr = AtomArray(name="Q1D_7", positions=tuple(map(tuple, xy.tolist())))
    g = blockade_graph(arr, params, require_mis_encoding=True)
    h = hamiltonian_terms(g, build_basis(g, basis))
    sched = standard_schedule(params)
    profile = scan_gap(h, sched, store_vectors=False)
    res = evolve(h, sched, EvolveOptions(n_output=2))
    stats = count_isets(g)
    t_end = params.total_time
    return {"t_min": profile.t_min / t_end, "g_min": profile.g_min * t_end,
            "p_e0": res.final_p_e0, "p_mis": res.final_p_mis, "hp": stats.hp,
            "mis_size": stats.mis_size}


@pytest.fixture(scope="module", params=BASES)
def basis(request):
    return request.param


@pytest.fixture(scope="module")
def reference(basis):
    """Facts of the untransformed Q1D_7, once per basis kind."""
    return _facts(Q1D_7, STOCK_MHZ, basis)


@pytest.mark.parametrize("transform", TRANSFORMS)
def test_transform_leaves_the_physics_unchanged(basis, reference, transform):
    got = _facts(*TRANSFORMS[transform](Q1D_7, STOCK_MHZ), basis)
    assert got == pytest.approx(reference, rel=RTOL, abs=0.0)
