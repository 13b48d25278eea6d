import time

import pytest

from rydmis import (
    EvolveOptions,
    PhysicalParams,
    adglb_schedule,
    blockade_graph,
    build_basis,
    builtin_instance,
    evolve,
    hamiltonian_terms,
    scan_gap,
    standard_schedule,
)


@pytest.fixture(scope="session")
def timings():
    """Wall-clock records for the runtime-bounded acceptance criteria."""
    return {}


@pytest.fixture(scope="session")
def params():
    return PhysicalParams.default()


@pytest.fixture(scope="session")
def q1d10(params):
    """Q1D_10 graph and full-basis Hamiltonian with vdW tails."""
    arr = builtin_instance("Q1D_10")
    g = blockade_graph(arr, params, require_mis_encoding=True)
    h = hamiltonian_terms(g, build_basis(g, "full"))
    return arr, g, h


@pytest.fixture(scope="session")
def q1d10_profile(params, q1d10, timings):
    """Standard-schedule gap profile of Q1D_10, eigenvectors stored."""
    _, _, h = q1d10
    t0 = time.time()
    profile = scan_gap(h, standard_schedule(params), n_samples=200)
    timings["gap_scan"] = time.time() - t0
    return profile


@pytest.fixture(scope="session")
def q1d10_evolutions(params, q1d10, q1d10_profile, timings):
    """The five published evolution runs (standard + four gap-guided)."""
    _, _, h = q1d10
    opts = EvolveOptions(n_output=2)
    t0 = time.time()
    runs = {"standard": evolve(h, standard_schedule(params), opts)}
    for j in (1.0, 1.5, 1.8, 2.0):
        sched = adglb_schedule(params, q1d10_profile, j)
        runs[j] = evolve(h, sched, opts)
    timings["five_evolutions"] = time.time() - t0
    return runs
