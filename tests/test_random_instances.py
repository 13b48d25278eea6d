"""Random small instances against brute force over all 2^n configurations.

Layouts of up to 8 atoms on a 0.5 um grid in a 20 um square: with the
default blockade radius of about 9.8 um they range from edgeless to
dense graphs.  The references read each configuration as its bitstring
(atom i+1 is character i) and test every edge of the graph's own edge
set, so they share no code with the census or the classifier.

The solver oracles build the dense full-basis H at (omega0, delta_f)
from one ``matvec`` per basis vector and compare the two Krylov solvers
with LAPACK and scipy on it.  A pair 1 um apart puts its doubly excited
states some 5e6 rad/us above the ground state: a stiff spectrum, on
which the restarted Lanczos needs its grown basis (``krylov.GROWN_BASIS``).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from rydmis import (
    AtomArray,
    assemble,
    blockade_graph,
    build_basis,
    classify_bitstring,
    count_isets,
    hamiltonian_terms,
    krylov,
)

RANDOM = settings(derandomize=True, database=None, max_examples=120, deadline=None)
# lowest_eigenpairs stops at a residual of 1e-10 of the largest Ritz value, and a
# Hermitian eigenvalue lies within the residual norm of its Ritz value
EIG_RTOL = 1e-9  # of ||H||_2, on eigenvalues and on residuals ||H v - theta v||
EXPM_TOL = 2e-10  # evolve's Krylov tolerance at the default local_tol; ||v|| = 1
EXPM_NORM_TAUS = (3.0, 100.0)  # tau ||H||_2; at 100 the larger layouts split the interval

layouts = st.integers(2, 8).flatmap(lambda n: st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=n, max_size=n, unique=True,
)).map(lambda grid: AtomArray("random", tuple((0.5 * x, 0.5 * y) for x, y in grid)))


def _members(config: int, n: int) -> list[int]:
    bits = format(config, f"0{n}b")
    return [v for v in range(n) if bits[v] == "1"]


def _independent(config: int, g) -> bool:
    members = set(_members(config, g.n))
    return not any(u in members and v in members for u, v in g.edges)


@RANDOM
@given(layouts)
def test_census_matches_brute_force(params, arr):
    g = blockade_graph(arr, params)
    sets = [c for c in range(1 << g.n) if _independent(c, g)]
    sizes = [len(_members(c, g.n)) for c in sets]
    m = max(sizes)
    r = {k: sizes.count(k) for k in range(m + 1)}
    stats = count_isets(g)
    assert stats.r == r
    assert stats.mis_size == m
    assert stats.mis_configs.tolist() == [c for c, k in zip(sets, sizes) if k == m]
    assert stats.hp == (r[m - 1] / (m * r[m]) if m >= 1 else 0.0)


@RANDOM
@given(layouts)
def test_classification_matches_per_bitstring_reference(params, arr):
    g = blockade_graph(arr, params)
    configs = np.arange(1 << g.n)
    got = classify_bitstring(g, configs, count_isets(g))
    independent = [_independent(c, g) for c in configs.tolist()]
    sizes = [len(_members(c, g.n)) for c in configs.tolist()]
    m = max(k for i, k in zip(independent, sizes) if i)
    assert got["is_independent"].tolist() == independent
    assert got["is_mis"].tolist() == [i and k == m for i, k in zip(independent, sizes)]
    assert got["is_mis_minus_1"].tolist() == [i and k == m - 1
                                              for i, k in zip(independent, sizes)]


def _dense(params, arr):
    """The full-basis terms of arr and their dense H at (omega0, delta_f)."""
    g = blockade_graph(arr, params)
    h = hamiltonian_terms(g, build_basis(g, "full"))
    return h, np.column_stack([h.matvec(params.omega0, params.delta_f, e)
                               for e in np.eye(h.dim)])


@RANDOM
@given(layouts)
def test_lowest_eigenpairs_match_dense_eigh(params, arr):
    h, dense = _dense(params, arr)
    lam = np.linalg.eigvalsh(dense)
    norm = np.abs(lam).max()
    op = assemble(h, params.omega0, params.delta_f)
    vals, vecs = krylov.lowest_eigenpairs(op.__matmul__, h.dim, 2)
    assert np.abs(vals - lam[:2]).max() <= EIG_RTOL * norm
    for theta, v in zip(vals, vecs):
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert np.linalg.norm(dense @ v - theta * v) <= EIG_RTOL * norm
    assert abs(vecs[0] @ vecs[1]) <= 1e-12


@RANDOM
@given(layouts)
def test_expm_lanczos_matches_scipy_expm(params, arr):
    h, dense = _dense(params, arr)
    norm = np.abs(np.linalg.eigvalsh(dense)).max()
    rng = np.random.default_rng(h.dim)
    v = rng.standard_normal(h.dim) + 1j * rng.standard_normal(h.dim)
    v /= np.linalg.norm(v)
    for norm_tau in EXPM_NORM_TAUS:
        tau = norm_tau / norm
        got = krylov.expm_lanczos(lambda x: h.matvec(params.omega0, params.delta_f, x), v,
                                  tau, EXPM_TOL)
        assert np.linalg.norm(got - expm(-1j * tau * dense) @ v) <= EXPM_TOL
