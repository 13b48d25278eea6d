import logging
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from rydmis import (
    AtomArray,
    assemble,
    blockade_graph,
    build_basis,
    builtin_instance,
    hamiltonian_terms,
    krylov,
)

STIFF = AtomArray("stiff", ((6.0, 0.5), (15.0, 11.5), (6.5, 18.0), (16.0, 10.0),
                           (7.5, 18.0), (7.5, 10.0), (6.5, 14.0), (6.5, 2.5)))
# the 12 atoms of TD_25 nearest its centroid, test_invariance's blockade case: 160 states
TD25_PATCH = (1, 2, 4, 7, 8, 11, 12, 13, 16, 17, 20, 23)


def test_restarted_basis_stays_orthonormal(params, q1d10):
    _, _, h = q1d10
    matrix = assemble(h, params.omega0, params.delta_f)
    bases = []

    def matvec(x):
        bases.append(x.base)  # x is a row of the solver's basis
        return matrix @ x

    krylov.lowest_eigenpairs(matvec, h.dim, 2)
    assert len(bases) > krylov.MAX_BASIS  # at least one thick restart
    q = bases[-1]
    assert q.shape == (krylov.MAX_BASIS + 1, h.dim)
    assert np.linalg.norm(q @ q.conj().T - np.eye(len(q)), 2) <= 1e-12


def _checked_steps(monkeypatch, matrix, dim) -> list[tuple[str, float, float]]:
    """Solve, and pair each new basis row with the solver's bound on its overlaps.

    Returns (kind, max_i |q_i . q_(j+1)|, bound) per step whose row the next
    step reads: kind "local" where _omega_bounds set the bound, "full" where
    a full pass did, leaving ROUNDING / DGKS_RATIO.
    """
    pending, pairs = [], []
    bounds, full_pass = krylov._omega_bounds, krylov._full_pass

    def spy_bounds(omega, coupling, alphas, j, *args):
        largest = bounds(omega, coupling, alphas, j, *args)
        pending[:] = [("local", j + 1, largest)]
        return largest

    def spy_full_pass(q, w):
        out = full_pass(q, w)
        pending[:] = [("full", len(q), krylov.ROUNDING / krylov.DGKS_RATIO)]
        return out

    def matvec(x):
        base = x.base  # x is a row of the solver's basis
        row = (x.ctypes.data - base.ctypes.data) // x.nbytes
        if pending and pending[0][1] == row:
            kind, _, bound = pending.pop()
            pairs.append((kind, float(np.abs(base[:row] @ x).max()), bound))
        return matrix @ x

    monkeypatch.setattr(krylov, "_omega_bounds", spy_bounds)
    monkeypatch.setattr(krylov, "_full_pass", spy_full_pass)
    krylov.lowest_eigenpairs(matvec, dim, 2)
    return pairs


def test_omega_bounds_every_overlap_in_both_bases(params, q1d10, monkeypatch):
    _, _, h = q1d10
    arr = AtomArray("patch", tuple(builtin_instance("TD_25").positions[i] for i in TD25_PATCH))
    g = blockade_graph(arr, params)
    patch = hamiltonian_terms(g, build_basis(g, "blockade"))
    for terms in (h, patch):
        pairs = _checked_steps(monkeypatch, assemble(terms, params.omega0, params.delta_f),
                               terms.dim)
        assert {kind for kind, _, _ in pairs} == {"local", "full"}
        assert all(actual <= bound for _, actual, bound in pairs), pairs


def test_a_two_state_solve_breaks_down_without_a_warning():
    # the Krylov space is the whole space after two vectors: beta = 0 at once
    m = np.array([[1.0, 0.5], [0.5, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        vals, _ = krylov.lowest_eigenpairs(lambda x: m @ x, 2, 2)
    assert np.allclose(vals, np.linalg.eigvalsh(m), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("stiff, growth", [(False, "basis not grown"),
                                           (True, "basis grown to 80 vectors")])
def test_solve_logs_its_full_passes_and_growth(params, q1d10, caplog, stiff, growth):
    h = q1d10[2]
    if stiff:
        g = blockade_graph(STIFF, params)
        h = hamiltonian_terms(g, build_basis(g, "full"))
    with caplog.at_level(logging.DEBUG, logger="rydmis.krylov"):
        krylov.lowest_eigenpairs(assemble(h, params.omega0, params.delta_f).__matmul__,
                                 h.dim, 2)
    (record,) = [r for r in caplog.records if r.name == "rydmis.krylov"]
    passes, steps = (int(x) for x in re.search(
        r"(\d+) full Gram-Schmidt passes in (\d+) steps", record.message).groups())
    assert 0 < passes < steps
    assert growth in record.message


def test_a_stiff_spectrum_converges_on_the_grown_basis(params):
    # atoms 3 and 5 sit 1 um apart, so the full basis spans about 5.7e6 rad/us,
    # while at delta_f E1 and E2 lie 0.13 rad/us apart; with MAX_BASIS vectors
    # per cycle this solve needs about 33,000 matvecs
    g = blockade_graph(STIFF, params)
    matrix = assemble(hamiltonian_terms(g, build_basis(g, "full")), params.omega0,
                      params.delta_f)
    rows = set()

    def matvec(x):
        rows.add(len(x.base))  # x is a row of the solver's basis
        return matrix @ x

    vals, _ = krylov.lowest_eigenpairs(matvec, 256, 2)
    lam = np.linalg.eigvalsh(np.column_stack([matrix @ e for e in np.eye(256)]))
    assert rows == {krylov.MAX_BASIS + 1, krylov.GROWN_BASIS + 1}
    assert np.abs(vals - lam[:2]).max() <= 1e-9 * np.abs(lam).max()


def test_cancelling_pass_is_repeated():
    rng = np.random.default_rng(3)
    dim = 4096
    q = np.linalg.qr(rng.standard_normal((dim, 8)))[0].T.copy()
    w0 = rng.standard_normal(8) @ q + 1e-10 * rng.standard_normal(dim)
    w = w0.copy()
    c, norm, repeated = krylov._orthogonalize(q, w)
    assert repeated
    assert norm == pytest.approx(np.linalg.norm(w), rel=1e-12)
    assert np.abs(q @ w).max() <= 1e-14 * norm
    assert np.abs(c - q @ w0).max() <= 1e-12


def test_orthogonalize_copies_no_basis_block():
    dim = 1 << 16
    rng = np.random.default_rng(4)
    basis = rng.standard_normal((16, dim))
    basis /= np.linalg.norm(basis, axis=1, keepdims=True)
    scale = rng.standard_normal(dim)
    tracemalloc.start()
    try:
        krylov._orthogonalize(basis, scale * basis[15])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * dim * 16  # a copy of the 16-row block alone is 16 * dim * 8 B


def test_krylov_exponential_allocates_only_the_basis_it_uses():
    dim = 1 << 16
    rng = np.random.default_rng(7)
    diag = rng.standard_normal(dim)
    v = rng.standard_normal(dim) + 0j
    tracemalloc.start()
    try:
        out = krylov.expm_lanczos(lambda x: diag * x, v, 0.02, 1e-10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(out, np.exp(-0.02j * diag) * v, rtol=0.0, atol=1e-9)
    # six Krylov vectors suffice; a basis of KRYLOV_DIM = 48 rows alone is 50 MB
    assert peak < krylov.KRYLOV_DIM * dim * 16 / 2


@pytest.mark.parametrize("dim, tau", [(300, 0.01), (300, 1.0), (512, 10.0), (1024, 22.0),
                                      (300, 30.0)])
def test_krylov_exponential_matches_dense_expm(dim, tau):
    # ||A|| = 1, so tau = 22 needs 40-odd Krylov vectors built by the bare
    # three-term recurrence, and tau = 30 splits the interval
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((dim, dim))
    a = (a + a.T) / 2.0
    a /= np.abs(np.linalg.eigvalsh(a)).max()
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    tol = 1e-10
    vectors = []
    out = krylov.expm_lanczos(lambda x: vectors.append(1) or a @ x, v, tau, tol)
    assert np.linalg.norm(out - expm(-1j * tau * a) @ v) <= 10 * tol
    if tau == 22.0:
        assert 40 <= len(vectors) < krylov.KRYLOV_DIM
    if tau == 30.0:
        assert len(vectors) > krylov.KRYLOV_DIM
