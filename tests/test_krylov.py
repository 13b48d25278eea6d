import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from rydmis import AtomArray, assemble, blockade_graph, build_basis, hamiltonian_terms, krylov


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


def test_a_stiff_spectrum_converges_on_the_grown_basis(params):
    # atoms 3 and 5 sit 1 um apart, so the full basis spans about 5.7e6 rad/us,
    # while at delta_f E1 and E2 lie 0.13 rad/us apart; with MAX_BASIS vectors
    # per cycle this solve needs about 33,000 matvecs
    arr = AtomArray("stiff", ((6.0, 0.5), (15.0, 11.5), (6.5, 18.0), (16.0, 10.0),
                              (7.5, 18.0), (7.5, 10.0), (6.5, 14.0), (6.5, 2.5)))
    g = blockade_graph(arr, params)
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
