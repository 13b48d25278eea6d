import numpy as np
import pytest
from scipy.linalg import eigh

import rydmis.hamiltonian
from rydmis import (
    AtomArray,
    BlockadeGraph,
    DimensionLimitError,
    PhysicalParams,
    assemble,
    blockade_graph,
    build_basis,
    builtin_instance,
    count_isets,
    dump_matrix,
    from_mhz,
    hamiltonian_terms,
    hamiltonian_time_derivative,
    standard_schedule,
)

from oracles import oracle_dense_hamiltonian, oracle_independent_configs


def _single_atom(params):
    arr = AtomArray(name="one", positions=((0.0, 0.0),))
    g = blockade_graph(arr, params)
    return hamiltonian_terms(g, build_basis(g, "full"))


def _pair(params, spacing=5.0, interaction="constant"):
    arr = AtomArray(name="pair", positions=((0.0, 0.0), (spacing, 0.0)))
    g = blockade_graph(arr, params)
    return g, hamiltonian_terms(g, build_basis(g, "full"), interaction=interaction)


def test_full_basis_ordering(params):
    g, _ = _pair(params)
    basis = build_basis(g, "full")
    assert basis.bitstrings() == ["00", "01", "10", "11"]
    assert basis.position_of(2) == 2
    assert basis.position_of(7) == -1


def test_blockade_basis_excludes_violations(params):
    g, _ = _pair(params)
    basis = build_basis(g, "blockade")
    assert basis.bitstrings() == ["00", "01", "10"]
    assert basis.position_of(3) == -1


def test_blockade_basis_matches_brute_force(params):
    # a 1D chain and a 12-atom patch of the 2D triangular lattice
    td25 = builtin_instance("TD_25")
    patch = AtomArray(name="TD_25[:12]", positions=td25.positions[:12])
    for arr in (builtin_instance("Q1D_10"), patch):
        g = blockade_graph(arr, params)
        basis = build_basis(g, "blockade")
        want = oracle_independent_configs(arr.positions, params.blockade_radius)
        assert basis.states.dtype == np.int64
        assert basis.states.tolist() == want


def test_td25_blockade_basis_size_is_the_census(params):
    g = blockade_graph(builtin_instance("TD_25"), params)
    basis = build_basis(g, "blockade")
    assert basis.dim == sum(count_isets(g).r.values()) == 13_322


def test_position_of_arrays(params):
    g = blockade_graph(builtin_instance("Q1D_4"), params)
    for kind in ("full", "blockade"):
        basis = build_basis(g, kind)
        absent = np.setdiff1d(np.arange(16), basis.states)
        probe = np.concatenate([basis.states[::-1], absent, [-1, -16, 16, 1 << 40]])
        want = [basis.dim - 1 - i for i in range(basis.dim)] + [-1] * (probe.size - basis.dim)
        assert basis.position_of(probe).tolist() == want
        assert basis.position_of(probe.reshape(-1, 1)).shape == (probe.size, 1)
        assert type(basis.position_of(int(basis.states[-1]))) is int
        assert basis.position_of(16) == basis.position_of(-1) == -1
    assert absent.size > 0


def test_blockade_basis_guard(params, monkeypatch):
    g = blockade_graph(builtin_instance("TD_25"), params)
    monkeypatch.setattr(rydmis.hamiltonian, "BLOCKADE_BASIS_MAX_STATES", 13_321)
    with pytest.raises(DimensionLimitError, match="13321-state guard"):
        build_basis(g, "blockade")
    monkeypatch.setattr(rydmis.hamiltonian, "BLOCKADE_BASIS_MAX_STATES", 13_322)
    assert build_basis(g, "blockade").dim == 13_322


def _q1d10(params):
    g = blockade_graph(builtin_instance("Q1D_10"), params)
    return g, hamiltonian_terms(g, build_basis(g, "full"))


def test_full_basis_size_q1d10(params):
    _, h = _q1d10(params)
    assert h.basis.dim == 1024


def test_dimension_guard():
    g = BlockadeGraph(n=25, edges=frozenset(), r_b=1.0, u_per_edge=0.0)
    with pytest.raises(DimensionLimitError):
        build_basis(g, "full")


def test_single_atom_diagonal(params):
    h = _single_atom(params)
    m = assemble(h, 0.0, from_mhz(1.0)).toarray()
    assert np.allclose(m, np.diag([np.pi, -np.pi]))


def test_single_atom_rabi_spectrum(params):
    h = _single_atom(params)
    m = assemble(h, from_mhz(1.0), 0.0).toarray()
    vals = np.linalg.eigvalsh(m)
    assert vals == pytest.approx([-np.pi, np.pi])


def test_blockaded_pair_energies_constant_u(params):
    g, h = _pair(params, interaction="constant")
    delta = from_mhz(1.7)
    m = assemble(h, 0.0, delta).toarray()
    u = g.u_per_edge
    # basis order 00, 01, 10, 11
    assert np.allclose(np.diag(m), [delta, 0.0, 0.0, -delta + u])


def test_hermitian_exactly(params):
    _, h = _q1d10(params)
    m = assemble(h, from_mhz(0.7), from_mhz(-1.3))
    assert (m - m.T).nnz == 0


def test_matches_independent_kron_oracle(params):
    arr = builtin_instance("Q1D_4")
    g = blockade_graph(arr, params)
    h = hamiltonian_terms(g, build_basis(g, "full"))
    omega, delta = from_mhz(0.9), from_mhz(-0.4)
    ours = assemble(h, omega, delta).toarray()
    oracle = oracle_dense_hamiltonian(arr.positions, params.c6, omega, delta)
    assert np.allclose(ours, oracle, atol=1e-12)


def test_matvec_consistent_with_assemble(params):
    _, h = _q1d10(params)
    rng = np.random.default_rng(0)
    v = rng.normal(size=h.dim) + 1j * rng.normal(size=h.dim)
    omega, delta = from_mhz(1.0), from_mhz(0.3)
    assert np.allclose(h.matvec(omega, delta, v), assemble(h, omega, delta) @ v)


def test_linearity_in_delta(params):
    _, h = _q1d10(params)
    omega = from_mhz(1.0)
    d1, d2 = from_mhz(-1.0), from_mhz(2.0)
    m1 = assemble(h, omega, d1)
    m2 = assemble(h, omega, d2)
    shift = (m2 - m1).toarray()
    assert np.allclose(shift, np.diag((d2 - d1) * h.zdiag))


def test_schedule_derivative_stages(params):
    _, h = _q1d10(params)
    sched = standard_schedule(params)
    # stage (ii): linear sweep, omega flat
    rate = (params.delta_f - params.delta_i) / (params.total_time - 2 * params.ramp_time)
    dm = hamiltonian_time_derivative(h, sched, 2.0).toarray()
    assert np.allclose(dm, np.diag(rate * h.zdiag))
    # stage (i): omega ramp at constant detuning
    dm1 = hamiltonian_time_derivative(h, sched, 0.2).toarray()
    assert np.allclose(dm1, (params.omega0 / params.ramp_time) * h.sx.toarray())
    # breakpoints take the right-hand slope
    dm_tr = hamiltonian_time_derivative(h, sched, params.ramp_time).toarray()
    assert np.allclose(dm_tr, np.diag(rate * h.zdiag))


def test_full_vs_blockade_ground_energy_deep_blockade(params):
    # Same edge set, interactions inflated so U >> Omega.  The blockade
    # basis is exact in the limit: (a) the full H restricted to the
    # independent sets is the blockade H entry for entry, (b) the full
    # ground energy lies below it (Cauchy interlacing), and (c) the
    # remainder is the second-order -O(Omega^2/U) shift, so U * (E_full -
    # E_blk) converges as U grows.  At scale 1e6 the eigensolver's roundoff
    # (eps * ||H||) is already a few percent of that remainder, so (c)
    # compares the scales 1e4 and 1e5.
    arr = builtin_instance("Q1D_10")
    g = blockade_graph(arr, params)
    sched = standard_schedule(params)
    times = (0.5, 1.5, 2.5, 3.5, 4.5)
    scaled_shift = {}
    for scale in (1e4, 1e5, 1e6):
        big = BlockadeGraph(
            n=g.n, edges=g.edges, r_b=g.r_b, u_per_edge=g.u_per_edge * scale,
            positions=g.positions, c6=g.c6,
        )
        h_full = hamiltonian_terms(big, build_basis(big, "full"), interaction="constant")
        h_blk = hamiltonian_terms(big, build_basis(big, "blockade"), interaction="constant")
        # full-basis position == configuration value
        iset = h_blk.basis.states
        shifts = []
        for t in times:
            omega, delta = float(sched.omega(t)), float(sched.delta(t))
            m_full = assemble(h_full, omega, delta)
            m_blk = assemble(h_blk, omega, delta)
            assert (m_full[iset][:, iset] != m_blk).nnz == 0
            e_full = eigh(m_full.toarray(), eigvals_only=True, subset_by_index=(0, 0))[0]
            e_blk = eigh(m_blk.toarray(), eigvals_only=True, subset_by_index=(0, 0))[0]
            assert e_full <= e_blk + 1e-9
            shifts.append(big.u_per_edge * (e_full - e_blk))
        scaled_shift[scale] = np.array(shifts)
    assert np.all(scaled_shift[1e5] < 0)
    assert np.allclose(scaled_shift[1e5], scaled_shift[1e4], rtol=0.01, atol=0.0)


def test_tails_mode_requires_geometry():
    g = BlockadeGraph(n=3, edges=frozenset({(0, 1)}), r_b=9.0, u_per_edge=1.0)
    with pytest.raises(ValueError, match="geometry"):
        hamiltonian_terms(g, build_basis(g, "full"), interaction="tails")
    with pytest.raises(ValueError, match="interaction mode"):
        hamiltonian_terms(g, build_basis(g, "full"), interaction="bogus")


def test_matrix_dump_format(params, tmp_path):
    g, h = _pair(params)
    m = assemble(h, from_mhz(1.0), from_mhz(0.5))
    path = tmp_path / "matrix.txt"
    dump_matrix(m, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# dim 4 nnz")
    rebuilt = np.zeros((4, 4), dtype=complex)
    for line in lines[1:]:
        r, c, re_, im_ = line.split()
        rebuilt[int(r), int(c)] = float(re_) + 1j * float(im_)
    assert np.allclose(rebuilt, m.toarray())
