import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh

import rydmis.isets
from rydmis import (
    AtomArray,
    BasisSet,
    BlockadeGraph,
    DimensionLimitError,
    PhysicalParams,
    assemble,
    blockade_graph,
    build_basis,
    build_two_level_model,
    builtin_instance,
    count_isets,
    from_mhz,
    hamiltonian_terms,
    scan_gap,
    standard_schedule,
)
from rydmis.configs import configs_to_bits

from oracles import (
    oracle_dense_hamiltonian,
    oracle_flip_pattern,
    oracle_independent_configs,
    oracle_interaction_diagonal,
)


def _dense(op):
    """The dense matrix of an operator, column k being op @ e_k."""
    return np.column_stack([op @ e for e in np.eye(op.shape[1])])


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
    assert configs_to_bits(basis.states, 2) == ["00", "01", "10", "11"]
    assert basis.position_of(2) == 2
    assert basis.position_of(7) == -1


def test_blockade_basis_excludes_violations(params):
    g, _ = _pair(params)
    basis = build_basis(g, "blockade")
    assert configs_to_bits(basis.states, 2) == ["00", "01", "10"]
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
    monkeypatch.setattr(rydmis.isets, "BLOCKADE_BASIS_MAX_STATES", 13_321)
    with pytest.raises(DimensionLimitError, match="13321-state guard"):
        build_basis(g, "blockade")
    monkeypatch.setattr(rydmis.isets, "BLOCKADE_BASIS_MAX_STATES", 13_322)
    assert build_basis(g, "blockade").dim == 13_322


def _q1d10(params):
    g = blockade_graph(builtin_instance("Q1D_10"), params)
    return g, hamiltonian_terms(g, build_basis(g, "full"))


def test_full_basis_size_q1d10(params):
    _, h = _q1d10(params)
    assert h.basis.dim == 1024


def test_dimension_guard():
    g = BlockadeGraph(n=25, edges=frozenset(), u_per_edge=0.0)
    with pytest.raises(DimensionLimitError):
        build_basis(g, "full")


def test_single_atom_diagonal(params):
    h = _single_atom(params)
    m = _dense(assemble(h, 0.0, from_mhz(1.0)))
    assert np.allclose(m, np.diag([np.pi, -np.pi]))


def test_single_atom_rabi_spectrum(params):
    h = _single_atom(params)
    m = _dense(assemble(h, from_mhz(1.0), 0.0))
    vals = np.linalg.eigvalsh(m)
    assert vals == pytest.approx([-np.pi, np.pi])


def test_blockaded_pair_energies_constant_u(params):
    g, h = _pair(params, interaction="constant")
    delta = from_mhz(1.7)
    m = _dense(assemble(h, 0.0, delta))
    u = g.u_per_edge
    # basis order 00, 01, 10, 11
    assert np.allclose(np.diag(m), [delta, 0.0, 0.0, -delta + u])


def test_hermitian_exactly(params):
    _, h = _q1d10(params)
    assert (h.sx - h.sx.T).nnz == 0
    m = _dense(assemble(h, from_mhz(0.7), from_mhz(-1.3)))
    assert np.array_equal(m, m.T)


@pytest.mark.parametrize("instance, kind", [("Q1D_7", "full"), ("TD_25", "blockade")])
def test_sx_rows_hold_the_ascending_single_flips(params, instance, kind):
    # the CSR kernel sums each row of sx psi in this order
    g = blockade_graph(builtin_instance(instance), params)
    h = hamiltonian_terms(g, build_basis(g, kind))
    indptr, indices = oracle_flip_pattern(h.basis.states.tolist(), g.n)
    assert h.sx.has_sorted_indices
    assert np.array_equal(h.sx.indptr, indptr)
    assert np.array_equal(h.sx.indices, indices)
    assert np.array_equal(h.sx.data, np.full(indices.size, 0.5))


def test_terms_reject_a_basis_without_its_states_with_one_atom_cleared(params):
    # 0b11 is there but neither 0b01 nor 0b10: no flip pair has both ends in the basis
    g, _ = _pair(params)
    with pytest.raises(ValueError, match="any one atom cleared"):
        hamiltonian_terms(g, BasisSet("custom", 2, np.array([0b00, 0b11])))


def test_terms_allocate_little_beyond_what_they_keep(params):
    g = blockade_graph(builtin_instance("Q1D_16"), params)
    basis = build_basis(g, "full")
    tracemalloc.start()
    try:
        h = hamiltonian_terms(g, basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.sx.nnz == 16 << 16
    kept = sum(a.nbytes for a in (h.sx.data, h.sx.indices, h.sx.indptr, h.zdiag, h.udiag))
    # the atom-major partner table, freed before data is allocated, peaks near 1.74x
    assert peak <= 2 * kept


def test_matches_independent_kron_oracle(params):
    arr = builtin_instance("Q1D_4")
    g = blockade_graph(arr, params)
    h = hamiltonian_terms(g, build_basis(g, "full"))
    omega, delta = from_mhz(0.9), from_mhz(-0.4)
    ours = _dense(assemble(h, omega, delta))
    oracle = oracle_dense_hamiltonian(arr.positions, params.c6, omega, delta)
    assert np.allclose(ours, oracle, atol=1e-12)


@pytest.mark.parametrize("instance, kind", [("Q1D_10", "full"), ("TD_25", "blockade")])
def test_interaction_diagonal_matches_pairwise_oracle(params, instance, kind):
    arr = builtin_instance(instance)
    g = blockade_graph(arr, params)
    h = hamiltonian_terms(g, build_basis(g, kind))
    oracle = oracle_interaction_diagonal(arr.positions, params.c6, h.basis.states)
    # udiag sums each state's pair energies in another order than the oracle
    np.testing.assert_allclose(h.udiag, oracle, rtol=1e-12, atol=0)


def test_matvec_consistent_with_assemble(params):
    # H psi against the Kronecker oracle, for a real and a complex psi;
    # the operator's @ is that same kernel and its diagonal is H's
    arr = builtin_instance("Q1D_7")
    g = blockade_graph(arr, params)
    h = hamiltonian_terms(g, build_basis(g, "full"))
    rng = np.random.default_rng(0)
    omega, delta = from_mhz(1.0), from_mhz(0.3)
    oracle = oracle_dense_hamiltonian(arr.positions, params.c6, omega, delta)
    op = assemble(h, omega, delta)
    for v in (rng.normal(size=h.dim), rng.normal(size=h.dim) + 1j * rng.normal(size=h.dim)):
        out = h.matvec(omega, delta, v)
        assert out.dtype == v.dtype
        assert np.allclose(out, oracle @ v, rtol=0.0, atol=1e-12)
        assert np.array_equal(op @ v, out)
    assert op.shape == (h.dim, h.dim)
    np.testing.assert_allclose(op.diagonal(), np.diag(oracle), rtol=0.0, atol=1e-12)


def test_matvec_follows_every_change_of_omega_and_delta(params):
    # matvec keeps delta*zdiag + udiag while delta is unchanged; each call
    # must still act with its own (omega, delta) and be counted
    arr = builtin_instance("Q1D_7")
    g = blockade_graph(arr, params)
    h = hamiltonian_terms(g, build_basis(g, "full"))
    rng = np.random.default_rng(5)
    pairs = [(1.0, 0.3), (1.0, 0.3), (0.5, 0.3), (0.5, -0.7), (1.0, 0.3), (0.0, -0.7)]
    for k, (omega, delta) in enumerate(from_mhz(np.array(pairs)).tolist()):
        oracle = oracle_dense_hamiltonian(arr.positions, params.c6, omega, delta)
        v = rng.normal(size=h.dim) + (1j * rng.normal(size=h.dim) if k % 2 else 0.0)
        np.testing.assert_allclose(h.matvec(omega, delta, v), oracle @ v, rtol=0.0, atol=1e-12)
        assert h.matvecs == k + 1


def test_assemble_binds_the_cached_terms_without_a_matrix(params):
    _, h = _q1d10(params)
    op = assemble(h, from_mhz(1.0), from_mhz(0.3))
    assert not sparse.issparse(op) and op.terms is h
    assert (op.omega, op.delta) == (from_mhz(1.0), from_mhz(0.3))
    before = h.matvecs
    for _ in range(3):
        op @ np.ones(h.dim)
    assert h.matvecs - before == 3
    # the kernel does not bound-check its indices, so a vector of the
    # wrong length is refused before it runs
    for bad in (np.ones(1), np.ones(h.dim + 1), np.ones((h.dim, 1))):
        with pytest.raises(ValueError, match="dimension 1024"):
            op @ bad
    assert h.matvecs - before == 3


def test_linearity_in_delta(params):
    _, h = _q1d10(params)
    omega = from_mhz(1.0)
    d1, d2 = from_mhz(-1.0), from_mhz(2.0)
    shift = _dense(assemble(h, omega, d2)) - _dense(assemble(h, omega, d1))
    assert np.allclose(shift, np.diag((d2 - d1) * h.zdiag))


def test_schedule_derivative_stages(params):
    # The two-level coupling is <E1| dH/dt |E0> / gap with dH/dt taken
    # from the schedule's right-hand derivatives; the Kronecker oracle
    # gives dH/dt = H(omega', delta') - H(0, 0), the interaction being
    # time independent.
    arr = builtin_instance("Q1D_4")
    g = blockade_graph(arr, params)
    h = hamiltonian_terms(g, build_basis(g, "full"))
    sched = standard_schedule(params)
    profile = scan_gap(h, sched, n_samples=16)
    model = build_two_level_model(h, sched, profile)
    rate = (params.delta_f - params.delta_i) / (params.total_time - 2 * params.ramp_time)
    ramp = params.omega0 / params.ramp_time
    static = oracle_dense_hamiltonian(arr.positions, params.c6, 0.0, 0.0)
    # stage (ii) from its first sample t_r, where omega has just stopped
    # rising, to the last one, T - t_r, where it starts falling
    last = profile.times.size - 1
    for i, (om_dot, de_dot) in ((0, (0.0, rate)), (last // 2, (0.0, rate)),
                                (last, (-ramp, 0.0))):
        t = profile.times[i]
        assert (sched.omega_dot(t), sched.delta_dot(t)) == pytest.approx((om_dot, de_dot))
        dh = oracle_dense_hamiltonian(arr.positions, params.c6, om_dot, de_dot) - static
        want = np.vdot(profile.vecs1[i], dh @ profile.vecs0[i]).real / profile.gaps[i]
        assert abs(want) > 1e-3
        # the sign of the coupling is gauge smoothed along the grid
        assert abs(model.coupling[i]) == pytest.approx(abs(want), rel=1e-10)
    assert profile.times[0] == params.ramp_time
    assert profile.times[last] == params.total_time - params.ramp_time


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
            n=g.n, edges=g.edges, u_per_edge=g.u_per_edge * scale,
            positions=g.positions, c6=g.c6,
        )
        h_full = hamiltonian_terms(big, build_basis(big, "full"), interaction="constant")
        h_blk = hamiltonian_terms(big, build_basis(big, "blockade"), interaction="constant")
        # full-basis position == configuration value
        iset = h_blk.basis.states
        assert (h_full.sx[iset][:, iset] != h_blk.sx).nnz == 0
        assert np.array_equal(h_full.zdiag[iset], h_blk.zdiag)
        assert np.array_equal(h_full.udiag[iset], h_blk.udiag)
        shifts = []
        for t in times:
            omega, delta = float(sched.omega(t)), float(sched.delta(t))
            m_full = _dense(assemble(h_full, omega, delta))
            m_blk = _dense(assemble(h_blk, omega, delta))
            e_full = eigh(m_full, eigvals_only=True, subset_by_index=(0, 0))[0]
            e_blk = eigh(m_blk, eigvals_only=True, subset_by_index=(0, 0))[0]
            assert e_full <= e_blk + 1e-9
            shifts.append(big.u_per_edge * (e_full - e_blk))
        scaled_shift[scale] = np.array(shifts)
    assert np.all(scaled_shift[1e5] < 0)
    assert np.allclose(scaled_shift[1e5], scaled_shift[1e4], rtol=0.01, atol=0.0)


def test_tails_mode_requires_geometry():
    g = BlockadeGraph(n=3, edges=frozenset({(0, 1)}), u_per_edge=1.0)
    with pytest.raises(ValueError, match="geometry"):
        hamiltonian_terms(g, build_basis(g, "full"), interaction="tails")
    with pytest.raises(ValueError, match="interaction mode"):
        hamiltonian_terms(g, build_basis(g, "full"), interaction="bogus")
