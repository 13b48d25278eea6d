import logging
import multiprocessing
import os
import re
import signal

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.sparse import block_diag, csr_matrix, diags

import rydmis.forks
import rydmis.spectrum
from rydmis import (
    AtomArray,
    BasisSet,
    ConvergenceError,
    GapProfile,
    HamiltonianTerms,
    RydmisError,
    blockade_graph,
    build_basis,
    builtin_instance,
    count_isets,
    eigenpairs_lowest2,
    from_mhz,
    hamiltonian_terms,
    krylov,
    mis_projector_support,
    assemble,
    scan_gap,
    standard_schedule,
    track_mis_overlap,
)


def _dense(op):
    """The dense matrix of an operator, column k being op @ e_k."""
    return np.column_stack([op @ e for e in np.eye(op.shape[1])])


def _omega0_hamiltonian(diagonal):
    """An omega = 0 Hamiltonian whose diagonal is the given one (as udiag)."""
    d = np.asarray(diagonal, dtype=float)
    terms = HamiltonianTerms(graph=None, basis=BasisSet("custom", 16, np.arange(d.size)),
                             sx=csr_matrix((d.size, d.size)), zdiag=np.ones(d.size), udiag=d)
    return assemble(terms, 0.0, 0.0)


def test_diagonal_matrix_eigenpairs():
    e0, e1, v0, v1 = eigenpairs_lowest2(_omega0_hamiltonian([1.0, 3.0, 7.0]))
    assert (e0, e1) == pytest.approx((1.0, 3.0))
    assert np.allclose(np.abs(v0), [1, 0, 0])
    assert np.allclose(np.abs(v1), [0, 1, 0])


def test_single_atom_eigenvalues(params):
    arr = AtomArray(name="one", positions=((0.0, 0.0),))
    g = blockade_graph(arr, params)
    h = hamiltonian_terms(g, build_basis(g, "full"))
    e0, e1, _, _ = eigenpairs_lowest2(assemble(h, from_mhz(1.0), 0.0))
    assert (e0, e1) == pytest.approx((-np.pi, np.pi))


def test_single_atom_gap_is_avoided_crossing(params):
    arr = AtomArray(name="one", positions=((0.0, 0.0),))
    g = blockade_graph(arr, params)
    h = hamiltonian_terms(g, build_basis(g, "full"))
    sched = standard_schedule(params)
    profile = scan_gap(h, sched, n_samples=64, store_vectors=False)
    expected = np.sqrt(params.omega0**2 + np.asarray(sched.delta(profile.times)) ** 2)
    assert np.allclose(profile.gaps, expected, rtol=1e-9)
    assert profile.g_min == pytest.approx(params.omega0, rel=1e-5)
    assert profile.delta_min == pytest.approx(0.0, abs=from_mhz(0.01))


def test_sample_count_precondition(params):
    arr = AtomArray(name="one", positions=((0.0, 0.0),))
    g = blockade_graph(arr, params)
    h = hamiltonian_terms(g, build_basis(g, "full"))
    with pytest.raises(ValueError, match="n_samples"):
        scan_gap(h, standard_schedule(params), n_samples=8)


def test_q1d10_final_ground_vector_is_mis(params, q1d10):
    _, g, h = q1d10
    matrix = assemble(h, params.omega0, params.delta_f)
    e0, e1, v0, _ = eigenpairs_lowest2(matrix)
    # dense full diagonalization as the oracle
    vals, vecs = np.linalg.eigh(_dense(matrix))
    assert e0 == pytest.approx(vals[0], abs=1e-9)
    assert e1 == pytest.approx(vals[1], abs=1e-9)
    assert abs(np.vdot(vecs[:, 0], v0)) == pytest.approx(1.0, abs=1e-9)
    mis_config = int(mis_projector_support(g)[0], 2)
    assert int(np.argmax(np.abs(v0))) == h.basis.position_of(mis_config)


def test_eigen_residuals(params):
    g = blockade_graph(builtin_instance("Q1D_7"), params)
    h = hamiltonian_terms(g, build_basis(g, "full"))
    sched = standard_schedule(params)
    for t in (0.8, 2.1, 3.3, 4.4):
        m = assemble(h, float(sched.omega(t)), float(sched.delta(t)))
        e0, e1, v0, v1 = eigenpairs_lowest2(m)
        norm = np.linalg.norm(_dense(m), np.inf)  # upper bound on ||H||
        assert np.linalg.norm(m @ v0 - e0 * v0) < 1e-8 * norm
        assert np.linalg.norm(m @ v1 - e1 * v1) < 1e-8 * norm
        assert abs(np.vdot(v0, v1)) < 1e-9


def test_phase_convention(params, q1d10_profile):
    for vec in (q1d10_profile.vecs0[17], q1d10_profile.vecs1[42]):
        assert vec[int(np.argmax(np.abs(vec)))] > 0


def test_iterative_path_large_diagonal():
    rng = np.random.default_rng(5)
    d = rng.permutation(np.arange(5000, dtype=float))
    (e0, e1), (v0, v1) = krylov.lowest_eigenpairs(lambda x: d * x, d.size, 2)
    assert (e0, e1) == pytest.approx((0.0, 1.0), abs=1e-6)
    assert int(np.argmax(np.abs(v0))) == int(np.argmin(d))


def test_iterative_path_zero_eigenvalue_in_coupled_block():
    # a zero eigenvalue that no diagonal entry shows: [[1, 1], [1, 1]]
    # has eigenvalues (0, 2); the rest of the spectrum is 3 .. 5000
    rng = np.random.default_rng(11)
    rest = diags(rng.permutation(np.arange(3.0, 5001.0)))
    m = block_diag([np.ones((2, 2)), rest], format="csr")
    before = (m.data.copy(), m.indices.copy(), m.indptr.copy())
    (e0, e1), (v0, v1) = krylov.lowest_eigenpairs(lambda x: m @ x, m.shape[0], 2)
    assert (e0, e1) == pytest.approx((0.0, 2.0), abs=1e-6)
    assert np.allclose(np.abs(v0[:2]), np.sqrt(0.5)) and v0[0] * v0[1] < 0
    assert np.allclose(np.abs(v1[:2]), np.sqrt(0.5)) and v1[0] * v1[1] > 0
    for kept, now in zip(before, (m.data, m.indices, m.indptr)):
        assert np.array_equal(kept, now)


def test_iterative_path_matches_dense_on_q1d10(params, q1d10, monkeypatch):
    _, _, h = q1d10
    sched = standard_schedule(params)
    for t in (0.3, 1.5, 3.6, 4.7):
        m = assemble(h, float(sched.omega(t)), float(sched.delta(t)))
        e0, e1, v0, v1 = eigenpairs_lowest2(m)
        dense = _dense(m)
        ref = eigh(dense, eigvals_only=True, subset_by_index=(0, 1))
        assert (e0, e1) == pytest.approx(tuple(ref), abs=1e-9)
        scale = np.linalg.norm(dense, np.inf)
        assert np.linalg.norm(m @ v0 - e0 * v0) < 1e-8 * scale
        assert np.linalg.norm(m @ v1 - e1 * v1) < 1e-8 * scale
        assert abs(v0 @ v1) < 1e-10


def test_warm_start_inside_an_invariant_block_still_finds_e1():
    # v0 is the exact ground vector of the first block, so a Krylov space
    # built from v0 alone never leaves that block and misses E1 = 1
    rng = np.random.default_rng(3)
    first = np.array([[0.0, 1.0], [1.0, 4.0]])
    m = block_diag(
        [first, np.array([[1.0]]), diags(rng.permutation(np.arange(5.0, 5003.0)))],
        format="csr",
    )
    vals, vecs = np.linalg.eigh(first)
    v0 = np.zeros(m.shape[0])
    v0[:2] = vecs[:, 0]
    (e0, e1), (w0, w1) = krylov.lowest_eigenpairs(lambda x: m @ x, m.shape[0], 2, v0=v0)
    assert (e0, e1) == pytest.approx((vals[0], 1.0), abs=1e-9)
    assert abs(w1[2]) == pytest.approx(1.0, abs=1e-9)
    assert abs(w0 @ w1) < 1e-10


def test_degenerate_diagonal_is_sorted_exactly():
    rng = np.random.default_rng(7)
    d = rng.permutation(np.concatenate([[0.0, 0.0], np.arange(1.0, 40.0)]))
    e0, e1, v0, v1 = eigenpairs_lowest2(_omega0_hamiltonian(d))
    assert (e0, e1) == (0.0, 0.0)
    zeros = np.flatnonzero(d == 0.0)
    assert np.array_equal(v0, np.eye(d.size)[zeros[0]])
    assert np.array_equal(v1, np.eye(d.size)[zeros[1]])


def test_exhausted_matvec_budget_raises(params, q1d10, monkeypatch):
    _, _, h = q1d10
    m = assemble(h, params.omega0, 0.0)
    monkeypatch.setattr(krylov, "MAX_MATVECS", 5)
    with pytest.raises(ConvergenceError, match=r"5 matvecs \(0 restarts\): residual"):
        eigenpairs_lowest2(m)


def test_solve_logs_its_cost(params, q1d10, caplog):
    _, _, h = q1d10
    with caplog.at_level(logging.DEBUG, logger="rydmis.krylov"):
        eigenpairs_lowest2(assemble(h, params.omega0, 0.0))
    (record,) = [r for r in caplog.records if r.name == "rydmis.krylov"]
    assert record.levelno == logging.DEBUG
    assert "dim 1024" in record.message
    for counter in ("matvecs", "restarts", "second Gram-Schmidt passes", "residual"):
        assert counter in record.message


def test_scan_logs_its_cost(params, caplog, monkeypatch):
    g = blockade_graph(builtin_instance("Q1D_4"), params)
    h = hamiltonian_terms(g, build_basis(g, "full"))
    matvecs = []
    matvec = HamiltonianTerms.matvec

    def spy(self, *args):
        matvecs.append(1)
        return matvec(self, *args)

    monkeypatch.setattr(HamiltonianTerms, "matvec", spy)
    logged = {}
    for forked in (False, True):
        monkeypatch.setattr(rydmis.forks, "_may_fork", lambda: forked)
        matvecs.clear()
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="rydmis.spectrum"):
            scan_gap(h, standard_schedule(params), n_samples=16, store_vectors=False)
        assert multiprocessing.active_children() == []
        (line,) = [r.getMessage() for r in caplog.records if r.name == "rydmis.spectrum"]
        assert line.startswith("scan_gap dim 16: 16 samples, ")
        assert int(re.search(r"(\d+) golden-section probes", line).group(1)) > 0
        assert re.search(r", \d+\.\d{3} s$", line)
        logged[forked] = int(re.search(r" (\d+) matvecs", line).group(1))
        # the spy sees this process's matvecs: the odd chain's too unless a child made them
        if forked:
            assert re.search(r"odd-sample chain \(child process, peak RSS [0-9.]+ MiB\)", line)
            assert 0 < len(matvecs) < logged[forked]
        else:
            assert "odd-sample chain (this process)" in line
            assert logged[forked] == len(matvecs) > 0
    assert logged[True] == logged[False]


def _spy_solves(monkeypatch, h):
    """Record (v0, w0 + w1, gap, matvecs) of every spectrum.eigenpairs_lowest2 call."""
    calls = []
    solve = rydmis.spectrum.eigenpairs_lowest2

    def spy(H, v0=None):
        matvecs = h.matvecs
        e0, e1, w0, w1 = solve(H, v0=v0)
        calls.append((v0, w0 + w1, e1 - e0, h.matvecs - matvecs))
        return e0, e1, w0, w1

    monkeypatch.setattr(rydmis.spectrum, "eigenpairs_lowest2", spy)
    return calls


def test_every_scan_solve_starts_from_the_pair_before_it(params, monkeypatch):
    g = blockade_graph(builtin_instance("Q1D_7"), params)
    h = hamiltonian_terms(g, build_basis(g, "full"))
    monkeypatch.setattr(rydmis.forks, "_may_fork", lambda: False)  # the spy sees both chains
    calls = _spy_solves(monkeypatch, h)
    n = 63  # odd, and its smallest sampled gap is in the odd chain
    scan_gap(h, standard_schedule(params), n_samples=n)
    starts, pairs, gaps, _ = zip(*calls)
    assert len(calls) > n + 1
    # the even samples' chain, then the odd samples' chain, each from the pair
    # before it in its own chain and the first cold; then the probes, the first
    # from the pair of the smallest sampled gap (the lowest sample on ties)
    sample = np.r_[0:n:2, 1:n:2]  # the sample of each of the first n solves
    n_even = (n + 1) // 2
    i_min = int(np.argmin(np.asarray(gaps[:n])[np.argsort(sample)]))
    assert i_min % 2 == 1
    expected = (None, *pairs[: n_even - 1], None, *pairs[n_even: n - 1],
                pairs[int(np.flatnonzero(sample == i_min)[0])], *pairs[n:-1])
    for k in range(len(calls)):
        if expected[k] is None:
            assert starts[k] is None, k
        else:
            assert np.array_equal(starts[k], expected[k]), k


def test_forked_scan_matches_serial_scan(params, monkeypatch):
    g = blockade_graph(builtin_instance("Q1D_7"), params)
    h = hamiltonian_terms(g, build_basis(g, "full"))
    profiles = []
    for forked in (False, True):
        monkeypatch.setattr(rydmis.forks, "_may_fork", lambda: forked)
        profiles.append(scan_gap(h, standard_schedule(params), store_vectors=True))
        assert multiprocessing.active_children() == []
    serial, forked = profiles
    for name in ("times", "deltas", "e0s", "e1s", "gaps", "vecs0", "vecs1"):
        assert np.array_equal(getattr(serial, name), getattr(forked, name)), name
    for name in ("t_min", "delta_min", "g_min"):
        assert getattr(serial, name) == getattr(forked, name), name


def _odd_chain_in_child_that(monkeypatch, act):
    """Make scan_gap fork its odd-sample chain, and make the child call ``act()`` first."""
    chain = rydmis.spectrum._chain

    def odd_chain(*args):
        if multiprocessing.parent_process() is not None:
            act()
        return chain(*args)

    monkeypatch.setattr(rydmis.forks, "_may_fork", lambda: True)
    monkeypatch.setattr(rydmis.spectrum, "_chain", odd_chain)


def test_a_failed_odd_chain_reaches_the_caller(params, monkeypatch):
    g = blockade_graph(builtin_instance("Q1D_4"), params)
    h = hamiltonian_terms(g, build_basis(g, "full"))
    sched = standard_schedule(params)
    # only the child's copy of krylov runs out of matvecs
    _odd_chain_in_child_that(monkeypatch, lambda: setattr(krylov, "MAX_MATVECS", 5))
    first_odd = np.linspace(*sched.sweep_window, 16)[1]
    with pytest.raises(ConvergenceError, match=re.escape(f"at t = {first_odd:.6f} us: ")):
        scan_gap(h, sched, n_samples=16)
    assert multiprocessing.active_children() == []


def test_an_odd_chain_process_that_dies_raises_instead_of_hanging(params, monkeypatch):
    g = blockade_graph(builtin_instance("Q1D_4"), params)
    h = hamiltonian_terms(g, build_basis(g, "full"))
    _odd_chain_in_child_that(monkeypatch, lambda: os._exit(3))

    def hung(signum, frame):
        raise TimeoutError("scan_gap still waits for a child that has exited")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(RydmisError, match="exited with code 3"):
            scan_gap(h, standard_schedule(params), n_samples=16)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("t_span", [(2.0, 1.0), (1.0, 1.0), (-1.0, 0.5), (np.nan, 1.0),
                                    (1.0, 6.0)],
                         ids=["descending", "empty", "before_0", "nan", "past_T"])
def test_scan_rejects_an_unusable_span(params, t_span):
    g = blockade_graph(builtin_instance("Q1D_4"), params)
    h = hamiltonian_terms(g, build_basis(g, "full"))
    assert standard_schedule(params).total_time < 6.0
    with pytest.raises(ValueError, match=re.escape(f"t_span = {t_span}: ")):
        scan_gap(h, standard_schedule(params), n_samples=16, t_span=t_span)


def test_near_degenerate_scan_solves_stay_cheap(params, monkeypatch):
    # constant U on Q1D_9: the gap closes to about 0 near T, where E0 and E1
    # split only at high order in the small omega
    g = blockade_graph(builtin_instance("Q1D_9"), params)
    h = hamiltonian_terms(g, build_basis(g, "full"), interaction="constant")
    calls = _spy_solves(monkeypatch, h)
    scan_gap(h, standard_schedule(params), n_samples=100, store_vectors=False,
             t_span=(params.ramp_time, params.total_time - 1e-3))
    worst = max(matvecs for *_, matvecs in calls)
    assert worst <= 1000, worst


def test_gap_minimum_location_q1d10(params, q1d10_profile):
    # published: (3.60 us, 2pi x 1.38 MHz, 2pi x 0.29 MHz)
    assert q1d10_profile.t_min == pytest.approx(3.60, abs=0.05)
    assert q1d10_profile.delta_min == pytest.approx(from_mhz(1.38), abs=from_mhz(0.02))
    assert q1d10_profile.g_min == pytest.approx(from_mhz(0.29), abs=from_mhz(0.01))
    t_lo, t_hi = params.ramp_time, params.total_time - params.ramp_time
    assert t_lo < q1d10_profile.t_min < t_hi
    assert np.all(q1d10_profile.gaps >= 0)
    assert q1d10_profile.g_min <= q1d10_profile.gaps.min() + 1e-12


def test_gap_minimum_stable_under_refinement(params, q1d10, q1d10_profile):
    _, _, h = q1d10
    half = scan_gap(h, standard_schedule(params), n_samples=100, store_vectors=False)
    assert abs(half.g_min - q1d10_profile.g_min) < 1e-4
    assert abs(half.t_min - q1d10_profile.t_min) < 5e-3


def test_chain_family_ordering(params):
    results = {}
    for name in ("Q1D_4", "Q1D_7"):
        g = blockade_graph(builtin_instance(name), params)
        h = hamiltonian_terms(g, build_basis(g, "full"))
        results[name] = scan_gap(h, standard_schedule(params), n_samples=64,
                                 store_vectors=False)
    assert results["Q1D_4"].g_min > results["Q1D_7"].g_min
    assert results["Q1D_4"].delta_min < results["Q1D_7"].delta_min


def test_track_overlap_requires_vectors(params, q1d10):
    _, g, h = q1d10
    profile = scan_gap(h, standard_schedule(params), n_samples=16,
                       store_vectors=False)
    with pytest.raises(ValueError, match="eigenvectors"):
        track_mis_overlap(profile, mis_projector_support(g))


def test_overlap_series_endpoints(params):
    arr = builtin_instance("Q1D_7")
    g = blockade_graph(arr, params, require_mis_encoding=True)
    h = hamiltonian_terms(g, build_basis(g, "full"))
    sched = standard_schedule(params)
    profile = scan_gap(h, sched, n_samples=120,
                       t_span=(params.ramp_time, params.total_time))
    mis_bits = mis_projector_support(g)
    o0, o1 = track_mis_overlap(profile, mis_bits)
    assert o0[0] < 0.01             # ground state is all-g at delta_i
    assert o0[-1] >= 1.0 - 1e-6     # and exactly the MIS at t = T
    assert np.all((o0 >= 0) & (o0 <= 1 + 1e-12))
    # a wrong length or a non-binary character names no 7-atom configuration
    for bad in (["1"], ["00000001"], ["0000002"]):
        with pytest.raises(ValueError, match="outside the basis"):
            track_mis_overlap(profile, bad)


def test_overlap_manifold_mode(params):
    # two far-apart blockaded pairs: four degenerate MIS configurations
    pos = ((0.0, 0.0), (5.0, 0.0), (200.0, 0.0), (205.0, 0.0))
    g = blockade_graph(AtomArray(name="pairs", positions=pos), params)
    h = hamiltonian_terms(g, build_basis(g, "full"))
    sched = standard_schedule(params)
    profile = scan_gap(h, sched, n_samples=32,
                       t_span=(params.ramp_time, params.total_time))
    mis_bits = mis_projector_support(g)
    assert len(mis_bits) == 4
    o0, _ = track_mis_overlap(profile, mis_bits)
    # final ground vector is a degenerate-subspace member; uniform
    # superposition overlap is basis-choice dependent but bounded by 1
    assert np.all(o0 <= 1 + 1e-9)
    with pytest.raises(ValueError, match="outside the basis"):
        track_mis_overlap(profile, ["11111"])
