import logging
import multiprocessing
import os
import re
import signal
import subprocess
import sys

import numpy as np
import pytest

import rydmis.dynamics
import rydmis.forks
from rydmis import (
    ConvergenceError,
    EvolveOptions,
    HamiltonianTerms,
    PulseSchedule,
    RydmisError,
    TwoLevelModel,
    adglb_schedule,
    blockade_graph,
    build_basis,
    builtin_instance,
    evolve,
    evolve_two_level,
    hamiltonian_terms,
    krylov,
    scan_gap,
    standard_schedule,
    transfer_schedule,
)

from oracles import oracle_dense_hamiltonian


def _knots(sched):
    """The detuning export table and the Rabi trapezoid corners.

    That is every kink of the drive, and for a curved drive a fine grid too.
    """
    t_r, t_end = sched.ramp_time, sched.total_time
    return np.union1d(sched.delta_times, (0.0, t_r, t_end - t_r, t_end))


def _midpoint_p_e0(positions, params, sched, n_steps, refine=1):
    """Final ground population by exact exponentials of the dense H at step midpoints.

    Each piece of the schedule between two knots gets
    refine * ceil(n_steps * length / T) equal steps, so H(t) is linear
    inside every step and the global error is a series in even powers of
    the step; refine = 2 halves every step of the refine = 1 grid.
    """
    # H = omega X + delta Z + U exactly: the oracle is linear in (omega, delta)
    u = oracle_dense_hamiltonian(positions, params.c6, 0.0, 0.0)
    x = oracle_dense_hamiltonian(positions, 0.0, 1.0, 0.0)
    z = oracle_dense_hamiltonian(positions, 0.0, 0.0, 1.0)
    t_end = sched.total_time
    psi = np.zeros(u.shape[0], dtype=complex)
    psi[0] = 1.0  # all atoms in |g>
    knots = _knots(sched)
    for a, b in zip(knots[:-1], knots[1:]):
        n = refine * int(np.ceil(n_steps * (b - a) / t_end))
        dt = (b - a) / n
        for k in range(n):
            t = a + (k + 0.5) * dt
            vals, vecs = np.linalg.eigh(float(sched.omega(t)) * x + float(sched.delta(t)) * z + u)
            psi = vecs @ (np.exp(-1j * dt * vals) * (vecs.T @ psi))
    final = np.diag(float(sched.delta(t_end)) * z + u)  # omega(T) = 0
    return float(np.sum(np.abs(psi[final <= final.min() + 1e-6]) ** 2))


def test_standard_sweep_matches_dense_midpoint_oracle(params):
    arr = builtin_instance("Q1D_7")
    g = blockade_graph(arr, params)
    h = hamiltonian_terms(g, build_basis(g, "full"))
    sched = standard_schedule(params)
    res = evolve(h, sched)
    assert np.linalg.norm(res.final_state.amplitudes) == pytest.approx(1.0, abs=1e-9)
    # Richardson extrapolation of the second-order oracle: its step error
    # at 1000 steps is about 1.2e-5 and scales as the step squared
    coarse = _midpoint_p_e0(arr.positions, params, sched, 500)
    fine = _midpoint_p_e0(arr.positions, params, sched, 1000)
    oracle = (4.0 * fine - coarse) / 3.0
    assert res.final_p_e0 == pytest.approx(oracle, abs=1e-6)
    assert res.p_e0[-1] == res.final_p_e0
    assert np.all((res.p_e0 >= -1e-12) & (res.p_e0 <= 1.0 + 1e-9))


def test_transfer_sweep_matches_dense_midpoint_oracle(params):
    arr = builtin_instance("Q1D_7")
    g = blockade_graph(arr, params)
    h = hamiltonian_terms(g, build_basis(g, "full"))
    sched = transfer_schedule(params, 0.0)
    assert _knots(sched).size > 1000
    res = evolve(h, sched, EvolveOptions(n_output=2))
    assert np.linalg.norm(res.final_state.amplitudes) == pytest.approx(1.0, abs=1e-9)
    # every piece gets k steps in the coarse run and 2k in the fine one
    coarse = _midpoint_p_e0(arr.positions, params, sched, 500)
    fine = _midpoint_p_e0(arr.positions, params, sched, 500, refine=2)
    oracle = (4.0 * fine - coarse) / 3.0
    assert res.final_p_e0 == pytest.approx(oracle, abs=1e-6)


def test_no_trial_step_straddles_a_knot(params, monkeypatch):
    g = blockade_graph(builtin_instance("Q1D_4"), params)
    h = hamiltonian_terms(g, build_basis(g, "full"))
    # the transfer drive's export table, joined by straight lines: 1,003 kinks
    exact = transfer_schedule(params, 0.0)
    sched = PulseSchedule.from_table(exact.ramp_time, exact.total_time, exact.omega0,
                                     exact.delta_times, exact.delta_values)
    steps = []
    cf4_step = rydmis.dynamics._cf4_step

    def spy(*args):
        steps.append(args[2:4])  # (t, dt)
        return cf4_step(*args)

    monkeypatch.setattr(rydmis.dynamics, "_cf4_step", spy)
    opts = EvolveOptions(n_output=7)
    evolve(h, sched, opts)
    main_steps = steps[:]
    # the check run's trial steps may be taken in a child process: repeat it here
    steps.clear()
    rydmis.dynamics._check_run(h, sched, opts.local_tol)
    knots = _knots(sched)
    for run in (main_steps, steps):
        t, dt = np.array(run).T
        assert t.size > 1000
        inside = (knots > t[:, None] + 1e-12) & (knots < (t + dt)[:, None] - 1e-12)
        assert not inside.any(), \
            f"{inside.any(axis=1).sum()} of {t.size} trial steps straddle a knot"


def test_no_two_level_trial_step_straddles_a_knot(monkeypatch):
    rng = np.random.default_rng(5)
    knots = np.sort(np.concatenate(([0.0, 2.0], rng.uniform(0.0, 2.0, 60))))
    m = TwoLevelModel(knots, coupling=rng.uniform(0.5, 2.0, knots.size),
                      gap=rng.uniform(3.0, 6.0, knots.size))
    steps = []
    cf4_step = rydmis.dynamics._cf4_step

    def spy(*args):
        steps.append(args[2:4])  # (t, dt)
        return cf4_step(*args)

    monkeypatch.setattr(rydmis.dynamics, "_cf4_step", spy)
    evolve_two_level(m)
    t, dt = np.array(steps).T
    assert t.size > 1000
    inside = (knots > t[:, None] + 1e-12) & (knots < (t + dt)[:, None] - 1e-12)
    assert not inside.any(), f"{inside.any(axis=1).sum()} of {t.size} trial steps straddle a knot"


def test_two_level_stepping_matches_rabi_formula():
    k, gap = 1.3, 4.1
    times = np.linspace(0.0, 2.0, 9)
    m = TwoLevelModel(times, coupling=np.full(9, k), gap=np.full(9, gap))
    t, p_e1 = evolve_two_level(m)
    rabi = np.hypot(k, gap / 2.0)
    expected = (k / rabi) ** 2 * np.sin(t * rabi) ** 2
    assert t.size == 400 and t[0] == 0.0 and t[-1] == 2.0
    np.testing.assert_allclose(p_e1, expected, rtol=0.0, atol=1e-7)


@pytest.mark.parametrize("field, value", [
    ("local_tol", -1e-9), ("local_tol", 0.0), ("local_tol", np.nan), ("local_tol", np.inf),
    ("convergence_tol", -1e-6), ("convergence_tol", 0.0), ("convergence_tol", np.nan),
])
def test_evolve_options_reject_unusable_tolerances(field, value):
    with pytest.raises(ValueError, match=field):
        EvolveOptions(**{field: value})


def test_evolve_logs_its_cost(params, caplog, monkeypatch):
    g = blockade_graph(builtin_instance("Q1D_4"), params)
    h = hamiltonian_terms(g, build_basis(g, "full"))
    sched, opts = standard_schedule(params), EvolveOptions(n_output=3)
    counts = rydmis.dynamics._check_run(h, sched, opts.local_tol)[4]
    check = (counts["accepted"], counts["rejected"], counts["exponentials"], counts["matvecs"])
    matvecs = []
    matvec = HamiltonianTerms.matvec

    def spy(self, *args):
        matvecs.append(1)
        return matvec(self, *args)

    monkeypatch.setattr(HamiltonianTerms, "matvec", spy)
    for in_child in (False, True):
        monkeypatch.setattr(rydmis.forks, "_may_fork", lambda: in_child)
        matvecs.clear()
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="rydmis.dynamics"):
            evolve(h, sched, opts)
        assert multiprocessing.active_children() == []
        (line,) = [r.getMessage() for r in caplog.records if r.name == "rydmis.dynamics"]
        runs = re.findall(r"(\d+) accepted and (\d+) rejected steps, (\d+) Krylov "
                          r"exponentials, (\d+) matvecs, [0-9.]+ s", line)
        assert len(runs) == 2 and "convergence-check delta" in line
        assert tuple(map(int, runs[1])) == check
        assert "main run (this process)" in line
        # the spy sees this process's matvecs: the check run's too unless a child made it
        if in_child:
            assert re.search(r"check run \(child process, peak RSS [0-9.]+ MiB\)", line)
            assert int(runs[0][3]) == len(matvecs)
        else:
            assert "check run (this process)" in line
            assert int(runs[0][3]) + check[3] == len(matvecs)


def test_every_projection_starts_from_the_pair_before_it(params, monkeypatch):
    g = blockade_graph(builtin_instance("Q1D_7"), params)
    h = hamiltonian_terms(g, build_basis(g, "full"))
    calls = []
    solve = rydmis.dynamics.eigenpairs_lowest2

    def spy(H, v0=None):
        e0, e1, w0, w1 = solve(H, v0=v0)
        calls.append((v0, w0 + w1))
        return e0, e1, w0, w1

    monkeypatch.setattr(rydmis.dynamics, "eigenpairs_lowest2", spy)
    evolve(h, standard_schedule(params), EvolveOptions(n_output=12))
    # omega = 0 at t = 0 and t = T, so the check run's two outputs need no solve
    assert len(calls) == 10
    assert calls[0][0] is None
    for k in range(1, len(calls)):
        assert np.array_equal(calls[k][0], calls[k - 1][1]), k


def test_about_one_tridiagonal_solve_per_exponential(params, monkeypatch):
    g = blockade_graph(builtin_instance("Q1D_7"), params)
    h = hamiltonian_terms(g, build_basis(g, "full"))
    calls = {"expm": 0, "solve": 0}

    def spy(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(rydmis.dynamics, "expm_lanczos", spy("expm", krylov.expm_lanczos))
    monkeypatch.setattr(krylov, "_expm_tridiag", spy("solve", krylov._expm_tridiag))
    evolve(h, standard_schedule(params), EvolveOptions(n_output=2))
    assert calls["expm"] > 100
    assert calls["solve"] <= 1.2 * calls["expm"]


def test_failed_projection_names_its_time(params, monkeypatch):
    g = blockade_graph(builtin_instance("Q1D_4"), params)
    h = hamiltonian_terms(g, build_basis(g, "full"))
    monkeypatch.setattr(krylov, "MAX_MATVECS", 5)
    for in_child in (False, True):
        monkeypatch.setattr(rydmis.forks, "_may_fork", lambda: in_child)
        with pytest.raises(ConvergenceError, match="ground projection at t = "):
            evolve(h, standard_schedule(params), EvolveOptions(n_output=3))
        assert multiprocessing.active_children() == []


def _check_run_in_child_that(monkeypatch, fail):
    """Make evolve fork its check run, and make that run call ``fail()``."""
    def check_run(h, sched, local_tol):
        fail()

    monkeypatch.setattr(rydmis.forks, "_may_fork", lambda: True)
    monkeypatch.setattr(rydmis.dynamics, "_check_run", check_run)


def test_a_failed_check_run_reaches_the_caller(params, monkeypatch):
    g = blockade_graph(builtin_instance("Q1D_4"), params)
    h = hamiltonian_terms(g, build_basis(g, "full"))

    def fail():
        raise ConvergenceError("the check run failed on purpose")

    _check_run_in_child_that(monkeypatch, fail)
    with pytest.raises(ConvergenceError, match="the check run failed on purpose"):
        evolve(h, standard_schedule(params), EvolveOptions(n_output=3))
    assert multiprocessing.active_children() == []


def test_a_check_process_that_dies_raises_instead_of_hanging(params, monkeypatch):
    g = blockade_graph(builtin_instance("Q1D_4"), params)
    h = hamiltonian_terms(g, build_basis(g, "full"))
    _check_run_in_child_that(monkeypatch, lambda: os._exit(3))

    def hung(signum, frame):
        raise TimeoutError("evolve still waits for a child that has exited")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(RydmisError, match="exited with code 3"):
            evolve(h, standard_schedule(params), EvolveOptions(n_output=3))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


def _q1d4_drives(params):
    """Q1D_4 terms and five drives: the standard sweep and four ADGLB exponents."""
    g = blockade_graph(builtin_instance("Q1D_4"), params)
    h = hamiltonian_terms(g, build_basis(g, "full"))
    profile = scan_gap(h, standard_schedule(params), n_samples=20)
    return h, [standard_schedule(params), *(adglb_schedule(params, profile, j)
                                            for j in (1.0, 1.5, 1.8, 2.0))]


def test_forked_evolve_all_matches_serial_evolve_all(params, monkeypatch, caplog):
    h, scheds = _q1d4_drives(params)
    opts = EvolveOptions(n_output=5)
    results = {}
    for forked in (False, True):
        monkeypatch.setattr(rydmis.forks, "_may_fork", lambda: forked)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="rydmis.dynamics"):
            results[forked] = rydmis.dynamics.evolve_all(h, scheds, opts)
        assert multiprocessing.active_children() == []
        lines = [r.getMessage() for r in caplog.records if r.name == "rydmis.dynamics"]
        assert len(lines) == len(scheds)
        # each line names where each of its two runs ran; forked, the child takes
        # whichever runs it reaches first, so only the first two places are fixed
        places = r"this process|child process, peak RSS [0-9.]+ MiB" if forked else "this process"
        for line in lines:
            assert re.search(rf"main run \(({places})\) .*; check run \(({places})\) ", line)
        if forked:
            assert "main run (this process)" in lines[0]
            assert "main run (child process" in lines[1]
    serial, forked = results[False], results[True]
    assert len(forked) == len(scheds)
    for a, b in zip(serial, forked):
        assert a.final_p_e0 == b.final_p_e0
        assert np.array_equal(a.p_e0, b.p_e0)
        assert np.array_equal(a.mis_overlap, b.mis_overlap)
        assert np.array_equal(a.final_state.amplitudes, b.final_state.amplitudes)


def test_a_failed_worker_evolution_reaches_the_caller(params, monkeypatch):
    # the main runs of the even drives fail here, those of the odd ones in the child
    h, scheds = _q1d4_drives(params)
    monkeypatch.setattr(krylov, "MAX_MATVECS", 5)
    monkeypatch.setattr(rydmis.forks, "_may_fork", lambda: True)
    with pytest.raises(ConvergenceError, match="ground projection at t = "):
        rydmis.dynamics.evolve_all(h, scheds, EvolveOptions(n_output=3))
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_raises_instead_of_hanging(params, monkeypatch):
    h, scheds = _q1d4_drives(params)
    run = rydmis.dynamics._run

    def dies_in_the_child(*args):
        if multiprocessing.parent_process() is not None:
            os._exit(3)
        return run(*args)

    monkeypatch.setattr(rydmis.forks, "_may_fork", lambda: True)
    monkeypatch.setattr(rydmis.dynamics, "_run", dies_in_the_child)

    def hung(signum, frame):
        raise TimeoutError("evolve_all still waits for a child that has exited")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(RydmisError, match="exited with code 3"):
            rydmis.dynamics.evolve_all(h, scheds, EvolveOptions(n_output=3))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


_WHERE_THE_CHECK_RUNS = """
import concurrent.futures, multiprocessing, threading
import rydmis.forks as forks
print(forks._may_fork())
stop = threading.Event()
other = threading.Thread(target=stop.wait)
other.start()
print(forks._may_fork())
stop.set()
other.join()
fork = multiprocessing.get_context("fork")
with concurrent.futures.ProcessPoolExecutor(1, mp_context=fork) as pool:
    print(pool.submit(forks._may_fork).result())
"""


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_check_runs_in_a_child_only_where_each_run_has_a_core(blas_threads):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
           "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", _WHERE_THE_CHECK_RUNS], env=env,
                         capture_output=True, text=True, check=True).stdout.split()
    alone = blas_threads == "1" and len(os.sched_getaffinity(0)) >= 2
    # BLAS worker threads, another thread, or a pool's worker process: no fork
    assert out == [str(alone), "False", "False"]


def test_cold_projection_converges_at_small_omega(params, q1d10):
    # t = T/400 on the standard sweep: omega = 2pi x 0.025 MHz, where E1 sits in a
    # tight cluster; the solve converges only on krylov.GROWN_BASIS, at T/200 before
    _, _, h = q1d10
    sched = standard_schedule(params)
    t = sched.total_time / 400.0
    psi = np.zeros(h.dim, dtype=complex)
    psi[0] = 1.0
    p_e0, _ = rydmis.dynamics._ground_projection(
        h, float(sched.omega(t)), float(sched.delta(t)), psi)
    assert 0.0 <= p_e0 <= 1.0 + 1e-12


def test_fig3b_robust_claims(q1d10_profile, q1d10_evolutions):
    """The paper's fig. 3b ordering and gap minimum.

    They hold although every simulated final population is 0.011-0.024
    below its published value, so only the ordering is asserted.
    """
    assert q1d10_profile.t_min == pytest.approx(3.60, abs=0.01)
    standard = q1d10_evolutions["standard"].final_p_e0
    adglb = {j: r.final_p_e0 for j, r in q1d10_evolutions.items() if j != "standard"}
    assert all(p > standard for p in adglb.values()), adglb
    assert max(adglb, key=adglb.get) == 1.5, adglb
