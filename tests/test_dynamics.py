import numpy as np
import pytest

from rydmis import (
    blockade_graph,
    build_basis,
    builtin_instance,
    evolve,
    hamiltonian_terms,
    standard_schedule,
)

from oracles import oracle_dense_hamiltonian


def _midpoint_p_e0(positions, params, sched, n_steps):
    """Final ground population by exact exponentials of the dense H at step midpoints.

    Each schedule segment between kinks gets about n_steps * length / T
    equal steps, so H(t) is smooth inside every step and the global
    error is a series in even powers of the step.
    """
    # H = omega X + delta Z + U exactly: the oracle is linear in (omega, delta)
    u = oracle_dense_hamiltonian(positions, params.c6, 0.0, 0.0)
    x = oracle_dense_hamiltonian(positions, 0.0, 1.0, 0.0)
    z = oracle_dense_hamiltonian(positions, 0.0, 0.0, 1.0)
    t_r, t_end = sched.ramp_time, sched.total_time
    psi = np.zeros(u.shape[0], dtype=complex)
    psi[0] = 1.0  # all atoms in |g>
    knots = (0.0, t_r, t_end - t_r, t_end)
    for a, b in zip(knots[:-1], knots[1:]):
        n = int(np.ceil(n_steps * (b - a) / t_end))
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
    assert res.final_state.norm() == pytest.approx(1.0, abs=1e-9)
    # Richardson extrapolation of the second-order oracle: its step error
    # at 1000 steps is about 1.2e-5 and scales as the step squared
    coarse = _midpoint_p_e0(arr.positions, params, sched, 500)
    fine = _midpoint_p_e0(arr.positions, params, sched, 1000)
    oracle = (4.0 * fine - coarse) / 3.0
    assert res.final_p_e0 == pytest.approx(oracle, abs=1e-6)
    assert res.p_e0[-1] == res.final_p_e0
    assert np.all((res.p_e0 >= -1e-12) & (res.p_e0 <= 1.0 + 1e-9))
