"""Time-dependent Schrodinger integration and the two-level reduction.

The propagator is a 4th-order commutator-free scheme: per step two
exponentials exp(-i h (w1 H(t1) + w2 H(t2))) at the Gauss-Legendre nodes
t1,2 = t + (1/2 -+ sqrt(3)/6) h.  Because H depends linearly on (omega,
delta), each exponent is exactly H at an effective parameter pair, and
its action is the Krylov exponential of ``_expm_lanczos``, whose basis
grows by the same block-CGS2 step (``krylov.extend``) as the
eigensolver's.  Steps are accepted by step-doubling (Richardson) error
control; a run is reported only after halving the step cap reproduces
the final ground-state population to the convergence tolerance.  The
ground population at each output time comes from
``spectrum.eigenpairs_lowest2``, warm-started from the ground vector of
the previous output time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConvergenceError
from .geometry import BlockadeGraph
from .hamiltonian import BasisSet, HamiltonianTerms, assemble, hamiltonian_time_derivative
from .isets import count_isets, mis_projector_support
from .krylov import extend
from .schedule import PulseSchedule
from .spectrum import GapProfile, eigenpairs_lowest2

_SQRT3 = np.sqrt(3.0)
_GL_NODES = (0.5 - _SQRT3 / 6.0, 0.5 + _SQRT3 / 6.0)
_CF4_W1 = (3.0 + 2.0 * _SQRT3) / 12.0
_CF4_W2 = (3.0 - 2.0 * _SQRT3) / 12.0


@dataclass(frozen=True, eq=False)
class QuantumState:
    basis: BasisSet
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probability_of(self, config: int) -> float:
        pos = self.basis.position_of(config)
        return float(abs(self.amplitudes[pos]) ** 2) if pos >= 0 else 0.0


@dataclass(frozen=True, eq=False)
class EvolutionResult:
    """Ground-population, leakage and MIS-overlap series plus final state."""

    times: np.ndarray
    p_e0: np.ndarray
    p_leak: np.ndarray
    mis_overlap: np.ndarray
    final_state: QuantumState
    final_p_e0: float
    final_p_mis: float


@dataclass(frozen=True)
class EvolveOptions:
    n_output: int = 200
    local_tol: float = 2e-9
    max_step: float = 0.05
    min_step: float = 1e-9
    krylov_dim: int = 48
    convergence_check: bool = True
    convergence_tol: float = 1e-6
    degeneracy_tol: float = 1e-6
    track_projections: bool = True


def _expm_lanczos(matvec, v: np.ndarray, tau: float, m_max: int, tol: float) -> np.ndarray:
    """exp(-i tau A) v for Hermitian A via a Lanczos Krylov subspace.

    The basis grows by ``krylov.extend`` until the residual estimate
    drops below tol.  Falls back to two half-interval applications if
    m_max vectors are reached first.
    """
    beta0 = np.linalg.norm(v)
    if beta0 == 0.0:
        return v.copy()
    basis = np.empty((m_max, v.size), dtype=complex)
    basis[0] = v / beta0
    alphas = np.empty(m_max)
    betas = np.empty(m_max)
    for j in range(m_max):
        c, w, beta = extend(matvec, basis, j)
        alphas[j] = c[j].real
        y = _expm_tridiag(alphas[: j + 1], betas[:j], tau)
        if beta < 1e-14 or beta * abs(y[-1]) * min(abs(tau), 1.0) < tol:
            return beta0 * (y @ basis[: j + 1])
        if j + 1 < m_max:
            betas[j] = beta
            basis[j + 1] = w / beta
    half = _expm_lanczos(matvec, v, tau / 2.0, m_max, tol / 2.0)
    return _expm_lanczos(matvec, half, tau / 2.0, m_max, tol / 2.0)


def _expm_tridiag(alphas: np.ndarray, betas: np.ndarray, tau: float) -> np.ndarray:
    """First column of exp(-i tau T) for the Lanczos tridiagonal T."""
    if alphas.size == 1:
        return np.array([np.exp(-1j * tau * alphas[0])])
    vals, vecs = eigh_tridiagonal(alphas, betas)
    return vecs @ (np.exp(-1j * tau * vals) * vecs[0, :].conj())


def _cf4_step(
    h: HamiltonianTerms,
    sched: PulseSchedule,
    t: float,
    dt: float,
    psi: np.ndarray,
    krylov_dim: int,
    exp_tol: float,
) -> np.ndarray:
    """One commutator-free 4th-order step from t to t + dt."""
    t1 = t + _GL_NODES[0] * dt
    t2 = t + _GL_NODES[1] * dt
    om1, om2 = float(sched.omega(t1)), float(sched.omega(t2))
    de1, de2 = float(sched.delta(t1)), float(sched.delta(t2))
    for w1, w2 in ((_CF4_W1, _CF4_W2), (_CF4_W2, _CF4_W1)):
        om_eff = 2.0 * (w1 * om1 + w2 * om2)
        de_eff = 2.0 * (w1 * de1 + w2 * de2)
        psi = _expm_lanczos(
            lambda x: h.matvec(om_eff, de_eff, x), psi, dt / 2.0, krylov_dim, exp_tol
        )
    return psi


def _propagate(
    h: HamiltonianTerms,
    sched: PulseSchedule,
    t0: float,
    t1: float,
    psi: np.ndarray,
    opts: EvolveOptions,
    h_guess: float,
) -> tuple[np.ndarray, float]:
    """Adaptive evolution of psi from t0 to t1; returns (psi, step hint)."""
    t = t0
    dt = min(h_guess, opts.max_step)
    exp_tol = opts.local_tol / 10.0
    while t < t1 - 1e-13:
        dt = min(dt, t1 - t, opts.max_step)
        coarse = _cf4_step(h, sched, t, dt, psi, opts.krylov_dim, exp_tol)
        mid = _cf4_step(h, sched, t, dt / 2.0, psi, opts.krylov_dim, exp_tol)
        fine = _cf4_step(h, sched, t + dt / 2.0, dt / 2.0, mid, opts.krylov_dim, exp_tol)
        err = float(np.linalg.norm(coarse - fine)) / 15.0
        if err <= opts.local_tol:
            psi = fine
            t += dt
            growth = 2.0 if err == 0.0 else min(2.0, 0.9 * (opts.local_tol / err) ** 0.2)
            dt = dt * max(growth, 0.2)
        else:
            dt = dt * max(0.2, 0.9 * (opts.local_tol / err) ** 0.2)
            if dt < opts.min_step:
                raise ConvergenceError(f"step size underflow at t = {t:.6f} us")
    return psi, dt


def _ground_projection(
    h: HamiltonianTerms,
    omega: float,
    delta: float,
    psi: np.ndarray,
    deg_tol: float,
    warm: np.ndarray | None = None,
) -> tuple[float, np.ndarray | None]:
    """Population on the (possibly degenerate) instantaneous ground space.

    Also returns the ground vector (None at omega = 0, where H is
    diagonal) for the next call to warm-start from.
    """
    if omega == 0.0:
        diag = delta * h.zdiag + h.udiag
        ground = diag <= diag.min() + deg_tol
        return float(np.sum(np.abs(psi[ground]) ** 2)), None
    _, _, v0, _ = eigenpairs_lowest2(assemble(h, omega, delta), v0=warm)
    return float(abs(np.vdot(v0, psi)) ** 2), v0


def evolve(
    h: HamiltonianTerms,
    sched: PulseSchedule,
    opts: EvolveOptions | None = None,
) -> EvolutionResult:
    """Integrate i d|psi>/dt = H(t)|psi> from the all-ground state.

    Ground population is the projection onto the instantaneous ground
    eigenvector at each output time (onto the degenerate ground space
    where eigenvalues coincide within the degeneracy tolerance, which is
    the generic situation at t = T when the MIS is degenerate).
    """
    if opts is None:
        opts = EvolveOptions()
    pos0 = h.basis.position_of(0)
    if pos0 < 0:
        raise ValueError("basis does not contain the all-ground configuration")

    stats = count_isets(h.graph)
    mis_configs = [int(b, 2) for b in mis_projector_support(h.graph, stats)]
    mis_positions = np.array(
        [p for p in (h.basis.position_of(c) for c in mis_configs) if p >= 0], dtype=int
    )

    def run(local_opts: EvolveOptions, record: bool):
        times = np.linspace(0.0, sched.total_time, local_opts.n_output)
        psi = np.zeros(h.dim, dtype=complex)
        psi[pos0] = 1.0
        p_e0 = np.empty(times.size)
        p_mis = np.empty(times.size)
        dt_hint = local_opts.max_step
        ground = None  # ground vector at the previous output time
        for i, t_out in enumerate(times):
            if i > 0:
                psi, dt_hint = _propagate(
                    h, sched, times[i - 1], t_out, psi, local_opts, dt_hint
                )
            if record and local_opts.track_projections:
                p_e0[i], ground = _ground_projection(
                    h, float(sched.omega(t_out)), float(sched.delta(t_out)),
                    psi, local_opts.degeneracy_tol, ground,
                )
                p_mis[i] = float(np.sum(np.abs(psi[mis_positions]) ** 2))
        final_p_e0, _ = _ground_projection(
            h, float(sched.omega(times[-1])), float(sched.delta(times[-1])),
            psi, local_opts.degeneracy_tol, ground,
        )
        return times, psi, p_e0, p_mis, final_p_e0

    times, psi, p_e0, p_mis, final_p_e0 = run(opts, record=True)

    if opts.convergence_check:
        check_opts = replace(
            opts,
            max_step=opts.max_step / 2.0,
            local_tol=opts.local_tol / 4.0,
            track_projections=False,
            n_output=2,
        )
        _, _, _, _, final_check = run(check_opts, record=False)
        if abs(final_check - final_p_e0) >= opts.convergence_tol:
            raise ConvergenceError(
                "halving the step cap moved final p_e0 by "
                f"{abs(final_check - final_p_e0):.2e} (>= {opts.convergence_tol:g}); "
                "tighten local_tol"
            )

    if not opts.track_projections:
        p_e0 = np.full(times.size, np.nan)
        p_mis = np.full(times.size, np.nan)
        p_e0[-1] = final_p_e0
    final_p_mis = float(np.sum(np.abs(psi[mis_positions]) ** 2))
    return EvolutionResult(
        times=times,
        p_e0=p_e0,
        p_leak=1.0 - p_e0,
        mis_overlap=p_mis,
        final_state=QuantumState(basis=h.basis, amplitudes=psi),
        final_p_e0=final_p_e0,
        final_p_mis=final_p_mis,
    )


def mis_probability(res: EvolutionResult, g: BlockadeGraph) -> float:
    """Total final-state probability on the MIS configurations."""
    stats = count_isets(g)
    configs = [int(b, 2) for b in mis_projector_support(g, stats)]
    return float(
        sum(res.final_state.probability_of(c) for c in configs)
    )


@dataclass(frozen=True, eq=False)
class TwoLevelModel:
    """Effective Hamiltonian K(t) s_y - (gap(t)/2) s_z in the {E0, E1} frame.

    K = <E1| dH/dt |E0> / gap.  Values between grid points interpolate
    linearly.  The sign of K is gauge smoothed along the grid (an overall
    or piecewise sign of K is unobservable in the populations, but
    interpolating through an artificial sign flip would not be).
    """

    times: np.ndarray
    coupling: np.ndarray
    gap: np.ndarray

    def coupling_at(self, t):
        return np.interp(t, self.times, self.coupling)

    def gap_at(self, t):
        return np.interp(t, self.times, self.gap)


def build_two_level_model(
    h: HamiltonianTerms, sched: PulseSchedule, profile: GapProfile
) -> TwoLevelModel:
    if profile.vecs0 is None or profile.vecs1 is None:
        raise ValueError("profile was scanned without stored eigenvectors")
    times = profile.times
    coupling = np.empty(times.size)
    for i, t in enumerate(times):
        dh = hamiltonian_time_derivative(h, sched, float(t))
        num = np.vdot(profile.vecs1[i], dh @ profile.vecs0[i])
        coupling[i] = float(np.real(num)) / float(profile.gaps[i])
    for i in range(1, coupling.size):
        if abs(coupling[i] + coupling[i - 1]) < abs(coupling[i] - coupling[i - 1]):
            coupling[i] = -coupling[i]
    return TwoLevelModel(times=times.copy(), coupling=coupling, gap=profile.gaps.copy())


def evolve_two_level(
    m: TwoLevelModel,
    n_output: int = 400,
    local_tol: float = 1e-8,
    max_step: float = 0.01,
    min_step: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray]:
    """Leakage P_E1(t) of the two-level model from (c0, c1) = (1, 0).

    Same commutator-free stepping and step-doubling control as the full
    evolution, with the 2x2 exponentials evaluated in closed form.
    Returns (times, p_e1).
    """

    def exp_apply(a: float, b: float, tau: float, c: np.ndarray) -> np.ndarray:
        # exp(-i tau (a s_y + b s_z)) c
        r = np.hypot(a, b)
        if r == 0.0:
            return c.copy()
        th = tau * r
        cos, sin = np.cos(th), np.sin(th)
        u, w = a / r, b / r
        return np.array(
            [
                (cos - 1j * sin * w) * c[0] - sin * u * c[1],
                sin * u * c[0] + (cos + 1j * sin * w) * c[1],
            ]
        )

    def step(t: float, dt: float, c: np.ndarray) -> np.ndarray:
        t1 = t + _GL_NODES[0] * dt
        t2 = t + _GL_NODES[1] * dt
        k1, k2 = float(m.coupling_at(t1)), float(m.coupling_at(t2))
        g1, g2 = float(m.gap_at(t1)), float(m.gap_at(t2))
        for w1, w2 in ((_CF4_W1, _CF4_W2), (_CF4_W2, _CF4_W1)):
            a = w1 * k1 + w2 * k2
            b = -0.5 * (w1 * g1 + w2 * g2)
            c = exp_apply(a, b, dt, c)
        return c

    t0, t1 = float(m.times[0]), float(m.times[-1])
    times = np.linspace(t0, t1, n_output)
    c = np.array([1.0 + 0.0j, 0.0j])
    p_e1 = np.empty(times.size)
    p_e1[0] = 0.0
    dt = max_step
    for i in range(1, times.size):
        t = times[i - 1]
        target = times[i]
        while t < target - 1e-13:
            dt = min(dt, target - t, max_step)
            coarse = step(t, dt, c)
            fine = step(t + dt / 2.0, dt / 2.0, step(t, dt / 2.0, c))
            err = float(np.linalg.norm(coarse - fine)) / 15.0
            if err <= local_tol:
                c = fine
                t += dt
                dt *= 2.0 if err == 0.0 else min(2.0, max(0.2, 0.9 * (local_tol / err) ** 0.2))
            else:
                dt *= max(0.2, 0.9 * (local_tol / err) ** 0.2)
                if dt < min_step:
                    raise ConvergenceError(f"two-level step underflow at t = {t:.6f}")
        p_e1[i] = float(abs(c[1]) ** 2)
    return times, p_e1
