"""Time-dependent Schrodinger integration and the two-level reduction.

One adaptive step-doubling loop, ``_step_doubling``, runs both the
full evolution (``evolve``) and the two-level reduction
(``evolve_two_level``).  It advances the state by a 4th-order
commutator-free step (Alvermann & Fehske, J. Comput. Phys. 230, 2011):
two exponentials exp(-i h (w1 H(t1) + w2 H(t2))) at the Gauss-Legendre
nodes t1,2 = t + (1/2 -+ sqrt(3)/6) h.  Step-doubling (Richardson)
error control accepts or shrinks each trial step.

Both drives are piecewise linear in t: the Rabi trapezoid and the
detuning table of a ``PulseSchedule``, and the interpolated coupling and
gap of a ``TwoLevelModel``.  A kink inside a step breaks the scheme's
4th order, and the controller then shrinks and rejects steps around
every one of the ~1000 knots of an engineered table.  So no trial step
crosses a knot of the drive: inside every step H(t) is linear.

In the full evolution H depends linearly on (omega, delta), so each
exponent is exactly H at an effective parameter pair, and its action is
the Krylov exponential of ``_expm_lanczos``, whose basis grows by the
same block-CGS2 step (``krylov.extend``) as the eigensolver's.  A run is
reported only after halving the step cap reproduces the final
ground-state population to the convergence tolerance; its cost (steps,
Krylov exponentials, matvecs) and that check's delta go to one DEBUG
line of this module's logger.  The ground population at each output
time comes from ``spectrum.eigenpairs_lowest2``, warm-started from the
ground vector of the previous output time.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dstev

from .configs import bits_to_configs
from .errors import ConvergenceError
from .hamiltonian import BasisSet, HamiltonianTerms, assemble, hamiltonian_time_derivative
from .isets import count_isets, mis_projector_support
from .krylov import extend
from .schedule import PulseSchedule
from .spectrum import GapProfile, eigenpairs_lowest2

_SQRT3 = np.sqrt(3.0)
_GL_NODES = (0.5 - _SQRT3 / 6.0, 0.5 + _SQRT3 / 6.0)
_CF4_W1 = (3.0 + 2.0 * _SQRT3) / 12.0
_CF4_W2 = (3.0 - 2.0 * _SQRT3) / 12.0
KNOT_TOL = 1e-12  # us: a knot this close ahead of t counts as reached

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class QuantumState:
    basis: BasisSet
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


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
    vals, vecs, info = dstev(alphas, betas, compute_v=1)
    if info != 0:
        raise ConvergenceError(
            f"dstev failed on the {alphas.size}-dim Lanczos tridiagonal (info {info})"
        )
    return vecs @ (np.exp(-1j * tau * vals) * vecs[0, :].conj())


def _cf4_step(
    h: HamiltonianTerms,
    sched: PulseSchedule,
    t: float,
    dt: float,
    psi: np.ndarray,
    krylov_dim: int,
    exp_tol: float,
    counts: Counter,
) -> np.ndarray:
    """One commutator-free 4th-order step from t to t + dt.

    Adds its Krylov exponentials and matvecs to ``counts``.
    """
    t1 = t + _GL_NODES[0] * dt
    t2 = t + _GL_NODES[1] * dt
    om1, om2 = float(sched.omega(t1)), float(sched.omega(t2))
    de1, de2 = float(sched.delta(t1)), float(sched.delta(t2))
    for w1, w2 in ((_CF4_W1, _CF4_W2), (_CF4_W2, _CF4_W1)):
        om_eff = 2.0 * (w1 * om1 + w2 * om2)
        de_eff = 2.0 * (w1 * de1 + w2 * de2)

        def matvec(x, om=om_eff, de=de_eff):
            counts["matvecs"] += 1
            return h.matvec(om, de, x)

        psi = _expm_lanczos(matvec, psi, dt / 2.0, krylov_dim, exp_tol)
    counts["exponentials"] += 2
    return psi


def _step_doubling(
    step: Callable[[float, float, np.ndarray], np.ndarray],
    psi: np.ndarray,
    span: tuple[float, float],
    knots: np.ndarray,
    local_tol: float,
    max_step: float,
    min_step: float,
    dt_hint: float,
    counts: Counter,
) -> tuple[np.ndarray, float]:
    """Adaptive evolution of psi over span = (t0, t1); returns (psi, step hint).

    ``step(t, dt, psi)`` advances psi from t to t + dt.  A trial step from
    t ends at min(t + dt, next knot, t1), so none crosses a knot of the
    sorted array ``knots``; a knot within KNOT_TOL of t counts as reached.
    Its error is |coarse - fine| / 15, with fine two half steps.  An
    accepted step that a knot or t1 cut short leaves the proposed dt at
    least as large as before, so the controller does not restart from a
    small step after every knot.  Adds the accepted and rejected steps to
    ``counts``.
    """
    t, t1 = span
    dt = min(dt_hint, max_step)
    while t < t1 - KNOT_TOL:
        k = np.searchsorted(knots, t + KNOT_TOL, side="right")
        end = t1 if k == knots.size or knots[k] > t1 - KNOT_TOL else float(knots[k])
        h = min(dt, end - t)
        coarse = step(t, h, psi)
        fine = step(t + h / 2.0, h / 2.0, step(t, h / 2.0, psi))
        err = float(np.linalg.norm(coarse - fine)) / 15.0
        factor = 2.0 if err == 0.0 else min(2.0, max(0.2, 0.9 * (local_tol / err) ** 0.2))
        if err <= local_tol:
            counts["accepted"] += 1
            psi = fine
            t = end if h == end - t else t + h
            dt = min(max(dt, h * factor) if h < dt else h * factor, max_step)
        else:
            counts["rejected"] += 1
            dt = h * factor
            if dt < min_step:
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
    mis_configs = bits_to_configs(mis_projector_support(h.graph, stats), h.graph.n)
    mis_positions = h.basis.position_of(mis_configs)
    mis_positions = mis_positions[mis_positions >= 0]

    t_r, t_end = sched.ramp_time, sched.total_time
    knots = np.union1d(sched.delta_times, (0.0, t_r, t_end - t_r, t_end))
    counts: Counter = Counter()

    def run(local_opts: EvolveOptions, record: bool):
        exp_tol = local_opts.local_tol / 10.0

        def step(t: float, dt: float, psi: np.ndarray) -> np.ndarray:
            return _cf4_step(h, sched, t, dt, psi, local_opts.krylov_dim, exp_tol, counts)

        times = np.linspace(0.0, t_end, local_opts.n_output)
        psi = np.zeros(h.dim, dtype=complex)
        psi[pos0] = 1.0
        p_e0 = np.empty(times.size)
        p_mis = np.empty(times.size)
        dt_hint = local_opts.max_step
        ground = None  # ground vector at the previous output time
        for i, t_out in enumerate(times):
            if i > 0:
                psi, dt_hint = _step_doubling(
                    step, psi, (times[i - 1], t_out), knots, local_opts.local_tol,
                    local_opts.max_step, local_opts.min_step, dt_hint, counts,
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

    check_delta = None
    if opts.convergence_check:
        check_opts = replace(
            opts,
            max_step=opts.max_step / 2.0,
            local_tol=opts.local_tol / 4.0,
            track_projections=False,
            n_output=2,
        )
        _, _, _, _, final_check = run(check_opts, record=False)
        check_delta = abs(final_check - final_p_e0)
    logger.debug(
        "evolve dim %d, %d knots, %d run(s): %d accepted and %d rejected steps, "
        "%d Krylov exponentials, %d matvecs, convergence-check delta %s",
        h.dim, knots.size, 1 + opts.convergence_check, counts["accepted"],
        counts["rejected"], counts["exponentials"], counts["matvecs"],
        "not run" if check_delta is None else f"{check_delta:.3e}",
    )
    if check_delta is not None and check_delta >= opts.convergence_tol:
        raise ConvergenceError(
            f"halving the step cap moved final p_e0 by {check_delta:.2e} "
            f"(>= {opts.convergence_tol:g}); tighten local_tol"
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

    Runs on the same step-doubling loop and commutator-free step as the
    full evolution, with the 2x2 exponentials evaluated in closed form.
    The knots are ``m.times``, where the linear interpolation of the
    coupling and the gap kinks, so no step crosses one.  Returns
    (times, p_e1).
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

    knots = np.asarray(m.times, dtype=float)
    times = np.linspace(knots[0], knots[-1], n_output)
    c = np.array([1.0 + 0.0j, 0.0j])
    p_e1 = np.empty(times.size)
    p_e1[0] = 0.0
    dt = max_step
    counts: Counter = Counter()
    for i in range(1, times.size):
        c, dt = _step_doubling(
            step, c, (times[i - 1], times[i]), knots, local_tol, max_step, min_step, dt, counts
        )
        p_e1[i] = float(abs(c[1]) ** 2)
    return times, p_e1
