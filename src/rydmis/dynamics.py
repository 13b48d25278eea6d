"""Time-dependent Schrodinger integration and the two-level reduction.

The full evolution (``evolve``) and the two-level reduction
(``evolve_two_level``) share one time-stepper.  ``_cf4_step`` is the
4th-order commutator-free step (Alvermann & Fehske, J. Comput. Phys.
230, 2011): two exponentials exp(-i h (w1 H(t1) + w2 H(t2))) at the
Gauss-Legendre nodes t1,2 = t + (1/2 -+ sqrt(3)/6) h.  Each evolution
passes it only its drive's parameter pair and the exponential of H at a
pair.  ``_step_doubling`` is the one loop over output times: it yields
the state at each of them, and step-doubling (Richardson) error control
accepts or shrinks each trial step.

Both drives are polynomial between knots: the Rabi trapezoid and the
detuning pieces of a ``PulseSchedule`` (``sched.knots``), and the
interpolated coupling and gap of a ``TwoLevelModel`` (``m.times``).  A
kink inside a step breaks the scheme's 4th order, and the controller
then shrinks and rejects steps around it.  So no trial step crosses a
knot of the drive.

In the full evolution the pair is (omega, delta), and an exponential is
``krylov.expm_lanczos`` on ``HamiltonianTerms.matvec``: per Krylov vector
one matvec at the fixed pair and the three-term Lanczos recurrence, with
about one tridiagonal solve per exponential.  In the two-level reduction
the pair is (K, gap), and an exponential is the closed-form 2x2 rotation.

The ground population at each output time comes from
``spectrum.eigenpairs_lowest2`` on the operator of ``hamiltonian.assemble``,
warm-started from w0 + w1 of the previous output time's solve, and the
MIS overlap sums the populations of the census's ``mis_configs``.  A run
is reported only after halving the step cap reproduces the final
ground-state population to the convergence tolerance.  The runs are
independent, so ``evolve_all`` hands every main run and then every check
run to ``forks.share`` (``evolve``, one drive, keeps its main run here
and, where the fork rule allows it, sends its check run to the child).
Per drive, each run's cost (steps, Krylov exponentials, and the matvecs
of the stepping and the projections, read from the terms' counter),
where it ran and the check's delta go to one DEBUG line.

The two-level reduction needs <E1| dH/dt |E0>, and dH/dt is
omega' sx + delta' zdiag, read off the same cached terms.
"""

from __future__ import annotations

import logging
import time
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from . import forks
from .configs import bits_to_configs, configs_to_bits
from .errors import ConvergenceError
from .geometry import is_number
from .hamiltonian import BasisSet, HamiltonianTerms, assemble
from .isets import count_isets
from .krylov import expm_lanczos
from .schedule import PulseSchedule
from .spectrum import GapProfile, eigenpairs_lowest2

_SQRT3 = np.sqrt(3.0)
_GL_NODES = (0.5 - _SQRT3 / 6.0, 0.5 + _SQRT3 / 6.0)
_CF4_W1 = (3.0 + 2.0 * _SQRT3) / 12.0
_CF4_W2 = (3.0 - 2.0 * _SQRT3) / 12.0
KNOT_TOL = 1e-12  # us: a knot this close ahead of t counts as reached
MAX_STEP = 0.01  # of T: evolve's step cap (halved by the convergence check)
MIN_STEP = 1e-9  # us: a rejected step below this raises ConvergenceError
DEGENERACY_TOL = 1e-6  # rad/us: diagonal entries this close form the ground space
TWO_LEVEL_TOL = 1e-8  # evolve_two_level's local error tolerance
TWO_LEVEL_MAX_STEP = 0.01  # us
TWO_LEVEL_MIN_STEP = 1e-12  # us
TWO_LEVEL_N_OUTPUT = 400  # evolve_two_level's output times

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class QuantumState:
    basis: BasisSet
    amplitudes: np.ndarray

    def to_json(self) -> dict:
        """The nonzero amplitudes as (bits, re, im) entries, in basis order."""
        keep = np.abs(self.amplitudes) > 0.0
        bits = configs_to_bits(self.basis.states[keep], self.basis.n)
        entries = [{"bits": b, "re": float(a.real), "im": float(a.imag)}
                   for b, a in zip(bits, self.amplitudes[keep])]
        return {"n": self.basis.n, "kind": self.basis.kind, "entries": entries}

    @classmethod
    def from_json(cls, data: dict) -> "QuantumState":
        """State of the to_json dict the CLI read from a state file, in any entry order."""
        entries, n, kind = data.get("entries"), data.get("n"), data.get("kind", "custom")
        if not (isinstance(entries, list) and isinstance(kind, str) and is_number(n, int) and all(
                isinstance(e, dict) and isinstance(e.get("bits"), str)
                and is_number(e.get("re")) and is_number(e.get("im")) for e in entries)):
            raise ValueError("state file must hold an integer 'n', a string 'kind' if any and a "
                             "list of 'entries': bits must be strings, re and im must be numbers")
        configs = bits_to_configs([e["bits"] for e in entries], n)
        states, first, counts = np.unique(configs, return_index=True, return_counts=True)
        if np.any(counts > 1):
            bits = configs_to_bits(states[counts > 1][:1], n)[0]
            raise ValueError(f"state file lists configuration {bits} more than once")
        amps = np.array([complex(e["re"], e["im"]) for e in entries])
        basis = BasisSet(kind=kind, n=n, states=states)
        return cls(basis=basis, amplitudes=amps[first])


@dataclass(frozen=True, eq=False)
class EvolutionResult:
    """Ground-population and MIS-overlap series plus final state."""

    times: np.ndarray
    p_e0: np.ndarray
    mis_overlap: np.ndarray
    final_state: QuantumState
    final_p_e0: float
    final_p_mis: float


@dataclass(frozen=True)
class EvolveOptions:
    n_output: int = 200
    local_tol: float = 2e-9
    convergence_tol: float = 1e-6

    def __post_init__(self):
        if self.n_output < 2:
            raise ValueError(f"n_output = {self.n_output}: an evolution needs at least 2 "
                             "output times (t = 0 and t = T)")
        for name in ("local_tol", "convergence_tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} = {value}: a tolerance must be finite and > 0")


def _cf4_step(
    at: Callable[[float], tuple[float, float]],
    expm: Callable[[float, float, float, np.ndarray], np.ndarray],
    t: float,
    dt: float,
    psi: np.ndarray,
) -> np.ndarray:
    """One commutator-free 4th-order step from t to t + dt.

    ``at(t)`` is the drive's parameter pair (p, q) at t, and H is linear
    in it; ``expm(p, q, tau, psi)`` applies exp(-i tau H(p, q)) to psi.
    Each exponential is (dt/2) H at twice the weighted pair: w1 + w2 = 1/2
    and the rescalings are powers of two, so this is exact.
    """
    (p1, q1), (p2, q2) = at(t + _GL_NODES[0] * dt), at(t + _GL_NODES[1] * dt)
    for w1, w2 in ((_CF4_W1, _CF4_W2), (_CF4_W2, _CF4_W1)):
        psi = expm(2.0 * (w1 * p1 + w2 * p2), 2.0 * (w1 * q1 + w2 * q2), dt / 2.0, psi)
    return psi


def _step_doubling(
    step: Callable[[float, float, np.ndarray], np.ndarray],
    psi: np.ndarray,
    times: np.ndarray,
    knots: np.ndarray,
    local_tol: float,
    max_step: float,
    min_step: float,
    counts: Counter,
) -> Iterator[np.ndarray]:
    """Adaptive evolution of psi; yields psi at each of the sorted ``times``.

    ``step(t, dt, psi)`` advances psi from t to t + dt.  A trial step from
    t ends at min(t + dt, next knot, next output time), so none crosses a
    knot of the sorted array ``knots``; a knot within KNOT_TOL of t counts
    as reached.  Its error is |coarse - fine| / 15, with fine two half
    steps.  The step size carries over from one output time to the next,
    and an accepted step that a knot or an output time cut short leaves
    it at least as large as before, so the controller does not restart
    from a small step after every knot.  Adds the accepted and rejected
    steps to ``counts``.
    """
    yield psi
    dt = max_step
    for t, t1 in zip(times[:-1], times[1:]):
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
        yield psi


def _ground_projection(
    h: HamiltonianTerms,
    omega: float,
    delta: float,
    psi: np.ndarray,
    warm: np.ndarray | None = None,
) -> tuple[float, np.ndarray | None]:
    """Population on the (possibly degenerate) instantaneous ground space.

    Also returns w0 + w1, the sum of the two eigenvectors (None at
    omega = 0, where H is diagonal), for the next call to warm-start from.
    """
    if omega == 0.0:
        diag = delta * h.zdiag + h.udiag
        ground = diag <= diag.min() + DEGENERACY_TOL
        return float(np.sum(np.abs(psi[ground]) ** 2)), None
    _, _, v0, v1 = eigenpairs_lowest2(assemble(h, omega, delta), v0=warm)
    return float(abs(np.vdot(v0, psi)) ** 2), v0 + v1


def _run(
    h: HamiltonianTerms,
    sched: PulseSchedule,
    mis_positions: np.ndarray,
    n_output: int,
    local_tol: float,
    max_step: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Counter]:
    """One evolution from the all-ground state at n_output evenly spaced times,
    with steps of at most max_step * T.

    Returns (times, final psi, p_e0, p_mis, counts), with the run's steps,
    Krylov exponentials, matvecs and wall seconds in ``counts``.
    """
    exp_tol = local_tol / 10.0
    counts: Counter = Counter()
    matvecs, t0 = h.matvecs, time.perf_counter()

    def at(t: float) -> tuple[float, float]:
        return float(sched.omega(t)), float(sched.delta(t))

    def expm(omega: float, delta: float, tau: float, psi: np.ndarray) -> np.ndarray:
        counts["exponentials"] += 1
        return expm_lanczos(partial(h.matvec, omega, delta), psi, tau, exp_tol)

    times = np.linspace(0.0, sched.total_time, n_output)
    psi = np.zeros(h.dim, dtype=complex)
    psi[h.basis.position_of(0)] = 1.0
    p_e0, p_mis = np.empty((2, times.size))
    warm = None  # w0 + w1 at the previous output time
    states = _step_doubling(partial(_cf4_step, at, expm), psi, times, sched.knots, local_tol,
                            max_step * sched.total_time, MIN_STEP, counts)
    for i, psi in enumerate(states):
        try:
            p_e0[i], warm = _ground_projection(h, *at(times[i]), psi, warm)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"ground projection at t = {times[i]:.6f} us: {exc}") from exc
        p_mis[i] = float(np.sum(np.abs(psi[mis_positions]) ** 2))
    counts["matvecs"], counts["seconds"] = h.matvecs - matvecs, time.perf_counter() - t0
    return times, psi, p_e0, p_mis, counts


def _cost(counts: Counter) -> str:
    return (f"{counts['accepted']} accepted and {counts['rejected']} rejected steps, "
            f"{counts['exponentials']} Krylov exponentials, {counts['matvecs']} matvecs, "
            f"{counts['seconds']:.3f} s")


def _check_run(h: HamiltonianTerms, sched: PulseSchedule, local_tol: float) -> tuple:
    """The convergence check's run, ``_run`` at t = 0 and T only, with a
    quarter of the local tolerance and half the step cap, MAX_STEP / 2 of T."""
    return _run(h, sched, np.empty(0, dtype=np.int64), 2, local_tol / 4.0, MAX_STEP / 2.0)


def evolve(h: HamiltonianTerms, sched: PulseSchedule,
           opts: EvolveOptions | None = None) -> EvolutionResult:
    """Integrate i d|psi>/dt = H(t)|psi> from the all-ground state.

    Ground population is the projection onto the instantaneous ground
    eigenvector at each output time (onto the degenerate ground space
    where eigenvalues coincide within the degeneracy tolerance, which is
    the generic situation at t = T when the MIS is degenerate).

    This is ``evolve_all`` of one drive.
    """
    return evolve_all(h, [sched], opts)[0]


def evolve_all(h: HamiltonianTerms, scheds: Sequence[PulseSchedule],
               opts: EvolveOptions | None = None) -> list[EvolutionResult]:
    """``evolve`` of each drive in ``scheds``, shared between two processes.

    ``forks.share`` gets the drives' main runs, then their convergence
    check runs.  Each run starts from the all-ground state and reads
    nothing of another, so the results are the same bit for bit wherever
    each ran.  The first drive whose check fails raises ConvergenceError.
    """
    if opts is None:
        opts = EvolveOptions()
    if h.basis.position_of(0) < 0:
        raise ValueError("basis does not contain the all-ground configuration")

    mis_positions = h.basis.position_of(count_isets(h.graph).mis_configs)
    mis_positions = mis_positions[mis_positions >= 0]
    h.build_caches()  # a forked child then shares them
    runs = forks.share(
        [partial(_run, h, s, mis_positions, opts.n_output, opts.local_tol, MAX_STEP)
         for s in scheds] + [partial(_check_run, h, s, opts.local_tol) for s in scheds])
    results = []
    n = len(scheds)
    for sched, (main, main_where), (check, check_where) in zip(scheds, runs[:n], runs[n:]):
        times, psi, p_e0, p_mis, counts = main
        _, _, check_p_e0, _, check_counts = check
        final_p_e0 = float(p_e0[-1])
        check_delta = abs(float(check_p_e0[-1]) - final_p_e0)
        logger.debug("evolve dim %d, %d knots: main run (%s) %s; check run (%s) %s; "
                     "convergence-check delta %.3e", h.dim, sched.knots.size, main_where,
                     _cost(counts), check_where, _cost(check_counts), check_delta)
        if check_delta >= opts.convergence_tol:
            raise ConvergenceError(
                f"halving the step cap moved final p_e0 by {check_delta:.2e} "
                f"(>= {opts.convergence_tol:g}); tighten local_tol"
            )
        results.append(EvolutionResult(times, p_e0, p_mis, QuantumState(h.basis, psi),
                                       final_p_e0, float(p_mis[-1])))
    return results


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


def build_two_level_model(
    h: HamiltonianTerms, sched: PulseSchedule, profile: GapProfile
) -> TwoLevelModel:
    if profile.vecs0 is None or profile.vecs1 is None:
        raise ValueError("profile was scanned without stored eigenvectors")
    times = profile.times
    coupling = np.empty(times.size)
    for i, t in enumerate(times):
        # dH/dt = omega' sx + delta' zdiag, from the right-hand derivatives at t
        v0, v1 = profile.vecs0[i], profile.vecs1[i]
        num = (sched.omega_dot(float(t)) * np.vdot(v1, h.sx @ v0)
               + sched.delta_dot(float(t)) * np.vdot(v1, h.zdiag * v0))
        coupling[i] = float(np.real(num)) / float(profile.gaps[i])
    for i in range(1, coupling.size):
        if abs(coupling[i] + coupling[i - 1]) < abs(coupling[i] - coupling[i - 1]):
            coupling[i] = -coupling[i]
    return TwoLevelModel(times=times.copy(), coupling=coupling, gap=profile.gaps.copy())


def evolve_two_level(m: TwoLevelModel) -> tuple[np.ndarray, np.ndarray]:
    """Leakage P_E1(t) of the two-level model from (c0, c1) = (1, 0).

    Runs on the same step-doubling loop and commutator-free step as the
    full evolution, with the 2x2 exponentials evaluated in closed form.
    The knots are ``m.times``, where the linear interpolation of the
    coupling and the gap kinks, so no step crosses one.  Returns
    (times, p_e1) at TWO_LEVEL_N_OUTPUT evenly spaced times.
    """

    def at(t: float) -> tuple[float, float]:
        return float(np.interp(t, m.times, m.coupling)), float(np.interp(t, m.times, m.gap))

    def expm(k: float, gap: float, tau: float, c: np.ndarray) -> np.ndarray:
        # exp(-i tau (k s_y + b s_z)) c with b = -gap/2
        b = -gap / 2.0
        r = np.hypot(k, b)
        if r == 0.0:
            return c.copy()
        cos, sin = np.cos(tau * r), np.sin(tau * r)
        u, w = k / r, b / r
        return np.array([(cos - 1j * sin * w) * c[0] - sin * u * c[1],
                         sin * u * c[0] + (cos + 1j * sin * w) * c[1]])

    knots = np.asarray(m.times, dtype=float)
    times = np.linspace(knots[0], knots[-1], TWO_LEVEL_N_OUTPUT)
    states = _step_doubling(partial(_cf4_step, at, expm), np.array([1.0 + 0.0j, 0.0j]), times,
                            knots, TWO_LEVEL_TOL, TWO_LEVEL_MAX_STEP, TWO_LEVEL_MIN_STEP,
                            Counter())
    return times, np.array([abs(c[1]) ** 2 for c in states])
