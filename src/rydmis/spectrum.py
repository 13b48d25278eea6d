"""Lowest eigenpairs along a schedule and the gap profile.

Every eigensolve goes through ``eigenpairs_lowest2``, which takes the
operator of ``hamiltonian.assemble``: at omega = 0 H is diagonal and its
diagonal is sorted exactly; otherwise the thick-restart Lanczos of
``krylov.lowest_eigenpairs`` runs on ``HamiltonianTerms.matvec``.
scan_gap samples the sweep window uniformly and golden-section-refines
the gap minimum below the sample resolution; each solve warm-starts from
w0 + w1 of the solve before it (the first probe, of the smallest sampled
gap).  The refined point is inserted into the profile so downstream
consumers (schedule synthesis, two-level reduction) see the true
minimum.  Its cost (samples, probes, matvecs, wall time) goes to one
DEBUG line of this module's logger.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .configs import bits_to_configs
from .errors import ConvergenceError
from .krylov import lowest_eigenpairs

if TYPE_CHECKING:
    from .hamiltonian import BasisSet, HamiltonianOperator, HamiltonianTerms
    from .schedule import PulseSchedule

logger = logging.getLogger(__name__)

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
REFINE_TOL = 1e-3  # us, width of the golden-section bracket around the gap minimum


@dataclass(frozen=True, eq=False)
class GapProfile:
    """Sampled (t, delta, E0, E1, gap) trajectory plus located minimum.

    Energies in rad/us.  vecs0/vecs1 hold the instantaneous eigenvectors
    row-per-sample when the scan stored them.
    """

    times: np.ndarray
    deltas: np.ndarray
    e0s: np.ndarray
    e1s: np.ndarray
    gaps: np.ndarray
    t_min: float
    delta_min: float
    g_min: float
    basis: "BasisSet | None" = field(repr=False, default=None)
    vecs0: np.ndarray | None = field(repr=False, default=None)
    vecs1: np.ndarray | None = field(repr=False, default=None)


def eigenpairs_lowest2(
    H: "HamiltonianOperator",
    v0: np.ndarray | None = None,
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Two smallest eigenvalues of H with orthonormal, sign-fixed vectors.

    H is an operator of ``hamiltonian.assemble``.  At omega = 0 its
    diagonal is sorted exactly (stable sort, unit vectors), so a repeated
    lowest diagonal entry comes back twice.  Otherwise the thick-restart
    Lanczos of ``krylov.lowest_eigenpairs`` runs on ``H @``: v0
    warm-starts it, and ConvergenceError reports a solve that did not
    converge within ``krylov.MAX_MATVECS`` matvecs.

    A single-vector Krylov space holds one vector per distinct
    eigenvalue, so Lanczos cannot return a repeated lowest eigenvalue
    twice.  These Hamiltonians have a simple ground state whenever
    omega != 0: the sign gauge |s> -> (-1)^popcount(s) |s> makes every
    off-diagonal entry -|omega|/2, single flips connect both the full and
    the blockade basis, and Perron-Frobenius then makes the lowest
    eigenvalue simple.
    """
    dim = H.shape[0]
    if dim < 2:
        raise ValueError("need dimension >= 2")
    if H.omega == 0:
        diag = H.diagonal()
        order = np.argsort(diag, kind="stable")[:2]
        vecs = np.zeros((2, dim))
        vecs[[0, 1], order] = 1.0
        vals = diag[order]
    else:
        vals, vecs = lowest_eigenpairs(H.__matmul__, dim, 2, v0=v0)
    # each vector's largest-magnitude component made positive
    vecs *= np.sign(vecs[[0, 1], np.argmax(np.abs(vecs), axis=1)])[:, None]
    return float(vals[0]), float(vals[1]), vecs[0], vecs[1]


def scan_gap(
    h: "HamiltonianTerms",
    sched: "PulseSchedule",
    n_samples: int = 200,
    store_vectors: bool = True,
    t_span: tuple[float, float] | None = None,
) -> GapProfile:
    """Gap profile over the sweep window [t_r, T - t_r] (or t_span).

    After the uniform scan the bracket around the smallest sampled gap is
    refined by golden section to |dt| < REFINE_TOL and the refined point
    is inserted into the sample arrays.
    """
    if n_samples < 16:
        raise ValueError("need n_samples >= 16")
    from .hamiltonian import assemble

    start, matvecs = time.perf_counter(), h.matvecs
    t_lo, t_hi = sched.sweep_window if t_span is None else t_span
    times = np.linspace(t_lo, t_hi, n_samples)

    e0s = np.empty(n_samples)
    e1s = np.empty(n_samples)
    vecs0 = np.empty((n_samples, h.dim)) if store_vectors else None
    vecs1 = np.empty((n_samples, h.dim)) if store_vectors else None

    # Each solve warm-starts from w0 + w1 of the solve before it, and the
    # first golden-section probe from that of the smallest sampled gap.
    warm = None

    def solve(t: float):
        nonlocal warm
        H = assemble(h, float(sched.omega(t)), float(sched.delta(t)))
        try:
            e0, e1, w0, w1 = eigenpairs_lowest2(H, v0=warm)
        except ConvergenceError as exc:
            raise ConvergenceError(f"at t = {t:.6f} us: {exc}") from exc
        warm = w0 + w1
        return e0, e1, w0, w1

    i_min = 0
    for i, t in enumerate(times):
        e0, e1, w0, w1 = solve(t)
        e0s[i], e1s[i] = e0, e1
        if store_vectors:
            vecs0[i], vecs1[i] = w0, w1
        if i == 0 or e1 - e0 < e1s[i_min] - e0s[i_min]:
            i_min, warm_min = i, warm

    # Golden-section refinement of the sampled minimum.
    probes: dict[float, tuple] = {}
    warm = warm_min

    def probe_gap(t: float) -> float:
        if t not in probes:
            probes[t] = solve(t)
        return probes[t][1] - probes[t][0]

    a = times[max(i_min - 1, 0)]
    b = times[min(i_min + 1, n_samples - 1)]
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    while (b - a) > REFINE_TOL:
        if probe_gap(c) < probe_gap(d):
            b, d = d, c
            c = b - GOLDEN * (b - a)
        else:
            a, c = c, d
            d = a + GOLDEN * (b - a)

    candidates = [(e1 - e0, t) for t, (e0, e1, _, _) in probes.items()]
    candidates.append((e1s[i_min] - e0s[i_min], times[i_min]))
    g_min, t_min = min(candidates)
    logger.debug(
        "scan_gap dim %d: %d samples, %d golden-section probes, %d matvecs, %.3f s",
        h.dim, n_samples, len(probes), h.matvecs - matvecs, time.perf_counter() - start,
    )

    if not np.any(np.isclose(times, t_min, atol=1e-12)):
        # t_min is a probe
        e0, e1, w0, w1 = probes[t_min]
        pos = int(np.searchsorted(times, t_min))
        times = np.insert(times, pos, t_min)
        e0s = np.insert(e0s, pos, e0)
        e1s = np.insert(e1s, pos, e1)
        if store_vectors:
            vecs0 = np.insert(vecs0, pos, w0, axis=0)
            vecs1 = np.insert(vecs1, pos, w1, axis=0)

    return GapProfile(
        times=times,
        deltas=np.asarray(sched.delta(times), dtype=float),
        e0s=e0s,
        e1s=e1s,
        gaps=e1s - e0s,
        t_min=float(t_min),
        delta_min=float(sched.delta(t_min)),
        g_min=float(g_min),
        basis=h.basis,
        vecs0=vecs0,
        vecs1=vecs1,
    )


def track_mis_overlap(
    profile: GapProfile,
    mis_states: list[str] | tuple[str, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """|<MIS|E0>|^2 and |<MIS|E1>|^2 at each profile sample.

    |MIS> is the uniform superposition over the listed MIS
    configurations, which is the configuration itself when it is unique.
    """
    if profile.vecs0 is None or profile.vecs1 is None:
        raise ValueError("profile was scanned without stored eigenvectors")
    if profile.basis is None:
        raise ValueError("profile carries no basis reference")
    if not mis_states:
        raise ValueError("empty MIS state list")

    try:
        positions = profile.basis.position_of(bits_to_configs(mis_states, profile.basis.n))
    except ValueError as exc:
        raise ValueError(f"MIS bitstring outside the basis: {exc}") from exc
    if np.any(positions < 0):
        raise ValueError(f"configuration {mis_states[np.argmin(positions)]} is outside the basis")

    amp0 = profile.vecs0[:, positions].sum(axis=1)
    amp1 = profile.vecs1[:, positions].sum(axis=1)
    norm = len(positions)
    return np.abs(amp0) ** 2 / norm, np.abs(amp1) ** 2 / norm
