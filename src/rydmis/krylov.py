"""One Lanczos kernel: the row-major Krylov bases of both solvers.

This module holds both solvers that build a Krylov basis, and no other
module allocates one.  They see the operator A only through a matvec
callable and never as a matrix, and both grow the basis by w = A basis[j]:

- ``lowest_eigenpairs``, thick-restart Lanczos (Wu & Simon, SIAM J.
  Matrix Anal. Appl. 22, 2000) for the lowest eigenpairs of a real
  symmetric operator, on the ``@`` of a ``hamiltonian.assemble`` operator.
  A restart rotates the basis onto Ritz vectors, which needs it
  orthonormal.  Every step removes the last two rows from w; the full
  classical Gram-Schmidt pass of ``_full_pass`` over the whole basis,
  repeated when it cancels most of w (Daniel, Gragg, Kaufman & Stewart,
  Math. Comp. 30, 1976: ||w|| below DGKS_RATIO of its norm before the
  pass), runs only where partial reorthogonalization asks for it (Simon,
  Math. Comp. 42, 1984): on a cycle's first step, which meets the arrow
  row, on a step where ``_omega_bounds``, Simon's omega-recurrence taken
  in absolute value, bounds some |q_i . q_(j+1)| above OMEGA_TOL, and on
  the step after that.  The textbook threshold sqrt(eps) is far too loose
  here: each restart builds its Ritz vectors from the basis.  The basis
  and w are float64, so each pass is two real matrix-vector products.
- ``expm_lanczos``, the Krylov exponential exp(-i tau A) v (Saad, SIAM
  J. Numer. Anal. 29, 1992) in at most KRYLOV_DIM vectors, for the CF4
  step of ``dynamics``.  A Lanczos approximation of a matrix function
  stays accurate as the basis loses orthogonality (Druskin, Greenbaum &
  Knizhnerman, SIAM J. Sci. Comput. 19, 1998), so w takes only the
  three-term recurrence.  The tridiagonal solve of its stopping test is
  skipped while the test's leading Taylor term is at least tol
  (Hochbruck & Lubich, SIAM J. Numer. Anal. 34, 1997).
"""

from __future__ import annotations

import logging
import math
from typing import Callable

import numpy as np
from scipy.linalg.blas import dgemv, zaxpy
from scipy.linalg.lapack import dstev

from .errors import ConvergenceError

logger = logging.getLogger(__name__)

MAX_BASIS = 20  # Lanczos vectors per restart cycle (ARPACK's ncv for k = 2)
KEEP = 8  # lowest Ritz vectors kept at each restart
RESIDUAL_TOL = 1e-10  # converged: ||A y - theta y|| <= RESIDUAL_TOL * max |theta|
START_MIX = 1e-3  # weight of the random component mixed into a given start vector
START_SEED = 20000  # seed of that component, so every solve is reproducible
BREAKDOWN = 1e-12  # ||w|| / ||A v|| below which the Krylov space is invariant
ROTATE_CHUNK = 8192  # columns rotated at a time when restarting
DGKS_RATIO = 1 / np.sqrt(2)  # norm kept by a full pass below which it is repeated
OMEGA_TOL = 1e-13  # bound on |q_i . q_(j+1)| above which a step takes a full pass
ROUNDING = 4 * np.finfo(float).eps  # rounding a step adds to q_i . w, per unit of ||A q_j||
MAX_MATVECS = 20000  # lowest_eigenpairs raises ConvergenceError beyond this many matvecs
GROWN_BASIS = 80  # Lanczos vectors per cycle once a solve stalls
STALL_RESTARTS = 20  # a solve stalls when this many restarts fail to halve its residual
KRYLOV_DIM = 48  # Krylov vectors before expm_lanczos splits its interval


def _project_out(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One classical Gram-Schmidt pass: subtract from the real contiguous w, in
    place, its components q w along the real rows of q, and return them."""
    c = q @ w
    dgemv(-1.0, q.T, c, 1.0, w, overwrite_y=True)  # w -= q^T c with no temporary
    return c


def _orthogonalize(q: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Remove span(q) from w in place: the last two rows, then all of q.

    q and w are real.  Returns the summed coefficients q w, the final
    ||w|| and whether the DGKS repeat of the full pass ran.
    """
    local = _project_out(q[-2:], w)
    c, norm, repeated = _full_pass(q, w)
    c[-2:] += local
    return c, norm, repeated


def _full_pass(q: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Classical Gram-Schmidt of w against all of q, repeated when it cancels
    most of w; returns the summed coefficients, ||w|| and whether it repeated."""
    before = w @ w  # squared norms: a dot product costs less than linalg.norm
    c = _project_out(q, w)
    after = w @ w
    repeated = bool(after < DGKS_RATIO**2 * before)
    if repeated:
        c += _project_out(q, w)
        after = w @ w
    return c, math.sqrt(after), repeated


def _omega_bounds(omega: np.ndarray, coupling: np.ndarray, alphas: np.ndarray, j: int,
                  c_prev: float, alpha: float, beta: float, noise: float) -> float:
    """Bound |q_i . q_(j+1)|, i <= j, after step j's two-row pass; return the largest.

    Simon's omega-recurrence taken in absolute value over the projected
    matrix T, arrow row included: the pass subtracted c_(j-1) q_(j-1) and
    alpha_j q_j from A q_j, so beta_(j+1) omega_(j+1) <= |T - alpha_j| omega_j
    + |c_(j-1)| omega_(j-1) + noise, except on q_(j-1), where it leaves
    |alpha_j| omega_(j, j-1) + noise.  coupling holds T's off-diagonal
    entries in absolute value, and this writes |alphas - alpha_j| on its
    diagonal, alphas being T's.  Writes the bounds into row j + 1 of omega.
    """
    np.abs(alphas - alpha, out=coupling.ravel()[:: len(coupling) + 1])
    prev, r = omega[j - 1 : j + 1, : j + 1]
    t = coupling[: j + 1, : j + 1] @ r
    t += abs(c_prev) * prev
    t[j - 1] = abs(alpha) * r[j - 1]
    t += noise
    row = omega[j + 1, : j + 1]
    np.multiply(t, 1.0 / beta, out=row)
    return np.maximum.reduce(row)


def _start_vector(dim: int, v0: np.ndarray | None, rng: np.random.Generator) -> np.ndarray:
    """v0 / ||v0|| plus a fixed-seed random component of norm START_MIX.

    The random part keeps the Krylov space from being trapped in an
    invariant subspace that v0 happens to lie in (say, one block of a
    block-diagonal matrix), which would miss every eigenvalue outside it.
    """
    noise = rng.standard_normal(dim)
    noise /= np.linalg.norm(noise)
    if v0 is None:
        return noise
    v0 = np.asarray(v0).ravel()
    if v0.size != dim:
        raise ValueError(f"v0 has {v0.size} entries, the matrix has dimension {dim}")
    scale = np.linalg.norm(v0)
    return noise if scale == 0.0 else v0 / scale + START_MIX * noise


def _rotate(basis: np.ndarray, y: np.ndarray) -> None:
    """basis[:k] = y^T basis[:n] in place, y of shape (n, k), column block by block."""
    n, k = y.shape
    for lo in range(0, basis.shape[1], ROTATE_CHUNK):
        cols = slice(lo, lo + ROTATE_CHUNK)
        basis[:k, cols] = y.T @ basis[:n, cols]


def lowest_eigenpairs(matvec: Callable[[np.ndarray], np.ndarray], dim: int, n_eig: int,
                      v0: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The n_eig lowest eigenpairs of the real symmetric operator ``matvec``.

    Thick-restart Lanczos: each cycle grows the basis to MAX_BASIS
    vectors, then keeps the KEEP lowest Ritz vectors and the residual
    vector.  The projected matrix is then diagonal on the kept Ritz
    vectors plus one arrow row coupling them to the residual vector.  A
    solve whose residual has not halved in STALL_RESTARTS restarts goes on
    with GROWN_BASIS vectors per cycle: short cycles stall where a wanted
    eigenvalue sits in a cluster that is tight next to the spectrum's width.
    A Ritz pair is converged when its residual estimate beta |y_last| is
    at most RESIDUAL_TOL times the largest Ritz value seen.  When the Krylov
    space turns invariant before the basis spans the whole space, the
    next vector is a random one orthogonal to the basis.

    The basis is float64 and v0 real.  Returns (values, vectors) with the
    vectors as rows.  Raises ConvergenceError when MAX_MATVECS matvecs
    leave a pair unconverged.
    """
    rng = np.random.default_rng(START_SEED)
    start = _start_vector(dim, v0, rng)
    m = min(MAX_BASIS, dim)
    basis = np.empty((m + 1, dim))
    basis[0] = start / np.linalg.norm(start)
    proj = np.zeros((m, m))  # real: alphas, betas and arrow couplings are real
    omega = np.zeros((m + 1, m + 1))  # omega[j, i] bounds |basis[j] . basis[i]|, i < j
    k = matvecs = restarts = repeats = passes = 0
    anorm = scale = 0.0  # largest |Ritz value|, largest ||A q_j||
    residuals = []
    while True:
        n = min(m, k + MAX_MATVECS - matvecs)
        beta = 0.0
        forced = True  # the cycle's first step meets the arrow row
        for j in range(k, n):
            w = np.ascontiguousarray(matvec(basis[j]), dtype=basis.dtype)
            matvecs += 1
            exceeded = False
            if not forced:
                local = _project_out(basis[j - 1 : j + 1], w)
                c_prev, alpha = local.tolist()
                beta = norm = math.sqrt(w @ w)
                scale = max(scale, math.hypot(c_prev, alpha, beta))
                exceeded = beta <= BREAKDOWN * scale or _omega_bounds(
                    omega, coupling, alphas, j, c_prev, alpha, beta, ROUNDING * scale) > OMEGA_TOL
            if forced or exceeded:
                if exceeded:  # the two-row pass has run
                    c, beta, repeated = _full_pass(basis[: j + 1], w)
                    c[-2:] += local
                else:
                    c, beta, repeated = _orthogonalize(basis[: j + 1], w)
                alpha, norm = float(c[j]), beta
                passes += 1
                repeats += repeated
                aq = math.hypot(math.sqrt(c @ c), beta)
                scale = max(scale, aq)
                if beta <= BREAKDOWN * aq:
                    beta = 0.0
                    if j + 1 == dim:
                        proj[j, j] = alpha
                        break
                    w = rng.standard_normal(dim)
                    _, norm, repeated = _orthogonalize(basis[: j + 1], w)
                    repeats += repeated
                    exceeded = True
                omega[j + 1, : j + 1] = ROUNDING / DGKS_RATIO  # what a full pass leaves
            proj[j, j] = alpha
            if j + 1 < m:
                proj[j + 1, j] = proj[j, j + 1] = beta
            if j == k:
                coupling, alphas = np.abs(proj), proj.diagonal()
            elif j + 1 < m:
                coupling[j + 1, j] = coupling[j, j + 1] = beta
            np.multiply(w, 1.0 / norm, out=basis[j + 1])
            forced = exceeded  # the step after a full pass takes one too (Simon)
        theta, y = np.linalg.eigh(proj[:n, :n])
        anorm = max(anorm, float(np.abs(theta).max()))
        residual = float(beta * np.abs(y[n - 1, :n_eig]).max())
        if n >= n_eig and residual <= RESIDUAL_TOL * anorm:
            break
        if matvecs >= MAX_MATVECS:
            raise ConvergenceError(
                f"Lanczos did not converge in {matvecs} matvecs ({restarts} restarts): "
                f"residual {residual:.3e} > {RESIDUAL_TOL * anorm:.3e}"
            )
        k = min(KEEP, n - 1)
        _rotate(basis, y[:, :k])
        basis[k] = basis[n]
        carried = np.abs(y[:, :k]).T @ omega[n, :n] + ROUNDING  # |y|^T omega through the rotation
        residuals.append(residual)
        if (m < min(GROWN_BASIS, dim) and len(residuals) > STALL_RESTARTS
                and min(residuals[-STALL_RESTARTS:]) > min(residuals[:-STALL_RESTARTS]) / 2):
            m = min(GROWN_BASIS, dim)
            basis = np.concatenate((basis[: k + 1], np.empty((m - k, dim))))
            omega = np.zeros((m + 1, m + 1))
        omega[k, :k] = carried  # rows past k are written before they are read
        proj = np.zeros((m, m))
        proj[:k, :k] = np.diag(theta[:k])
        proj[k, :k] = proj[:k, k] = beta * y[n - 1, :k]
        restarts += 1
    logger.debug(
        "Lanczos dim %d: %d matvecs, %d restarts, %d full Gram-Schmidt passes in %d steps, "
        "%d second Gram-Schmidt passes, %s, residual %.3e",
        dim, matvecs, restarts, passes, matvecs, repeats,
        f"basis grown to {m} vectors" if m > min(MAX_BASIS, dim) else "basis not grown",
        residual,
    )
    return theta[:n_eig], y[:, :n_eig].T @ basis[:n]


def expm_lanczos(matvec, v: np.ndarray, tau: float, tol: float) -> np.ndarray:
    """exp(-i tau A) v for Hermitian A via a Lanczos Krylov subspace.

    The basis grows (in a buffer of 8 rows, doubled when full) by alpha_j =
    Re <q_j, w>, w -= alpha_j q_j + beta_(j-1) q_(j-1), beta_j = ||w|| until
    beta_j |y_j| min(|tau|, 1) < tol for y = exp(-i tau T) e_1.  y is
    computed only once that test's leading Taylor term is below tol, or at
    KRYLOV_DIM vectors; reaching them, two half-interval applications run.
    """
    beta0 = np.linalg.norm(v)
    if beta0 == 0.0:
        return v.copy()
    basis = np.empty((8, v.size), dtype=complex)
    basis[0] = v * (1.0 / beta0)
    alphas = np.empty(KRYLOV_DIM)
    betas = np.empty(KRYLOV_DIM)
    taylor = scale = min(abs(tau), 1.0)  # taylor: |tau|^j beta_0...beta_(j-1) / j! scale
    for j in range(KRYLOV_DIM):
        w = np.asarray(matvec(basis[j]), dtype=basis.dtype)
        alphas[j] = np.vdot(basis[j], w).real
        w = zaxpy(basis[j], w, a=-alphas[j])  # BLAS axpy: in place, no temporary
        if j:
            w = zaxpy(basis[j - 1], w, a=-betas[j - 1])
        beta = np.sqrt(np.vdot(w, w).real)
        if beta < 1e-14 or beta * taylor < tol or j + 1 == KRYLOV_DIM:
            y = _expm_tridiag(alphas[: j + 1], betas[:j], tau)
            if beta < 1e-14 or beta * abs(y[-1]) * scale < tol:
                return beta0 * (y @ basis[: j + 1])
        if j + 1 < KRYLOV_DIM:
            betas[j] = beta
            taylor *= abs(tau) * beta / (j + 1)
            if j + 1 == len(basis):
                basis = np.concatenate((basis, np.empty_like(basis[: KRYLOV_DIM - j - 1])))
            basis[j + 1] = w * (1.0 / beta)  # w / beta would run a slower complex division
    half = expm_lanczos(matvec, v, tau / 2.0, tol / 2.0)
    return expm_lanczos(matvec, half, tau / 2.0, tol / 2.0)


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
