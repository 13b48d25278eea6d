"""The benchmark's workloads and their correctness gates.

Each workload is a fixed sequence of top-level calls into ``rydmis`` on
one of the paper's instances, made by a single client that waits for each
call before the next (a closed loop of one).  Every call is an operation:
it is counted as attempted, and as failed when it raises or when a check
on its output fails.  The first failure ends the pass.  Checks that cost
more than the call they check are deferred: they run after the pass's
clock has stopped.

The checks compare against the paper where the paper gives a number and
against values measured with rydmis 0.1.0 otherwise; each
reference is stated with its source next to it.  A workload built for the
harness's own tests (``smoke_workloads``) runs the same calls on Q1D_4
with smaller sizes and only the checks that need no reference value.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .tracing import Tracer

TWO_PI = 2.0 * np.pi


class OperationFailed(Exception):
    """A top-level call raised or failed its correctness check."""


@dataclass(frozen=True)
class Inputs:
    """Everything a workload needs before its first timed call."""

    params: object
    graph: object
    schedule: object
    seed: int


@dataclass
class Pass:
    """One run of a workload's call sequence.

    With a tracer, each top-level call becomes a span named
    ``<module>.<function>``; the function is looked up unwrapped so the
    call is not recorded twice.  A tagged call also records the matvecs
    made inside it as the fact ``<module>.matvecs.<tag>``.
    """

    rydmis: object
    tracer: Tracer | None = None
    attempted: int = 0
    failed: int = 0
    facts: dict = field(default_factory=dict)
    deferred: list[Callable[[], None]] = field(default_factory=list)

    def call(self, module: str, fname: str, *args, tag: str | None = None, **kwargs):
        owner = importlib.import_module(f"rydmis.{module}")
        self.attempted += 1
        try:
            if self.tracer is None:
                return getattr(owner, fname)(*args, **kwargs)
            fn = self.tracer.original(owner, fname)
            matvecs = self.tracer.hot.get("hamiltonian.matvec")
            before = None if matvecs is None else matvecs.calls
            with self.tracer.span(f"{module}.{fname}", module, tag):
                result = fn(*args, **kwargs)
            if tag is not None and matvecs is not None:
                self.facts[f"{module}.matvecs.{tag}"] = matvecs.calls - before
            return result
        except Exception as exc:
            self.failed += 1
            raise OperationFailed(f"{module}.{fname} raised {exc!r}") from exc

    def check(self, ok, what: str) -> None:
        """Fail the operation just made unless ``ok``."""
        if not ok:
            self.failed += 1
            raise OperationFailed(f"check failed: {what}")

    def defer(self, check: Callable[[], None]) -> Callable[[], None]:
        """Run ``check`` (which calls ``self.check``) after the pass's clock stops."""
        self.deferred.append(check)
        return check

    def guard(self, fn: Callable[[], None]) -> str | None:
        """Run ``fn``; return None, or the error that failed an operation.

        A check whose own evaluation raised fails the operation it checks.
        """
        try:
            fn()
        except OperationFailed as exc:
            return str(exc)
        except Exception as exc:
            self.failed += 1
            return f"check raised {exc!r}"
        return None

    def terms(self, h) -> None:
        """Record the Hamiltonian's size for the computed matvec cost."""
        self.facts["hamiltonian.dim"] = h.dim
        self.facts["hamiltonian.nnz"] = h.sx.nnz


@dataclass(frozen=True)
class Workload:
    instance: str
    body: Callable[[Pass, Inputs], None]


def build_inputs(rydmis, instance: str, seed: int) -> Inputs:
    p = rydmis.PhysicalParams.default()
    g = rydmis.blockade_graph(rydmis.builtin_instance(instance), p, require_mis_encoding=True)
    return Inputs(params=p, graph=g, schedule=rydmis.standard_schedule(p), seed=seed)


def _close(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol


_POP8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1).astype(np.int64)


def popcount(a: np.ndarray, n: int) -> np.ndarray:
    """Set bits among the low ``n`` bits of each non-negative entry of ``a``."""
    return sum(_POP8[(a >> shift) & 0xFF] for shift in range(0, n, 8))


# ---------------------------------------------------------------- design

# Paper, fig. 3a (Q1D_10, vdW tails, default parameters): gap minimum at
# t_min = 3.60 us, delta_min = 2pi x 1.38 MHz, g_min = 2pi x 0.29 MHz,
# printed to two decimals.  Tolerances are those of the package's own
# test of the same numbers (tests/test_spectrum.py).
DESIGN_REFS = {
    "t_min": (3.60, 0.05),
    "delta_min": (TWO_PI * 1.38, TWO_PI * 0.02),
    "g_min": (TWO_PI * 0.29, TWO_PI * 0.01),
    # Final two-level leakage P_E1(T - t_r) along the standard schedule,
    # measured with rydmis 0.1.0 (0.359807194).  The model
    # interpolates the profile, whose refined minimum may move within
    # scan_gap's refine_tol = 1e-3 us between correct implementations, so
    # the gate is 1e-3 absolute rather than the stepper's 1e-8 local_tol.
    "p_e1_final": (0.359807194, 1e-3),
}


def design(run: Pass, inp: Inputs, n_samples: int = 200,
           js: tuple[float, ...] = (1.0, 1.5, 1.8, 2.0), refs: dict | None = DESIGN_REFS) -> None:
    """Schedule design: gap scan, four adglb schedules, two-level model."""
    g, p = inp.graph, inp.params
    basis = run.call("hamiltonian", "build_basis", g, "full")
    run.check(basis.dim == 1 << g.n, "full basis has 2^n states")
    h = run.call("hamiltonian", "hamiltonian_terms", g, basis)
    run.terms(h)

    prof = run.call("spectrum", "scan_gap", h, inp.schedule, n_samples=n_samples,
                    store_vectors=True)
    run.check(np.all(prof.gaps >= 0) and prof.g_min <= prof.gaps.min() + 1e-12,
              "g_min is the smallest gap of the profile")
    if refs is not None:
        for key in ("t_min", "delta_min", "g_min"):
            ref, tol = refs[key]
            run.check(_close(getattr(prof, key), ref, tol),
                      f"{key} = {getattr(prof, key):.4f}, paper {ref:.4f} +- {tol:.4f}")

    for j in js:
        sched = run.call("schedule", "adglb_schedule", p, prof, j)
        knot = np.flatnonzero(np.isclose(sched.delta_times, prof.t_min, rtol=0, atol=1e-12))
        run.check(knot.size == 1 and _close(sched.delta_values[knot[0]], prof.delta_min, 1e-9),
                  f"adglb j={j} passes through (t_min, delta_min)")

    stats = run.call("isets", "count_isets", g)
    mis = run.call("isets", "mis_projector_support", g, stats)
    ov0, _ = run.call("spectrum", "track_mis_overlap", prof, mis)
    run.check(np.all((ov0 >= 0) & (ov0 <= 1 + 1e-9)), "overlaps are probabilities")
    # At t_r the detuning is delta_i < 0 and the ground state is all-g; at
    # T - t_r it is delta_f > 0 and the MIS is the ground state's largest
    # component (the drive omega0 still dresses it).
    mis_pos = [basis.position_of(int(bits, 2)) for bits in mis]
    run.check(ov0[0] < 0.01 and int(np.argmax(np.abs(prof.vecs0[-1]))) in mis_pos,
              f"ground state goes from all-g (MIS overlap {ov0[0]:.2e}) to MIS-dominated")

    model = run.call("dynamics", "build_two_level_model", h, inp.schedule, prof)
    run.check(np.all(np.isfinite(model.coupling)), "two-level coupling is finite")
    _, p_e1 = run.call("dynamics", "evolve_two_level", model)
    run.check(p_e1[0] == 0.0 and np.all((p_e1 >= 0) & (p_e1 <= 1 + 1e-9)),
              "two-level leakage is a probability starting at 0")
    if refs is not None:
        ref, tol = refs["p_e1_final"]
        run.check(_close(p_e1[-1], ref, tol),
                  f"two-level final leakage {p_e1[-1]:.6f}, reference {ref:.6f} +- {tol:g}")


# ---------------------------------------------------------------- anneal

# Final ground-state population p_e0 on Q1D_10 in the full basis with
# default EvolveOptions except n_output = 20, measured with rydmis 0.1.0.
# These are not the paper's values: fig. 3b gives 0.739 for the standard
# sweep and 0.955-0.981 for the engineered ones, and the simulation falls
# 0.011-0.024 short of them, which is a known open item.
# Each run passes the package's own convergence check (halving the step
# cap moves p_e0 by < convergence_tol), so two correct integrators may
# differ by a few convergence_tol; the gate allows 10 x convergence_tol.
ANNEAL_REFS = {"standard": 0.715530, "transfer": 0.945571}


def anneal(run: Pass, inp: Inputs, opts: dict | None = None,
           refs: dict | None = ANNEAL_REFS) -> None:
    """Full Schrodinger evolution along the standard and the transfer schedule."""
    rydmis, g, p = run.rydmis, inp.graph, inp.params
    basis = run.call("hamiltonian", "build_basis", g, "full")
    h = run.call("hamiltonian", "hamiltonian_terms", g, basis)
    run.terms(h)
    options = rydmis.EvolveOptions(**({"n_output": 20} if opts is None else opts))

    transfer = run.call("schedule", "transfer_schedule", p, 0.0)
    run.facts["schedule.breakpoints.transfer"] = transfer.delta_times.size
    for label, sched in (("standard", inp.schedule), ("transfer", transfer)):
        res = run.call("dynamics", "evolve", h, sched, options, tag=label)
        norm = float(np.linalg.norm(res.final_state.amplitudes))
        run.check(_close(norm, 1.0, 1e-6), f"{label}: final state norm {norm:.9f}")
        run.check(0.0 <= res.final_p_e0 <= 1.0 + 1e-9, f"{label}: p_e0 is a probability")
        if refs is not None:
            tol = 10 * options.convergence_tol
            run.check(_close(res.final_p_e0, refs[label], tol),
                      f"{label}: final p_e0 {res.final_p_e0:.6f}, reference "
                      f"{refs[label]:.6f} +- {tol:g}")


# ----------------------------------------------------------------- scale

SCALE_REFS = {
    # Paper's census table for TH_37: MIS size 13, unique MIS, and
    # hardness parameter R_12 / (13 R_13) = 70 / 13.
    "mis_size": 13,
    "r_mis": 1,
    "hp": 70 / 13,
    # Blockade-basis size and off-diagonal nonzeros, counted with rydmis
    # 0.1.0 (the basis is exactly the independent sets, so its size is
    # also sum_k R_k of the census).
    "dim": 799_779,
    "nnz": 11_116_376,
}

# Allowed distance of an observed class share from its exact expectation,
# in binomial standard deviations; a false alarm at 5 sigma has
# probability below 1e-6 per check.
SHARE_SIGMAS = 5.0


def expected_share(states: np.ndarray, probs: np.ndarray, targets: np.ndarray,
                   n: int, p_g_given_r: float, p_r_given_g: float) -> float:
    """Exact probability that a shot reads out as one of ``targets``.

    Each basis state s (Born weight probs[s]) reaches bitstring t through
    independent per-atom flips: r->r, r->g, g->r and g->g with the SPAM
    rates.  States carrying less than 1e-12 of the total weight are
    dropped, which moves the result by less than that.
    """
    order = np.argsort(probs)[::-1]
    keep = order[: int(np.searchsorted(np.cumsum(probs[order]), 1.0 - 1e-12)) + 1]
    s, w = states[keep], probs[keep]
    full = (1 << n) - 1
    total = 0.0
    for t in targets:
        r_r = popcount(s & t, n)
        r_g = popcount(s & ~t & full, n)
        g_r = popcount(~s & t & full, n)
        g_g = n - r_r - r_g - g_r
        reach = ((1.0 - p_g_given_r) ** r_r * p_g_given_r ** r_g
                 * p_r_given_g ** g_r * (1.0 - p_r_given_g) ** g_g)
        total += float(w @ reach)
    return total


def scale(run: Pass, inp: Inputs, n_shots: int = 100_000,
          refs: dict | None = SCALE_REFS) -> None:
    """Blockade-basis build, one sparse eigensolve and 100k shots on TH_37."""
    rydmis, g, p = run.rydmis, inp.graph, inp.params
    stats = run.call("isets", "count_isets", g)
    if refs is not None:
        run.check(stats.mis_size == refs["mis_size"] and stats.r[stats.mis_size] == refs["r_mis"]
                  and _close(stats.hp, refs["hp"], 1e-12),
                  f"census: mis_size {stats.mis_size}, R_m {stats.r[stats.mis_size]}, "
                  f"hp {stats.hp:.6f}")
    basis = run.call("hamiltonian", "build_basis", g, "blockade")
    run.check(basis.dim == sum(stats.r.values()), "blockade basis holds every independent set")
    h = run.call("hamiltonian", "hamiltonian_terms", g, basis)
    run.terms(h)
    if refs is not None:
        run.check(h.dim == refs["dim"] and h.sx.nnz == refs["nnz"],
                  f"dim {h.dim}, nnz {h.sx.nnz}")

    # t = T - t_r: the Rabi plateau ends at omega0 and the sweep at delta_f.
    matrix = run.call("hamiltonian", "assemble", h, p.omega0, p.delta_f)
    v0 = np.random.default_rng(inp.seed).standard_normal(h.dim)
    e0, e1, w0, _ = run.call("spectrum", "eigenpairs_lowest2", matrix, v0=v0)

    @run.defer
    def eigenpair_check():
        residual = float(np.linalg.norm(matrix @ w0 - e0 * w0))
        run.check(e0 < e1 and residual <= 1e-8 * max(1.0, abs(e0)),
                  f"E0 {e0:.9f} < E1 {e1:.9f}, residual {residual:.2e}")

    state = rydmis.QuantumState(basis=basis, amplitudes=w0)
    spam = rydmis.SpamModel()
    hist = run.call("measurement", "sample_shots", state, n_shots, spam, seed=inp.seed, graph=g)
    run.facts["measurement.shots"] = hist.n_shots
    run.facts["measurement.distinct_bitstrings"] = len(hist.counts)
    report = run.call("measurement", "histogram_report", hist, g)
    counts = report["class_counts"]
    run.check(sum(counts.values()) == n_shots and report["mis_size"] == stats.mis_size
              and report["p_mis"] == hist.p_mis, "report agrees with the histogram")

    @run.defer
    def class_share_check():
        probs = np.abs(w0) ** 2
        sizes = popcount(basis.states, g.n)
        for klass, size in (("mis", stats.mis_size), ("mis_minus_1", stats.mis_size - 1)):
            expected = expected_share(basis.states, probs, basis.states[sizes == size], g.n,
                                      spam.p_g_given_r, spam.p_r_given_g)
            sigma = np.sqrt(expected * (1.0 - expected) / n_shots)
            observed = counts[klass] / n_shots
            run.check(abs(observed - expected) <= SHARE_SIGMAS * sigma + 1e-9,
                      f"{klass} share {observed:.5f}, expected {expected:.5f} +- "
                      f"{SHARE_SIGMAS:g} x {sigma:.5f}")


WORKLOADS = {
    "design-q1d10": Workload("Q1D_10", design),
    "anneal-q1d10": Workload("Q1D_10", anneal),
    "scale-th37": Workload("TH_37", scale),
}


def smoke_workloads() -> dict[str, Workload]:
    """The same call sequences on Q1D_4 at small sizes, for the harness tests."""
    return {
        "design": Workload("Q1D_4", functools.partial(design, n_samples=16, js=(1.0,),
                                                      refs=None)),
        "anneal": Workload("Q1D_4", functools.partial(
            anneal, opts={"n_output": 3, "local_tol": 1e-5, "convergence_tol": 1e-3},
            refs=None)),
        "scale": Workload("Q1D_4", functools.partial(scale, n_shots=2000, refs=None)),
    }

