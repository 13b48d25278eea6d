"""The package's layers: what the traced run wraps, and the per-layer metrics.

A layer is one module of ``rydmis``.  ``geometry`` and ``configs`` take
under 1 ms on every workload and ``cli`` only sequences the calls below,
so they have no metrics.  The wrappers sit where the package looks a name
up: ``dynamics`` imported ``eigenpairs_lowest2``, ``assemble`` and
``count_isets`` into its own namespace, so those are wrapped there as
well as in their home module.
"""

from __future__ import annotations

import importlib
import math
from collections import defaultdict
from typing import NamedTuple

import numpy as np

from .tracing import Tracer

LAYERS = ("hamiltonian", "spectrum", "dynamics", "schedule", "isets", "measurement")


class Wrap(NamedTuple):
    """One public name the traced run wraps.

    ``callers`` are the layers whose calls go through this wrapper in
    the workloads: if the target goes missing, its time lands in their
    self time.
    """

    module: str
    cls: str | None
    attr: str
    name: str
    layer: str
    hot: bool
    callers: tuple[str, ...]

    @property
    def label(self) -> str:
        return ".".join(part for part in (self.module, self.cls, self.attr) if part)


WRAPS = (
    # scan_gap imports assemble from hamiltonian when it runs
    Wrap("hamiltonian", None, "assemble", "hamiltonian.assemble", "hamiltonian", False,
         ("spectrum",)),
    Wrap("dynamics", None, "assemble", "hamiltonian.assemble", "hamiltonian", False,
         ("dynamics",)),
    Wrap("hamiltonian", "HamiltonianTerms", "matvec", "hamiltonian.matvec", "hamiltonian", True,
         ("dynamics",)),
    Wrap("spectrum", None, "eigenpairs_lowest2", "spectrum.eigenpairs_lowest2", "spectrum", False,
         ("spectrum",)),
    Wrap("dynamics", None, "eigenpairs_lowest2", "spectrum.eigenpairs_lowest2", "spectrum", False,
         ("dynamics",)),
    Wrap("schedule", "PulseSchedule", "omega", "schedule.eval", "schedule", True,
         ("dynamics", "spectrum")),
    Wrap("schedule", "PulseSchedule", "delta", "schedule.eval", "schedule", True,
         ("dynamics", "spectrum")),
    Wrap("isets", None, "count_isets", "isets.count_isets", "isets", False, ("isets",)),
    Wrap("dynamics", None, "count_isets", "isets.count_isets", "isets", False, ("dynamics",)),
    Wrap("measurement", None, "count_isets", "isets.count_isets", "isets", False,
         ("measurement",)),
    Wrap("isets", None, "classify_bitstring", "isets.classify_bitstring", "isets", True,
         ("isets",)),
    Wrap("measurement", None, "classify_bitstring", "isets.classify_bitstring", "isets", True,
         ("measurement",)),
)


def _needs(span_name: str) -> tuple[str, ...]:
    return tuple(w.label for w in WRAPS if w.name == span_name)


def install(tracer: Tracer) -> None:
    """Wrap every target in WRAPS that exists in the imported package."""
    for w in WRAPS:
        try:
            owner = importlib.import_module(f"rydmis.{w.module}")
        except ModuleNotFoundError:
            owner = None
        if owner is not None and w.cls is not None:
            owner = getattr(owner, w.cls, None)
        tracer.wrap(w.label, owner, w.attr, w.name, w.layer, w.hot)


def matvec_cost(dim: int, nnz: int) -> tuple[int, int]:
    """Computed (bytes, flops) of one ``HamiltonianTerms.matvec`` on complex128.

    omega * (sx @ psi) + (delta * zdiag + udiag) * psi, counting each
    array once: CSR data (8 B) and int32 indices (4 B) per off-diagonal
    entry, the row pointer, psi in and out (16 B each) and the two float64
    diagonals.  Cache misses and temporaries are ignored, so this is a
    lower bound on traffic, not a measurement.  Flops: a complex-by-real
    multiply-add per entry (4) and 8 per row for the diagonal part.
    """
    nbytes = 12 * nnz + 4 * (dim + 1) + 2 * 16 * dim + 2 * 8 * dim
    flops = 4 * nnz + 8 * dim
    return nbytes, flops


def _percentile(values: list[float], q: float) -> float | None:
    return float(np.percentile(values, q)) if values else None


def layer_metrics(
    tracer: Tracer, facts: dict, traced_wall_s: float, overhead_s: float
) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics of one traced pass, and the names left missing.

    ``facts`` holds sizes the workload read off its own objects
    (``hamiltonian.dim``, ``hamiltonian.nnz``, ``schedule.breakpoints.transfer``,
    ``measurement.shots``, ``measurement.distinct_bitstrings``) and the
    matvecs of each tagged evolution (``dynamics.matvecs.<tag>``); a fact
    the workload never produced is 0.  A metric fed by a wrap target that no
    longer exists is left out and listed as missing.
    """
    spans = tracer.spans
    by_name: dict[str, list] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name[name])

    def parent_name(s) -> str | None:
        return None if s.parent is None else spans[s.parent].name

    def hot(name: str) -> tuple[int, float]:
        stat = tracer.hot.get(name)
        return (0, 0.0) if stat is None else (stat.calls, stat.seconds)

    out: dict[str, tuple[float, str]] = {}
    missing: list[str] = []

    def put(name: str, value, unit: str, needs: tuple[str, ...] = ()) -> None:
        if value is None or any(label in tracer.missing for label in needs):
            missing.append(name)
        else:
            out[name] = (value, unit)

    dim = int(facts.get("hamiltonian.dim", 0))
    nnz = int(facts.get("hamiltonian.nnz", 0))
    put("hamiltonian.basis_s", total("hamiltonian.build_basis"), "s")
    put("hamiltonian.terms_s", total("hamiltonian.hamiltonian_terms"), "s")
    put("hamiltonian.dim", dim, "count")
    put("hamiltonian.nnz", nnz, "count")
    need = _needs("hamiltonian.assemble")
    put("hamiltonian.assemble_calls", len(by_name["hamiltonian.assemble"]), "count", need)
    put("hamiltonian.assemble_s", total("hamiltonian.assemble"), "s", need)
    need = _needs("hamiltonian.matvec")
    matvecs, matvec_s = hot("hamiltonian.matvec")
    nbytes, flops = matvec_cost(dim, nnz)
    put("hamiltonian.matvecs", matvecs, "count", need)
    put("hamiltonian.matvec_s", matvec_s, "s", need)
    put("hamiltonian.matvec_gb_computed", matvecs * nbytes / 1e9, "GB", need)
    put("hamiltonian.matvec_gflop_computed", matvecs * flops / 1e9, "GFLOP", need)

    need = _needs("spectrum.eigenpairs_lowest2")
    eigs = by_name["spectrum.eigenpairs_lowest2"]
    eig_ms = [1e3 * s.duration for s in eigs]
    ground = [s for s in eigs if parent_name(s) == "dynamics.evolve"]
    put("spectrum.scan_s", total("spectrum.scan_gap"), "s")
    put(
        "spectrum.scan_eig_calls",
        sum(1 for s in eigs if parent_name(s) == "spectrum.scan_gap"),
        "count",
        need,
    )
    put("spectrum.eig_calls", len(eigs), "count", need)
    put("spectrum.eig_s", sum(s.duration for s in eigs), "s", need)
    put("spectrum.eig_ms_p50", _percentile(eig_ms, 50), "ms", need)
    put("spectrum.eig_ms_p95", _percentile(eig_ms, 95), "ms", need)
    put("spectrum.ground_proj_calls", len(ground), "count", need)
    put("spectrum.ground_proj_s", sum(s.duration for s in ground), "s", need)

    evolves = {s.tag: s for s in by_name["dynamics.evolve"]}
    for tag in ("standard", "transfer"):
        s = evolves.get(tag)
        put(f"dynamics.evolve_s.{tag}", 0.0 if s is None else s.duration, "s")
        put(f"dynamics.matvecs.{tag}", int(facts.get(f"dynamics.matvecs.{tag}", 0)), "count",
            _needs("hamiltonian.matvec"))
    put(
        "dynamics.two_level_s",
        total("dynamics.build_two_level_model") + total("dynamics.evolve_two_level"),
        "s",
    )

    need = _needs("schedule.eval")
    evals, eval_s = hot("schedule.eval")
    put(
        "schedule.synth_s",
        total("schedule.adglb_schedule") + total("schedule.transfer_schedule"),
        "s",
    )
    put("schedule.breakpoints.transfer", int(facts.get("schedule.breakpoints.transfer", 0)), "count")
    put("schedule.eval_calls", evals, "count", need)
    put("schedule.eval_s", eval_s, "s", need)

    need = _needs("isets.count_isets")
    put("isets.census_calls", len(by_name["isets.count_isets"]), "count", need)
    put("isets.census_s", total("isets.count_isets"), "s", need)
    need = _needs("isets.classify_bitstring")
    classify, classify_s = hot("isets.classify_bitstring")
    put("isets.classify_calls", classify, "count", need)
    put("isets.classify_s", classify_s, "s", need)

    put("measurement.sample_s", total("measurement.sample_shots"), "s")
    put("measurement.report_s", total("measurement.histogram_report"), "s")
    put("measurement.shots", int(facts.get("measurement.shots", 0)), "count")
    put(
        "measurement.distinct_bitstrings",
        int(facts.get("measurement.distinct_bitstrings", 0)),
        "count",
    )

    self_s = layer_self_times(tracer)
    for layer in LAYERS:
        # a missing wrapper moves its time from its target's layer into its
        # callers' layers, so all of them are missing
        need = tuple(w.label for w in WRAPS if layer == w.layer or layer in w.callers)
        put(f"{layer}.self_s", self_s[layer], "s", need)
    put("trace.wall_s", traced_wall_s, "s")
    put("trace.overhead_s", overhead_s, "s")
    put("trace.unattributed_s", traced_wall_s - math.fsum(self_s.values()), "s")
    return out, missing


def layer_self_times(tracer: Tracer) -> dict[str, float]:
    """Self time per layer: span self times plus hot-call totals."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    for s in tracer.spans:
        if s.layer in self_s:
            self_s[s.layer] += s.self_s
    for stat in tracer.hot.values():
        self_s[stat.layer] += stat.seconds
    return self_s
