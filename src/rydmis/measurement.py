"""Measurement sampling, readout-error channel and histogram reports.

Shots are drawn from the Born probabilities of a final state; the
readout channel flips each bit independently and asymmetrically
(r read as g with probability p_g_given_r, g read as r with
p_r_given_g).  Histograms are grouped by independent-set class the way
the experimental analyses present them: MIS, size |MIS|-1 independent
sets, other independent sets, and blockade-violating strings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .configs import bits_to_configs, configs_to_bits
from .geometry import BlockadeGraph
from .isets import classify_bitstring, count_isets


@dataclass(frozen=True)
class SpamModel:
    """Asymmetric per-atom readout bit-flip rates."""

    p_g_given_r: float = 0.10
    p_r_given_g: float = 0.05

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_g_given_r <= 1.0 and 0.0 <= self.p_r_given_g <= 1.0):
            raise ValueError("flip probabilities must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class ShotHistogram:
    """Bitstring counts from one sampling batch.

    p_mis / p_mis_minus_1 are filled when the graph was supplied at
    sampling time; histogram_report recomputes them in any case.
    """

    counts: dict[str, int]
    n_shots: int
    n_atoms: int
    seed: int
    spam: SpamModel | None = None
    p_mis: float | None = None
    p_mis_minus_1: float | None = None

    def probability(self, bits: str) -> float:
        return self.counts.get(bits, 0) / self.n_shots


def sample_shots(
    state,
    n_shots: int,
    spam: SpamModel | None = None,
    seed: int = 0,
    graph: BlockadeGraph | None = None,
) -> ShotHistogram:
    """Draw measurement bitstrings from a quantum state.

    Deterministic for a fixed seed (PCG64).  With a SpamModel, each bit
    is flipped independently through the asymmetric readout channel.
    """
    amps = np.asarray(state.amplitudes)
    probs = np.abs(amps) ** 2
    total = probs.sum()
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"state is not normalized (sum p = {total:.8f})")
    probs = probs / total
    n = state.basis.n

    rng = np.random.default_rng(np.random.PCG64(seed))
    drawn = rng.choice(probs.size, size=n_shots, p=probs)
    configs = state.basis.states[drawn].astype(np.int64)

    shift = np.arange(n - 1, -1, -1, dtype=np.int64)
    bits = (configs[:, None] >> shift[None, :]) & 1

    if spam is not None:
        u = rng.random(bits.shape)
        flip = np.where(bits == 1, u < spam.p_g_given_r, u < spam.p_r_given_g)
        bits = bits ^ flip

    weights = 1 << shift
    observed = (bits * weights[None, :]).sum(axis=1)
    outcomes, cnts = np.unique(observed, return_counts=True)
    counts = dict(zip(configs_to_bits(outcomes, n), cnts.tolist()))

    p_mis = p_mis_1 = None
    if graph is not None:
        c = classify_bitstring(graph, outcomes, count_isets(graph))
        p_mis = int(cnts[c["is_mis"]].sum()) / n_shots
        p_mis_1 = int(cnts[c["is_mis_minus_1"]].sum()) / n_shots

    return ShotHistogram(
        counts=counts,
        n_shots=n_shots,
        n_atoms=n,
        seed=seed,
        spam=spam,
        p_mis=p_mis,
        p_mis_minus_1=p_mis_1,
    )


def histogram_report(h: ShotHistogram, g: BlockadeGraph) -> dict:
    """Group a shot histogram by independent-set class.

    Returns class totals and probabilities plus per-bitstring bars
    (probability-sorted) for the MIS and |MIS|-1 classes.
    """
    if g.n != h.n_atoms:
        raise ValueError("graph size does not match histogram bitstring length")
    stats = count_isets(g)
    bits = list(h.counts)
    configs = bits_to_configs(bits, g.n)
    cnts = np.fromiter(h.counts.values(), dtype=np.int64, count=len(bits))
    c = classify_bitstring(g, configs, stats)
    classes = {
        "mis": c["is_mis"],
        "mis_minus_1": c["is_mis_minus_1"],
        "other_independent": c["is_independent"] & ~c["is_mis"] & ~c["is_mis_minus_1"],
        "non_independent": ~c["is_independent"],
    }
    class_counts = {k: int(cnts[mask].sum()) for k, mask in classes.items()}
    bars: dict[str, list] = {}
    for k in ("mis", "mis_minus_1"):
        # by falling probability, then by bitstring, which is ascending config
        idx = np.flatnonzero(classes[k])
        idx = idx[np.lexsort((configs[idx], -cnts[idx]))]
        bars[k] = [
            {"bits": bits[i], "probability": p}
            for i, p in zip(idx.tolist(), (cnts[idx] / h.n_shots).tolist())
        ]
    return {
        "n_shots": h.n_shots,
        "seed": h.seed,
        "spam": None if h.spam is None else {
            "p_g_given_r": h.spam.p_g_given_r,
            "p_r_given_g": h.spam.p_r_given_g,
        },
        "mis_size": stats.mis_size,
        "class_counts": class_counts,
        "class_probabilities": {
            k: v / h.n_shots for k, v in class_counts.items()
        },
        "p_mis": class_counts["mis"] / h.n_shots,
        "p_mis_minus_1": class_counts["mis_minus_1"] / h.n_shots,
        "bars_mis": bars["mis"],
        "bars_mis_minus_1": bars["mis_minus_1"],
    }
