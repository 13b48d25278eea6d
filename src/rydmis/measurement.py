"""Measurement sampling, readout-error channel and histogram reports.

Shots are drawn from the Born probabilities of a final state; the
readout channel flips each bit independently and asymmetrically (r read
as g with probability p_g_given_r, g read as r with p_r_given_g).  A
batch is two arrays, its distinct configurations and their counts, that
``histogram_report`` classifies once, by independent-set class the way
the experimental analyses present them: MIS, size |MIS|-1 independent
sets, other independent sets, and blockade-violating strings.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .configs import configs_to_bits, occupancy, occupancy_to_configs
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
    """Outcome counts of one sampling batch.

    configs holds the distinct measured configurations as an ascending
    int64 array and counts their int64 counts.  p_mis is filled when the
    graph was supplied at sampling time.
    """

    configs: np.ndarray
    counts: np.ndarray
    n_shots: int
    n_atoms: int
    seed: int
    spam: SpamModel | None = None
    p_mis: float | None = None


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
    With a graph, p_mis is read off its ``histogram_report``.
    """
    if n_shots < 1:
        raise ValueError(f"need at least one shot, got {n_shots}")
    amps = np.asarray(state.amplitudes)
    probs = np.abs(amps) ** 2
    total = probs.sum()
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"state is not normalized (sum p = {total:.8f})")
    probs = probs / total
    n = state.basis.n

    rng = np.random.default_rng(np.random.PCG64(seed))
    drawn = rng.choice(probs.size, size=n_shots, p=probs)
    rydberg = occupancy(state.basis.states[drawn], n)
    if spam is not None:
        u = rng.random(rydberg.shape)
        rydberg ^= np.where(rydberg, u < spam.p_g_given_r, u < spam.p_r_given_g)
    configs, counts = np.unique(occupancy_to_configs(rydberg), return_counts=True)
    hist = ShotHistogram(configs=configs, counts=counts, n_shots=n_shots, n_atoms=n,
                         seed=seed, spam=spam)
    return hist if graph is None else replace(hist, p_mis=histogram_report(hist, graph)["p_mis"])


def histogram_report(h: ShotHistogram, g: BlockadeGraph) -> dict:
    """Group a shot histogram by independent-set class.

    Returns class totals and probabilities plus per-bitstring bars
    (probability-sorted) for the MIS and |MIS|-1 classes.
    """
    if g.n != h.n_atoms:
        raise ValueError("graph size does not match histogram bitstring length")
    stats = count_isets(g)
    configs, cnts = h.configs, h.counts
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
        bits = configs_to_bits(configs[idx], g.n)
        probs = (cnts[idx] / h.n_shots).tolist()
        bars[k] = [{"bits": b, "probability": p} for b, p in zip(bits, probs)]
    return {
        "n_shots": h.n_shots,
        "seed": h.seed,
        "spam": None if h.spam is None else asdict(h.spam),
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
