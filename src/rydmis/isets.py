"""Independent-set combinatorics on the blockade graph.

Every independent set of the graph is listed once, as the ascending int64
array of ``independent_configs`` that is also the blockade basis; it
makes each atom's neighbour mask from the graph's edges itself.  The
census, ``count_isets``, reads everything else off that array and is the
only source of MIS facts: the counts R_k by size are a bincount of its
popcounts, the maximum independent sets (MIS) are its configurations of
the largest popcount, kept in ascending order as ``mis_configs``, and the
hardness parameter is R_(m-1) / (m * R_m) where m is the MIS size.
Measured configurations are classified against the graph as whole
arrays, one pass per blockade edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .configs import atom_bit, configs_to_bits
from .errors import DimensionLimitError
from .geometry import BlockadeGraph

BLOCKADE_BASIS_MAX_STATES = 1 << 24


@dataclass(frozen=True, eq=False)
class ISetStats:
    """Exact independent-set census of a graph.

    r maps set size k to the count R_k (every k from 0 to mis_size is
    present).  mis_configs holds all maximum independent sets as the
    ascending int64 array of their configurations.  hp is the hardness
    parameter.
    """

    r: dict[int, int]
    mis_size: int
    mis_configs: np.ndarray
    hp: float


def independent_configs(g: BlockadeGraph) -> np.ndarray:
    """All independent-set configurations in ascending order.

    Atoms are added from the lowest bit up.  Every configuration so far
    lies below the new atom's bit, so appending the ones that leave the
    atom unblocked, with its bit set, keeps the array sorted.  Raises
    DimensionLimitError before the array would grow beyond
    BLOCKADE_BASIS_MAX_STATES configurations.
    """
    adjacency = [0] * g.n  # adjacency[v]: the configuration of v's neighbours
    for u, v in g.edges:
        adjacency[u] |= atom_bit(g.n, v)
        adjacency[v] |= atom_bit(g.n, u)
    states = np.zeros(1, dtype=np.int64)
    for v in reversed(range(g.n)):
        free = states[(states & adjacency[v]) == 0]
        if states.size + free.size > BLOCKADE_BASIS_MAX_STATES:
            raise DimensionLimitError(
                f"blockade basis exceeds the {BLOCKADE_BASIS_MAX_STATES}-state guard "
                f"with {g.n - v} of {g.n} atoms"
            )
        states = np.concatenate([states, free | atom_bit(g.n, v)])
    return states


def count_isets(g: BlockadeGraph) -> ISetStats:
    """Exact independent-set counts R_k for all k, MIS configurations and hardness.

    Raises DimensionLimitError when the graph has more independent sets
    than BLOCKADE_BASIS_MAX_STATES.
    """
    states = independent_configs(g)
    sizes = np.bitwise_count(states)
    counts = np.bincount(sizes).tolist()
    mis_size = len(counts) - 1
    hp = counts[mis_size - 1] / (mis_size * counts[mis_size]) if mis_size >= 1 else 0.0
    return ISetStats(r=dict(enumerate(counts)), mis_size=mis_size,
                     mis_configs=states[sizes == mis_size], hp=hp)


def classify_bitstring(g: BlockadeGraph, configs: np.ndarray, stats: ISetStats) -> dict:
    """Classify measured configurations against the blockade graph.

    configs is an int array of configurations in the encoding of the
    ``configs`` module; stats is the graph's census.  Returns {"is_independent",
    "is_mis", "is_mis_minus_1"}, each a bool array shaped like configs.
    """
    configs = np.asarray(configs)
    if configs.dtype.kind not in "iu" or np.any((configs < 0) | ((configs >> g.n) != 0)):
        raise ValueError(f"configurations of {g.n} atoms are integers in [0, 2^{g.n})")
    configs = configs.astype(np.int64, copy=False)
    size = np.bitwise_count(configs)
    independent = np.ones(configs.shape, dtype=bool)
    for u, v in g.edges:
        pair = atom_bit(g.n, u) | atom_bit(g.n, v)
        independent &= (configs & pair) != pair
    return {
        "is_independent": independent,
        "is_mis": independent & (size == stats.mis_size),
        "is_mis_minus_1": independent & (size == stats.mis_size - 1),
    }


def mis_projector_support(
    g: BlockadeGraph, stats: ISetStats | None = None
) -> tuple[str, ...]:
    """All MIS configurations as bitstrings, in lexicographic order.

    These span the subspace used for MIS-overlap and MIS-probability
    computations.  They are the census's ``mis_configs``, so a given
    stats costs no enumeration.
    """
    return tuple(configs_to_bits((stats or count_isets(g)).mis_configs, g.n))
