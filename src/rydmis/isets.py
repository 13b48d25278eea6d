"""Independent-set combinatorics on the blockade graph.

Counts independent sets exactly by size (the independence polynomial),
identifies all maximum independent sets, and evaluates the hardness
parameter R_(m-1) / (m * R_m) where m is the MIS size.  Counting is an
exhaustive branch-and-bound on vertex bitmasks: split connected
components, branch on a maximum-degree vertex, memoize subproblems.
Measured configurations are classified against the graph as whole
arrays, one pass per blockade edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .configs import atom_bit, bits_to_configs, configs_to_bits
from .errors import ResourceLimitError
from .geometry import BlockadeGraph

DEFAULT_NODE_BUDGET = 10**9
DEFAULT_MIS_CAP = 10**6


@dataclass(frozen=True)
class ISetStats:
    """Exact independent-set census of a graph.

    r maps set size k to the count R_k (every k from 0 to mis_size is
    present).  mis_sets holds all maximum independent sets as sorted
    0-based index tuples, or None when their number exceeds the retention
    cap.  hp is the hardness parameter.
    """

    r: dict[int, int]
    mis_size: int
    mis_sets: tuple[tuple[int, ...], ...] | None
    hp: float
    nodes_visited: int


class _PolyCounter:
    """Independence polynomial of induced subgraphs, as count-by-size lists."""

    def __init__(self, adjacency: tuple[int, ...], n: int, budget: int):
        self.adj = adjacency
        self.n = n
        self.budget = budget
        self.nodes = 0
        self._memo: dict[int, list[int]] = {}
        self._vbits = [(v, atom_bit(n, v)) for v in range(n)]

    def poly(self, mask: int) -> list[int]:
        self.nodes += 1
        if self.nodes > self.budget:
            raise ResourceLimitError(
                f"independent-set search exceeded node budget {self.budget}"
            )
        if mask == 0:
            return [1]
        cached = self._memo.get(mask)
        if cached is not None:
            return cached

        comp = self._component(mask)
        if comp != mask:
            result = _poly_mul(self.poly(comp), self.poly(mask & ~comp))
        else:
            v, vbit = self._max_degree_vertex(mask)
            without_v = self.poly(mask & ~vbit)
            with_v = self.poly(mask & ~(self.adj[v] | vbit))
            result = _poly_add_shifted(without_v, with_v)

        if len(self._memo) < 2_000_000:
            self._memo[mask] = result
        return result

    def _component(self, mask: int) -> int:
        seed = mask & -mask
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            m = frontier
            while m:
                bit = m & -m
                m ^= bit
                # mask bit 1 << b belongs to vertex n - 1 - b
                grow |= self.adj[self.n - bit.bit_length()] & mask
            frontier = grow & ~comp
            comp |= grow & mask
        return comp

    def _max_degree_vertex(self, mask: int) -> tuple[int, int]:
        best_v, best_bit, best_deg = -1, 0, -1
        for v, vbit in self._vbits:
            if mask & vbit:
                deg = (self.adj[v] & mask).bit_count()
                if deg > best_deg:
                    best_v, best_bit, best_deg = v, vbit, deg
        return best_v, best_bit


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_add_shifted(base: list[int], shifted: list[int]) -> list[int]:
    """base + x * shifted."""
    out = list(base) + [0] * max(0, len(shifted) + 1 - len(base))
    for i, c in enumerate(shifted):
        out[i + 1] += c
    return out


def count_isets(
    g: BlockadeGraph,
    node_budget: int = DEFAULT_NODE_BUDGET,
    mis_cap: int = DEFAULT_MIS_CAP,
) -> ISetStats:
    """Exact independent-set counts R_k for all k, MIS list and hardness.

    Raises ResourceLimitError if the search tree exceeds node_budget.
    """
    counter = _PolyCounter(g.adjacency, g.n, node_budget)
    full_mask = (1 << g.n) - 1
    coeffs = counter.poly(full_mask)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    mis_size = len(coeffs) - 1
    r = {k: coeffs[k] for k in range(mis_size + 1)}

    if mis_size >= 1:
        hp = r[mis_size - 1] / (mis_size * r[mis_size])
    else:
        hp = 0.0

    mis_sets: tuple[tuple[int, ...], ...] | None = None
    if r[mis_size] <= mis_cap:
        found = _enumerate_isets_of_size(g, mis_size, limit=r[mis_size])
        assert len(found) == r[mis_size]
        mis_sets = tuple(sorted(found))

    return ISetStats(
        r=r,
        mis_size=mis_size,
        mis_sets=mis_sets,
        hp=hp,
        nodes_visited=counter.nodes,
    )


def _enumerate_isets_of_size(
    g: BlockadeGraph, k: int, limit: int
) -> list[tuple[int, ...]]:
    """All independent sets of exactly k vertices (branch with size bound)."""
    n = g.n
    out: list[tuple[int, ...]] = []
    order = sorted(range(n), key=g.degree, reverse=True)

    def rec(idx: int, chosen: list[int], blocked: int) -> None:
        if len(chosen) == k:
            out.append(tuple(sorted(chosen)))
            return
        if len(chosen) + (n - idx) < k:
            return
        for i in range(idx, n):
            v = order[i]
            vbit = atom_bit(n, v)
            if blocked & vbit:
                continue
            if len(chosen) + 1 + (n - i - 1) < k:
                return
            chosen.append(v)
            rec(i + 1, chosen, blocked | vbit | g.adjacency[v])
            chosen.pop()

    if k == 0:
        return [()]
    rec(0, [], 0)
    assert len(out) <= limit
    return out


def classify_bitstring(
    g: BlockadeGraph, bits: str | np.ndarray, stats: ISetStats | None = None
) -> dict:
    """Classify measurement outcomes against the blockade graph.

    bits is one bitstring, where bits[v] = '1' means atom v+1 was read
    out in the Rydberg state, or an int array of configurations in the
    encoding of ``configs``.  Returns {"is_independent", "size", "is_mis",
    "is_mis_minus_1"}: plain values for a bitstring, arrays shaped like
    the configurations for an array.
    """
    if isinstance(bits, str):
        configs = bits_to_configs([bits], g.n)
    else:
        configs = np.asarray(bits)
        if configs.dtype.kind not in "iu" or np.any((configs < 0) | ((configs >> g.n) != 0)):
            raise ValueError(f"configurations of {g.n} atoms are integers in [0, 2^{g.n})")
        configs = configs.astype(np.int64, copy=False)
    if stats is None:
        stats = count_isets(g)
    size = np.bitwise_count(configs)
    independent = np.ones(configs.shape, dtype=bool)
    for u, v in g.edges:
        pair = atom_bit(g.n, u) | atom_bit(g.n, v)
        independent &= (configs & pair) != pair
    out = {
        "is_independent": independent,
        "size": size,
        "is_mis": independent & (size == stats.mis_size),
        "is_mis_minus_1": independent & (size == stats.mis_size - 1),
    }
    if isinstance(bits, str):
        return {k: v.item() for k, v in out.items()}
    return out


def mis_projector_support(
    g: BlockadeGraph, stats: ISetStats | None = None
) -> tuple[str, ...]:
    """All MIS configurations as bitstrings, in lexicographic order.

    These span the subspace used for MIS-overlap and MIS-probability
    computations.  Raises ResourceLimitError when the MIS count exceeded
    the retention cap during counting.
    """
    if stats is None:
        stats = count_isets(g)
    if stats.mis_sets is None:
        raise ResourceLimitError(
            "MIS sets were not retained (count exceeds the retention cap)"
        )
    configs = sorted(sum(atom_bit(g.n, v) for v in s) for s in stats.mis_sets)
    return tuple(configs_to_bits(np.array(configs, dtype=np.int64), g.n))
