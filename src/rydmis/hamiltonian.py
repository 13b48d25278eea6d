"""Sparse Hamiltonian assembly over full or blockade-restricted bases.

H(omega, delta) = sum_v [ (omega/2) sx_v + (delta/2) sz_v ]
                + sum_(u,v)  u_uv  n_u n_v

with sz = |g><g| - |r><r| = 1 - 2n, so positive detuning favours the
Rydberg state.  Two interaction modes:

* "tails" (default): u_uv = C6 / r_uv^6 for every atom pair, the
  physical van-der-Waals interaction.  This is what reproduces the
  published gap-minimum location and evolution fidelities.
* "constant": u_uv = U on blockade-graph edges only and zero elsewhere,
  the idealized single-U model.

omega and delta enter linearly, so the matrix is cached as one
off-diagonal bit-flip pattern plus two diagonal vectors and re-weighted
per (omega, delta) query.

A basis is one strictly ascending int64 array of configurations
(``BasisSet.states``).  Positions in it are found by binary search, so
the bit-flip pattern takes one XOR and one search per atom, and no code
here loops over basis states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix, diags

from .configs import atom_bit, configs_to_bits
from .errors import DimensionLimitError
from .geometry import BlockadeGraph
from .schedule import PulseSchedule

FULL_BASIS_MAX_ATOMS = 24
BLOCKADE_BASIS_MAX_STATES = 1 << 24


@dataclass(frozen=True, eq=False)
class BasisSet:
    """Configuration basis: the strictly ascending int64 array ``states``.

    kind "full" holds all 2^n configurations; kind "blockade" only the
    independent sets of the graph.  A configuration's position in the
    basis is its position in ``states``, found by binary search.
    """

    kind: str
    n: int
    states: np.ndarray

    @property
    def dim(self) -> int:
        return self.states.size

    def position_of(self, config: int | np.ndarray) -> int | np.ndarray:
        """Position of a configuration (an int or an int array), -1 where absent.

        An int gives a plain int; an array gives an array of its shape.
        """
        configs = np.asarray(config, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self.states, configs), self.dim - 1)
        pos = np.where(self.states[pos] == configs, pos, -1)
        return int(pos) if pos.ndim == 0 else pos

    def bitstrings(self) -> list[str]:
        return configs_to_bits(self.states, self.n)


def build_basis(g: BlockadeGraph, kind: str = "full") -> BasisSet:
    if kind == "full":
        if g.n > FULL_BASIS_MAX_ATOMS:
            raise DimensionLimitError(
                f"full basis for n = {g.n} exceeds the {FULL_BASIS_MAX_ATOMS}-atom guard"
            )
        states = np.arange(1 << g.n, dtype=np.int64)
        return BasisSet(kind="full", n=g.n, states=states)
    if kind == "blockade":
        return BasisSet(kind="blockade", n=g.n, states=_independent_configs(g))
    raise ValueError(f"unknown basis kind {kind!r}")


def _independent_configs(g: BlockadeGraph) -> np.ndarray:
    """All independent-set configurations in ascending order.

    Atoms are added from the lowest bit up.  Every configuration so far
    lies below the new atom's bit, so appending the ones that leave the
    atom unblocked, with its bit set, keeps the array sorted.
    """
    states = np.zeros(1, dtype=np.int64)
    for v in reversed(range(g.n)):
        free = states[(states & g.adjacency[v]) == 0]
        states = np.concatenate([states, free | atom_bit(g.n, v)])
        if states.size > BLOCKADE_BASIS_MAX_STATES:
            raise DimensionLimitError(
                f"blockade basis exceeds the {BLOCKADE_BASIS_MAX_STATES}-state guard "
                f"with {g.n - v} of {g.n} atoms"
            )
    return states


@dataclass(frozen=True, eq=False)
class HamiltonianTerms:
    """Cached matrix pieces: assemble(omega, delta) = omega*sx + diag."""

    graph: BlockadeGraph
    basis: BasisSet
    interaction: str = "tails"
    sx: csr_matrix = field(repr=False, default=None)
    zdiag: np.ndarray = field(repr=False, default=None)
    udiag: np.ndarray = field(repr=False, default=None)

    @property
    def dim(self) -> int:
        return self.basis.dim

    def matvec(self, omega: float, delta: float, psi: np.ndarray) -> np.ndarray:
        return omega * (self.sx @ psi) + (delta * self.zdiag + self.udiag) * psi


def _pair_energies(g: BlockadeGraph, interaction: str) -> list[tuple[int, int, float]]:
    if interaction == "constant":
        return [(u, v, g.u_per_edge) for u, v in g.edges]
    if interaction == "tails":
        if len(g.positions) != g.n or g.c6 <= 0:
            raise ValueError(
                "graph carries no geometry; tails mode needs positions and C6"
            )
        out = []
        for u in range(g.n):
            xu, yu = g.positions[u]
            for v in range(u + 1, g.n):
                xv, yv = g.positions[v]
                r2 = (xu - xv) ** 2 + (yu - yv) ** 2
                out.append((u, v, g.c6 / r2**3))
        return out
    raise ValueError(f"unknown interaction mode {interaction!r}")


def hamiltonian_terms(
    g: BlockadeGraph, basis: BasisSet, interaction: str = "tails"
) -> HamiltonianTerms:
    n = g.n
    states = basis.states
    dim = states.size

    # sx links each state with its bit v clear to the state with it set
    rows, cols = [], []
    for v in range(n):
        bit = atom_bit(n, v)
        lower = np.flatnonzero((states & bit) == 0)
        upper = basis.position_of(states[lower] ^ bit)
        found = upper >= 0
        rows.append(lower[found])
        cols.append(upper[found])
    rows_arr = np.concatenate(rows + cols)
    cols_arr = np.concatenate(cols + rows)
    data = np.full(rows_arr.size, 0.5)
    sx = csr_matrix((data, (rows_arr, cols_arr)), shape=(dim, dim))

    zdiag = n / 2.0 - np.bitwise_count(states)

    udiag = np.zeros(dim)
    for u, v, energy in _pair_energies(g, interaction):
        mask = atom_bit(n, u) | atom_bit(n, v)
        udiag += energy * ((states & mask) == mask)

    return HamiltonianTerms(
        graph=g, basis=basis, interaction=interaction, sx=sx, zdiag=zdiag, udiag=udiag
    )


def assemble(h: HamiltonianTerms, omega: float, delta: float) -> csr_matrix:
    """Sparse symmetric H at one (omega, delta) point, rad/us."""
    return (omega * h.sx + diags(delta * h.zdiag + h.udiag)).tocsr()


def hamiltonian_time_derivative(
    h: HamiltonianTerms, sched: PulseSchedule, t: float
) -> csr_matrix:
    """dH/dt from the schedule's right-hand derivatives at t."""
    om_dot = float(sched.omega_dot(t))
    de_dot = float(sched.delta_dot(t))
    return (om_dot * h.sx + diags(de_dot * h.zdiag)).tocsr()


def dump_matrix(matrix: csr_matrix, path: str | Path) -> None:
    """Coordinate-list text dump: row col real imag, one entry per line."""
    coo = matrix.tocoo()
    with open(path, "w") as fh:
        fh.write(f"# dim {coo.shape[0]} nnz {coo.nnz}\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            z = complex(v)
            fh.write(f"{r} {c} {z.real:.17g} {z.imag:.17g}\n")
