"""The Hamiltonian over full or blockade-restricted bases, as one operator.

H(omega, delta) = sum_v [ (omega/2) sx_v + (delta/2) sz_v ]
                + sum_(u,v)  u_uv  n_u n_v

with sz = |g><g| - |r><r| = 1 - 2n, so positive detuning favours the
Rydberg state.  Two interaction modes:

* "tails" (default): u_uv = C6 / r_uv^6 for every atom pair, the
  physical van-der-Waals interaction, with r_uv from the offsets of
  ``geometry.pair_offsets``.  This is what reproduces the published
  gap-minimum location and evolution fidelities.
* "constant": u_uv = U on blockade-graph edges only and zero elsewhere,
  the idealized single-U model.

omega and delta enter linearly, so ``HamiltonianTerms`` caches H as the
bit-flip pattern ``sx`` and two diagonal vectors, and its ``matvec``
applies H(omega, delta) = omega sx + delta zdiag + udiag in one fused
kernel that keeps delta zdiag + udiag until delta changes.  That kernel
is the package's only H psi, and it counts its calls.  ``assemble`` binds
(omega, delta) to the terms as a ``HamiltonianOperator`` with ``shape``,
``diagonal()`` and ``@``, so no solve sums a sparse H: the matrix-free
operator of Weinberg & Bukov (QuSpin, SciPost Phys. 2, 003, 2017).
``udiag`` = sum_(u<v) u_uv n_u n_v is built UDIAG_CHUNK states at a time.

A basis is one strictly ascending int64 array of configurations
(``BasisSet.states``) that holds each of its states with any one atom
cleared, so per atom one XOR and one binary search find every flip pair
from its occupied end.  The pairs fill a (dim, n) table of each state's
single-flip partners, and sorted row by row its entries are the CSR rows
of ``sx`` (Sandvik, AIP Conf. Proc. 1297, 135, 2010).  No code here
loops over basis states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse._sparsetools import csr_matvec

from .configs import atom_bit, occupancy
from .errors import DimensionLimitError
from .geometry import BlockadeGraph, pair_offsets
from .isets import independent_configs

FULL_BASIS_MAX_ATOMS = 24
UDIAG_CHUNK = 1 << 15  # states per occupancy block when building udiag


@dataclass(frozen=True, eq=False)
class BasisSet:
    """Configuration basis: the strictly ascending int64 array ``states``.

    kind "full" holds all 2^n configurations; kind "blockade" only the
    independent sets of the graph.  Both hold each of their states with
    any one atom cleared, which ``hamiltonian_terms`` needs.  A
    configuration's position in the basis is its position in ``states``,
    found by binary search.
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


def build_basis(g: BlockadeGraph, kind: str = "full") -> BasisSet:
    if kind == "full":
        if g.n > FULL_BASIS_MAX_ATOMS:
            raise DimensionLimitError(
                f"full basis for n = {g.n} exceeds the {FULL_BASIS_MAX_ATOMS}-atom guard"
            )
        states = np.arange(1 << g.n, dtype=np.int64)
        return BasisSet(kind="full", n=g.n, states=states)
    if kind == "blockade":
        return BasisSet(kind="blockade", n=g.n, states=independent_configs(g))
    raise ValueError(f"unknown basis kind {kind!r}")


@dataclass(eq=False)
class HamiltonianTerms:
    """Cached pieces of H(omega, delta) = omega*sx + delta*zdiag + udiag.

    ``matvecs`` counts the calls of ``matvec`` made on these terms.
    """

    graph: BlockadeGraph
    basis: BasisSet
    sx: csr_matrix = field(repr=False)
    zdiag: np.ndarray = field(repr=False)
    udiag: np.ndarray = field(repr=False)
    matvecs: int = field(default=0, init=False)
    _diag: tuple = field(default=(None, None), init=False, repr=False)  # delta, its diagonal

    @property
    def dim(self) -> int:
        return self.basis.dim

    @cached_property
    def _sx_data_complex(self) -> np.ndarray:
        # csr_matvec would otherwise upcast sx.data on every complex call
        return self.sx.data.astype(complex)

    def matvec(self, omega: float, delta: float, psi: np.ndarray) -> np.ndarray:
        """H(omega, delta) psi as a new array.

        The output starts as the diagonal part and one CSR kernel call
        adds sx (omega psi) into it.  psi must be one vector of the basis:
        the kernel does not check its indices against psi.
        """
        if psi.shape != self.zdiag.shape:
            raise ValueError(f"psi has shape {psi.shape}, the basis has dimension {self.dim}")
        self.matvecs += 1
        data = self._sx_data_complex if np.iscomplexobj(psi) else self.sx.data
        if self._diag[0] != delta:
            self._diag = (delta, delta * self.zdiag + self.udiag)
        out = self._diag[1] * psi
        csr_matvec(psi.size, psi.size, self.sx.indptr, self.sx.indices, data, omega * psi, out)
        return out


def _pair_energies(g: BlockadeGraph, interaction: str) -> np.ndarray:
    """n x n matrix holding u_uv above the diagonal (u < v), zero elsewhere."""
    energies = np.zeros((g.n, g.n))
    if interaction == "constant":
        for u, v in g.edges:
            energies[min(u, v), max(u, v)] = g.u_per_edge
        return energies
    if interaction == "tails":
        if len(g.positions) != g.n or g.c6 <= 0:
            raise ValueError(
                "graph carries no geometry; tails mode needs positions and C6"
            )
        i, j, offsets = pair_offsets(g.positions)
        energies[i, j] = g.c6 / np.sum(offsets**2, axis=1) ** 3
        return energies
    raise ValueError(f"unknown interaction mode {interaction!r}")


def hamiltonian_terms(
    g: BlockadeGraph, basis: BasisSet, interaction: str = "tails"
) -> HamiltonianTerms:
    n, states, dim = g.n, basis.states, basis.dim

    # partner[s, v]: position of state s with atom v flipped, -1 outside the basis
    partner = np.full((dim, n), -1, dtype=np.int32)
    for v in range(n):
        bit = atom_bit(n, v)
        upper = np.flatnonzero(states & bit)
        cleared = states[upper] ^ bit
        lower = np.searchsorted(states, cleared)  # < dim: each is below a basis state
        if not np.array_equal(states[lower], cleared):
            raise ValueError(f"a basis state lacks its atom-{v}-cleared partner: "
                             "the basis must hold each state with any one atom cleared")
        partner[lower, v] = upper
        partner[upper, v] = lower
    partner.sort(axis=1)  # each row's partners ascend after its -1 entries: CSR order
    linked = partner >= 0
    indices = partner[linked]
    indptr = np.concatenate(([0], np.cumsum(linked.sum(axis=1))))
    sx = csr_matrix((np.full(indices.size, 0.5), indices, indptr), shape=(dim, dim))

    zdiag = n / 2.0 - np.bitwise_count(states)

    energies = _pair_energies(g, interaction)
    udiag = np.empty(dim)
    for lo in range(0, dim, UDIAG_CHUNK):
        occ = occupancy(states[lo : lo + UDIAG_CHUNK], n).astype(float)
        udiag[lo : lo + UDIAG_CHUNK] = np.einsum("si,si->s", occ @ energies, occ)

    return HamiltonianTerms(graph=g, basis=basis, sx=sx, zdiag=zdiag, udiag=udiag)


@dataclass(frozen=True, eq=False)
class HamiltonianOperator:
    """H(omega, delta) on cached terms, rad/us: ``shape``, ``diagonal()`` and ``@``.

    ``H @ psi`` is ``terms.matvec(omega, delta, psi)``; nothing is summed
    into a matrix.
    """

    terms: HamiltonianTerms
    omega: float
    delta: float

    @property
    def shape(self) -> tuple[int, int]:
        return self.terms.dim, self.terms.dim

    def diagonal(self) -> np.ndarray:
        return self.delta * self.terms.zdiag + self.terms.udiag

    def __matmul__(self, psi: np.ndarray) -> np.ndarray:
        return self.terms.matvec(self.omega, self.delta, psi)


def assemble(h: HamiltonianTerms, omega: float, delta: float) -> HamiltonianOperator:
    """H at one (omega, delta) point, rad/us, bound to the cached terms."""
    return HamiltonianOperator(h, omega, delta)
