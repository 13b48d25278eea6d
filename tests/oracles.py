"""Independent brute-force oracles used to cross-check the package.

Everything here recomputes results from raw data (positions, radii,
bitstrings) without going through the package's own data structures, so
a bug in the package cannot hide in the oracle.
"""

from __future__ import annotations

import math

import numpy as np


def oracle_edges(positions, r_b):
    """Unit-disk edges recomputed from scratch."""
    n = len(positions)
    return {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if math.dist(positions[i], positions[j]) <= r_b
    }


def oracle_iset_counts(positions, r_b):
    """Exhaustive 2^n independent-set census keyed by size."""
    n = len(positions)
    edges = oracle_edges(positions, r_b)
    counts: dict[int, int] = {}
    for subset in range(1 << n):
        members = [v for v in range(n) if subset >> v & 1]
        ok = all(
            (min(u, v), max(u, v)) not in edges
            for i, u in enumerate(members)
            for v in members[i + 1:]
        )
        if ok:
            counts[len(members)] = counts.get(len(members), 0) + 1
    return counts


def oracle_independent_configs(positions, r_b):
    """Every independent set as a configuration integer (atom 1 most
    significant), ascending, from an exhaustive 2^n scan."""
    n = len(positions)
    edges = oracle_edges(positions, r_b)
    out = []
    for config in range(1 << n):
        members = [v for v in range(n) if config >> (n - 1 - v) & 1]
        if not any(
            (u, v) in edges for i, u in enumerate(members) for v in members[i + 1:]
        ):
            out.append(config)
    return out


def oracle_mis_bitstrings(positions, r_b):
    """All maximum independent sets as bitstrings (atom 1 leftmost)."""
    n = len(positions)
    edges = oracle_edges(positions, r_b)
    best: list[str] = []
    best_size = -1
    for subset in range(1 << n):
        members = [v for v in range(n) if subset >> v & 1]
        ok = all(
            (min(u, v), max(u, v)) not in edges
            for i, u in enumerate(members)
            for v in members[i + 1:]
        )
        if not ok:
            continue
        bits = "".join("1" if v in members else "0" for v in range(n))
        if len(members) > best_size:
            best, best_size = [bits], len(members)
        elif len(members) == best_size:
            best.append(bits)
    return sorted(best)


def oracle_dense_hamiltonian(positions, c6, omega, delta):
    """Dense H built by Kronecker products, independent atom ordering."""
    n = len(positions)
    eye = np.eye(2)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.diag([1.0, -1.0])
    nop = np.diag([0.0, 1.0])

    def site(op, v):
        m = np.array([[1.0]])
        for k in range(n):
            m = np.kron(m, op if k == v else eye)
        return m

    h = np.zeros((2**n, 2**n))
    for v in range(n):
        h += 0.5 * omega * site(sx, v) + 0.5 * delta * site(sz, v)
    for i in range(n):
        for j in range(i + 1, n):
            d = math.dist(positions[i], positions[j])
            h += (c6 / d**6) * site(nop, i) @ site(nop, j)
    return h


def oracle_interaction_diagonal(positions, c6, configs):
    """Sum of C6 / r^6 over the atom pairs both excited in each
    configuration (atom 1 most significant), one pass per pair."""
    n = len(positions)
    configs = np.asarray(configs, dtype=np.int64)
    out = np.zeros(configs.size)
    for i in range(n):
        for j in range(i + 1, n):
            both = (configs >> (n - 1 - i)) & (configs >> (n - 1 - j)) & 1
            out += c6 / math.dist(positions[i], positions[j]) ** 6 * both
    return out


def oracle_flip_pattern(configs, n):
    """Row-major CSR pattern (indptr, indices) of the single-atom flips
    that stay inside the basis: row s lists, ascending, the positions of
    configs[s] with one bit flipped."""
    position = {c: i for i, c in enumerate(configs)}
    indptr, indices = [0], []
    for c in configs:
        indices.extend(sorted(position[c ^ 1 << b] for b in range(n) if c ^ 1 << b in position))
        indptr.append(len(indices))
    return np.array(indptr), np.array(indices)
