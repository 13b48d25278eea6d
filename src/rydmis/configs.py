"""Bitstring and configuration-integer conversions.

A configuration of n atoms is written as an n-character bitstring whose
i-th character is the state of atom i+1 ('1' = Rydberg).  The canonical
integer encoding reads that string as a binary numeral, so atom 1 is the
most significant bit and ascending integers sort bitstrings
lexicographically.  Vertex sets, adjacency masks and basis states all use
this one convention.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

_ZERO = ord("0")
MAX_ATOMS = 63  # a configuration is an int64, whose bit 63 is the sign


def atom_bit(n: int, v: int) -> int:
    """Mask of atom v (0-based) in an n-atom configuration integer."""
    return 1 << (n - 1 - v)


def _place_values(n: int) -> np.ndarray:
    if n > MAX_ATOMS:
        raise ValueError(f"{n} atoms: a configuration holds at most {MAX_ATOMS}")
    return np.int64(1) << np.arange(n - 1, -1, -1, dtype=np.int64)


def bits_to_configs(bits: Sequence[str], n: int) -> np.ndarray:
    """Configurations of n-atom bitstrings, as an int64 array.

    Raises ValueError for a string that is not n 0/1 characters, or n > MAX_ATOMS.
    """
    lengths = np.fromiter(map(len, bits), dtype=np.int64, count=len(bits))
    if np.any(lengths != n):
        raise ValueError(f"bitstring length {lengths[lengths != n][0]} != atom count {n}")
    digits = np.array(bits, dtype=f"S{n}").view(np.uint8).reshape(-1, n) - _ZERO
    if np.any(digits > 1):
        raise ValueError("bitstring must contain only 0 and 1")
    return occupancy_to_configs(digits)


def occupancy(configs: np.ndarray, n: int) -> np.ndarray:
    """Boolean (len(configs), n) array: entry [s, v] is True when atom v+1
    of configuration s is in the Rydberg state."""
    return (np.asarray(configs, dtype=np.int64)[:, None] & _place_values(n)) != 0


def occupancy_to_configs(rows: np.ndarray) -> np.ndarray:
    """Configurations of a (m, n) array of 0/1 atom states, the inverse of
    ``occupancy``, as an int64 array."""
    rows = np.asarray(rows)
    return rows.astype(np.int64, copy=False) @ _place_values(rows.shape[1])


def configs_to_bits(configs: np.ndarray, n: int) -> list[str]:
    """n-character bitstrings of an array of configurations."""
    digits = occupancy(configs, n)
    return (digits.astype(np.uint8) + _ZERO).view(f"S{n}").ravel().astype(str).tolist()
