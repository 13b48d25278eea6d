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


def atom_bit(n: int, v: int) -> int:
    """Mask of atom v (0-based) in an n-atom configuration integer."""
    return 1 << (n - 1 - v)


def _place_values(n: int) -> np.ndarray:
    return np.int64(1) << np.arange(n - 1, -1, -1, dtype=np.int64)


def bits_to_configs(bits: Sequence[str], n: int) -> np.ndarray:
    """Configurations of n-atom bitstrings, as an int64 array.

    Raises ValueError for a string that is not n characters of 0 and 1.
    """
    lengths = np.fromiter(map(len, bits), dtype=np.int64, count=len(bits))
    if np.any(lengths != n):
        raise ValueError(f"bitstring length {lengths[lengths != n][0]} != atom count {n}")
    digits = np.array(bits, dtype=f"S{n}").view(np.uint8).reshape(-1, n) - _ZERO
    if np.any(digits > 1):
        raise ValueError("bitstring must contain only 0 and 1")
    return digits @ _place_values(n)


def configs_to_bits(configs: np.ndarray, n: int) -> list[str]:
    """n-character bitstrings of an array of configurations."""
    digits = (np.asarray(configs, dtype=np.int64)[:, None] & _place_values(n)) != 0
    return (digits.astype(np.uint8) + _ZERO).view(f"S{n}").ravel().astype(str).tolist()
