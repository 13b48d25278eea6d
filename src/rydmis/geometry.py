"""Atom arrays, physical parameters, pair geometry and the blockade graph.

``pair_offsets`` is the one place pair geometry is computed: the
coincidence check, the blockade graph and the vdW tails all read it.

Unit conventions used throughout the package:

* angular frequencies are stored in rad/us (hbar = 1),
* times in us, lengths in um,
* every user-facing number is quoted as value / 2*pi in MHz, which is the
  usual convention on neutral-atom hardware.  ``from_mhz``/``to_mhz``
  convert at that boundary.

The detuning sign convention follows ``H = sum_v [ (Omega/2) sx_v +
(delta/2) sz_v ] + U sum_(u,v) n_u n_v`` with ``sz = |g><g| - |r><r|``,
so a *positive* detuning favours the Rydberg state.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi

# 87Rb / 70S hardware values of every stock experiment, as PhysicalParams.from_mhz
# takes them: C6 = 2pi x 863 GHz um^6, Omega0 = 2pi x 1 MHz, detuning swept
# 2pi x (-2.5 .. +2.5) MHz over T = 5 us with 0.5 us Rabi ramps.
STOCK_MHZ = {"c6_mhz_um6": 863_000.0, "omega0_mhz": 1.0, "delta_i_mhz": -2.5,
             "delta_f_mhz": 2.5, "total_time_us": 5.0, "ramp_time_us": 0.5}


def from_mhz(value_mhz: float) -> float:
    """Convert a frequency quoted as value/2pi in MHz to rad/us."""
    return TWO_PI * value_mhz


def to_mhz(value_rad_per_us: float) -> float:
    """Convert rad/us back to the value/2pi MHz convention."""
    return value_rad_per_us / TWO_PI


@dataclass(frozen=True)
class PhysicalParams:
    """Hardware parameters of the driving laser and interaction.

    Attributes:
        c6: van-der-Waals coefficient, rad/us * um^6.
        omega0: peak Rabi frequency, rad/us.
        delta_i: initial (negative) detuning, rad/us.
        delta_f: final (positive) detuning, rad/us.
        total_time: full evolution time T, us.
        ramp_time: Rabi ramp duration t_r, us.
    """

    c6: float
    omega0: float
    delta_i: float
    delta_f: float
    total_time: float
    ramp_time: float

    def __post_init__(self) -> None:
        if self.omega0 <= 0:
            raise ValueError("omega0 must be positive")
        if not (self.total_time > 2 * self.ramp_time > 0):
            raise ValueError("need T > 2*t_r > 0")
        if not (self.delta_i < 0 < self.delta_f):
            raise ValueError("need delta_i < 0 < delta_f")

    @classmethod
    def from_mhz(cls, c6_mhz_um6: float, omega0_mhz: float, delta_i_mhz: float, delta_f_mhz: float,
                 total_time_us: float, ramp_time_us: float) -> "PhysicalParams":
        """From frequencies as value/2pi in MHz, all required; STOCK_MHZ has the stock ones."""
        return cls(
            c6=from_mhz(c6_mhz_um6),
            omega0=from_mhz(omega0_mhz),
            delta_i=from_mhz(delta_i_mhz),
            delta_f=from_mhz(delta_f_mhz),
            total_time=total_time_us,
            ramp_time=ramp_time_us,
        )

    @classmethod
    def default(cls) -> "PhysicalParams":
        """The stock hardware values, STOCK_MHZ."""
        return cls.from_mhz(**STOCK_MHZ)

    @property
    def blockade_radius(self) -> float:
        """R_b = (C6 / Omega0)^(1/6) in um."""
        return (self.c6 / self.omega0) ** (1.0 / 6.0)


@dataclass(frozen=True)
class AtomArray:
    """A named, ordered set of finite, distinct 2D atom coordinates in um.

    Atom indices are 0-based internally; reports and file formats use
    1-based indices to match the published coordinate tables.
    """

    name: str
    positions: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        finite = np.isfinite(np.asarray(self.positions, dtype=float)).reshape(self.n, 2).all(1)
        if not finite.all():
            raise ValueError(f"atom {np.argmin(finite) + 1} has a non-finite coordinate")
        i, j, offsets = pair_offsets(self.positions)
        coincide = np.flatnonzero(~offsets.any(axis=1))
        if coincide.size:
            raise ValueError(f"atoms {i[coincide[0]] + 1} and {j[coincide[0]] + 1} coincide")

    @property
    def n(self) -> int:
        return len(self.positions)

    def to_json(self) -> dict:
        return {"name": self.name, "positions_um": [list(p) for p in self.positions]}

    @classmethod
    def from_json(cls, data: dict) -> "AtomArray":
        if not isinstance(data, dict):
            raise ValueError("instance JSON must be an object with 'name' and 'positions_um'")
        missing = [key for key in ("name", "positions_um") if key not in data]
        if missing:
            raise ValueError(f"instance JSON has no {missing[0]!r} field")
        try:
            positions = tuple((float(x), float(y)) for x, y in data["positions_um"])
        except (TypeError, ValueError):
            raise ValueError("instance JSON field 'positions_um' must be a list of "
                             "[x, y] number pairs") from None
        return cls(name=str(data["name"]), positions=positions)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "AtomArray":
        return cls.from_json(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class BlockadeGraph:
    """Unit-disk graph induced by the blockade radius.

    Edges connect atom pairs within the blockade radius R_b.  u_per_edge
    = C6 / a^6 is the single interaction energy of the constant-U model,
    with the nearest-neighbor spacing a estimated as the median edge
    length (printed coordinate tables carry 0.01 um rounding, which a bare
    minimum-distance rule would amplify sixfold into U); it is 0 for an
    edgeless graph.  The source positions and C6 are kept so Hamiltonians
    can also be built with the full 1/r^6 pair interactions.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    u_per_edge: float
    positions: tuple[tuple[float, float], ...] = ()
    c6: float = 0.0


def pair_offsets(positions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every atom pair i < j of n positions, in row-major order, and its offset.

    Returns (i, j, offsets): two int arrays of length m = n(n-1)/2 and
    the (m, 2) array of positions[i] - positions[j] in um.
    """
    xy = np.asarray(positions, dtype=float).reshape(len(positions), 2)
    i, j = np.triu_indices(len(positions), 1)
    return i, j, xy[i] - xy[j]


# Published coordinate tables, stored exactly as printed (2-decimal um).

_Q1D_10 = (
    (6.93, 8.00), (20.78, 8.00), (34.64, 8.00),
    (0.00, 4.00), (13.85, 4.00), (27.71, 4.00), (41.57, 4.00),
    (6.93, 0.00), (20.78, 0.00), (34.64, 0.00),
)

_TD_25 = (
    (27.71, 4.00),
    (20.78, 8.00), (34.64, 8.00),
    (13.86, 12.00), (27.71, 12.00), (41.57, 12.00),
    (6.93, 16.00), (20.78, 16.00), (34.64, 16.00), (48.50, 16.00),
    (0.00, 20.00), (13.86, 20.00), (27.71, 20.00), (41.57, 20.00), (55.43, 20.00),
    (6.93, 24.00), (20.78, 24.00), (34.64, 24.00), (48.50, 24.00),
    (13.86, 28.00), (27.71, 28.00), (41.57, 28.00),
    (20.78, 32.00), (34.64, 32.00),
    (27.71, 36.00),
)

_TH_37 = (
    (20.78, 0.00),
    (13.86, 4.00), (27.71, 4.00),
    (6.93, 8.00), (20.78, 8.00), (34.64, 8.00),
    (0.00, 12.00), (13.86, 12.00), (27.71, 12.00), (41.57, 12.00),
    (6.93, 16.00), (20.78, 16.00), (34.64, 16.00),
    (0.00, 20.00), (13.86, 20.00), (27.71, 20.00), (41.57, 20.00),
    (6.93, 24.00), (20.78, 24.00), (34.64, 24.00),
    (0.00, 28.00), (13.86, 28.00), (27.71, 28.00), (41.57, 28.00),
    (6.93, 32.00), (20.78, 32.00), (34.64, 32.00),
    (0.00, 36.00), (13.86, 36.00), (27.71, 36.00), (41.57, 36.00),
    (6.93, 40.00), (20.78, 40.00), (34.64, 40.00),
    (13.86, 44.00), (27.71, 44.00),
    (20.78, 48.00),
)

_QP1D_23 = (
    (13.86, 4.00), (20.78, 0.00),
    (27.71, 4.00), (34.64, 0.00),
    (41.57, 4.00), (48.50, 0.00),
    (55.43, 4.00), (6.93, 8.00),
    (20.78, 8.00), (34.64, 8.00),
    (48.50, 8.00), (6.93, 16.00),
    (6.93, 24.00), (13.86, 28.00),
    (20.78, 24.00), (27.71, 28.00),
    (34.64, 24.00), (41.57, 28.00),
    (48.50, 24.00), (55.43, 28.00),
    (20.78, 32.00), (34.64, 32.00),
    (48.50, 32.00),
)

_TABLES: dict[str, tuple[tuple[float, float], ...]] = {
    "Q1D_10": _Q1D_10,
    "TD_25": _TD_25,
    "TH_37": _TH_37,
    "Qp1D_23": _QP1D_23,
}

BUILTIN_NAMES = tuple(_TABLES)
KPXP_SPACING_UM = 8.0  # nearest-neighbour spacing of the published zigzag chains


def builtin_instance(name: str) -> AtomArray:
    """Return a named built-in atom array.

    Tabulated instances (Q1D_10, TD_25, TH_37, Qp1D_23) come back with
    their published coordinates verbatim.  Other zigzag-chain sizes are
    accepted as ``Q1D_<n>`` and generated by ``generate_kpxp_chain``.
    """
    if name in _TABLES:
        return AtomArray(name=name, positions=_TABLES[name])
    if name.startswith("Q1D_"):
        try:
            n = int(name[len("Q1D_"):])
        except ValueError:
            raise ValueError(f"unknown instance {name!r}") from None
        return generate_kpxp_chain(n)
    raise ValueError(
        f"unknown instance {name!r}; built-ins are {', '.join(BUILTIN_NAMES)} "
        "or Q1D_<n> for a generated chain"
    )


def generate_kpxp_chain(n: int) -> AtomArray:
    """Zigzag triangular chain of n atoms, nearest neighbors a = KPXP_SPACING_UM apart.

    The chain walks cells of three atoms each: a spine atom on the middle
    row, then the top/bottom pair half a cell further along.  Spine atoms
    sit at x = k*a*sqrt(3), y = a/2; the top/bottom atoms of cell k at
    x = (k + 1/2)*a*sqrt(3), y = a and y = 0.  Atom order is the walk
    order, so the spine occupies indices 1, 4, 7, ... (1-based) and the
    unique MIS of the induced blockade graph is the spine itself.

    For n = 10 this reproduces the published Q1D_10 coordinates
    (up to 0.01 um print rounding in one table entry).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    a = KPXP_SPACING_UM
    dx = a * math.sqrt(3.0)
    pos: list[tuple[float, float]] = []
    for i in range(n):
        k, r = divmod(i, 3)
        if r == 0:
            pos.append((k * dx, a / 2.0))
        elif r == 1:
            pos.append((k * dx + dx / 2.0, a))
        else:
            pos.append((k * dx + dx / 2.0, 0.0))
    return AtomArray(name=f"Q1D_{n}", positions=tuple(pos))


def blockade_graph(
    arr: AtomArray,
    p: PhysicalParams,
    require_mis_encoding: bool = False,
) -> BlockadeGraph:
    """Build the unit-disk blockade graph of an atom array.

    With ``require_mis_encoding`` the constructed graph must be usable as
    an MIS instance: it must have at least one edge (n >= 2) and satisfy
    delta_f < U so the final ground state is the MIS configuration.
    """
    if arr.n == 0:
        raise ValueError("empty atom array")
    i, j, offsets = pair_offsets(arr.positions)
    dist = np.hypot(offsets[:, 0], offsets[:, 1])
    near = dist <= p.blockade_radius
    edges = frozenset(zip(i[near].tolist(), j[near].tolist()))
    spacing = float(np.median(dist[near])) if edges else math.inf  # so U = 0 without edges
    u = p.c6 / spacing**6
    if require_mis_encoding and arr.n >= 2:
        if not edges:
            raise ValueError(
                "blockade graph has no edges; the MIS problem is degenerate"
            )
        if p.delta_f >= u:
            raise ValueError(
                f"MIS encoding requires delta_f < U, got delta_f = "
                f"{to_mhz(p.delta_f):.3f} and U = {to_mhz(u):.3f} (2pi MHz)"
            )
    return BlockadeGraph(
        n=arr.n,
        edges=edges,
        u_per_edge=u,
        positions=arr.positions,
        c6=p.c6,
    )
