"""Pulse schedules: representation, synthesis, export.

A schedule is a Rabi-frequency trapezoid (linear ramp up, plateau,
linear ramp down) plus a detuning held as one piecewise polynomial, smooth
between its ``knots``; the breakpoint table (``delta_times``,
``delta_values``) is only an export.  Three synthesis routes are provided:

* ``standard_schedule``: one linear detuning piece between the ramps;
* ``adglb_schedule``: cubic pieces on the gap-profile grid with
  d(delta)/dt proportional to gap(t)^j within each half of the sweep,
  slowing the sweep where the spectral gap is small (the two halves meet
  at the gap minimum and are normalized independently, so the
  proportionality constant differs between them);
* ``transfer_schedule``: the two quartics of the reference chain's
  engineered sweep, re-scaled to pass through a shifted waypoint
  detuning delta_min0 + nu_d, for carrying a schedule tuned on a small
  instance over to a harder one.

A schedule is its knots, its piece coefficients and a ``kind`` label such
as ``adglb(j=1.8)``; ``save`` writes all three and ``load`` reads them back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING
import json

import numpy as np

from .geometry import TWO_PI, PhysicalParams, from_mhz, to_mhz

if TYPE_CHECKING:
    from .spectrum import GapProfile

# Waypoint of the reference-chain engineered schedule, used by
# transfer_schedule: delta_min0 = 2pi x 1.38 MHz reached at t = 3.60 us.
TRANSFER_DELTA_MIN0 = from_mhz(1.38)
TRANSFER_T_MIN = 3.60
EXPORT_POINTS = 1000  # table intervals over the sweep window of a curved drive
EXPORT_MIN_STEP = 1e-3  # us: a uniform table point this close to a knot is dropped
KNOT_SNAP = 1e-6  # us: fit_eta_polynomials reads a t_min this close to a knot as the knot


def _horner(coeffs, s):
    """Polynomial at s; coeffs runs over its first axis, highest degree first."""
    out = 0.0
    for c in coeffs:
        out = out * s + c
    return out


def _ppval(knots: np.ndarray, coeffs: np.ndarray, t):
    """Piecewise polynomial at t; piece i covers [knots[i], knots[i+1]).

    The end pieces extend beyond the knots.  A scalar t, as in the time
    steppers' per-step calls, runs on plain floats: 0-d numpy is 3x slower.
    """
    i = np.searchsorted(knots[1:-1], t, side="right")
    if np.ndim(t) == 0:
        return _horner(coeffs[i].tolist(), float(t) - float(knots[i]))
    return _horner(np.moveaxis(coeffs[i], -1, 0), np.asarray(t, dtype=float) - knots[i])


@dataclass(frozen=True, eq=False)
class PulseSchedule:
    """Rabi trapezoid plus piecewise-polynomial detuning on [0, T].

    ``coeffs[i]`` holds piece i's power-basis coefficients in (t - knots[i]),
    highest degree first.  The knots must span [0, T] and hold the ramp
    edges; delta must be constant on the ramps, continuous and nondecreasing
    up to a 0.1%-of-range tolerance (the transfer seam steps down 2pi x 0.0017 MHz).
    """

    ramp_time: float
    total_time: float
    omega0: float
    knots: np.ndarray
    coeffs: np.ndarray
    kind: str = "standard"

    def __post_init__(self) -> None:
        knots = np.asarray(self.knots, dtype=float)
        coeffs = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.ndim != 2 or knots.shape != (len(coeffs) + 1,) or len(coeffs.T) < 2:
            raise ValueError("need knots and a row of >= 2 coefficients per piece")
        if not (self.total_time > 2 * self.ramp_time > 0):
            raise ValueError("need T > 2*t_r > 0")
        if abs(knots[0]) > 1e-12 or abs(knots[-1] - self.total_time) > 1e-9:
            raise ValueError("knots must span [0, T]")
        if np.any(np.diff(knots) <= 0):
            raise ValueError("knot times must be strictly increasing")
        # after the knot checks: a repeated table time gives an infinite slope
        for name, value in (("knots", knots), ("coeffs", coeffs), ("omega0", self.omega0)):
            if not np.isfinite(value).all():
                raise ValueError(f"schedule {name} must be finite")
        if any(np.min(np.abs(knots - edge)) > 1e-12 for edge in self.sweep_window):
            raise ValueError("knots must include the ramp edges")
        t, v = self.delta_times, self.delta_values
        left = _horner(coeffs.T, np.diff(knots))  # each piece's value at its last knot
        tol = max(1e-9, 1e-3 * (v.max() - v.min()))
        if np.any(np.diff(v) < -tol):
            raise ValueError("delta(t) must be nondecreasing")
        if np.any(np.abs(left[:-1] - coeffs[1:, -1]) > tol):
            raise ValueError("delta(t) must be continuous")
        hold_lo = v[t <= self.ramp_time + 1e-12]  # continuity bounds the left limits too
        hold_hi = v[t >= self.total_time - self.ramp_time - 1e-12]
        if np.max(np.abs(hold_lo - v[0])) > tol or np.max(np.abs(hold_hi - v[-1])) > tol:
            raise ValueError("delta must be constant during the Rabi ramps")

    @classmethod
    def from_table(cls, ramp_time: float, total_time: float, omega0: float,
                   delta_times, delta_values, kind: str = "custom") -> "PulseSchedule":
        """Piecewise-linear detuning through the breakpoints (delta_times, delta_values)."""
        t, v = np.asarray(delta_times, dtype=float), np.asarray(delta_values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise ValueError("breakpoint table must be two equal-length 1D arrays")
        with np.errstate(divide="ignore", invalid="ignore"):
            slopes = np.diff(v) / np.diff(t)  # a repeated time is rejected by the constructor
        return cls(ramp_time, total_time, omega0, t, np.column_stack((slopes, v[:-1])), kind)

    @property
    def sweep_window(self) -> tuple[float, float]:
        return self.ramp_time, self.total_time - self.ramp_time

    @cached_property
    def delta_times(self) -> np.ndarray:
        """Every knot, plus EXPORT_POINTS uniform sweep intervals if a piece is curved.

        A uniform point within EXPORT_MIN_STEP of a knot is left out, so
        no table step is shorter than that unless two knots are.
        """
        if not np.any(self.coeffs[:, :-2]):
            return self.knots
        grid = np.linspace(*self.sweep_window, EXPORT_POINTS + 1)
        near = np.abs(grid[:, None] - self.knots).min(axis=1) <= EXPORT_MIN_STEP
        return np.union1d(self.knots, grid[~near])

    @cached_property
    def delta_values(self) -> np.ndarray:
        return _ppval(self.knots, self.coeffs, self.delta_times)

    def omega(self, t):
        knots = [0.0, self.ramp_time, self.total_time - self.ramp_time, self.total_time]
        return np.interp(t, knots, [0.0, self.omega0, self.omega0, 0.0])

    def omega_dot(self, t):
        """Right-hand derivative of omega (left-hand at t = T)."""
        t, up = np.asarray(t, dtype=float), self.omega0 / self.ramp_time
        out = np.where(t < self.ramp_time, up, np.where(t >= self.sweep_window[1], -up, 0.0))
        return out if out.ndim else float(out)

    def delta(self, t):
        return _ppval(self.knots, self.coeffs, t)

    def delta_dot(self, t):
        """Right-hand derivative of delta (left-hand at t = T)."""
        degree = self.coeffs.shape[1] - 1
        return _ppval(self.knots, self.coeffs[:, :-1] * np.arange(degree, 0, -1), t)

    def to_json(self) -> dict:
        """The export table; a point at a knot also carries the coefficients
        of the piece that starts there, so ``from_json`` rebuilds the drive."""
        pieces = dict(zip(self.knots[:-1].tolist(), to_mhz(self.coeffs).tolist()))
        points = []
        for t, d in zip(self.delta_times.tolist(), self.delta_values.tolist()):
            points.append({"t_us": t, "delta_over_2pi_MHz": to_mhz(d)})
            if t in pieces:
                points[-1]["poly_over_2pi_MHz"] = pieces[t]
        return {
            "t_r_us": self.ramp_time,
            "T_us": self.total_time,
            "omega0_over_2pi_MHz": to_mhz(self.omega0),
            "points": points,
            "kind": self.kind,
        }

    @classmethod
    def from_json(cls, data: dict) -> "PulseSchedule":
        """Inverse of ``to_json``; a table without piece coefficients is
        joined by straight lines."""
        pts, t_end = data["points"], float(data["T_us"])
        shape = (float(data["t_r_us"]), t_end, from_mhz(float(data["omega0_over_2pi_MHz"])))
        kind = str(data.get("kind", "custom"))
        starts = [p for p in pts if "poly_over_2pi_MHz" in p]
        if not starts:
            return cls.from_table(*shape, [p["t_us"] for p in pts],
                                  from_mhz(np.array([p["delta_over_2pi_MHz"] for p in pts])), kind)
        return cls(*shape, [p["t_us"] for p in starts] + [t_end],
                   from_mhz(np.array([p["poly_over_2pi_MHz"] for p in starts])), kind)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "PulseSchedule":
        return cls.from_json(json.loads(Path(path).read_text()))

    def to_hardware_program(self) -> dict:
        """Piecewise-linear amplitude/detuning time series in SI units."""
        omega_t = [0.0, self.ramp_time, self.total_time - self.ramp_time, self.total_time]
        return {
            "amplitude": {
                "times_s": [t * 1e-6 for t in omega_t],
                "values_rad_per_s": [0.0, self.omega0 * 1e6, self.omega0 * 1e6, 0.0],
                "interpolation": "piecewise_linear",
            },
            "detuning": {
                "times_s": [float(t) * 1e-6 for t in self.delta_times],
                "values_rad_per_s": [float(v) * 1e6 for v in self.delta_values],
                "interpolation": "piecewise_linear",
            },
        }


def standard_schedule(p: PhysicalParams) -> PulseSchedule:
    """Three-stage schedule: Rabi ramp, linear detuning sweep, ramp down."""
    t_r, t_end = p.ramp_time, p.total_time
    return PulseSchedule.from_table(t_r, t_end, p.omega0, [0.0, t_r, t_end - t_r, t_end],
                                    [p.delta_i, p.delta_i, p.delta_f, p.delta_f], "standard")


def _zeta_pieces(profile: "GapProfile", j: float, t0: float, t1: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Knots and cubic coefficients of zeta_j(t) = int_t0^t gap^j / int_t0^t1 gap^j.

    The C1 Hermite through the exact integrals of the (linearly
    interpolated) gap^j up to each profile sample, with slopes gap^j / total.
    The profile must cover [t0, t1], t0 < t1.
    """
    times, gaps = np.asarray(profile.times, dtype=float), np.asarray(profile.gaps, dtype=float)
    knots = np.concatenate(([t0], times[(times > t0) & (times < t1)], [t1]))
    g = np.interp(knots, times, gaps)
    h, g0, g1 = np.diff(knots), g[:-1], g[1:]
    # the closed form cancels as g1 -> g0, where its midpoint limit is exact to O((g1 - g0)^2)
    flat = np.abs(g1 - g0) <= 1e-6 * np.maximum(g0, g1)
    with np.errstate(divide="ignore", invalid="ignore"):
        area = np.where(flat, h * (0.5 * (g0 + g1)) ** j,
                        h * (g1 ** (j + 1) - g0 ** (j + 1)) / ((j + 1) * (g1 - g0)))
    cum = np.concatenate(([0.0], np.cumsum(area)))
    if cum[-1] <= 0.0:
        raise ValueError("gap vanishes on the whole interval")
    slope = g**j / cum[-1]
    secant = area / cum[-1] / h
    c2 = (3.0 * secant - 2.0 * slope[:-1] - slope[1:]) / h
    c3 = (slope[:-1] + slope[1:] - 2.0 * secant) / h**2
    return knots, np.column_stack((c3, c2, slope[:-1], cum[:-1] / cum[-1]))


def adglb_schedule(p: PhysicalParams, profile: "GapProfile", j: float) -> PulseSchedule:
    """Gap-guided detuning schedule through the profile's gap minimum.

    The sweep window splits at t_min; each half rises via its own
    zeta_j, so delta passes exactly through (t_min, delta_min) and ends
    at delta_f.  The Rabi trapezoid is unchanged.  The profile must have
    been computed along the standard schedule for the same parameters.
    """
    if not (np.isfinite(j) and j > 0):
        raise ValueError(f"j = {j}: need a finite j > 0")
    t_r, t_hi = p.ramp_time, p.total_time - p.ramp_time
    times = np.asarray(profile.times, dtype=float)
    if abs(times[0] - t_r) > 1e-6 or abs(times[-1] - t_hi) > 1e-6:
        raise ValueError(
            "gap profile does not match the schedule window of these parameters"
        )
    t_min, d_min = profile.t_min, profile.delta_min
    if not (t_r < t_min < t_hi):
        raise ValueError("gap minimum must lie inside the sweep window")
    if not (p.delta_i < d_min < p.delta_f):
        raise ValueError("waypoint detuning must lie between delta_i and delta_f")

    knots_a, zeta_a = _zeta_pieces(profile, j, t_r, t_min)
    knots_b, zeta_b = _zeta_pieces(profile, j, t_min, t_hi)
    coeffs = np.vstack(([0, 0, 0, p.delta_i], (d_min - p.delta_i) * zeta_a + [0, 0, 0, p.delta_i],
                        (p.delta_f - d_min) * zeta_b + [0, 0, 0, d_min], [0, 0, 0, p.delta_f]))
    return PulseSchedule(t_r, p.total_time, p.omega0,
                         np.concatenate(([0.0], knots_a, knots_b[1:], [p.total_time])), coeffs,
                         kind=f"adglb(j={j:g})")


@dataclass(frozen=True)
class EtaPolynomials:
    """Quartic zero-intercept fits of the two halves of an engineered sweep.

    ``a_coeffs`` (lowest degree first, from s^1 to s^4) fit
    delta(t_r + s) - delta_i, ``b_coeffs`` fit delta(t_min + s) - delta_min;
    s in us, outputs in 2pi x MHz.
    """

    a_coeffs: tuple[float, float, float, float]
    b_coeffs: tuple[float, float, float, float]

    @classmethod
    def reference(cls) -> "EtaPolynomials":
        """Published fit of the reference 10-atom chain's schedule."""
        return cls(
            a_coeffs=(4.0047, -1.5785, 0.2826, -0.0193),
            b_coeffs=(0.5509, -0.055, 1.4402, -0.565),
        )


def transfer_schedule(
    p: PhysicalParams,
    nu_d: float,
    eta: EtaPolynomials | None = None,
) -> PulseSchedule:
    """Reference schedule re-aimed at waypoint delta_min0 + nu_d.

    Scales the two polynomial sweep halves so the detuning passes through
    the shifted waypoint while keeping the original endpoints (up to the
    polynomials' ~2pi x 0.01 MHz endpoint residual, which is held flat
    through the final ramp).  Requires the reference timing parameters
    (T = 5 us, t_r = 0.5 us, delta = 2pi x (-2.5 .. 2.5) MHz).
    """
    if eta is None:
        eta = EtaPolynomials.reference()
    ref = PhysicalParams.default()
    for attr in ("delta_i", "delta_f", "total_time", "ramp_time"):
        if abs(getattr(p, attr) - getattr(ref, attr)) > 1e-9:
            raise ValueError(
                "transfer_schedule requires the reference timing and detuning "
                f"parameters (mismatch in {attr})"
            )
    d_min0, t_min = TRANSFER_DELTA_MIN0, TRANSFER_T_MIN
    d_min = d_min0 + nu_d
    if not (p.delta_i < d_min < p.delta_f):
        raise ValueError(
            f"offset {to_mhz(nu_d):+.3f} (2pi MHz) pushes the waypoint outside "
            "(delta_i, delta_f)"
        )

    t_r, t_hi = p.ramp_time, p.total_time - p.ramp_time
    scale_a = (d_min - p.delta_i) / (d_min0 - p.delta_i)
    scale_b = (p.delta_f - d_min) / (p.delta_f - d_min0)
    piece_a = scale_a * TWO_PI * np.array([*eta.a_coeffs[::-1], 0.0]) + [0, 0, 0, 0, p.delta_i]
    piece_b = scale_b * TWO_PI * np.array([*eta.b_coeffs[::-1], 0.0]) + [0, 0, 0, 0, d_min]
    d_end = _horner(piece_b, t_hi - t_min)
    return PulseSchedule(t_r, p.total_time, p.omega0, [0.0, t_r, t_min, t_hi, p.total_time],
                         [[0, 0, 0, 0, p.delta_i], piece_a, piece_b, [0, 0, 0, 0, d_end]],
                         kind=f"transfer(nu_d_mhz={to_mhz(nu_d):g})")


def fit_eta_polynomials(sched: PulseSchedule, t_min: float) -> EtaPolynomials:
    """Least-squares quartic (no constant term) fit of an engineered sweep.

    Fits delta - delta_i against s = t - t_r on [t_r, t_min) and
    delta - delta(t_min) against s = t - t_min on [t_min, T - t_r], both
    in 2pi x MHz.  The waypoint t_min must be a knot inside the sweep
    window: the gap minimum of an adglb drive, TRANSFER_T_MIN of a
    transfer drive.  A t_min within KNOT_SNAP of a knot is read as that
    knot, so a waypoint printed to a few decimals, as in a gap CSV, still
    names it.  The fit runs on the export table, so fit ->
    transfer_schedule -> fit is a fixed point; piece a is half-open
    because the seam knot at t_min belongs to piece b.
    """
    t_r, t_hi = sched.sweep_window
    knot = sched.knots[np.argmin(np.abs(sched.knots - t_min))]
    if not (t_r < knot < t_hi and abs(knot - t_min) <= KNOT_SNAP):
        raise ValueError(f"t_min = {t_min} us is not a knot inside the sweep window")
    t_min = float(knot)
    d_min = float(sched.delta(t_min))
    times, values = sched.delta_times, sched.delta_values

    def fit_piece(in_piece: np.ndarray, t0: float, base: float) -> tuple[float, ...]:
        s = times[in_piece] - t0
        y = to_mhz(values[in_piece] - base)
        design = np.stack([s, s**2, s**3, s**4], axis=1)
        coeffs, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        if rank < 4:
            raise ValueError("degenerate sweep piece; quartic fit is rank deficient")
        return tuple(float(c) for c in coeffs)

    return EtaPolynomials(
        a_coeffs=fit_piece((times >= t_r) & (times < t_min), t_r, sched.delta(0.0)),
        b_coeffs=fit_piece((times >= t_min) & (times <= t_hi), t_min, d_min),
    )
