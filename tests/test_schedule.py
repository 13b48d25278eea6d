import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rydmis
from rydmis import (
    GapProfile,
    PulseSchedule,
    adglb_schedule,
    builtin_instance,
    blockade_graph,
    from_mhz,
    standard_schedule,
    to_mhz,
    transfer_schedule,
)
from rydmis.schedule import EXPORT_MIN_STEP, TRANSFER_ETA_A, TRANSFER_ETA_B


def _flat_profile(t0=0.5, t1=4.5, gap=1.0, t_min=2.5):
    ts = np.linspace(t0, t1, 65)
    gaps = np.full_like(ts, gap)
    return GapProfile(
        times=ts, deltas=np.linspace(-1, 1, 65), e0s=-gaps / 2, e1s=gaps / 2,
        gaps=gaps, t_min=t_min, delta_min=0.0, g_min=gap,
    )


def test_standard_schedule_checkpoints(params):
    sched = standard_schedule(params)
    # sweep midpoint maps to mid-detuning (delta_i + delta_f)/2 = 0
    assert sched.delta(params.total_time / 2) == pytest.approx(0.0, abs=1e-12)
    assert sched.delta(0.25) == pytest.approx(from_mhz(-2.5))
    assert sched.omega(params.total_time - params.ramp_time / 2) == pytest.approx(
        params.omega0 / 2
    )
    assert sched.omega(0.0) == 0.0 and sched.omega(params.total_time) == 0.0
    assert float(sched.omega(2.0)) == pytest.approx(params.omega0)
    rate = (params.delta_f - params.delta_i) / (params.total_time - 2 * params.ramp_time)
    assert float(sched.delta_dot(2.0)) == pytest.approx(rate)
    assert float(sched.delta_dot(0.2)) == 0.0
    assert float(sched.omega_dot(0.2)) == pytest.approx(params.omega0 / params.ramp_time)
    assert float(sched.omega_dot(4.8)) == pytest.approx(-params.omega0 / params.ramp_time)


def test_construction_invariants_enforced(params):
    t = np.array([0.0, 0.5, 4.5, 5.0])
    with pytest.raises(ValueError, match="nondecreasing"):
        PulseSchedule.from_table(0.5, 5.0, params.omega0, t, np.array([1.0, 1.0, -1.0, -1.0]))
    with pytest.raises(ValueError, match="constant during"):
        PulseSchedule.from_table(0.5, 5.0, params.omega0, t, np.array([-1.0, 1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="span"):
        PulseSchedule.from_table(0.5, 5.0, params.omega0, t[:-1], np.array([-1.0, -1.0, 1.0]))
    with pytest.raises(ValueError, match="strictly increasing"):
        PulseSchedule.from_table(0.5, 5.0, params.omega0,
                                 np.array([0.0, 0.5, 0.5, 5.0]), np.array([0.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="knots must be finite"):
        PulseSchedule.from_table(0.5, 5.0, params.omega0, [0.0, 0.5, np.nan, 4.5, 5.0], np.zeros(5))


def _polyval(s, coeffs):
    """A published eta quartic, zero intercept, coefficients lowest degree first."""
    return np.polynomial.polynomial.polyval(s, (0.0, *coeffs))


def test_zeta_endpoints_and_constant_gap(params):
    # a constant gap makes each half of the adglb sweep a straight line
    profile = _flat_profile()
    sched = adglb_schedule(params, profile, 1.7)
    (t_r, t_hi), t_min, d_min = sched.sweep_window, profile.t_min, profile.delta_min
    for t, want in ((t_r, params.delta_i), (t_min, d_min), (t_hi, params.delta_f)):
        assert float(sched.delta(t)) == pytest.approx(want, abs=1e-12)
    halves = ((t_r, t_min, params.delta_i, d_min), (t_min, t_hi, d_min, params.delta_f))
    for t0, t1, d0, d1 in halves:
        ts = np.linspace(t0, t1, 33)
        assert np.allclose(sched.delta(ts), d0 + (d1 - d0) * (ts - t0) / (t1 - t0), atol=1e-9)
    assert np.all(np.diff(sched.delta(np.linspace(t_r, t_hi, 200))) > 0)


def test_zeta_preconditions(params):
    with pytest.raises(ValueError, match="j > 0"):
        adglb_schedule(params, _flat_profile(), 0.0)


def test_adglb_waypoint_and_endpoints(params, q1d10_profile):
    for j in (1.0, 1.5, 1.8, 2.0):
        sched = adglb_schedule(params, q1d10_profile, j)
        assert float(sched.delta(q1d10_profile.t_min)) == pytest.approx(
            q1d10_profile.delta_min, abs=1e-9
        )
        assert float(sched.delta(0.0)) == pytest.approx(params.delta_i)
        assert float(sched.delta(params.total_time)) == pytest.approx(params.delta_f)
        assert float(sched.delta(0.1)) == pytest.approx(params.delta_i)
        assert float(sched.delta(4.9)) == pytest.approx(params.delta_f)
        # Rabi trapezoid untouched
        ts = np.linspace(0, params.total_time, 101)
        assert np.allclose(sched.omega(ts), standard_schedule(params).omega(ts))
        assert np.all(np.diff(sched.delta(ts)) >= -1e-9)


def test_adglb_small_j_limit_is_piecewise_linear(params, q1d10_profile):
    sched = adglb_schedule(params, q1d10_profile, 1e-3)
    t_min, d_min = q1d10_profile.t_min, q1d10_profile.delta_min
    t_lo, t_hi = params.ramp_time, params.total_time - params.ramp_time
    ts = np.linspace(t_lo, t_hi, 301)
    linear = np.where(
        ts <= t_min,
        params.delta_i + (d_min - params.delta_i) * (ts - t_lo) / (t_min - t_lo),
        d_min + (params.delta_f - d_min) * (ts - t_min) / (t_hi - t_min),
    )
    assert np.max(np.abs(np.asarray(sched.delta(ts)) - linear)) < 2e-2 * (
        params.delta_f - params.delta_i
    )


def test_adglb_rate_proportional_to_gap_power(params, q1d10_profile):
    j = 1.8
    sched = adglb_schedule(params, q1d10_profile, j)
    pieces = [
        (params.ramp_time, q1d10_profile.t_min),
        (q1d10_profile.t_min, params.total_time - params.ramp_time),
    ]
    for t0, t1 in pieces:
        ts = np.linspace(t0 + 1e-4, t1 - 1e-4, 300)
        rate = np.array([sched.delta_dot(t) for t in ts])
        gap = np.interp(ts, q1d10_profile.times, q1d10_profile.gaps)
        x, y = j * np.log(gap), np.log(rate)
        design = np.stack([x, np.ones_like(x)], axis=1)
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        r2 = 1 - np.sum(resid**2) / np.sum((y - y.mean()) ** 2)
        assert r2 > 0.999
        assert coef[0] == pytest.approx(1.0, abs=1e-3)


def test_adglb_rate_ratio_derived_example(params, q1d10_profile):
    sched = adglb_schedule(params, q1d10_profile, 1.8)
    gap_tr = float(np.interp(params.ramp_time, q1d10_profile.times,
                             q1d10_profile.gaps))
    expected = (q1d10_profile.g_min / gap_tr) ** 1.8
    rate_tr = float(sched.delta_dot(params.ramp_time))
    rate_tmin = float(sched.delta_dot(q1d10_profile.t_min - 2e-3))
    assert rate_tmin / rate_tr == pytest.approx(expected, rel=0.05)


def test_adglb_rate_minimal_at_waypoint(params, q1d10_profile):
    sched = adglb_schedule(params, q1d10_profile, 1.8)
    ts = np.linspace(params.ramp_time + 1e-3,
                     params.total_time - params.ramp_time - 1e-3, 400)
    rates = np.array([sched.delta_dot(t) for t in ts])
    t_at_min = ts[int(np.argmin(rates))]
    assert abs(t_at_min - q1d10_profile.t_min) < 0.05


def test_adglb_profile_mismatch_rejected(params, q1d10_profile):
    other = PulseSchedule.from_table(
        ramp_time=1.0, total_time=6.0, omega0=params.omega0,
        delta_times=np.array([0.0, 1.0, 5.0, 6.0]),
        delta_values=np.array([params.delta_i, params.delta_i,
                               params.delta_f, params.delta_f]),
    )
    bad_params = type(params)(
        c6=params.c6, omega0=params.omega0, delta_i=params.delta_i,
        delta_f=params.delta_f, total_time=6.0, ramp_time=1.0,
    )
    with pytest.raises(ValueError, match="does not match"):
        adglb_schedule(bad_params, q1d10_profile, 1.5)


def test_eta_reference_endpoint_identities():
    assert _polyval(3.1, TRANSFER_ETA_A) == pytest.approx(3.88, abs=0.01)
    assert _polyval(0.9, TRANSFER_ETA_B) == pytest.approx(1.13, abs=0.01)
    assert _polyval(0.0, TRANSFER_ETA_A) == 0.0 and _polyval(0.0, TRANSFER_ETA_B) == 0.0


def test_transfer_schedule_waypoints(params):
    zero = transfer_schedule(params, 0.0)
    assert to_mhz(float(zero.delta(3.60))) == pytest.approx(1.38, abs=1e-9)
    assert to_mhz(float(zero.delta(4.5))) == pytest.approx(2.5, abs=0.02)
    shifted = transfer_schedule(params, from_mhz(0.2))
    assert to_mhz(float(shifted.delta(3.60))) == pytest.approx(1.58, abs=1e-9)
    # piece-A rescale factor for nu_d = 2pi x 0.4 MHz
    s04 = transfer_schedule(params, from_mhz(0.4))
    scale = (from_mhz(1.78) - params.delta_i) / (from_mhz(1.38) - params.delta_i)
    assert scale == pytest.approx(1.103, abs=2e-3)
    t_probe = 2.0
    expected = params.delta_i + scale * from_mhz(_polyval(t_probe - 0.5, TRANSFER_ETA_A))
    assert float(s04.delta(t_probe)) == pytest.approx(expected, abs=1e-4)


def test_transfer_offset_validation(params):
    with pytest.raises(ValueError, match="outside"):
        transfer_schedule(params, from_mhz(1.2))
    with pytest.raises(ValueError, match="outside"):
        transfer_schedule(params, from_mhz(-4.0))
    bad = type(params)(
        c6=params.c6, omega0=params.omega0, delta_i=params.delta_i,
        delta_f=params.delta_f, total_time=6.0, ramp_time=0.5,
    )
    with pytest.raises(ValueError, match="reference timing"):
        transfer_schedule(bad, 0.0)


def test_transfer_matches_adglb_j18(params, q1d10_profile):
    ours = adglb_schedule(params, q1d10_profile, 1.8)
    theirs = transfer_schedule(params, 0.0)
    ts = np.linspace(params.ramp_time, params.total_time - params.ramp_time, 400)
    sup = np.max(np.abs(np.asarray(ours.delta(ts)) - np.asarray(theirs.delta(ts))))
    assert sup < from_mhz(0.05)


def test_export_table_has_no_step_below_a_nanosecond(params, q1d10_profile):
    for sched in (adglb_schedule(params, q1d10_profile, 1.5), transfer_schedule(params, 0.0)):
        times = sched.delta_times
        assert np.all(np.isin(sched.knots, times))
        assert np.diff(times).min() > EXPORT_MIN_STEP, sched.kind
        assert times.size > 1000


def test_schedule_json_roundtrip(params, q1d10_profile):
    cases = {"transfer(nu_d_mhz=0.2)": transfer_schedule(params, from_mhz(0.2)),
             "adglb(j=1)": adglb_schedule(params, q1d10_profile, 1.0),
             "adglb(j=1.8)": adglb_schedule(params, q1d10_profile, 1.8)}
    for kind, sched in cases.items():
        data = json.loads(json.dumps(sched.to_json()))
        assert set(data) == {"t_r_us", "T_us", "omega0_over_2pi_MHz", "points", "kind"}
        assert data["kind"] == kind
        loaded = PulseSchedule.from_json(data)
        assert loaded.kind == sched.kind == kind
        assert np.array_equal(loaded.knots, sched.knots)
        assert np.array_equal(loaded.delta_times, sched.delta_times)
        np.testing.assert_allclose(loaded.coeffs, sched.coeffs, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(loaded.delta_values, sched.delta_values, rtol=0.0, atol=1e-12)
        times = [p["t_us"] for p in data["points"]]
        assert [p["t_us"] for p in loaded.to_json()["points"]] == times
        assert loaded.omega0 == pytest.approx(sched.omega0)


def test_hardware_program_si_units(params):
    prog = standard_schedule(params).to_hardware_program()
    amp, det = prog["amplitude"], prog["detuning"]
    assert amp["times_s"][-1] == pytest.approx(5e-6)
    assert amp["values_rad_per_s"][1] == pytest.approx(params.omega0 * 1e6)
    assert det["values_rad_per_s"][0] == pytest.approx(params.delta_i * 1e6)
    assert det["interpolation"] == "piecewise_linear"


def test_transfer_drive_is_the_two_scaled_quartics(params):
    nu_d = from_mhz(0.2)
    sched = transfer_schedule(params, nu_d)
    t_r, t_hi, t_end = params.ramp_time, params.total_time - params.ramp_time, params.total_time
    assert set(sched.knots.tolist()) <= {0.0, t_r, 3.60, t_hi, t_end}
    d_min = from_mhz(1.38) + nu_d
    scale_a = (d_min - params.delta_i) / (from_mhz(1.38) - params.delta_i)
    scale_b = (params.delta_f - d_min) / (params.delta_f - from_mhz(1.38))
    rng = np.random.default_rng(3)
    ts = rng.uniform(t_r, 3.60, 1000)
    expected = params.delta_i + scale_a * from_mhz(_polyval(ts - t_r, TRANSFER_ETA_A))
    np.testing.assert_allclose(sched.delta(ts), expected, rtol=0.0, atol=1e-12)
    ts = rng.uniform(3.60, t_hi, 1000)
    expected = d_min + scale_b * from_mhz(_polyval(ts - 3.60, TRANSFER_ETA_B))
    np.testing.assert_allclose(sched.delta(ts), expected, rtol=0.0, atol=1e-12)


def test_adglb_rate_at_profile_nodes_is_gap_power_over_its_integral(params, q1d10_profile):
    # the gap is linear between profile samples; 16-point Gauss-Legendre
    # integrates its j-th power on each interval to rounding
    x, w = np.polynomial.legendre.leggauss(16)
    t_r, t_hi = params.ramp_time, params.total_time - params.ramp_time
    t_min, d_min = q1d10_profile.t_min, q1d10_profile.delta_min
    times, gaps = q1d10_profile.times, q1d10_profile.gaps
    for j in (1.0, 1.5, 1.8, 2.0):
        sched = adglb_schedule(params, q1d10_profile, j)
        for t0, t1, rise in ((t_r, t_min, d_min - params.delta_i),
                             (t_min, t_hi, params.delta_f - d_min)):
            nodes = times[(times >= t0) & (times <= t1)]
            a, b = nodes[:-1, None], nodes[1:, None]
            ts = 0.5 * (a + b) + 0.5 * (b - a) * x
            total = np.sum(0.5 * (b - a) * (np.interp(ts, times, gaps) ** j @ w[:, None]))
            expected = rise * gaps[(times >= t0) & (times < t1)] ** j / total
            np.testing.assert_allclose(sched.delta_dot(nodes[:-1]), expected, rtol=1e-12)


def test_table_without_piece_coefficients_loads_as_straight_lines(params):
    data = transfer_schedule(params, 0.0).to_json()
    for point in data["points"]:
        point.pop("poly_over_2pi_MHz", None)
    loaded = PulseSchedule.from_json(data)
    table_t = np.array([p["t_us"] for p in data["points"]])
    table_d = from_mhz(np.array([p["delta_over_2pi_MHz"] for p in data["points"]]))
    assert np.array_equal(loaded.knots, table_t)
    ts = np.linspace(0, params.total_time, 257)
    np.testing.assert_allclose(loaded.delta(ts), np.interp(ts, table_t, table_d),
                               rtol=0.0, atol=1e-12)


def test_import_loads_neither_scipy_integrate_nor_interpolate():
    code = ("import sys, rydmis; "
            "print(sorted({'scipy.integrate', 'scipy.interpolate'} & set(sys.modules)))")
    src = str(Path(rydmis.__file__).parents[1])  # import this checkout, not an installed copy
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
