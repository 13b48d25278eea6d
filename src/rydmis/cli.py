"""Command-line pipeline driver.

Subcommands: isets, gap, design, evolve, twolevel, sample, pipeline,
reproduce, export-ahs.  Exit codes: 0 success, 2 reproduction-target
failure, 1 error.  Physical defaults are the stock hardware values, so
``rydmis reproduce --figure fig3b --out-dir out`` needs no further
arguments.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .configs import bits_to_configs
from .dynamics import (
    EvolutionResult,
    EvolveOptions,
    QuantumState,
    build_two_level_model,
    evolve,
    evolve_two_level,
)
from .errors import RydmisError
from .geometry import (
    AtomArray,
    PhysicalParams,
    blockade_graph,
    builtin_instance,
    from_mhz,
    to_mhz,
)
from .hamiltonian import BasisSet, build_basis, hamiltonian_terms
from .isets import count_isets, mis_projector_support
from .measurement import SpamModel, histogram_report, sample_shots
from .schedule import PulseSchedule, adglb_schedule, standard_schedule, transfer_schedule
from .spectrum import scan_gap, track_mis_overlap

PAPER_P_E0 = {"standard": 0.739, 1.0: 0.955, 1.5: 0.981, 1.8: 0.963, 2.0: 0.940}


def load_instance(ref: str) -> AtomArray:
    """Resolve an instance reference: built-in name or JSON file path."""
    path = Path(ref)
    if path.suffix == ".json" or path.exists():
        return AtomArray.load(path)
    return builtin_instance(ref)


def _params_from_args(args) -> PhysicalParams:
    return PhysicalParams.from_mhz(
        c6_mhz_um6=args.c6_mhz_um6,
        omega0_mhz=args.omega0_mhz,
        delta_i_mhz=args.delta_i_mhz,
        delta_f_mhz=args.delta_f_mhz,
        total_time_us=args.total_time_us,
        ramp_time_us=args.ramp_time_us,
    )


def _add_params_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c6-mhz-um6", type=float, default=863_000.0)
    p.add_argument("--omega0-mhz", type=float, default=1.0)
    p.add_argument("--delta-i-mhz", type=float, default=-2.5)
    p.add_argument("--delta-f-mhz", type=float, default=2.5)
    p.add_argument("--total-time-us", type=float, default=5.0)
    p.add_argument("--ramp-time-us", type=float, default=0.5)
    p.add_argument("--interaction", choices=("tails", "constant"), default="tails")


def _resolve_schedule(spec: str, p: PhysicalParams, h, j: float, nu_d_mhz: float,
                      samples: int) -> PulseSchedule:
    if spec == "std":
        return standard_schedule(p)
    if spec == "adglb":
        profile = scan_gap(h, standard_schedule(p), n_samples=samples,
                           store_vectors=False)
        return adglb_schedule(p, profile, j)
    if spec == "transfer":
        return transfer_schedule(p, from_mhz(nu_d_mhz))
    return PulseSchedule.load(spec)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _gap_rows(profile):
    return [
        [f"{t:.6f}", f"{to_mhz(d):.6f}", f"{to_mhz(e0):.6f}", f"{to_mhz(e1):.6f}",
         f"{to_mhz(gp):.6f}"]
        for t, d, e0, e1, gp in zip(profile.times, profile.deltas, profile.e0s,
                                    profile.e1s, profile.gaps)
    ]


GAP_HEADER = ["t_us", "delta_over_2pi_MHz", "e0", "e1", "gap"]


def _state_to_json(state: QuantumState) -> dict:
    return {
        "n": state.basis.n,
        "kind": state.basis.kind,
        "entries": [
            {
                "bits": format(int(c), f"0{state.basis.n}b"),
                "re": float(a.real),
                "im": float(a.imag),
            }
            for c, a in zip(state.basis.states, state.amplitudes)
            if abs(a) > 0.0
        ],
    }


def _state_from_json(data: dict) -> QuantumState:
    """State of a state file, whose entries may come in any order."""
    n = int(data["n"])
    entries = data["entries"]
    configs = bits_to_configs([e["bits"] for e in entries], n)
    amps = np.array([complex(e["re"], e["im"]) for e in entries])
    order = np.argsort(configs)
    states = configs[order]
    repeated = states[1:][states[1:] == states[:-1]]
    if repeated.size:
        bits = format(int(repeated[0]), f"0{n}b")
        raise ValueError(f"state file lists configuration {bits} more than once")
    basis = BasisSet(kind=str(data.get("kind", "custom")), n=n, states=states)
    return QuantumState(basis=basis, amplitudes=amps[order])


# ---------------------------------------------------------------- subcommands


def cmd_isets(args) -> int:
    arr = load_instance(args.instance)
    g = blockade_graph(arr, _params_from_args(args))
    stats = count_isets(g)
    out = {
        "instance": arr.name,
        "n": g.n,
        "edges": len(g.edges),
        "r": {str(k): v for k, v in sorted(stats.r.items()) if k >= args.min_size},
        "mis_size": stats.mis_size,
        "hp": stats.hp,
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_gap(args) -> int:
    arr = load_instance(args.instance)
    p = _params_from_args(args)
    g = blockade_graph(arr, p, require_mis_encoding=True)
    h = hamiltonian_terms(g, build_basis(g, args.basis), interaction=args.interaction)
    sched = _resolve_schedule(args.schedule, p, h, args.j, args.nu_d_mhz, args.samples)
    profile = scan_gap(h, sched, n_samples=args.samples, store_vectors=False)
    _write_csv(Path(args.out), GAP_HEADER, _gap_rows(profile))
    print(
        f"gap minimum: t_min = {profile.t_min:.4f} us, "
        f"delta_min = 2pi x {to_mhz(profile.delta_min):.4f} MHz, "
        f"g_min = 2pi x {to_mhz(profile.g_min):.4f} MHz -> {args.out}"
    )
    return 0


def cmd_design(args) -> int:
    arr = load_instance(args.instance)
    p = _params_from_args(args)
    g = blockade_graph(arr, p, require_mis_encoding=True)
    h = hamiltonian_terms(g, build_basis(g, args.basis), interaction=args.interaction)
    sched = _resolve_schedule(args.method, p, h, args.j, args.nu_d_mhz, args.samples)
    sched.save(args.out)
    print(f"{sched.kind_label()} schedule -> {args.out}")
    return 0


def cmd_evolve(args) -> int:
    arr = load_instance(args.instance)
    p = _params_from_args(args)
    g = blockade_graph(arr, p, require_mis_encoding=True)
    h = hamiltonian_terms(g, build_basis(g, args.basis), interaction=args.interaction)
    sched = _resolve_schedule(args.schedule, p, h, args.j, args.nu_d_mhz, args.samples)
    res = evolve(h, sched, EvolveOptions(n_output=args.n_output))
    rows = [
        [f"{t:.6f}", f"{pe:.8f}", f"{pl:.8f}", f"{pm:.8f}"]
        for t, pe, pl, pm in zip(res.times, res.p_e0, res.p_leak, res.mis_overlap)
    ]
    _write_csv(Path(args.out), ["t_us", "p_e0", "p_leak", "mis_overlap"], rows)
    if args.state_out:
        Path(args.state_out).write_text(
            json.dumps(_state_to_json(res.final_state)) + "\n"
        )
    print(
        f"final p_e0 = {res.final_p_e0:.4f}, p_mis = {res.final_p_mis:.4f} -> {args.out}"
    )
    return 0


def cmd_twolevel(args) -> int:
    arr = load_instance(args.instance)
    p = _params_from_args(args)
    g = blockade_graph(arr, p, require_mis_encoding=True)
    h = hamiltonian_terms(g, build_basis(g, args.basis), interaction=args.interaction)
    sched = _resolve_schedule(args.schedule, p, h, args.j, args.nu_d_mhz, args.samples)
    profile = scan_gap(h, sched, n_samples=args.samples)
    model = build_two_level_model(h, sched, profile)
    times, p_e1 = evolve_two_level(model)
    rows = [
        [f"{t:.6f}", f"{to_mhz(model.gap_at(t)):.6f}",
         f"{to_mhz(model.coupling_at(t)):.6f}", f"{pe1:.8f}"]
        for t, pe1 in zip(times, p_e1)
    ]
    _write_csv(Path(args.out), ["t_us", "gap", "coupling", "p_e1"], rows)
    print(f"two-level final leakage = {p_e1[-1]:.4f} -> {args.out}")
    return 0


def cmd_sample(args) -> int:
    state = _state_from_json(json.loads(Path(args.state).read_text()))
    spam = SpamModel() if args.spam else None
    graph = None
    if args.instance:
        graph = blockade_graph(load_instance(args.instance), _params_from_args(args))
    hist = sample_shots(state, args.shots, spam=spam, seed=args.seed, graph=graph)
    payload = {
        "n_shots": hist.n_shots,
        "seed": hist.seed,
        "spam": None if spam is None else {
            "p_g_given_r": spam.p_g_given_r, "p_r_given_g": spam.p_r_given_g
        },
        "counts": hist.counts,
        "p_mis": hist.p_mis,
        "p_mis_minus_1": hist.p_mis_minus_1,
    }
    if graph is not None:
        payload["report"] = histogram_report(hist, graph)
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"{args.shots} shots -> {args.out}")
    return 0


def cmd_export_ahs(args) -> int:
    p = _params_from_args(args)
    if args.schedule in ("std", "transfer"):
        sched = _resolve_schedule(args.schedule, p, None, args.j, args.nu_d_mhz, 0)
    else:
        sched = PulseSchedule.load(args.schedule)
    Path(args.out).write_text(json.dumps(sched.to_hardware_program(), indent=2) + "\n")
    print(f"hardware program (SI units) -> {args.out}")
    return 0


# ------------------------------------------------------------------ pipeline


@dataclass
class RunConfig:
    """Fully serializable description of one pipeline run."""

    instance: str = "Q1D_10"
    c6_mhz_um6: float = 863_000.0
    omega0_mhz: float = 1.0
    delta_i_mhz: float = -2.5
    delta_f_mhz: float = 2.5
    total_time_us: float = 5.0
    ramp_time_us: float = 0.5
    method: str = "adglb"
    j: float = 1.8
    nu_d_mhz: float = 0.0
    basis: str = "full"
    interaction: str = "tails"
    samples: int = 200
    n_output: int = 200
    shots: int = 300
    seed: int = 1
    spam: bool = False
    j_grid: list[float] = field(default_factory=list)

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        data = json.loads(Path(path).read_text())
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    def params(self) -> PhysicalParams:
        return PhysicalParams.from_mhz(
            c6_mhz_um6=self.c6_mhz_um6,
            omega0_mhz=self.omega0_mhz,
            delta_i_mhz=self.delta_i_mhz,
            delta_f_mhz=self.delta_f_mhz,
            total_time_us=self.total_time_us,
            ramp_time_us=self.ramp_time_us,
        )


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _pipeline_single(cfg: RunConfig, out_dir: Path, tag: str, j: float) -> dict:
    arr = load_instance(cfg.instance)
    p = cfg.params()
    g = blockade_graph(arr, p, require_mis_encoding=True)
    h = hamiltonian_terms(g, build_basis(g, cfg.basis), interaction=cfg.interaction)

    artifacts: dict[str, str] = {}
    sched_std = standard_schedule(p)
    if cfg.method == "adglb":
        profile = scan_gap(h, sched_std, n_samples=cfg.samples, store_vectors=False)
        gap_path = out_dir / f"gap{tag}.csv"
        _write_csv(gap_path, GAP_HEADER, _gap_rows(profile))
        artifacts["gap_csv"] = gap_path.name
        sched = adglb_schedule(p, profile, j)
    elif cfg.method == "transfer":
        sched = transfer_schedule(p, from_mhz(cfg.nu_d_mhz))
    else:
        sched = sched_std

    sched_path = out_dir / f"schedule{tag}.json"
    sched.save(sched_path)
    artifacts["schedule_json"] = sched_path.name

    res = evolve(h, sched, EvolveOptions(n_output=cfg.n_output))
    evo_path = out_dir / f"evolution{tag}.csv"
    _write_csv(
        evo_path,
        ["t_us", "p_e0", "p_leak", "mis_overlap"],
        [
            [f"{t:.6f}", f"{pe:.8f}", f"{pl:.8f}", f"{pm:.8f}"]
            for t, pe, pl, pm in zip(res.times, res.p_e0, res.p_leak, res.mis_overlap)
        ],
    )
    artifacts["evolution_csv"] = evo_path.name

    state_path = out_dir / f"state{tag}.json"
    state_path.write_text(json.dumps(_state_to_json(res.final_state)) + "\n")
    artifacts["state_json"] = state_path.name

    spam = SpamModel() if cfg.spam else None
    hist = sample_shots(res.final_state, cfg.shots, spam=spam, seed=cfg.seed, graph=g)
    hist_path = out_dir / f"histogram{tag}.json"
    hist_path.write_text(json.dumps(histogram_report(hist, g), indent=2) + "\n")
    artifacts["histogram_json"] = hist_path.name

    return {
        "tag": tag or "run",
        "j": j,
        "final_p_e0": res.final_p_e0,
        "final_p_mis": res.final_p_mis,
        "p_mis_sampled": hist.p_mis,
        "artifacts": artifacts,
    }


def _pipeline_worker(payload: tuple) -> dict:
    cfg_dict, out_dir, tag, j = payload
    return _pipeline_single(RunConfig(**cfg_dict), Path(out_dir), tag, j)


def cmd_pipeline(args) -> int:
    cfg = RunConfig.load(args.config) if args.config else RunConfig()
    for name in ("instance", "method", "basis", "interaction"):
        val = getattr(args, name, None)
        if val is not None:
            setattr(cfg, name, val)
    for name in ("j", "nu_d_mhz", "shots", "seed", "samples"):
        val = getattr(args, name, None)
        if val is not None:
            setattr(cfg, name, val)
    if args.spam:
        cfg.spam = True
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    stats = count_isets(blockade_graph(load_instance(cfg.instance), cfg.params()))
    js = cfg.j_grid if (cfg.method == "adglb" and cfg.j_grid) else [cfg.j]
    jobs = [(asdict(cfg), str(out_dir), f"_j{j:g}" if len(js) > 1 else "", j) for j in js]
    if args.jobs > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            runs = list(pool.map(_pipeline_worker, jobs))
    else:
        runs = [_pipeline_worker(job) for job in jobs]

    manifest = {
        "config": asdict(cfg),
        "instance_stats": {"mis_size": stats.mis_size, "hp": stats.hp},
        "runs": runs,
        "hashes": {
            name: _sha256(out_dir / name)
            for run in runs
            for name in run["artifacts"].values()
        },
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    for run in runs:
        print(
            f"{run['tag']}: p_e0 = {run['final_p_e0']:.4f}, "
            f"p_mis = {run['final_p_mis']:.4f}"
        )
    print(f"manifest -> {out_dir / 'manifest.json'}")
    return 0


def verify_manifest(out_dir: str | Path) -> bool:
    """Recheck artifact hashes recorded in a pipeline manifest."""
    out_dir = Path(out_dir)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return all(
        _sha256(out_dir / name) == digest
        for name, digest in manifest["hashes"].items()
    )


# ----------------------------------------------------------------- reproduce

FIGURES = ("fig1cd", "fig2", "fig3a", "fig3b", "fig6a")


def cmd_reproduce(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = {
        "fig1cd": _reproduce_fig1cd,
        "fig2": _reproduce_fig2,
        "fig3a": _reproduce_fig3a,
        "fig3b": _reproduce_fig3b,
        "fig6a": _reproduce_fig6a,
    }[args.figure]
    checks = runner(out_dir)
    failed = [name for name, ok, msg in checks if not ok]
    for name, ok, msg in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {msg}")
    return 2 if failed else 0


def _setup(instance: str, interaction: str = "tails"):
    p = PhysicalParams.default()
    arr = builtin_instance(instance)
    g = blockade_graph(arr, p, require_mis_encoding=True)
    h = hamiltonian_terms(g, build_basis(g, "full"), interaction=interaction)
    return p, g, h


def _reproduce_fig1cd(out_dir: Path) -> list[tuple]:
    p, g, h = _setup("Q1D_7")
    sched = standard_schedule(p)
    profile = scan_gap(h, sched, n_samples=200, store_vectors=False)
    _write_csv(out_dir / "fig1c_gap.csv", GAP_HEADER, _gap_rows(profile))
    res = evolve(h, sched, EvolveOptions(n_output=200))
    _write_csv(
        out_dir / "fig1d_population.csv",
        ["t_us", "p_e0", "p_leak"],
        [[f"{t:.6f}", f"{pe:.8f}", f"{pl:.8f}"]
         for t, pe, pl in zip(res.times, res.p_e0, res.p_leak)],
    )
    t_lo, t_hi = sched.sweep_window
    return [
        ("gap minimum interior", t_lo < profile.t_min < t_hi,
         f"t_min = {profile.t_min:.3f} us in ({t_lo}, {t_hi})"),
        ("initial ground population", abs(res.p_e0[0] - 1.0) < 1e-6,
         f"p_e0(0) = {res.p_e0[0]:.8f}"),
        ("finite leakage", 0.0 < 1.0 - res.final_p_e0 < 1.0,
         f"leakage = {1.0 - res.final_p_e0:.4f}"),
    ]


def _reproduce_fig2(out_dir: Path) -> list[tuple]:
    p, g, h = _setup("Q1D_7")
    sched = standard_schedule(p)
    profile = scan_gap(h, sched, n_samples=240,
                       t_span=(p.ramp_time, p.total_time))
    mis_bits = mis_projector_support(g)
    o0, o1 = track_mis_overlap(profile, mis_bits, mode="single")
    _write_csv(
        out_dir / "fig2_overlap.csv",
        ["t_us", "overlap_e0", "overlap_e1"],
        [[f"{t:.6f}", f"{a:.8f}", f"{b:.8f}"]
         for t, a, b in zip(profile.times, o0, o1)],
    )
    final_ok = o0[-1] >= 1.0 - 1e-6
    sweep = profile.times <= p.total_time - p.ramp_time + 1e-9
    localized, detail = _mixing_localized(
        profile.times[sweep], o0[sweep], o1[sweep], profile.gaps[sweep]
    )
    return [
        ("unique MIS is |rggrggr>", mis_bits == ("1001001",),
         f"MIS bitstrings: {mis_bits}"),
        ("final ground state is the MIS state", final_ok,
         f"|<MIS|E0>|^2 = {o0[-1]:.10f} at t = T"),
        ("E0/E1 mixing localized to gap < 2 g_min", localized, detail),
    ]


def _mixing_localized(times, o0, o1, gaps) -> tuple[bool, str]:
    """Check that the E0/E1 character swap happens where the gap is small.

    Mixing indicators: the E1 MIS-overlap peak, the E0/E1 overlap
    crossing, and the steepest E0-overlap growth.  All three must fall
    inside {t : gap(t) < 2 g_min}.
    """
    g_min = float(gaps.min())
    window = gaps < 2.0 * g_min
    t_peak = times[int(np.argmax(o1))]
    swap = np.nonzero((o0[:-1] < o1[:-1]) & (o0[1:] >= o1[1:]))[0]
    t_cross = times[int(swap[-1]) + 1] if swap.size else np.nan
    slopes = np.diff(o0) / np.diff(times)
    t_steep = times[int(np.argmax(slopes))]
    inside = []
    for t in (t_peak, t_cross, t_steep):
        inside.append(bool(np.interp(t, times, window.astype(float)) > 0.5))
    ok = all(inside) and swap.size > 0
    detail = (
        f"E1-overlap peak at {t_peak:.2f} us, E0/E1 crossing at {t_cross:.2f} us, "
        f"steepest E0 growth at {t_steep:.2f} us; gap < 2 g_min window has "
        f"g_min = 2pi x {to_mhz(g_min):.3f} MHz"
    )
    return ok, detail


def _reproduce_fig3a(out_dir: Path) -> list[tuple]:
    p, g, h = _setup("Q1D_10")
    profile = scan_gap(h, standard_schedule(p), n_samples=200, store_vectors=False)
    js = (1.0, 1.5, 1.8, 2.0)
    schedules = {j: adglb_schedule(p, profile, j) for j in js}
    ts = np.linspace(0.0, p.total_time, 501)
    rows = [[f"{t:.6f}"] + [f"{to_mhz(schedules[j].delta(t)):.6f}" for j in js]
            for t in ts]
    _write_csv(out_dir / "fig3a_schedules.csv",
               ["t_us"] + [f"delta_j{j:g}_over_2pi_MHz" for j in js], rows)
    checks = []
    waypoint_ok = all(
        abs(schedules[j].delta(profile.t_min) - profile.delta_min) < 1e-6
        for j in js
    )
    checks.append(("all schedules pass through (t_min, delta_min)", waypoint_ok,
                   f"t_min = {profile.t_min:.3f} us, delta_min = 2pi x "
                   f"{to_mhz(profile.delta_min):.3f} MHz"))
    edge_rates = [float(schedules[j].delta_dot(p.ramp_time)) for j in js]
    checks.append(("edge sweep rate grows with j",
                   all(b > a for a, b in zip(edge_rates, edge_rates[1:])),
                   "ddelta/dt(t_r) = " + ", ".join(f"{r:.2f}" for r in edge_rates)))
    min_rates = [float(schedules[j].delta_dot(profile.t_min)) for j in js]
    checks.append(("waypoint sweep rate shrinks with j",
                   all(b < a for a, b in zip(min_rates, min_rates[1:])),
                   "ddelta/dt(t_min) = " + ", ".join(f"{r:.3f}" for r in min_rates)))
    return checks


def _reproduce_fig3b(out_dir: Path) -> list[tuple]:
    p, g, h = _setup("Q1D_10")
    sched_std = standard_schedule(p)
    profile = scan_gap(h, sched_std, n_samples=200, store_vectors=False)
    runs: list[tuple[str, float, EvolutionResult]] = []
    res = evolve(h, sched_std, EvolveOptions(n_output=200))
    runs.append(("standard", PAPER_P_E0["standard"], res))
    for j in (1.0, 1.5, 1.8, 2.0):
        rj = evolve(h, adglb_schedule(p, profile, j), EvolveOptions(n_output=200))
        runs.append((f"adglb_j{j:g}", PAPER_P_E0[j], rj))
    rows = [
        [f"{t:.6f}"] + [f"{r.p_e0[i]:.8f}" for _, _, r in runs]
        for i, t in enumerate(runs[0][2].times)
    ]
    _write_csv(out_dir / "fig3b_populations.csv",
               ["t_us"] + [name for name, _, _ in runs], rows)
    checks = []
    for name, target, r in runs:
        ok = abs(r.final_p_e0 - target) <= 0.01
        checks.append((f"{name} final p_e0 = {target} +- 0.01", ok,
                       f"simulated {r.final_p_e0:.4f}"))
    ordering = all(r.final_p_e0 > res.final_p_e0 for _, _, r in runs[1:])
    checks.append(("every gap-guided schedule beats the standard one", ordering,
                   ", ".join(f"{n}: {r.final_p_e0:.3f}" for n, _, r in runs)))
    return checks


def _reproduce_fig6a(out_dir: Path) -> list[tuple]:
    p = PhysicalParams.default()
    results = {}
    for name in ("Q1D_4", "Q1D_7", "Q1D_10"):
        arr = builtin_instance(name)
        g = blockade_graph(arr, p, require_mis_encoding=True)
        h = hamiltonian_terms(g, build_basis(g, "full"))
        profile = scan_gap(h, standard_schedule(p), n_samples=200,
                           store_vectors=False)
        _write_csv(out_dir / f"fig6a_gap_{name}.csv", GAP_HEADER,
                   _gap_rows(profile))
        results[name] = profile
    g4, g7, g10 = (results[n] for n in ("Q1D_4", "Q1D_7", "Q1D_10"))
    return [
        ("g_min decreases with chain size",
         g4.g_min > g7.g_min > g10.g_min,
         f"2pi x ({to_mhz(g4.g_min):.3f}, {to_mhz(g7.g_min):.3f}, "
         f"{to_mhz(g10.g_min):.3f}) MHz"),
        ("delta_min increases with chain size",
         g4.delta_min < g7.delta_min < g10.delta_min,
         f"2pi x ({to_mhz(g4.delta_min):.3f}, {to_mhz(g7.delta_min):.3f}, "
         f"{to_mhz(g10.delta_min):.3f}) MHz"),
    ]


# --------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydmis",
        description="Blockade-graph MIS preparation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, **kwargs) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(func=func)
        return sp

    sp = add("isets", cmd_isets, help="independent-set census and hardness")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--min-size", type=int, default=0)
    _add_params_args(sp)

    for name, func, helptext in [
        ("gap", cmd_gap, "gap profile along a schedule (CSV)"),
        ("evolve", cmd_evolve, "Schrodinger evolution (CSV)"),
        ("twolevel", cmd_twolevel, "two-level reduction series (CSV)"),
    ]:
        sp = add(name, func, help=helptext)
        sp.add_argument("--instance", required=True)
        sp.add_argument("--schedule", default="std",
                        help="std | adglb | transfer | schedule JSON path")
        sp.add_argument("--j", type=float, default=1.8)
        sp.add_argument("--nu-d-mhz", type=float, default=0.0)
        sp.add_argument("--samples", type=int, default=200)
        sp.add_argument("--basis", choices=("full", "blockade"), default="full")
        sp.add_argument("--out", required=True)
        if name == "evolve":
            sp.add_argument("--n-output", type=int, default=200)
            sp.add_argument("--state-out", default=None)
        _add_params_args(sp)

    sp = add("design", cmd_design, help="synthesize and export a schedule")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--method", choices=("std", "adglb", "transfer"), required=True)
    sp.add_argument("--j", type=float, default=1.8)
    sp.add_argument("--nu-d-mhz", type=float, default=0.0)
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--basis", choices=("full", "blockade"), default="full")
    sp.add_argument("--out", required=True)
    _add_params_args(sp)

    sp = add("sample", cmd_sample, help="draw measurement shots from a state file")
    sp.add_argument("--state", required=True)
    sp.add_argument("--shots", type=int, required=True)
    sp.add_argument("--spam", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--instance", default=None,
                    help="classify shots against this instance's graph")
    sp.add_argument("--out", required=True)
    _add_params_args(sp)

    sp = add("pipeline", cmd_pipeline, help="instance -> gap -> schedule -> "
             "evolution -> histogram, with manifest")
    sp.add_argument("--config", default=None)
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--instance")
    sp.add_argument("--method", choices=("std", "adglb", "transfer"))
    sp.add_argument("--j", type=float)
    sp.add_argument("--nu-d-mhz", type=float)
    sp.add_argument("--samples", type=int)
    sp.add_argument("--shots", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--spam", action="store_true")
    sp.add_argument("--basis", choices=("full", "blockade"))
    sp.add_argument("--interaction", choices=("tails", "constant"))

    sp = add("reproduce", cmd_reproduce,
             help="rerun a published-figure configuration and check targets")
    sp.add_argument("--figure", choices=FIGURES, required=True)
    sp.add_argument("--out-dir", required=True)

    sp = add("export-ahs", cmd_export_ahs,
             help="export a schedule as an analog-hardware program (SI units)")
    sp.add_argument("--schedule", required=True,
                    help="std | transfer | schedule JSON path")
    sp.add_argument("--j", type=float, default=1.8)
    sp.add_argument("--nu-d-mhz", type=float, default=0.0)
    sp.add_argument("--out", required=True)
    _add_params_args(sp)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RydmisError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
