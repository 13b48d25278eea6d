"""Command-line front end: each subcommand is a thin shell over ``Run``.

``RunConfig`` holds every setting of the paper's chain (blockade graph,
gap scan along the standard sweep, ADGLB or transfer detuning,
evolution, shots) and is the only home of its defaults; a subcommand's
flags are generated from the fields it takes.  ``Run`` builds each stage
once, on first use, so a ``pipeline`` over a ``j_grid`` scans the gap
once (``gap.csv``) and evolves its schedules, as fig3b its five drives,
through one ``evolve_all``.  With BLAS on one thread (see ``rydmis``),
the scan's and the evolutions' jobs are shared with a forked child.

Exit codes: 0 success, 2 reproduction-target failure, 1 error (usage too).
The global ``-v`` writes the ``rydmis`` loggers' DEBUG lines (solver and
evolution costs, and where each evolution run ran) to stderr; stdout
does not change.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import sys
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .configs import configs_to_bits
from .dynamics import (
    EvolutionResult,
    EvolveOptions,
    QuantumState,
    build_two_level_model,
    evolve_all,
    evolve_two_level,
)
from .errors import RydmisError
from .geometry import (
    BUILTIN_NAMES,
    STOCK_MHZ,
    AtomArray,
    BlockadeGraph,
    PhysicalParams,
    blockade_graph,
    builtin_instance,
    from_mhz,
    to_mhz,
)
from .hamiltonian import HamiltonianTerms, build_basis, hamiltonian_terms
from .isets import count_isets, mis_projector_support
from .measurement import SpamModel, histogram_report, sample_shots
from .schedule import PulseSchedule, adglb_schedule, standard_schedule, transfer_schedule
from .spectrum import MIN_SAMPLES, GapProfile, scan_gap, track_mis_overlap

ADGLB_JS = (1.0, 1.5, 1.8, 2.0)  # the ADGLB exponents of figs. 3a and 3b
PAPER_P_E0 = {"standard": 0.739, "adglb_j1": 0.955, "adglb_j1.5": 0.981, "adglb_j1.8": 0.963,
              "adglb_j2": 0.940}
METHODS = ("std", "adglb", "transfer")
PHYSICAL = tuple(STOCK_MHZ)


def load_instance(ref: str) -> AtomArray:
    """The built-in of a table name or Q1D_<n>, even where a file of that
    name exists; any other reference is the path of an instance JSON file."""
    if ref in BUILTIN_NAMES or (ref.startswith("Q1D_") and ref[len("Q1D_"):].isdecimal()):
        return builtin_instance(ref)
    return AtomArray.load(ref)


@dataclass
class RunConfig:
    """Fully serializable description of one run, and the CLI's defaults.

    ``method`` is std, adglb, transfer or the path of a schedule JSON
    file; ``j_grid`` lists the ADGLB exponents a pipeline runs instead
    of the single ``j``, and must be empty for any other method.
    """

    instance: str = "Q1D_10"
    c6_mhz_um6: float = STOCK_MHZ["c6_mhz_um6"]
    omega0_mhz: float = STOCK_MHZ["omega0_mhz"]
    delta_i_mhz: float = STOCK_MHZ["delta_i_mhz"]
    delta_f_mhz: float = STOCK_MHZ["delta_f_mhz"]
    total_time_us: float = STOCK_MHZ["total_time_us"]
    ramp_time_us: float = STOCK_MHZ["ramp_time_us"]
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

    def __post_init__(self):
        # checked here, so a config that cannot finish fails before its first stage
        if self.shots < 1:
            raise ValueError(f"shots = {self.shots}: a run needs at least one shot")
        if self.seed < 0:
            raise ValueError(f"seed = {self.seed}: a seed must be a non-negative integer")
        if self.samples < MIN_SAMPLES:
            raise ValueError(f"samples = {self.samples}: a gap scan needs "
                             f"n_samples >= {MIN_SAMPLES}")
        EvolveOptions(n_output=self.n_output)  # raises for fewer than 2 output times
        if self.j_grid and self.method != "adglb":
            raise ValueError(f"j_grid lists ADGLB exponents; method {self.method!r} runs none")
        tags = [f"_j{j:g}" for j in self.j_grid]  # the pipeline's run tags
        shared = next((tag for tag in tags if tags.count(tag) > 1), None)
        if shared:
            raise ValueError(f"j_grid lists two exponents with the run tag {shared}")

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        """The config of a JSON file, each value read as its default's type.

        A number or string field parses the value's text as its flag
        would; a bool field takes true or false; ``j_grid`` takes a list
        of numbers.  Raises ValueError for a field or value it cannot read.
        """
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise ValueError(f"config file {path} must hold a JSON object of fields")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        base = cls()
        return cls(**{key: _coerce(key, value, getattr(base, key)) for key, value in data.items()})


def _coerce(key: str, value, default):
    kind = type(default)
    try:
        if kind is list:
            if not isinstance(value, list):
                raise TypeError
            return [float(str(item)) for item in value]
        if kind is bool:
            if not isinstance(value, bool):
                raise TypeError
            return value
        return kind(str(value))
    except (TypeError, ValueError):
        raise ValueError(
            f"config field {key!r}: cannot read {value!r} as {kind.__name__}"
        ) from None


class Run:
    """The chain of one RunConfig, each stage built once, on first use.

    ``graph`` must encode an MIS; ``profile`` is the gap scan along the
    standard sweep that ADGLB schedules are shaped from.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg

    @cached_property
    def params(self) -> PhysicalParams:
        return PhysicalParams.from_mhz(**{name: getattr(self.cfg, name) for name in PHYSICAL})

    @cached_property
    def graph(self) -> BlockadeGraph:
        return blockade_graph(load_instance(self.cfg.instance), self.params,
                              require_mis_encoding=True)

    @cached_property
    def terms(self) -> HamiltonianTerms:
        return hamiltonian_terms(self.graph, build_basis(self.graph, self.cfg.basis),
                                 interaction=self.cfg.interaction)

    @cached_property
    def profile(self) -> GapProfile:
        return self.scan(standard_schedule(self.params))

    def scan(self, sched: PulseSchedule, store_vectors: bool = False) -> GapProfile:
        return scan_gap(self.terms, sched, n_samples=self.cfg.samples,
                        store_vectors=store_vectors)

    def schedule(self, j: float | None = None) -> PulseSchedule:
        """The schedule that cfg.method names; j replaces cfg.j for adglb."""
        method = self.cfg.method
        if method == "std":
            return standard_schedule(self.params)
        if method == "adglb":
            return adglb_schedule(self.params, self.profile, self.cfg.j if j is None else j)
        if method == "transfer":
            return transfer_schedule(self.params, from_mhz(self.cfg.nu_d_mhz))
        return PulseSchedule.load(method)

    def evolve(self, *scheds: PulseSchedule) -> list[EvolutionResult]:
        return evolve_all(self.terms, scheds, EvolveOptions(n_output=self.cfg.n_output))


# ------------------------------------------------------------------ artifacts

F6, F8 = "{:.6f}", "{:.8f}"


def _write_csv(path: Path, columns: dict[str, tuple[str, object]]) -> None:
    """One CSV column per {name: (format, values)} entry, in order."""
    cells = [[fmt.format(v) for v in values] for fmt, values in columns.values()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*cells))


def _gap_columns(profile: GapProfile) -> dict:
    in_mhz = {"delta_over_2pi_MHz": profile.deltas, "e0": profile.e0s, "e1": profile.e1s,
              "gap": profile.gaps}
    return {"t_us": (F6, profile.times), **{k: (F6, to_mhz(v)) for k, v in in_mhz.items()}}


def _evolution_columns(res: EvolutionResult) -> dict:
    return {"t_us": (F6, res.times), "p_e0": (F8, res.p_e0), "p_leak": (F8, 1.0 - res.p_e0),
            "mis_overlap": (F8, res.mis_overlap)}


def _write_json(path: Path, data, indent: int | None = 2) -> None:
    Path(path).write_text(json.dumps(data, indent=indent) + "\n")


# ---------------------------------------------------------------- subcommands


def cmd_isets(run: Run, args) -> int:
    arr = load_instance(run.cfg.instance)
    g = blockade_graph(arr, run.params)
    stats = count_isets(g)
    out = {
        "instance": arr.name,
        "n": g.n,
        "edges": len(g.edges),
        "r": {str(k): v for k, v in sorted(stats.r.items())},
        "mis_size": stats.mis_size,
        "hp": stats.hp,
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_gap(run: Run, args) -> int:
    profile = run.scan(run.schedule())
    _write_csv(Path(args.out), _gap_columns(profile))
    print(f"gap minimum: t_min = {profile.t_min:.4f} us, delta_min = 2pi x "
          f"{to_mhz(profile.delta_min):.4f} MHz, g_min = 2pi x {to_mhz(profile.g_min):.4f} MHz "
          f"-> {args.out}")
    return 0


def cmd_design(run: Run, args) -> int:
    sched = run.schedule()
    sched.save(args.out)
    print(f"{sched.kind} schedule -> {args.out}")
    return 0


def cmd_evolve(run: Run, args) -> int:
    (res,) = run.evolve(run.schedule())
    _write_csv(Path(args.out), _evolution_columns(res))
    if args.state_out:
        _write_json(args.state_out, res.final_state.to_json(), indent=None)
    print(f"final p_e0 = {res.final_p_e0:.4f}, p_mis = {res.final_p_mis:.4f} -> {args.out}")
    return 0


def cmd_twolevel(run: Run, args) -> int:
    sched = run.schedule()
    model = build_two_level_model(run.terms, sched, run.scan(sched, store_vectors=True))
    times, p_e1 = evolve_two_level(model)
    _write_csv(Path(args.out), {
        "t_us": (F6, times),
        "gap": (F6, to_mhz(np.interp(times, model.times, model.gap))),
        "coupling": (F6, to_mhz(np.interp(times, model.times, model.coupling))),
        "p_e1": (F8, p_e1),
    })
    print(f"two-level final leakage = {p_e1[-1]:.4f} -> {args.out}")
    return 0


def cmd_sample(run: Run, args) -> int:
    cfg = run.cfg
    state = QuantumState.from_json(json.loads(Path(args.state).read_text()))
    spam = SpamModel() if cfg.spam else None
    graph = blockade_graph(load_instance(cfg.instance), run.params) if cfg.instance else None
    hist = sample_shots(state, cfg.shots, spam=spam, seed=cfg.seed)
    report = {} if graph is None else histogram_report(hist, graph)
    bits = configs_to_bits(hist.configs, hist.n_atoms)  # at the file boundary only
    payload = {
        "n_shots": hist.n_shots,
        "seed": hist.seed,
        "spam": None if spam is None else asdict(spam),
        "counts": dict(zip(bits, hist.counts.tolist())),
        "p_mis": report.get("p_mis"),
        "p_mis_minus_1": report.get("p_mis_minus_1"),
    }
    if report:
        payload["report"] = report
    _write_json(args.out, payload)
    print(f"{cfg.shots} shots -> {args.out}")
    return 0


def cmd_export_ahs(run: Run, args) -> int:
    if run.cfg.method == "adglb":
        raise ValueError("export-ahs has no instance to scan a gap on: write the schedule "
                         "with `rydmis design --method adglb` and export its JSON file")
    _write_json(args.out, run.schedule().to_hardware_program())
    print(f"hardware program (SI units) -> {args.out}")
    return 0


# ------------------------------------------------------------------ pipeline


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _pipeline_run(run, out_dir, tag, j, sched, res) -> dict:
    """The files and manifest entry of exponent j's schedule and evolution result."""
    cfg = run.cfg
    artifacts = {"gap_csv": "gap.csv"} if cfg.method == "adglb" else {}
    artifacts.update(schedule_json=f"schedule{tag}.json", evolution_csv=f"evolution{tag}.csv",
                     state_json=f"state{tag}.json", histogram_json=f"histogram{tag}.json")
    sched.save(out_dir / artifacts["schedule_json"])
    _write_csv(out_dir / artifacts["evolution_csv"], _evolution_columns(res))
    _write_json(out_dir / artifacts["state_json"], res.final_state.to_json(), indent=None)
    spam = SpamModel() if cfg.spam else None
    hist = sample_shots(res.final_state, cfg.shots, spam=spam, seed=cfg.seed)
    report = histogram_report(hist, run.graph)
    _write_json(out_dir / artifacts["histogram_json"], report)
    return {
        "tag": tag or "run",
        "j": j,
        "final_p_e0": res.final_p_e0,
        "final_p_mis": res.final_p_mis,
        "p_mis_sampled": report["p_mis"],
        "artifacts": artifacts,
    }


def cmd_pipeline(run: Run, args) -> int:
    cfg, out_dir = run.cfg, Path(args.out_dir)
    # graph, schedules and evolutions reject a bad setting before anything is written
    stats = count_isets(run.graph)
    js = cfg.j_grid or [cfg.j]
    scheds = [run.schedule(j) for j in js]
    results = run.evolve(*scheds)
    out_dir.mkdir(parents=True, exist_ok=True)
    if cfg.method == "adglb":
        _write_csv(out_dir / "gap.csv", _gap_columns(run.profile))
    runs = [_pipeline_run(run, out_dir, f"_j{j:g}" if len(js) > 1 else "", j, sched, res)
            for j, sched, res in zip(js, scheds, results)]

    manifest = {
        "config": asdict(cfg),
        "instance_stats": {"mis_size": stats.mis_size, "hp": stats.hp},
        "runs": runs,
        "hashes": {n: _sha256(out_dir / n) for r in runs for n in r["artifacts"].values()},
    }
    _write_json(out_dir / "manifest.json", manifest)
    for r in runs:
        print(f"{r['tag']}: p_e0 = {r['final_p_e0']:.4f}, p_mis = {r['final_p_mis']:.4f}")
    print(f"manifest -> {out_dir / 'manifest.json'}")
    return 0


# ----------------------------------------------------------------- reproduce


def cmd_reproduce(run: Run, args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    checks = FIGURES[args.figure](out_dir)
    for name, ok, msg in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {msg}")
    return 0 if all(ok for _, ok, _ in checks) else 2


def _reproduce_fig1cd(out_dir: Path) -> list[tuple]:
    run = Run(RunConfig(instance="Q1D_7"))
    sched = standard_schedule(run.params)
    profile = run.profile
    _write_csv(out_dir / "fig1c_gap.csv", _gap_columns(profile))
    (res,) = run.evolve(sched)
    columns = _evolution_columns(res)
    del columns["mis_overlap"]
    _write_csv(out_dir / "fig1d_population.csv", columns)
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
    run = Run(RunConfig(instance="Q1D_7"))
    p = run.params
    profile = scan_gap(run.terms, standard_schedule(p), n_samples=240,
                       t_span=(p.ramp_time, p.total_time))
    mis_bits = mis_projector_support(run.graph)
    o0, o1 = track_mis_overlap(profile, mis_bits)
    _write_csv(out_dir / "fig2_overlap.csv",
               {"t_us": (F6, profile.times), "overlap_e0": (F8, o0), "overlap_e1": (F8, o1)})
    final_ok = o0[-1] >= 1.0 - 1e-6
    sweep = profile.times <= p.total_time - p.ramp_time + 1e-9
    localized, detail = _mixing_localized(profile.times[sweep], o0[sweep], o1[sweep],
                                          profile.gaps[sweep])
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
    # without a crossing t_cross is nan, which no window contains
    ok = all(np.interp(t, times, window.astype(float)) > 0.5 for t in (t_peak, t_cross, t_steep))
    detail = (
        f"E1-overlap peak at {t_peak:.2f} us, E0/E1 crossing at {t_cross:.2f} us, "
        f"steepest E0 growth at {t_steep:.2f} us; gap < 2 g_min window has "
        f"g_min = 2pi x {to_mhz(g_min):.3f} MHz"
    )
    return ok, detail


def _reproduce_fig3a(out_dir: Path) -> list[tuple]:
    run = Run(RunConfig(instance="Q1D_10"))
    p, profile = run.params, run.profile
    js = ADGLB_JS
    schedules = {j: run.schedule(j) for j in js}
    ts = np.linspace(0.0, p.total_time, 501)
    _write_csv(out_dir / "fig3a_schedules.csv", {
        "t_us": (F6, ts),
        **{f"delta_j{j:g}_over_2pi_MHz": (F6, [to_mhz(schedules[j].delta(t)) for t in ts])
           for j in js},
    })
    waypoint_ok = all(abs(schedules[j].delta(profile.t_min) - profile.delta_min) < 1e-6
                      for j in js)
    # transfer_schedule at nu_d = 0 is the paper's published eta-polynomial drive
    published = transfer_schedule(p, 0.0)
    window = np.linspace(*published.sweep_window, 2001)
    eta_miss = {j: to_mhz(np.abs(schedules[j].delta(window) - published.delta(window)).max())
                for j in (1.5, 1.8, 2.0)}
    edge_rates = [float(schedules[j].delta_dot(p.ramp_time)) for j in js]
    min_rates = [float(schedules[j].delta_dot(profile.t_min)) for j in js]
    return [
        ("all schedules pass through (t_min, delta_min)", waypoint_ok,
         f"t_min = {profile.t_min:.3f} us, delta_min = 2pi x "
         f"{to_mhz(profile.delta_min):.3f} MHz"),
        ("edge sweep rate grows with j",
         all(b > a for a, b in zip(edge_rates, edge_rates[1:])),
         "ddelta/dt(t_r) = " + ", ".join(f"{r:.2f}" for r in edge_rates)),
        ("waypoint sweep rate shrinks with j",
         all(b < a for a, b in zip(min_rates, min_rates[1:])),
         "ddelta/dt(t_min) = " + ", ".join(f"{r:.3f}" for r in min_rates)),
        ("j = 1.8 drive within 2pi x 0.02 MHz of the published eta polynomials",
         eta_miss[1.8] <= 0.02, "max |delta - delta_eta| over the sweep = 2pi x "
         + ", ".join(f"{miss:.4f} MHz (j = {j:g})" for j, miss in eta_miss.items())),
    ]


def _reproduce_fig3b(out_dir: Path) -> list[tuple]:
    run = Run(RunConfig(instance="Q1D_10"))
    runs = dict(zip(["standard", *(f"adglb_j{j:g}" for j in ADGLB_JS)],
                    run.evolve(standard_schedule(run.params), *map(run.schedule, ADGLB_JS))))
    _write_csv(out_dir / "fig3b_populations.csv", {
        "t_us": (F6, runs["standard"].times), **{n: (F8, r.p_e0) for n, r in runs.items()}})
    final = {n: r.final_p_e0 for n, r in runs.items()}
    checks = [(f"{n} final p_e0 = {PAPER_P_E0[n]} +- 0.01", abs(p - PAPER_P_E0[n]) <= 0.01,
               f"simulated {p:.4f}") for n, p in final.items()]
    ordering = all(p > final["standard"] for n, p in final.items() if n != "standard")
    checks.append(("every gap-guided schedule beats the standard one", ordering,
                   ", ".join(f"{n}: {p:.3f}" for n, p in final.items())))
    return checks


def _reproduce_fig6a(out_dir: Path) -> list[tuple]:
    names = ("Q1D_4", "Q1D_7", "Q1D_10")
    g4, g7, g10 = (Run(RunConfig(instance=name)).profile for name in names)
    for name, profile in zip(names, (g4, g7, g10)):
        _write_csv(out_dir / f"fig6a_gap_{name}.csv", _gap_columns(profile))
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


FIGURES = {"fig1cd": _reproduce_fig1cd, "fig2": _reproduce_fig2, "fig3a": _reproduce_fig3a,
           "fig3b": _reproduce_fig3b, "fig6a": _reproduce_fig6a}


# --------------------------------------------------------------------- main

CHOICES = {"method": METHODS, "basis": ("full", "blockade"),
           "interaction": ("tails", "constant")}
REQUIRED = {"required": True}
SCHEDULE = {"flag": "--schedule", "default": "std", "choices": None,
            "help": "std | adglb | transfer | schedule JSON path"}
PHYS = dict.fromkeys(PHYSICAL, {})
ONE_SCHEDULE = {"--out": REQUIRED, "instance": REQUIRED, "method": SCHEDULE,
                **dict.fromkeys(("j", "nu_d_mhz", "samples", "basis", "interaction"), {}), **PHYS}
# name: (handler, help, flags); a "--" key is a plain flag, any other key a RunConfig
# field, and each value holds argparse keywords that replace the generated ones
SUBCOMMANDS = {
    "isets": (cmd_isets, "independent-set census and hardness",
              {"instance": REQUIRED, **PHYS}),
    "gap": (cmd_gap, "gap profile along a schedule (CSV)", ONE_SCHEDULE),
    "evolve": (cmd_evolve, "Schrodinger evolution (CSV)",
               {**ONE_SCHEDULE, "n_output": {}, "--state-out": {}}),
    "twolevel": (cmd_twolevel, "two-level reduction series (CSV)", ONE_SCHEDULE),
    "design": (cmd_design, "synthesize and export a schedule",
               {**ONE_SCHEDULE, "method": REQUIRED}),
    "sample": (cmd_sample, "draw measurement shots from a state file", {
        "--state": REQUIRED, "--out": REQUIRED, "shots": REQUIRED, "spam": {},
        "seed": {"default": 0}, **PHYS,
        "instance": {"default": None, "help": "classify shots against this instance's graph"}}),
    # a flag left out keeps the --config file's value
    "pipeline": (cmd_pipeline, "instance -> gap -> schedule -> evolution -> histogram, "
                 "with manifest", {
                     "--config": {}, "--out-dir": REQUIRED,
                     **dict.fromkeys(("instance", "method", "j", "nu_d_mhz", "samples", "shots",
                                      "seed", "spam", "basis", "interaction"),
                                     {"default": argparse.SUPPRESS})}),
    "reproduce": (cmd_reproduce, "rerun a published-figure configuration and check targets",
                  {"--figure": {"choices": tuple(FIGURES), **REQUIRED}, "--out-dir": REQUIRED}),
    "export-ahs": (cmd_export_ahs, "export a schedule as an analog-hardware program (SI units)", {
        "--out": REQUIRED, "nu_d_mhz": {}, **PHYS,
        "method": {**SCHEDULE, **REQUIRED, "help": "std | transfer | schedule JSON path"}}),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2, which main reserves for a missed reproduction target
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rydmis", description="Blockade-graph MIS preparation toolkit")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log solver and evolution costs to stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    base = RunConfig()
    for name, (func, helptext, flags) in SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=helptext)
        sp.set_defaults(func=func)
        for key, overrides in flags.items():
            if key.startswith("--"):
                sp.add_argument(key, **overrides)
                continue
            value = getattr(base, key)
            kwargs = {"dest": key, "default": value}
            if isinstance(value, bool):
                kwargs["action"] = "store_true"
            else:
                kwargs.update(type=type(value), choices=CHOICES.get(key))
            kwargs.update(overrides)
            sp.add_argument(kwargs.pop("flag", "--" + key.replace("_", "-")), **kwargs)
    return parser


def _config(args) -> RunConfig:
    """RunConfig of the parsed flags, over the --config file where one is given."""
    base = RunConfig.load(args.config) if getattr(args, "config", None) else RunConfig()
    names = RunConfig.__dataclass_fields__
    return replace(base, **{k: v for k, v in vars(args).items() if k in names})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    log = logging.getLogger("rydmis")
    level, handler = log.level, logging.StreamHandler(sys.stderr)
    if args.verbose:
        log.addHandler(handler)
        log.setLevel(logging.DEBUG)
    try:
        return args.func(Run(_config(args)), args)
    except (RydmisError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
