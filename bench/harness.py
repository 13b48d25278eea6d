"""Run a workload, time it, and assemble the result.

The untraced passes give the end-to-end metrics; a traced pass, made
only with ``--trace 1``, gives the per-layer metrics.  The package is
imported from ``src/`` of the checkout the benchmark sits in, never from
an installed copy.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from . import layers
from .tracing import Tracer
from .workloads import WORKLOADS, Pass, Workload, build_inputs

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


class SetupError(Exception):
    """The benchmark cannot run here: the package or a probe is missing."""


def import_package():
    """Import ``rydmis`` from ``src/`` of this checkout, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "rydmis" / "__init__.py").is_file():
        raise SetupError(f"no package source at {src / 'rydmis'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import rydmis

    if Path(rydmis.__file__).resolve().parent != (src / "rydmis").resolve():
        raise SetupError(f"rydmis was imported from {rydmis.__file__}, not from {src}")
    return rydmis


def monotonic() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up times of ``SETUP_PROBES`` fresh interpreters, run one after another.

    Each probe starts ``run.py --setup-probe``, which imports the package,
    builds the workload's inputs and prints the monotonic clock; set-up is
    that reading minus the clock just before the process was started.
    """
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-probe"]
        t0 = monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def run_pass(rydmis, workload: Workload, inputs, tracer: Tracer | None = None):
    """One pass of the workload; returns (Pass, wall seconds, error or None).

    The wall time stops before the deferred checks run, so the cost of
    the benchmark's own costly checks is not counted as the program's.
    """
    run = Pass(rydmis, tracer)

    def body():
        if tracer is None:
            workload.body(run, inputs)
        else:
            with tracer.span("workload", None):
                workload.body(run, inputs)

    t0 = time.perf_counter()
    error = run.guard(body)
    wall = time.perf_counter() - t0
    for check in run.deferred:
        if error is not None:
            break
        error = run.guard(check)
    return run, wall, error


def run_traced(rydmis, workload: Workload, inputs):
    """One traced pass; returns (Pass, wall seconds, error, Tracer)."""
    with Tracer() as tracer:
        layers.install(tracer)
        run, wall, error = run_pass(rydmis, workload, inputs, tracer)
    return run, wall, error, tracer


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: bool,
                  loadavg: tuple[float, float, float]) -> tuple[dict, dict]:
    """Run the benchmark; returns (report, result line).

    Untraced: set-up probes, then passes until ``seconds`` have passed (at
    least one); wall_s is the median pass.  Traced: one traced pass.
    """
    rydmis = import_package()
    workload = WORKLOADS[workload_name]
    report = {"provenance": provenance(workload_name, seed, loadavg, rydmis)}
    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        metrics["setup_s"] = (statistics.median(measure_setup(workload_name, seed)), "s")

    inputs = build_inputs(rydmis, workload.instance, seed)
    attempted = failed = 0
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        if trace:
            run, wall, error, tracer = run_traced(rydmis, workload, inputs)
        else:
            run, wall, error = run_pass(rydmis, workload, inputs)
        attempted += run.attempted
        failed += run.failed
        if error is not None:
            break
        walls.append(wall)
        if trace or time.perf_counter() - start >= seconds:
            break

    if walls and trace:
        per_layer, missing = layers.layer_metrics(tracer, run.facts, wall, tracer.overhead_s())
        metrics.update(per_layer)
        report["missing"] = missing
        self_s = layers.layer_self_times(tracer)
        report["layer_share"] = {k: v / wall for k, v in self_s.items()}
    elif walls:
        metrics["wall_s"] = (statistics.median(walls), "s")
        metrics["peak_rss_mb"] = (peak_rss_mib(), "MiB")

    report["error"] = error
    report["fail_frac"] = failed / attempted
    result = {
        "correct": error is None and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def provenance(workload: str, seed: int, loadavg, rydmis) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(loadavg),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "rydmis": getattr(rydmis, "__version__", "unknown"),
        "git_commit": git_commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas(module) -> str:
    """Name and version of the BLAS a numpy or scipy build links."""
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def git_commit() -> str:
    """Commit of the checkout, read from its own ``.git`` (not a parent's)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def format_report(report: dict, result: dict) -> list[str]:
    """Human-readable lines printed before the result line."""
    lines = ["provenance " + json.dumps(report["provenance"], sort_keys=True)]
    if report["error"] is not None:
        lines.append(f"FAILED {report['error']}")
    lines.append(f"fail_frac {report['fail_frac']:.6g} ({result['failed']}/{result['attempted']})")
    for name, m in result["metrics"].items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    for name in report.get("missing", []):
        lines.append(f"{name} missing")
    for layer, share in report.get("layer_share", {}).items():
        lines.append(f"share.{layer} {100 * share:.1f} %")
    return lines
