"""Time one ``rydmis`` command from two source trees in interleaved pairs.

Usage: python tools/cli_pairs.py OLD_SRC NEW_SRC [--pinned] [--pairs N]
                                 [--json PATH] -- <rydmis arguments>

OLD_SRC and NEW_SRC are directories that hold the ``rydmis`` package (a
checkout's ``src``).  Each pair runs the command once from each tree, one
after the other, and the side that goes first alternates from pair to
pair, so drift in the host's speed falls on both sides alike.  Every run
is a fresh interpreter started in its own empty directory, where relative
output paths land, and its wall time is measured around the subprocess.

BLAS threads: with ``--pinned`` every run gets OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS = 1; without it those variables and
GOTO_NUM_THREADS are removed, so each run sees the default environment,
as a user's shell does.

Prints each pair, each side's median and interquartile range (IQR), the
exit codes, and whether every run wrote the same files byte for byte;
writes the runs and the summary as JSON to ``--json``.  Exits 1 when a
file or an exit code differs between runs.  Uses only the standard
library.

Example: python tools/cli_pairs.py old/src src --pairs 6 -- reproduce --figure fig3b
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MAIN = "import sys; from rydmis.cli import main; sys.exit(main())"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env(src: Path, pinned: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(src)
    if pinned:
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _digests(root: Path) -> dict[str, str]:
    """sha256 of every file under root, by path relative to root."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_once(src: Path, args: list[str], pinned: bool, workdir: Path) -> dict:
    workdir.mkdir()
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", MAIN, *args], cwd=workdir,
                          env=_env(src, pinned), capture_output=True)
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "exit_code": proc.returncode, "files": _digests(workdir)}


def summary(seconds: list[float]) -> tuple[float, float]:
    """(median, IQR) of the runs' seconds."""
    if len(seconds) < 2:
        return seconds[0], 0.0
    q1, _, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return statistics.median(seconds), q3 - q1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print("usage: cli_pairs.py OLD_SRC NEW_SRC [--pinned] [--pairs N] [--json PATH] "
              "-- <rydmis arguments>", file=sys.stderr)
        return 2
    cut = argv.index("--")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src", type=Path)
    ap.add_argument("new_src", type=Path)
    ap.add_argument("--pinned", action="store_true", help="BLAS on one thread")
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--json", type=Path, default=Path("cli_pairs.json"))
    opts = ap.parse_args(argv[:cut])
    command = argv[cut + 1:]
    sides = {"old": opts.old_src.resolve(), "new": opts.new_src.resolve()}

    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for pair in range(opts.pairs):
            order = ("old", "new") if pair % 2 == 0 else ("new", "old")
            times = {}
            for side in order:
                run = run_once(sides[side], command, opts.pinned, Path(tmp) / f"{pair}_{side}")
                runs.append({"pair": pair + 1, "side": side, "first": side == order[0], **run})
                times[side] = run["seconds"]
            print(f"pair {pair + 1} ({order[0]} first): old {times['old']:.2f} s, "
                  f"new {times['new']:.2f} s", flush=True)

    stats = {}
    for side in sides:
        median, iqr = summary([r["seconds"] for r in runs if r["side"] == side])
        stats[side] = {"median_s": median, "iqr_s": iqr}
        print(f"{side}: median {median:.2f} s, IQR {iqr:.2f} s")
    exit_codes = sorted({r["exit_code"] for r in runs})
    reference = runs[0]["files"]
    differ = sorted({name for r in runs for name in reference.keys() | r["files"].keys()
                     if r["files"].get(name) != reference.get(name)})
    identical = not differ and len(exit_codes) == 1
    print(f"exit codes: {exit_codes}")
    if differ:
        print(f"files that differ between runs: {', '.join(differ)}")
    else:
        print(f"every run wrote the same {len(reference)} files, byte for byte")
    opts.json.write_text(json.dumps(
        {"command": command, "pinned": opts.pinned, "sides": {k: str(v) for k, v in sides.items()},
         "nproc": os.cpu_count(), "runs": runs, "summary": stats, "identical": identical},
        indent=1) + "\n")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
