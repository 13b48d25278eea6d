"""Equality oracle for a refactor: run two source trees and compare what they write.

Usage: python tools/artifact_oracle.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the ``rydmis`` package (a
checkout's ``src``).  Each side writes ``J_GRID_CONFIG`` into its own
temporary directory and runs the CLI invocations of ``COMMANDS`` there,
with BLAS on one thread; the two sides run at the same time.  Then:

- exit codes must be equal;
- stdout must be byte-identical once the output directory is replaced by
  a placeholder;
- CSV and other non-JSON files must be byte-identical; for a CSV that
  differs, the number of differing numeric cells and their largest
  absolute difference are printed as well, to tell a last-digit change
  from a real one;
- JSON files must match in structure, strings and booleans exactly, and
  each number within JSON_RTOL * max(1, |old value|).  A pipeline
  manifest's hashes of JSON artifacts are left out: those artifacts are
  compared themselves, within the tolerance.

Prints the largest difference per file and exits 1 on any mismatch.
Uses only the standard library.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

JSON_RTOL = 1e-9
PLACEHOLDER = "<out>"
# the pipeline config of the j-grid command, written as {out}/j_grid.json
J_GRID_CONFIG = {"instance": "Q1D_7", "method": "adglb", "j_grid": [1, 2], "n_output": 20,
                 "shots": 100}

# (name, CLI arguments); "{out}" is the side's output directory
COMMANDS = [
    *[(f"reproduce {fig}", ["reproduce", "--figure", fig, "--out-dir", f"{{out}}/{fig}"])
      for fig in ("fig1cd", "fig2", "fig3a", "fig3b", "fig6a")],
    ("pipeline", ["pipeline", "--instance", "Q1D_7", "--method", "adglb", "--spam",
                  "--out-dir", "{out}/pipeline"]),
    ("pipeline j_grid", ["pipeline", "--config", "{out}/j_grid.json",
                         "--out-dir", "{out}/pipeline_j_grid"]),
    ("sample", ["sample", "--instance", "Q1D_7", "--spam", "--seed", "3", "--shots", "300",
                "--state", "{out}/pipeline/state.json", "--out", "{out}/sample.json"]),
    ("twolevel", ["twolevel", "--instance", "Q1D_10", "--out", "{out}/twolevel.csv"]),
    ("evolve", ["evolve", "--instance", "Q1D_10", "--schedule", "transfer", "--n-output", "20",
                "--out", "{out}/evolve.csv", "--state-out", "{out}/evolve_state.json"]),
    # the only command on the constant-U model, so a change in u_per_edge shows
    ("evolve constant", ["evolve", "--instance", "Q1D_7", "--interaction", "constant",
                         "--n-output", "20", "--out", "{out}/evolve_constant.csv"]),
    ("gap", ["gap", "--instance", "TD_25", "--basis", "blockade", "--samples", "60",
             "--out", "{out}/gap.csv"]),
    ("isets", ["isets", "--instance", "TD_25"]),
    ("design", ["design", "--instance", "Q1D_7", "--method", "adglb",
                "--out", "{out}/design.json"]),
    ("export-ahs", ["export-ahs", "--schedule", "transfer", "--out", "{out}/ahs.json"]),
]
MAIN = "import sys; from rydmis.cli import main; sys.exit(main())"
IMPORT_CHECK = "import rydmis; print(rydmis.__file__)"


def _env(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_side(src: Path, out: Path) -> list[tuple[int, str]]:
    """(exit code, stdout with ``out`` replaced by PLACEHOLDER) of each command."""
    env = _env(src)
    found = subprocess.run([sys.executable, "-c", IMPORT_CHECK], env=env, text=True,
                           capture_output=True, check=True).stdout.strip()
    if not Path(found).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"{src}: rydmis imports from {found}, not from this tree")
    out.mkdir(parents=True)
    (out / "j_grid.json").write_text(json.dumps(J_GRID_CONFIG))
    results = []
    for _, args in COMMANDS:
        argv = [a.replace("{out}", str(out)) for a in args]
        proc = subprocess.run([sys.executable, "-c", MAIN, *argv], env=env, text=True,
                              capture_output=True)
        results.append((proc.returncode, proc.stdout.replace(str(out), PLACEHOLDER)))
    return results


def _load_json(path: Path):
    data = json.loads(path.read_text())
    if path.name == "manifest.json":
        data["hashes"] = {k: v for k, v in data["hashes"].items() if not k.endswith(".json")}
    return data


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare_json(old, new, where: str = "") -> tuple[float, list[str]]:
    """(largest scaled number difference, mismatches) between two JSON values.

    A number difference is scaled by max(1, |old|).
    """
    if _is_number(old) and _is_number(new):
        if math.isnan(old) or math.isnan(new):
            same = math.isnan(old) and math.isnan(new)
            return 0.0, [] if same else [f"{where}: {old!r} vs {new!r}"]
        scaled = abs(new - old) / max(1.0, abs(old))
        return scaled, [] if scaled <= JSON_RTOL else [f"{where}: {old!r} vs {new!r}"]
    if type(old) is not type(new):
        return 0.0, [f"{where or '/'}: {type(old).__name__} vs {type(new).__name__}"]
    if isinstance(old, dict):
        if list(old) != list(new):
            return 0.0, [f"{where or '/'}: keys {list(old)} vs {list(new)}"]
        parts = [compare_json(old[k], new[k], f"{where}/{k}") for k in old]
    elif isinstance(old, list):
        if len(old) != len(new):
            return 0.0, [f"{where or '/'}: length {len(old)} vs {len(new)}"]
        parts = [compare_json(a, b, f"{where}/{i}") for i, (a, b) in enumerate(zip(old, new))]
    else:
        return 0.0, [] if old == new else [f"{where or '/'}: {old!r} vs {new!r}"]
    return max((d for d, _ in parts), default=0.0), [m for _, ms in parts for m in ms]


def compare_csv(old: Path, new: Path) -> str:
    """How two CSV files differ: their differing numeric cells and largest difference.

    A NaN on one side only counts as an infinite difference; a differing
    non-numeric cell, or a different number of rows or cells, is named.
    """
    rows = [list(csv.reader(path.read_text().splitlines())) for path in (old, new)]
    if [len(r) for r in rows[0]] != [len(r) for r in rows[1]]:
        return "rows or cells differ in number"
    numeric, other = [], 0
    for a, b in zip(*rows):
        for x, y in zip(a, b):
            if x == y:
                continue
            try:
                diff = abs(float(y) - float(x))
            except ValueError:
                other += 1
                continue
            numeric.append(math.inf if math.isnan(diff) else diff)
    parts = [f"{len(numeric)} numeric cells differ, by at most {max(numeric, default=0.0):.1e}"]
    if other:
        parts.append(f"{other} non-numeric cells differ")
    return ", ".join(parts)


def compare_trees(old: Path, new: Path) -> bool:
    """Print one line per output file; True when every file matches."""
    names = sorted({p.relative_to(old) for p in old.rglob("*") if p.is_file()}
                   | {p.relative_to(new) for p in new.rglob("*") if p.is_file()})
    ok = True
    for name in names:
        a, b = old / name, new / name
        if not (a.is_file() and b.is_file()):
            print(f"  {name}: only in {'old' if a.is_file() else 'new'}")
            ok = False
        elif name.suffix == ".json":
            diff, mismatches = compare_json(_load_json(a), _load_json(b))
            print(f"  {name}: largest scaled difference {diff:.1e}"
                  + (f", {len(mismatches)} mismatches" if mismatches else ""))
            for line in mismatches[:5]:
                print(f"    {line}")
            ok = ok and not mismatches
        else:
            same = a.read_bytes() == b.read_bytes()
            how = "" if same or name.suffix != ".csv" else f" ({compare_csv(a, b)})"
            print(f"  {name}: {'identical' if same else 'DIFFERENT'}{how}")
            ok = ok and same
    return ok


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 1
    srcs = [Path(a) for a in argv]
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp, "old"), Path(tmp, "new")]
        with ThreadPoolExecutor(max_workers=2) as pool:
            old_runs, new_runs = pool.map(run_side, srcs, outs)
        ok = True
        print("commands:")
        for (name, _), (code_a, out_a), (code_b, out_b) in zip(COMMANDS, old_runs, new_runs):
            same = code_a == code_b and out_a == out_b
            stdout = "stdout identical" if out_a == out_b else "stdout DIFFERENT"
            print(f"  {name}: exit {code_a} / {code_b}, {stdout}")
            ok = ok and same
        print("files:")
        ok = compare_trees(*outs) and ok
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
