"""Benchmark entry point.

    python3 bench/run.py --workload design-q1d10 --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout that holds ``src/rydmis``.  The last
line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  Lines before it
give the provenance and every metric in readable form.  Exit status is 0
when every operation passed its check, 1 when one failed, 2 when the
benchmark could not run at all (then no result line is printed).
"""

import os
import sys

# BLAS pools must be sized before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import harness  # noqa: E402
from bench.workloads import WORKLOADS, build_inputs  # noqa: E402


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one set-up measurement in a fresh interpreter
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        if args.setup_probe:
            rydmis = harness.import_package()
            build_inputs(rydmis, WORKLOADS[args.workload].instance, args.seed)
            print(repr(harness.monotonic()))
            return 0
        report, result = harness.run_benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace), loadavg
        )
    except harness.SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for line in harness.format_report(report, result):
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
