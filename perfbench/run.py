"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload train-systems --seed 0 \\
        --seconds 30 --trace 0

Prints every metric by name with its unit, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (tracing off); with
``--trace 1`` they are the per-layer ones from an extra traced round.
Exits 1 if any output check fails, and 2 without a result when the
program's sources are not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread: on a small shared host, a second BLAS thread competes
# with the interpreter and other tenants and widens run-to-run spread.
# Set before NumPy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_harness():
    """Import the program from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {SRC}")
    from perfbench import harness, workloads
    return harness, workloads.WORKLOADS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        harness, known = _import_harness()
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in known:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{sorted(known)}", file=sys.stderr)
        return 2

    res = harness.measure(known[args.workload], args.seed,
                          args.seconds, bool(args.trace))
    catalog = harness.PER_LAYER if args.trace else harness.E2E
    values = res.layers if args.trace else res.e2e
    print(f"workload {res.workload}  seed {res.seed}  rounds {res.rounds}  "
          f"sim_digest {res.digest}  attempted {res.attempted}  "
          f"failed {res.failed}")
    for name, unit in catalog:
        print(f"  {name:<30} {values[name]:>16.6g} {unit}")
    for err in res.errors:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in catalog},
    }))
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
