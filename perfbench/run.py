"""Layered repair benchmark for agrepair.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds its inputs from the seed, runs the workload's closed loop for S
seconds and checks every op exactly.  Prints a JSON report line (run
metadata, transcript fingerprint, sample counts, failures), then as the
last line {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  Exits 1 if
any op failed, 2 if the package cannot be imported from this checkout.
See DESIGN.md next to this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "_out"


def _import_package() -> None:
    """Import agrepair from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import agrepair

    found = Path(agrepair.__file__).resolve().parent
    if found != ROOT / "src" / "agrepair":
        raise ImportError(f"agrepair imported from {found}, not from this checkout")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        _import_package()
    except ImportError as exc:
        print(f"error: cannot import agrepair: {exc}", file=sys.stderr)
        return 2

    import meta
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    result = workloads.run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace), OUT_DIR)
    report = result.pop("report")
    report["meta"] = meta.run_metadata(ROOT, args.workload, args.seed, args.seconds,
                                       bool(args.trace))
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
