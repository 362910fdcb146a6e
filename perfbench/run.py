"""pairsub benchmark: one closed-loop client running one workload's jobs.

    python3 perfbench/run.py --workload city_optimistic --seed 1 --seconds 25 --trace 0

One process and one thread run one job at a time, the next as soon as the
last ends, for --seconds.  Workloads are in workloads.py, metrics in
measure.py.  Run from anywhere; the program is imported from the src/ next
to this directory.  The lines printed before the last are a readable report; the last
line is one JSON object with `correct`, `attempted`, `failed` and `metrics`
(see measure.py).  Exits 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        import measure
    except ImportError as exc:
        print(f"perfbench: cannot import the program under {ROOT}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in measure.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(measure.WORKLOADS)}")

    result, report = measure.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(report))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
