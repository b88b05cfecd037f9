"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload read_mix --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes the
same untraced run, then a traced run of the same script, and prints the
traced run's per-layer metrics.  Before the result the run prints one
report line (per-phase counts, generator lateness, client CPU share, speed
samples, unscaled and report-only metrics, tails with their sample
counts); the last line is the result object.  Exit codes: 0 for a valid
and correct run, 1 when the correctness gate failed, 2 when the checkout
holds no program to measure, 3 when the client could not keep to its
schedule (the run is not used).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_run"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import bench
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an error, so servers are stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        result, report = asyncio.run(
            bench.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT, WORK)
        )
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"report": report}))
    if not report["valid"]:
        print("error: the client fell behind its schedule or was CPU-bound; run not used", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
