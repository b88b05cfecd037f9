"""Run one workload over several seeds and print each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workload read_mix --seeds 1-10 --seconds 10

For every metric it prints the median over the seeds and the quartile
spread ``(Q3 - Q1) / median`` (``statistics.quantiles(values, n=4)``),
the figure each bound in ``BENCHMARK.json`` is checked against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
from perfbench.measures import quartile_spread  # noqa: E402


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args(argv)
    rows = []
    for seed in seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True,
        )
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}: {done.stderr.strip()[-300:]}", file=sys.stderr)
            continue
        rows.append(json.loads(done.stdout.strip().splitlines()[-1]))
    if len(rows) < 2:
        print("fewer than two runs succeeded", file=sys.stderr)
        return 1
    print(f"{args.workload}: {len(rows)} runs, correct={all(r['correct'] for r in rows)}")
    for name in rows[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in rows]
        median = statistics.median(values)
        spread = quartile_spread(values) if median else 0.0
        print(f"  {name:32s} median {median:12.5g} {rows[0]['metrics'][name]['unit']:8s} spread {spread:6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
