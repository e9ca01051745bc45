"""Run-to-run spread of the end-to-end metrics, over several seeds.

    python3 bench/spread.py --workload random-plans --runs 10 [--first-seed 1]

It runs ``bench/run.py`` once per seed (first-seed, first-seed + 1, ...) with
``run_seconds`` from BENCHMARK.json and prints, per end-to-end metric, the
median, the quartiles (``statistics.quantiles(values, n=4)``), and the
interquartile distance as a share of the median next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in manifest["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(manifest["run_seconds"]),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: not correct", file=sys.stderr)
            return 1
        row = {name: m["value"] for name, m in result["metrics"].items()}
        for name, value in row.items():
            values[name].append(value)
        print(f"seed {seed}: " + " ".join(f"{k}={v:.5g}" for k, v in row.items()), flush=True)
    for m in manifest["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{m['name']:<16} median {med:<10.5g} q1 {q1:<10.5g} q3 {q3:<10.5g} "
              f"spread {(q3 - q1) / med:.3f} bound {m['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
