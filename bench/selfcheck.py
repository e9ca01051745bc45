"""Self-check of the benchmark: checks pass and counts repeat, on two populations.

    python3 bench/selfcheck.py [workload ...]

For each workload (default: all), it makes two traced runs with the pinned
population and two with the held-out one (both named in pins.json), all with
seed 1. Every run must be correct with no failed input, and the two runs of
one population must report identical counts: every per-layer metric whose
unit is ``count``, and ``decompose.yield``. Exits 1 on the first mismatch.
The held-out population has no pinned plan keys; the other checks apply.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def traced_run(workload: str, population: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", "1", "--trace", "1", "--population", str(population)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = json.loads((BENCH / "pins.json").read_text())
    counted = [m["name"] for m in manifest["per_layer"] if m["unit"] == "count"]
    counted.append("decompose.yield")
    workloads = argv or [w["name"] for w in manifest["workloads"]]
    for workload in workloads:
        for population in (pins["population"], pins["held_out_population"]):
            runs = [traced_run(workload, population) for _ in range(2)]
            for run in runs:
                if not run["correct"] or run["failed"]:
                    print(f"FAIL {workload} population {population}: {run['failed']} failed inputs")
                    return 1
            counts = [{m: r["metrics"][m]["value"] for m in counted} for r in runs]
            if counts[0] != counts[1]:
                diff = {m: (counts[0][m], counts[1][m]) for m in counted
                        if counts[0][m] != counts[1][m]}
                print(f"FAIL {workload} population {population}: counts differ {diff}")
                return 1
            shown = {m: v for m, v in counts[0].items() if v}
            print(f"ok   {workload} population {population}: {json.dumps(shown)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
