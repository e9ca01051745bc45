"""Regenerate bench/pins.json.

    python3 bench/pin.py

It records

* ``random_plans_strata``: per mode, how often a pilot of oracle.random_plan
  draws (max_blocks=5) gives each (node count, disconnected) cell. The
  random-plans population is stratified by this table;
* ``digests``: the stdout digests of the two sweeps and of verify-catalog;
* ``plan_keys``: per input of the pinned random-plans population, a digest
  of the plan keys found;
* ``input_shares``: the input shares of that population.

Every run compares its outputs with the digests. Regenerate them only when
the program's output is meant to change, and say so in that change.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path
from random import Random

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

PILOT_DRAWS = 50_000  # per mode


def main() -> int:
    pins_path = BENCH / "pins.json"
    pins = json.loads(pins_path.read_text())

    from blockdec import gluing, oracle
    from run import shares
    from workloads import DATA, MODES, WORKLOADS, plan_item, sha256

    rng = Random("random-plans pilot")
    strata = {}
    for mode in MODES:
        cells = Counter()
        for _ in range(PILOT_DRAWS):
            item = plan_item(0, oracle.random_plan(DATA, mode, rng, max_blocks=5))
            cells[(item.nodes, item.disconnected)] += 1
        strata[mode] = [[n, int(disc), count] for (n, disc), count in sorted(cells.items())]
    pins["random_plans_strata"] = strata

    sweep = WORKLOADS["sweep"](pins, pins["population"])
    catalog = WORKLOADS["catalog"](pins, pins["population"])
    pins["digests"] = {
        "sweep": [sha256(out) for _, out in sweep.process(sweep.inputs()[0])],
        "catalog": sha256(catalog.process(catalog.inputs()[0])[1]),
    }
    pins["plan_keys"] = {}
    wl = WORKLOADS["random-plans"](pins, pins["population"])
    items = wl.inputs()
    digests = {}
    for item in items:
        out = wl.process(item)
        fails = wl.check(item, out)
        if fails:
            print(f"{wl.name} input {item.index}: {fails}", file=sys.stderr)
            return 1
        digests[str(item.index)] = wl.digest([gluing.plan_key(DATA, p) for p in out[1].plans])
    pins["plan_keys"] = {wl.name: digests}
    pins["input_shares"] = {wl.name: shares(items)}
    pins_path.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
