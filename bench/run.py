"""Run one blockdec benchmark workload and print its metrics.

    python3 bench/run.py --workload random-plans --seed 1 --seconds 36 --trace 0

Run from the root of a checkout. It measures the package under ``src/`` from
source, in this one process; set-up time is measured in fresh interpreters.

``--trace 0`` makes passes over the workload's population of inputs, in an
order set by ``--seed``, with nothing wrapped, for about ``--seconds`` seconds
of work, and reports the end-to-end metrics. On random-plans, an input's
latency is the mean of its times over the passes. ``--trace 1``
processes a fixed list of inputs, each once plain and once traced, and reports
the per-layer metrics; its counts repeat exactly. ``--workload all`` runs every workload in
its own process and prints one table, ``failed_frac`` included.

Every processed input is checked (see ``workloads.py``). The last line of
stdout is a JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``,
with the metrics that ``BENCHMARK.json`` declares for the mode. The lines
before it give the same numbers and more for a reader: sample counts, the
tail percentile, the failure reasons and the input shares.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"
SETUP_REPS = 10  # fresh interpreters before the timed work, and again after it
OVERRUN = 1.05  # a run may start a pass expected to end this far past --seconds

# Set-up in a fresh interpreter: import the package as the CLI does, then
# load the block data and the catalog. Interpreter start-up is not counted.
SETUP_CODE = """
import json, time
t0 = time.perf_counter()
import blockdec.cli
t1 = time.perf_counter()
from blockdec import blocks, catalog
blocks.load_block_data()
t2 = time.perf_counter()
catalog.load_catalog()
t3 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1, t3 - t2]))
"""


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def setup_runs(reps: int) -> list[list[float]]:
    """Import, block-data and catalog load times in ``reps`` fresh interpreters."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "BLOCKDEC_DATA")}
    env["PYTHONPATH"] = str(SRC)
    runs = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            fail(f"set-up interpreter failed:\n{proc.stderr}")
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    return runs


def setup_metrics(runs: list[list[float]]) -> dict[str, float]:
    """Medians of the set-up times."""
    return {
        "setup_s": statistics.median(sum(r) for r in runs),
        "setup.import_s": statistics.median(r[0] for r in runs),
        "blocks.load_s": statistics.median(r[1] for r in runs),
        "catalog.load_s": statistics.median(r[2] for r in runs),
    }


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


class Tally:
    """Latencies, busy time and failures of processed inputs."""

    def __init__(self):
        self.samples: list[tuple[int, float]] = []  # (input index, seconds)
        self.busy = 0.0
        self.cpu = 0.0
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter[str] = Counter()

    def run(self, wl, items, tracer=None) -> None:
        for item in items:
            if tracer is not None:
                tracer.item = item.index
                tracer.active = True
            start, cpu = time.perf_counter(), time.process_time()
            try:
                out = wl.process(item)
                error = None
            except Exception as exc:  # an input that raises is a failed input
                out, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            self.cpu += time.process_time() - cpu
            if tracer is not None:
                tracer.active = False
            self.busy += elapsed
            if error is None:
                samples = wl.samples(item, out, elapsed)
                fails = wl.check(item, out)
            else:
                samples, fails = [elapsed], [error]
            self.samples.extend((item.index, s) for s in samples)
            self.attempted += len(samples)
            if fails:
                self.failed += len(samples)
                self.reasons.update(fails)

    def latencies(self, per_input: bool) -> list[float]:
        """The samples, or with ``per_input`` each input's mean sample."""
        if not per_input:
            return [s for _, s in self.samples]
        by_input: dict[int, list[float]] = {}
        for index, s in self.samples:
            by_input.setdefault(index, []).append(s)
        return [statistics.fmean(v) for v in by_input.values()]

    def merge(self, other: Tally) -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.update(other.reasons)


def shares(items) -> dict:
    """Input shares: mode split, node counts, disconnected and isolated nodes."""
    plans = [i for i in items if i.plan is not None]
    if not plans:
        return {}
    n = len(plans)
    return {
        "inputs": n,
        "quiver_frac": sum(i.mode == "quiver" for i in plans) / n,
        "nodes": dict(sorted(Counter(i.nodes for i in plans).items())),
        "disconnected_frac": sum(i.disconnected for i in plans) / n,
        "isolated_nodes": dict(sorted(Counter(i.isolated for i in plans).items())),
    }


def shuffled(items: list, seed: int, k: int) -> list:
    order = list(items)
    Random(f"order:{seed}:{k}").shuffle(order)
    return order


def end_to_end(wl, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    items = wl.inputs()
    setup = setup_runs(SETUP_REPS + 1)[1:]  # the first one writes the bytecode caches
    warm = Tally()
    warm.run(wl, wl.warm_up_inputs(items))
    tally = Tally()
    passes = 0
    while True:
        tally.run(wl, shuffled(items, seed, passes))
        passes += 1
        if tally.busy >= seconds or tally.busy + tally.busy / passes > seconds * OVERRUN:
            break
    setup += setup_runs(SETUP_REPS)
    latencies = tally.latencies(wl.per_input_latency)
    n = len(latencies)
    metrics = {
        "setup_s": setup_metrics(setup)["setup_s"],
        "items_per_s": len(tally.samples) / tally.busy,
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * percentile(latencies, wl.tail_pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    tally.merge(warm)
    info = {
        "passes": passes,
        "busy_s": round(tally.busy, 3),
        "samples": len(tally.samples),
        "latencies": n,
        "tail_percentile": wl.tail_pct,
        "latencies_beyond_tail": n - math.ceil(wl.tail_pct / 100 * n),
        "failed_frac": tally.failed / tally.attempted,
        "input_shares": shares(items),
    }
    return tally, metrics, info


def traced(wl, seed: int, dump: Path) -> tuple[Tally, dict, dict]:
    from blockdec import catalog
    from layers import TARGETS, layer_metrics
    from tracer import Tracer

    items = wl.trace_inputs()
    setup = setup_metrics(setup_runs(2 * SETUP_REPS + 1)[1:])
    tracer = Tracer()
    plain, tally = Tally(), Tally()
    # Each input runs plain and traced, in alternating order, so drift and
    # warm-up weigh on both sides of trace.overhead_frac alike.
    for k, item in enumerate(shuffled(items, seed, 0)):
        for traced_pass in ((False, True) if k % 2 == 0 else (True, False)):
            if not traced_pass:
                plain.run(wl, [item])
                continue
            tracer.install(TARGETS)
            try:
                tally.run(wl, [item], tracer=tracer)
            finally:
                tracer.uninstall()

    metrics = layer_metrics(tracer, [e.entry_id for e in catalog.load_catalog()])
    metrics.update({k: v for k, v in setup.items() if k != "setup_s"})
    metrics["process.cpu_util"] = wl.cpu_util(plain)
    metrics["trace.overhead_frac"] = tally.busy / plain.busy - 1
    metrics["inputs.disconnected_frac"] = shares(items).get("disconnected_frac", 0.0)
    TRACE_DIR.mkdir(exist_ok=True)
    count = tracer.dump(dump)
    tally.merge(plain)
    info = {
        "inputs": len(items),
        "plain_s": round(plain.busy, 3),
        "traced_s": round(tally.busy, 3),
        "spans": count,
        "spans_file": str(dump.relative_to(ROOT)),
        "failed_frac": tally.failed / tally.attempted,
        "input_shares": shares(items),
    }
    return tally, metrics, info


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    from workloads import WORKLOADS

    code = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.population is not None:
            cmd += ["--population", str(args.population)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            code = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            code = 1
        rows.append((name, "correct", str(result["correct"]).lower(), ""))
        rows.append((name, "failed_frac", f"{result['failed'] / result['attempted']:.4g}", "1"))
        for metric, value in result["metrics"].items():
            rows.append((name, metric, f"{value['value']:.6g}", value["unit"]))
    width = max((len(r[1]) for r in rows), default=0)
    for name, metric, value, unit in rows:
        print(f"{name:<13} {metric:<{width}} {value:>12} {unit}")
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1, help="sets the order of the inputs")
    parser.add_argument("--seconds", type=float, default=36, help="work to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--population", type=int,
        help="draws the inputs of random-plans (default: pinned)",
    )
    args = parser.parse_args()

    manifest = ROOT / "BENCHMARK.json"
    if not (SRC / "blockdec" / "__init__.py").is_file() or not manifest.is_file():
        fail(f"run from a checkout of blockdec: no src/blockdec or BENCHMARK.json under {ROOT}")
    os.environ.pop("BLOCKDEC_DATA", None)  # read only the checkout's data
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.workload == "all":
        return run_all(args)

    import blockdec
    from workloads import WORKLOADS

    if not Path(blockdec.__file__).resolve().is_relative_to(SRC):
        fail(f"blockdec was imported from {blockdec.__file__}, not from {SRC}")
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    declared = json.loads(manifest.read_text())["per_layer" if args.trace else "end_to_end"]
    pins = json.loads((BENCH / "pins.json").read_text())
    population = pins["population"] if args.population is None else args.population
    wl = WORKLOADS[args.workload](pins, population)
    if args.trace:
        dump = TRACE_DIR / f"{wl.name}-seed{args.seed}.jsonl"
        tally, metrics, info = traced(wl, args.seed, dump)
    else:
        tally, metrics, info = end_to_end(wl, args.seed, args.seconds)

    for spec in declared:
        print(f"{spec['name']} {metrics.get(spec['name'], 0.0):.6g} {spec['unit']}")
    for key in sorted(set(metrics) - {s["name"] for s in declared}):
        print(f"{key} {metrics[key]:.6g} (not declared in BENCHMARK.json)")
    print(f"population {population}")
    for key, value in info.items():
        print(f"{key} {json.dumps(value)}")
    for reason, count in tally.reasons.most_common():
        print(f"failure {count}x {reason}")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            s["name"]: {"value": metrics.get(s["name"], 0.0), "unit": s["unit"]}
            for s in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
