"""The benchmark's workloads: inputs, the timed work, and output checks.

Every call into blockdec goes through a module attribute (``gluing.glue``,
never a name imported here), so the tracer's wrappers see it.

Each workload has a fixed *population* of inputs, and a run makes passes over
it. ``--seed`` sets the order of each pass; ``--population`` (default: the
pinned one) draws the population. The split is forced by the spread of the
costs: the search time of one diagram changes by a factor of two or more with
its node order alone, so two runs of a hundred freshly drawn diagrams differ
by 15-25% on every metric, and no run that fits the time budget averages that
out. A fixed population keeps runs comparable; a held-out population (see
selfcheck.py) shows that checks and counts are not tied to the pinned one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
from dataclasses import dataclass
from random import Random

from blockdec import catalog, cli, decompose, diagram, gluing, oracle, surface
from blockdec.blocks import load_block_data

DATA = load_block_data()
MODES = (diagram.QUIVER, diagram.S_DIAGRAM)


@dataclass
class Item:
    index: int
    mode: str | None = None
    plan: gluing.Plan | None = None
    nodes: int = 0
    components: int = 1
    isolated: int = 0

    @property
    def disconnected(self) -> bool:
        return self.components > 1


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def shape(d) -> tuple[int, int]:
    """(connected components, isolated nodes) of a diagram."""
    parent = list(range(d.node_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    touched = set()
    for e in d.edges:
        touched.update((e.src, e.dst))
        parent[find(e.src)] = find(e.dst)
    components = len({find(v) for v in range(d.node_count)})
    return components, d.node_count - len(touched)


def plan_item(index: int, plan: gluing.Plan) -> Item:
    d = gluing.glue(DATA, plan).diagram
    components, isolated = shape(d)
    return Item(index, plan.mode, plan, d.node_count, components, isolated)


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class Workload:
    name = ""
    tail_pct = 90.0  # highest percentile with ten latencies beyond it
    # Whether an input's latency is the mean of its times over the passes of
    # a run, rather than each time a latency of its own.
    per_input_latency = False

    def __init__(self, pins: dict, population: int):
        self.pins = pins
        self.population = population

    def inputs(self) -> list[Item]:
        """The population: one pass of the timed run."""
        raise NotImplementedError

    def trace_inputs(self) -> list[Item]:
        """The inputs of the traced run, a fixed list so its counts repeat."""
        return self.inputs()

    def warm_up_inputs(self, items: list[Item]) -> list[Item]:
        """Processed and checked once before the timed passes, untimed."""
        return items[:1]

    def process(self, item: Item):
        """The timed work for one input."""
        raise NotImplementedError

    def samples(self, item: Item, out, elapsed: float) -> list[float]:
        """Latency samples, in seconds, for one processed input."""
        return [elapsed]

    def check(self, item: Item, out) -> list[str]:
        """The failed checks of one processed input."""
        raise NotImplementedError

    def cpu_util(self, tally) -> float:
        """CPU time over wall time, reported as process.cpu_util."""
        return tally.cpu / tally.busy


class RandomPlans(Workload):
    """Criterion 4 plus ``surface --all`` on oracle.random_plan draws: glue the
    plan, enumerate its decompositions, and assemble the surface of every plan
    found.

    The draws are stratified: per mode, one input is drawn from each of
    ``PER_MODE`` equal slices of the generator's distribution of (node count,
    disconnected), which ``pins.json`` records from a pilot of the generator.
    Each input is a random_plan draw rejected until it falls in its slice, so
    the population keeps the generator's distribution, tail included.

    The timed enumeration runs at threads=1. Every 4th input, the first time a
    run processes it, is also enumerated at ``THREADS``, untimed: its plans
    must equal the timed ones, and its CPU time over wall time is
    ``process.cpu_util``.

    Surfaces are assembled for connected inputs only: on a disconnected one,
    ``assemble`` raises NonSurfaceComplex, because its genus check counts one
    surface component. That is a defect of the program, reported rather than
    measured, since no operation in a workload may fail.
    """

    name = "random-plans"
    tail_pct = 80.0
    per_input_latency = True
    PER_MODE = 25
    MAX_DRAWS = 200_000
    THREADS = 2

    def __init__(self, pins: dict, population: int):
        super().__init__(pins, population)
        self.threaded_wall = self.threaded_cpu = 0.0
        self.threads_checked: set[int] = set()

    def _cell(self, mode: str, q: float) -> tuple[int, bool]:
        cells = self.pins["random_plans_strata"][mode]
        total = sum(count for _, _, count in cells)
        acc = 0
        for nodes, disconnected, count in cells:
            acc += count
            if q * total < acc:
                break
        return nodes, bool(disconnected)

    def inputs(self) -> list[Item]:
        rng = Random(f"{self.name}:{self.population}")
        items = []
        for j in range(self.PER_MODE):
            for mode in MODES:
                want = self._cell(mode, (j + rng.random()) / self.PER_MODE)
                for _ in range(self.MAX_DRAWS):
                    item = plan_item(len(items), oracle.random_plan(DATA, mode, rng, max_blocks=5))
                    if (item.nodes, item.disconnected) == want:
                        items.append(item)
                        break
                else:
                    raise RuntimeError(f"no {mode} draw with (nodes, disconnected) = {want}")
        return items

    def trace_inputs(self) -> list[Item]:
        """Every other slice of each mode: half the population, same spread."""
        return [item for item in self.inputs() if item.index // 2 % 2 == 0]

    def warm_up_inputs(self, items: list[Item]) -> list[Item]:
        """The smallest input of each mode."""
        return [min((i for i in items if i.mode == m), key=lambda i: i.nodes) for m in MODES]

    def process(self, item: Item):
        d = gluing.glue(DATA, item.plan).diagram
        result = decompose.enumerate_decompositions(d, DATA)
        surfaces = []
        for plan in () if item.disconnected else result.plans:
            tri = surface.assemble(DATA, plan)  # raises unless it validates
            inv = tri.invariants()
            matrix = None
            if d.mode == diagram.QUIVER:
                matrix = surface.signed_adjacency_matrix(tri, d.node_count)
            surfaces.append((inv, matrix))
        return d, result, surfaces

    @staticmethod
    def digest(keys: list[str]) -> str:
        return sha256(" ".join(keys))[:16]

    def check(self, item: Item, out) -> list[str]:
        d, result, surfaces = out
        fails = []
        if result.truncated:
            fails.append("enumeration truncated")
        keys = [gluing.plan_key(DATA, p) for p in result.plans]
        pinned = self.pins["plan_keys"].get(self.name)
        if self.population == self.pins["population"] and pinned is not None:
            if pinned[str(item.index)] != self.digest(keys):
                fails.append("plan keys differ from the pinned ones")
        if gluing.plan_key(DATA, item.plan) not in keys:
            fails.append("source plan not found")
        if any(gluing.glue(DATA, p).diagram != d for p in result.plans):
            fails.append("a plan found does not glue back to the input")
        if d.mode == diagram.QUIVER:
            expected = diagram.to_matrix(d)
            if any(matrix != expected for _, matrix in surfaces):
                fails.append("signed adjacency differs from the exchange matrix")
        if item.index % 4 == 0 and item.index not in self.threads_checked:
            self.threads_checked.add(item.index)
            wall, cpu = time.perf_counter(), time.process_time()
            threaded = decompose.enumerate_decompositions(d, DATA, threads=self.THREADS)
            self.threaded_wall += time.perf_counter() - wall
            self.threaded_cpu += time.process_time() - cpu
            if [gluing.plan_key(DATA, p) for p in threaded.plans] != keys:
                fails.append(f"threads=1 and threads={self.THREADS} differ")
        return fails

    def cpu_util(self, tally) -> float:
        return self.threaded_cpu / self.threaded_wall


class Sweep(Workload):
    """``sweep --max-nodes 6`` and ``sweep --mode s --max-nodes 5``; one item
    is the pair. The inputs are fixed."""

    name = "sweep"
    COMMANDS = (
        ["sweep", "--max-nodes", "6"],
        ["sweep", "--mode", "s", "--max-nodes", "5"],
    )
    tail_pct = 100.0  # three or four items per run: the tail is the slowest

    def inputs(self) -> list[Item]:
        return [Item(0)]

    def warm_up_inputs(self, items: list[Item]) -> list[Item]:
        """None: one item is a pair of sweeps, and its latency is already a
        median over the passes."""
        return []

    def process(self, item: Item):
        return [run_cli(argv) for argv in self.COMMANDS]

    def check(self, item: Item, out) -> list[str]:
        fails = []
        for argv, (code, stdout), pin in zip(self.COMMANDS, out, self.pins["digests"]["sweep"]):
            if code != 0:
                fails.append(f"{' '.join(argv)} exited {code}")
            elif sha256(stdout) != pin:
                fails.append(f"{' '.join(argv)} output differs from the pinned digest")
        return fails


class Catalog(Workload):
    """Repeated ``verify-catalog`` passes. One item is one catalog entry; its
    latency is the time of that entry's ``verify_entry`` call. The inputs are
    fixed."""

    name = "catalog"
    tail_pct = 99.0
    TRACE_PASSES = 30

    def inputs(self) -> list[Item]:
        return [Item(0)]

    def trace_inputs(self) -> list[Item]:
        return [Item(k) for k in range(self.TRACE_PASSES)]

    def process(self, item: Item):
        times: list[float] = []
        inner = cli.verify_entry

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                times.append(time.perf_counter() - start)

        cli.verify_entry = timed
        try:
            code, stdout = run_cli(["verify-catalog"])
        finally:
            cli.verify_entry = inner
        return code, stdout, times

    def samples(self, item: Item, out, elapsed: float) -> list[float]:
        return out[2]

    def check(self, item: Item, out) -> list[str]:
        code, stdout, times = out
        if code != 0:
            return [f"verify-catalog exited {code}"]
        if sha256(stdout) != self.pins["digests"]["catalog"]:
            return ["verify-catalog output differs from the pinned digest"]
        if len(times) != len(catalog.load_catalog()):
            return ["verify-catalog did not verify every entry"]
        return []


WORKLOADS = {w.name: w for w in (RandomPlans, Sweep, Catalog)}
