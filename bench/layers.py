"""Which blockdec functions the traced run wraps, and the per-layer metrics.

Each metric serves an end-to-end metric on a named workload; README.md lists
the pairs. Counts (``*_calls``, ``decompose.*`` counts, ``oracle.*`` counts)
do not depend on the machine and repeat exactly for a given population.
"""

from __future__ import annotations

import statistics

from tracer import GEN, LEAF, SPAN, Target
from workloads import shape

# Hot leaf calls are counted only where the metric is defined: the calls the
# decomposer and the oracle make, not the ones plan_key makes internally.
TARGETS = [
    Target("blocks", "load_block_data", SPAN),
    Target("catalog", "load_catalog", SPAN),
    Target("catalog", "verify_entry", SPAN, label=lambda a, k: a[0].entry_id),
    Target("diagram", "canonical_form", SPAN),
    Target("diagram", "automorphisms", SPAN),
    Target("gluing", "glue", SPAN),
    Target("gluing", "plan_key", LEAF, sites=("decompose", "oracle")),
    Target("gluing", "canonical_instance", LEAF, sites=("decompose", "oracle")),
    Target("gluing", "instance_edges", LEAF, sites=("decompose",)),
    Target(
        "decompose", "enumerate_decompositions", SPAN,
        label=lambda a, k: "disconnected" if shape(a[0])[0] > 1 else "connected",
        emit=lambda result: len(result.plans),
    ),
    Target("surface", "assemble", SPAN),
    Target("surface", "Triangulation.invariants", SPAN),
    Target("surface", "signed_adjacency_matrix", SPAN),
    Target("oracle", "enumerate_plans", GEN),
    Target("oracle", "OracleIndex.closed_plans", SPAN),
    Target("cli", "main", SPAN),
]


def layer_metrics(tracer, entry_ids) -> dict[str, float]:
    fn = tracer.function_stats()
    site = tracer.stats()
    zero = [0, 0.0, 0.0, 0]
    f = lambda name: fn.get(name, zero)  # noqa: E731
    s = lambda name: site.get(name, zero)  # noqa: E731

    enum = f("decompose.enumerate_decompositions")
    states = s("decompose.plan_key")[0]
    spans = tracer.spans()
    enum_spans = [sp for sp in spans if sp[1].endswith(".enumerate_decompositions")]
    enum_time = sum(sp[3] - sp[2] for sp in enum_spans)
    disc_time = sum(sp[3] - sp[2] for sp in enum_spans if sp[7] == "disconnected")

    metrics = {
        "diagram.canonical_form_s": f("diagram.canonical_form")[1],
        "diagram.canonical_form_calls": f("diagram.canonical_form")[0],
        "diagram.automorphisms_s": f("diagram.automorphisms")[1],
        "gluing.glue_s": f("gluing.glue")[1],
        "gluing.glue_calls": f("gluing.glue")[0],
        "decompose.enumerate_s": enum[1],
        "decompose.self_s": enum[2],
        "decompose.enumerate_calls": enum[0],
        "decompose.states_visited": states,
        "decompose.placements_completed": s("decompose.canonical_instance")[0],
        "decompose.edge_rebuilds": s("decompose.instance_edges")[0],
        "decompose.plans_emitted": enum[3],
        "decompose.yield": enum[3] / states if states else 0.0,
        "decompose.disconnected_time_frac": disc_time / enum_time if enum_time else 0.0,
        "surface.assemble_s": f("surface.assemble")[1],
        "surface.invariants_s": f("surface.invariants")[1],
        "surface.signed_adjacency_s": f("surface.signed_adjacency_matrix")[1],
        "oracle.enumerate_plans_s": f("oracle.enumerate_plans")[2],
        "oracle.plans_yielded": f("oracle.enumerate_plans")[3],
        "oracle.states_visited": s("oracle.plan_key")[0],
        "oracle.closed_plans_s": f("oracle.closed_plans")[1],
        "cli.self_s": f("cli.main")[2],
    }
    per_entry: dict[str, list[float]] = {eid: [] for eid in entry_ids}
    for sp in spans:
        if sp[1].endswith(".verify_entry"):
            per_entry.setdefault(sp[7], []).append(sp[3] - sp[2])
    for eid, times in per_entry.items():
        metrics[f"catalog.verify_entry_s.{eid}"] = statistics.median(times) if times else 0.0
    return metrics
