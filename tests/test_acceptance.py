"""Acceptance criteria.

Each test pins one advertised guarantee of the package, with its runtime
budget.  Criterion 7 is recorded honestly: the literal expectation is
irreproducible under the gluing rules themselves (see the strict xfail and
the derived-truth test beside it).
"""

import itertools
import json
import random
import time

import pytest

from blockdec.blocks import load_block_data
from blockdec.catalog import load_catalog, verify_entry
from blockdec.cli import main
from blockdec.decompose import enumerate_decompositions
from blockdec.diagram import (
    QUIVER,
    S_DIAGRAM,
    canonical_form,
    from_canonical_key,
    make_diagram,
    reversal_class_key,
    to_matrix,
)
from blockdec.gluing import (
    BlockInstance,
    Plan,
    canonical_plan,
    glue,
    parse_plan,
    plan_key,
    serialize_plan,
)
from blockdec.oracle import build_index, random_plan, sweep_nonunique
from blockdec.surface import assemble, signed_adjacency_matrix

DATA = load_block_data()
ENTRIES = load_catalog()


# ---------------------------------------------------------------------------
# Criterion 1: catalog decomposition counts (< 5 s)
# ---------------------------------------------------------------------------


def test_criterion_1_catalog_counts():
    start = time.perf_counter()
    reports = {entry.entry_id: verify_entry(entry, DATA) for entry in ENTRIES}
    elapsed = time.perf_counter() - start

    for entry_id, count in {
        "1": 2, "2": 2, "4": 3, "7p": 3, "16": 2, "17": 2,
    }.items():
        report = reports[entry_id]
        assert not report.entry.count_provisional
        assert report.count == report.entry.expect_count == count

    # provisional rows are reported, never asserted: a mismatch must not fail
    provisional = {eid for eid, r in reports.items() if r.entry.count_provisional}
    assert provisional == {"3", "11", "12", "13", "14", "15"}
    for entry_id in provisional:
        assert reports[entry_id].ok  # ok even though G3's count differs
    assert not reports["3"].count_matches  # the known source/engine mismatch

    assert all(r.ok for r in reports.values())
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# Criterion 2: theorem reproduction (< 5 s)
# ---------------------------------------------------------------------------


def test_criterion_2_theorem():
    start = time.perf_counter()
    for entry in ENTRIES:
        plans = enumerate_decompositions(entry.diagram, DATA).plans
        classes = {
            assemble(DATA, plan).invariants().surface_class for plan in plans
        }
        if entry.entry_id == "5":
            assert len(classes) > 1, "entry 5 must break surface uniqueness"
        else:
            assert len(classes) == 1, f"entry {entry.entry_id} surfaces differ"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# Criterion 3: decomposer == brute-force oracle on every connected quiver
# diagram with at most 4 nodes (< 10 min)
# ---------------------------------------------------------------------------


def _connected_quiver_diagrams(max_nodes):
    """One representative per canonical class, every connected quiver diagram."""
    from blockdec.diagram import canonical_key

    seen = set()
    for n in range(1, max_nodes + 1):
        pairs = list(itertools.combinations(range(n), 2))
        # per unordered pair: absent, either direction at weight 1 or 4
        for states in itertools.product(range(5), repeat=len(pairs)):
            edges = []
            for (a, b), state in zip(pairs, states):
                if state == 1:
                    edges.append((a, b, 1))
                elif state == 2:
                    edges.append((b, a, 1))
                elif state == 3:
                    edges.append((a, b, 4))
                elif state == 4:
                    edges.append((b, a, 4))
            diagram = make_diagram(n, edges, QUIVER)
            if not diagram.is_connected():
                continue
            key = canonical_key(diagram)
            if key not in seen:
                seen.add(key)
                yield diagram


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    index = build_index(4, QUIVER, DATA, max_nodes=4)

    total = decomposable = 0
    for diagram in _connected_quiver_diagrams(4):
        total += 1
        # closed_plans answers in the diagram's canonical coordinates; map the
        # decomposer's plans through the same relabelling before comparing.
        key, relabel, _ = canonical_form(diagram)
        expected = index.closed_plans(key, DATA)
        found = set()
        for p in enumerate_decompositions(diagram, DATA).plans:
            mapped = Plan(
                p.mode,
                tuple(
                    BlockInstance(i.tag, tuple(relabel[v] for v in i.nodes))
                    for i in p.instances
                ),
            )
            found.add(canonical_plan(DATA, mapped).instances)
        assert found == expected, f"mismatch on {diagram}"
        if found:
            decomposable += 1

    elapsed = time.perf_counter() - start
    assert total == 692
    assert decomposable == 31
    assert elapsed < 600.0, f"criterion 3 took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# Criterion 4: 1000 random valid plans re-found, round trips byte-exact (< 2 min)
# ---------------------------------------------------------------------------


def test_criterion_4_random_plans():
    start = time.perf_counter()
    rng = random.Random(20260816)
    for i in range(1000):
        mode = QUIVER if i % 2 == 0 else S_DIAGRAM
        plan = random_plan(DATA, mode, rng, max_blocks=5)

        text = serialize_plan(plan)
        assert serialize_plan(parse_plan(text)) == text  # byte-exact round trip

        result = glue(DATA, plan)
        found = {
            plan_key(DATA, p)
            for p in enumerate_decompositions(result.diagram, DATA).plans
        }
        assert plan_key(DATA, plan) in found, f"plan {i} not re-found"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 4 took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# Criterion 5: exchange matrix recovered from every quiver-mode decomposition
# ---------------------------------------------------------------------------


def test_criterion_5_matrix_recovery():
    for entry in ENTRIES:
        if entry.mode != QUIVER:
            continue
        expected = to_matrix(entry.diagram)
        for plan in enumerate_decompositions(entry.diagram, DATA).plans:
            tri = assemble(DATA, plan)
            assert (
                signed_adjacency_matrix(tri, entry.diagram.node_count) == expected
            ), f"entry {entry.entry_id}, plan {plan_key(DATA, plan)}"


# ---------------------------------------------------------------------------
# Criterion 6: parallel and antiparallel spike pairs
# ---------------------------------------------------------------------------


def test_criterion_6_spike_pairs():
    parallel = glue(
        DATA,
        Plan(QUIVER, (BlockInstance("Spike", (1, 0)), BlockInstance("Spike", (1, 0)))),
    )
    assert parallel.diagram == make_diagram(2, [(0, 1, 4)])
    assert parallel.colors == ("black", "black")

    antiparallel = glue(
        DATA,
        Plan(QUIVER, (BlockInstance("Spike", (0, 1)), BlockInstance("Spike", (1, 0)))),
    )
    assert antiparallel.diagram == make_diagram(2, [])
    assert antiparallel.diagram.node_count == 2
    assert antiparallel.colors == ("black", "black")


# ---------------------------------------------------------------------------
# Criterion 7: small sweeps match the catalog (< 1 min) — honest red
# ---------------------------------------------------------------------------


def _sweep_catalog_ids(max_nodes, mode):
    hits = sweep_nonunique(max_nodes, mode, DATA)
    ids = set()
    for key in hits:
        rk = reversal_class_key(from_canonical_key(key))
        match = None
        for entry in ENTRIES:
            if entry.mode == mode and reversal_class_key(entry.diagram) == rk:
                match = entry.entry_id
                break
        ids.add(match if match is not None else rk)
    return ids


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Irreproducible as stated: the 3-node path decomposes as {Spike,Spike} "
        "and as {Triangle + cancelling Spike} (the same rule-4 cancellation the "
        "catalog's own entries 7p/10 rely on), so the quiver sweep at 3 nodes "
        "returns a third class beyond entries 1 and 2; likewise the bare "
        "weight-2 edge gives {Ia} vs {Ib} at 2 nodes in s mode.  No defensible "
        "equivalence removes these without also collapsing pinned counts."
    ),
)
def test_criterion_7_literal():
    assert _sweep_catalog_ids(3, QUIVER) == {"1", "2"}
    assert _sweep_catalog_ids(2, QUIVER) == set()
    assert _sweep_catalog_ids(2, S_DIAGRAM) == set()


def test_criterion_7_derived_truth():
    start = time.perf_counter()
    # quiver, 3 nodes: exactly the catalog classes 1, 2 and the path (row 11)
    assert _sweep_catalog_ids(3, QUIVER) == {"1", "2", "11"}
    # quiver, 2 nodes: genuinely empty
    assert _sweep_catalog_ids(2, QUIVER) == set()
    # s mode, 2 nodes: exactly the bare weight-2 edge ({Ia} vs {Ib}),
    # matching no catalog row — the documented discrepancy
    assert _sweep_catalog_ids(2, S_DIAGRAM) == {"s|2|1>0*2"}
    # s mode, 3 nodes: includes the pinned s-rows 16 and 17
    assert {"16", "17"} <= _sweep_catalog_ids(3, S_DIAGRAM)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 7 took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# Criterion 8: byte-identical output, independent of threading
# ---------------------------------------------------------------------------


def test_criterion_8_determinism(capsys, tmp_path):
    diagram_file = tmp_path / "diagram.txt"
    diagram_file.write_text(
        "nodes 5\nedge 0 1 1\nedge 1 2 1\nedge 2 0 1\nedge 1 3 1\n"
        "edge 3 0 1\nedge 0 4 1\nedge 4 1 1\n"
    )

    def capture(argv):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        return out

    for argv in (
        ["decompose", str(diagram_file), "--json"],
        ["surface", str(diagram_file), "--json"],
        ["verify-catalog", "--json"],
    ):
        baseline = capture(argv + ["--threads", "1"])
        for threads in ("2", "3", "7"):
            assert capture(argv + ["--threads", threads]) == baseline
        assert capture(argv + ["--threads", "1"]) == baseline  # repeat run

    sweep_out = capture(["sweep", "--max-nodes", "3", "--json"])
    assert capture(["sweep", "--max-nodes", "3", "--json"]) == sweep_out
    json.loads(sweep_out)  # stdout is pure JSON
