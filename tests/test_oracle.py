"""Tests for the brute-force oracle: enumeration, index, closure."""

import hashlib
from random import Random

import pytest

from blockdec import oracle
from blockdec.blocks import load_block_data
from blockdec.catalog import load_catalog
from blockdec.decompose import enumerate_decompositions
from blockdec.diagram import (
    QUIVER,
    S_DIAGRAM,
    canonical_form,
    canonical_key,
    from_canonical_key,
    make_diagram,
    relabel_diagram,
)
from blockdec.gluing import (
    WHITE,
    BlockInstance,
    GlueState,
    Plan,
    canonical_instance,
    canonical_plan,
    glue,
    plan_key,
)
from blockdec.oracle import (
    OracleIndex,
    build_index,
    enumerate_plans,
    random_plan,
    sweep_nonunique,
)


def placements(state, templates, n, max_nodes, connected=False):
    """Every single-instance extension of ``state`` on ``n`` used nodes, in
    the oracle's order; with ``connected``, only those that use a used node."""
    open_nodes = [i for i in range(n) if state.is_open(i)]
    touch = connected and n > 0
    if touch and not open_nodes:
        return
    for template in templates:
        last_white = max((p for p, c in enumerate(template.colors) if c == WHITE), default=-1)
        assignments = []

        def assign(pos, chosen, fresh):
            if n + fresh > max_nodes:
                return
            if pos == template.size:
                assignments.append(chosen)
                return
            if template.colors[pos] == WHITE:
                for node in open_nodes:
                    if node not in chosen:
                        assign(pos + 1, chosen + (node,), fresh)
            if n + fresh < max_nodes and (not touch or fresh < pos or pos < last_white):
                assign(pos + 1, chosen + (n + fresh,), fresh + 1)

        assign(0, (), 0)
        for nodes in assignments:
            yield BlockInstance(template.tag, nodes)


def labelled_plans(data, mode, max_blocks, max_nodes):
    """Reference: every gluable plan with at most ``max_blocks`` instances on
    at most ``max_nodes`` first-use-numbered nodes, each sorted tuple of
    canonical instances once, with no dedup up to isomorphism."""
    templates = [data.template(tag) for tag in data.modes[mode].tags]
    state = GlueState(data, max_nodes)
    visited = set()

    def dfs(plan, n):
        if plan:
            yield Plan(mode, plan)
        if len(plan) == max_blocks:
            return
        for inst in placements(state, templates, n, max_nodes):
            child = tuple(sorted(plan + (canonical_instance(data, inst),)))
            if child in visited:
                continue
            visited.add(child)
            state.push(inst)
            yield from dfs(child, max(n, max(inst.nodes) + 1))
            state.pop()

    yield from dfs((), 0)


def ungated_sweep_children(data, mode, max_nodes):
    """The diagram of every child the connected oracle walk of ``sweep``
    builds with no gate in front of its visited set, in the order it labels
    them: one expansion per entry, and each child of one parent once."""
    templates = [data.template(tag) for tag in data.modes[mode].tags]
    state = GlueState(data, max_nodes)
    visited = set()
    diagrams = []

    def dfs(plan, n):
        if len(plan) == max_nodes:
            return
        children = set()
        for inst in placements(state, templates, n, max_nodes, connected=True):
            child = tuple(sorted(plan + (canonical_instance(data, inst),)))
            if child in children:
                continue
            children.add(child)
            m = max(n, max(inst.nodes) + 1)
            state.push(inst)
            diagram = state.glued(mode, m).diagram
            diagrams.append(diagram)
            key, relabel, _ = canonical_form(diagram)
            moved = tuple(
                BlockInstance(i.tag, tuple(relabel[v] for v in i.nodes)) for i in child
            )
            entry = (key, canonical_plan(data, Plan(mode, moved)).instances)
            if entry not in visited:
                visited.add(entry)
                dfs(child, m)
            state.pop()

    dfs((), 0)
    return diagrams


def reference_entries(data, mode, max_blocks, max_nodes):
    """Every labelled plan filed from ``glue``: the key spelt out from the
    relabelled diagram, the plan relabelled and made canonical."""
    reference: dict[str, set] = {}
    for plan in labelled_plans(data, mode, max_blocks, max_nodes):
        diagram = glue(data, plan).diagram
        relabel = canonical_form(diagram).relabel
        edges = relabel_diagram(diagram, relabel).edges
        key = f"{mode}|{diagram.node_count}|" + ";".join(
            f"{e.src}>{e.dst}*{e.weight}" for e in edges
        )
        moved = tuple(
            BlockInstance(i.tag, tuple(relabel[v] for v in i.nodes)) for i in plan.instances
        )
        reference.setdefault(key, set()).add(canonical_plan(data, Plan(mode, moved)).instances)
    return reference


def reference_index(reference):
    """An index of the reference's entries, each key closed under generators
    from a canonical labelling of the diagram the key spells out."""
    return OracleIndex(
        {k: frozenset(v) for k, v in reference.items()},
        {k: canonical_form(from_canonical_key(k)).generators for k in reference},
    )


@pytest.fixture(scope="module")
def data():
    return load_block_data()


@pytest.fixture(scope="module")
def quiver_index_2(data):
    return build_index(2, QUIVER, data, max_nodes=10)


class TestEnumeration:
    def test_single_block_quiver_plans(self, data):
        plans = [p for p, *_ in enumerate_plans(data, QUIVER, max_blocks=1, max_nodes=5)]
        assert len(plans) == 6  # one per elementary block
        assert {p.instances[0].tag for p in plans} == {
            "Spike", "Triangle", "Infork", "Outfork", "Diamond", "Square",
        }

    def test_single_block_s_plans(self, data):
        plans = [p for p, *_ in enumerate_plans(data, S_DIAGRAM, max_blocks=1, max_nodes=5)]
        assert len(plans) == 13

    def test_first_use_numbering(self, data):
        for plan, *_ in enumerate_plans(data, QUIVER, max_blocks=2, max_nodes=6):
            used = {v for inst in plan.instances for v in inst.nodes}
            assert used == set(range(len(used)))

    def test_all_plans_glue(self, data):
        for plan, *_ in enumerate_plans(data, S_DIAGRAM, max_blocks=2, max_nodes=6):
            glue(data, plan)  # must not raise

    def test_no_duplicate_plan_keys(self, data):
        keys = [
            plan_key(data, p)
            for p, *_ in enumerate_plans(data, QUIVER, max_blocks=3, max_nodes=4)
        ]
        assert len(keys) == len(set(keys))

    def test_node_budget_respected(self, data):
        for plan, *_ in enumerate_plans(data, QUIVER, max_blocks=3, max_nodes=3):
            used = {v for inst in plan.instances for v in inst.nodes}
            assert len(used) <= 3

    @pytest.mark.parametrize("mode", [QUIVER, S_DIAGRAM])
    @pytest.mark.parametrize("connected", [False, True])
    def test_connected_plans_are_overlap_connected(self, data, mode, connected):
        """With ``connected``, every yielded plan's instances form one class
        under sharing a node; without it, some plans fall apart."""

        def classes(plan):
            parent = list(range(len(plan.instances)))

            def find(i):
                while parent[i] != i:
                    i = parent[i]
                return i

            owner = {}
            for i, inst in enumerate(plan.instances):
                for v in inst.nodes:
                    parent[find(i)] = find(owner.setdefault(v, i))
            return len({find(i) for i in range(len(parent))})

        counts = [
            classes(plan)
            for plan, *_ in enumerate_plans(data, mode, 3, 6, connected=connected)
        ]
        assert counts
        assert (max(counts) == 1) == connected

    @pytest.mark.parametrize("mode", [QUIVER, S_DIAGRAM])
    def test_yielded_diagram_is_the_glued_one(self, data, mode):
        """The diagram read off the search state is the one glue builds from
        scratch, on every plan of at most three blocks: the node budget lets
        the three place on disjoint nodes.  Each entry comes once, is one
        the labelled reference files, and every key of the reference is
        reached."""
        max_nodes = 3 * max(t.size for t in data.templates.values())
        reference = reference_entries(data, mode, 3, max_nodes)
        entries = set()
        for plan, diagram, key, canonical, _ in enumerate_plans(data, mode, 3, max_nodes):
            assert diagram == glue(data, plan).diagram, plan_key(data, plan)
            assert key == canonical_key(diagram)
            assert canonical in reference[key], plan_key(data, plan)
            assert (key, canonical) not in entries
            entries.add((key, canonical))
        assert {key for key, _ in entries} == reference.keys()


class TestIndex:
    def test_single_block_index_sizes(self, data):
        assert len(build_index(1, QUIVER, data, max_nodes=5).entries) == 6
        # Ia and Ib glue to isomorphic single-weight-2-edge diagrams, so the
        # thirteen blocks produce twelve distinct diagrams.
        assert len(build_index(1, S_DIAGRAM, data, max_nodes=5).entries) == 12

    def test_weight2_edge_has_two_single_block_plans(self, data):
        index = build_index(1, S_DIAGRAM, data, max_nodes=5)
        diagram = make_diagram(2, [(1, 0, 2)], mode=S_DIAGRAM)
        assert len(index.closed_plans(canonical_key(diagram), data)) == 2

    def test_three_cycle_lookup(self, data):
        index = build_index(3, QUIVER, data, max_nodes=3)
        diagram = make_diagram(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        closed = index.closed_plans(canonical_key(diagram), data)
        mine = {
            canonical_plan(data, p).instances
            for p in enumerate_decompositions(diagram, data).plans
        }
        assert closed == mine
        assert len(closed) == 2

    def test_closure_expands_symmetric_plans(self, data, quiver_index_2):
        # The out-star on four leaves stores one abstract two-outfork plan;
        # closure under its S4 leaf symmetry yields the three leaf pairings.
        diagram = make_diagram(5, [(0, i, 1) for i in range(1, 5)])
        assert len(quiver_index_2.closed_plans(canonical_key(diagram), data)) == 3

    def test_empty_two_node_diagram_indexed(self, data, quiver_index_2):
        diagram = make_diagram(2, [])
        closed = quiver_index_2.closed_plans(canonical_key(diagram), data)
        assert len(closed) == 1

    @pytest.mark.parametrize(
        "mode, max_blocks, max_nodes",
        [
            (QUIVER, 4, 5),
            (S_DIAGRAM, 3, 5),
            (QUIVER, 5, 5),
            (S_DIAGRAM, 5, 5),
            (QUIVER, 4, 7),
            (S_DIAGRAM, 4, 6),
        ],
    )
    def test_index_matches_glued_reference(self, data, mode, max_blocks, max_nodes):
        """build_index against the labelled reference: the same keys, every
        stored plan filed by the reference too, and the same closure on every
        key.  The index may store fewer automorphic images of a plan.  The
        reference closes under generators from a labelling of its own, so
        the equality also checks the generators the walk stores."""
        reference = reference_entries(data, mode, max_blocks, max_nodes)
        index = build_index(max_blocks, mode, data, max_nodes=max_nodes)
        assert index.entries.keys() == reference.keys()
        for key, plans in index.entries.items():
            assert plans <= reference[key], key
        closing = reference_index(reference)
        for key in reference:
            assert index.closed_plans(key, data) == closing.closed_plans(key, data), key
        assert len(index.entries) > 50

    @pytest.mark.parametrize(
        "mode, max_blocks, max_nodes",
        [(QUIVER, 5, 5), (S_DIAGRAM, 4, 5), (QUIVER, 3, 7), (S_DIAGRAM, 3, 6)],
    )
    def test_connected_index_matches_reference_on_connected_keys(
        self, data, mode, max_blocks, max_nodes
    ):
        """The index over overlap-connected plans against the labelled
        reference: exactly the connected keys, every stored plan filed by the
        reference, and the same closure on every key.  Its stored plans may
        be other automorphic images than the full index's."""
        reference = reference_entries(data, mode, max_blocks, max_nodes)
        full = build_index(max_blocks, mode, data, max_nodes=max_nodes)
        conn = build_index(max_blocks, mode, data, max_nodes=max_nodes, connected=True)
        ref_keys = {k for k in reference if from_canonical_key(k).is_connected()}
        assert conn.entries.keys() == ref_keys
        for key, plans in conn.entries.items():
            assert plans <= reference[key], key
        closing = reference_index(reference)
        for key in ref_keys:
            assert conn.closed_plans(key, data) == closing.closed_plans(key, data), key
        assert len(conn.entries) < len(full.entries)

    def test_monotone_in_block_budget(self, data):
        small = build_index(2, QUIVER, data, max_nodes=4)
        large = build_index(3, QUIVER, data, max_nodes=4)
        for dkey in small.entries:
            assert small.closed_plans(dkey, data) <= large.closed_plans(dkey, data)


class TestDifferential:
    @pytest.mark.parametrize("mode", [QUIVER, S_DIAGRAM])
    def test_decomposer_matches_oracle_up_to_five_nodes(self, data, mode):
        """Every diagram the oracle indexes on at most five nodes, connected or
        not; five blocks suffice, since a block covers at least two of the ten
        slots five nodes offer. Index keys are canonical, so the decomposer's
        plans and closed_plans share coordinates."""
        index = build_index(5, mode, data, max_nodes=5)
        disconnected = 0
        for dkey in sorted(index.entries):
            diagram = from_canonical_key(dkey)
            disconnected += not diagram.is_connected()
            found = {
                canonical_plan(data, p).instances
                for p in enumerate_decompositions(diagram, data).plans
            }
            assert found == index.closed_plans(dkey, data), dkey
        assert disconnected > 0

    @pytest.mark.parametrize("mode, keys", [(QUIVER, 484), (S_DIAGRAM, 1438)])
    def test_decomposer_matches_oracle_on_connected_six_node_keys(self, data, mode, keys):
        """Every connected diagram the oracle indexes on at most six nodes;
        six blocks suffice, since a block covers at least two of the twelve
        slots six nodes offer, and every plan of a connected diagram is
        overlap-connected, so the connected index holds all of them and
        nothing else."""
        index = build_index(6, mode, data, max_nodes=6, connected=True)
        assert len(index.entries) == keys
        for dkey in sorted(index.entries):
            found = {
                canonical_plan(data, p).instances
                for p in enumerate_decompositions(from_canonical_key(dkey), data).plans
            }
            assert found == index.closed_plans(dkey, data), dkey


class TestSweep:
    def test_quiver_sweep_three_nodes(self, data):
        # Engine truth: four connected quiver diagrams on <=3 nodes have two
        # or more decompositions (in-fork, out-fork, path, three-cycle).
        sweep = sweep_nonunique(3, QUIVER, data)
        assert sweep == {
            "quiver|3|1>0*1;2>0*1": 2,
            "quiver|3|1>2*1;2>0*1": 2,
            "quiver|3|0>1*1;1>2*1;2>0*1": 2,
            "quiver|3|1>0*1;1>2*1": 2,
        }

    def test_quiver_sweep_two_nodes_empty(self, data):
        assert sweep_nonunique(2, QUIVER, data) == {}

    def test_s_sweep_two_nodes_is_weight2_edge(self, data):
        sweep = sweep_nonunique(2, S_DIAGRAM, data)
        assert set(sweep) == {canonical_key(make_diagram(2, [(0, 1, 2)], S_DIAGRAM))}

    def test_sweep_keys_round_trip(self, data):
        for dkey in sweep_nonunique(3, QUIVER, data):
            assert canonical_key(from_canonical_key(dkey)) == dkey


class TestCanonicalLabelling:
    def test_keys_and_relabellings_are_pinned(self, data):
        """canonical_form's key and relabelling on every child diagram the
        sweeps at quiver 6 and s 5 label without the oracle's gate, then on
        every catalog entry, hashed together.  The digest was taken while the
        labelling search still walked every branch that pairwise
        interchangeable cells leave, so pruning by automorphism orbits moves
        neither."""
        children = ungated_sweep_children(data, QUIVER, 6)
        children += ungated_sweep_children(data, S_DIAGRAM, 5)
        assert len(children) == 2511
        digest = hashlib.sha256()
        for diagram in children + [entry.diagram for entry in load_catalog()]:
            key, relabel, _ = canonical_form(diagram)
            digest.update(f"{key} {relabel}\n".encode())
        assert digest.hexdigest() == (
            "40917a9ad4716c62d75d5a514abb792cef030b64aae38a305a2eeb38001385b5"
        )

    def test_gate_pins_children_labelled_by_sweep(self, data, monkeypatch):
        """The oracle's gate lets through 1,412 of the 2,511 children that
        the sweeps at quiver 6 and s 5 build without it; every one it lets
        through is glued and labelled once."""
        calls = []
        label = oracle.canonical_form

        def counting(diagram):
            calls.append(diagram)
            return label(diagram)

        monkeypatch.setattr(oracle, "canonical_form", counting)
        sweep_nonunique(6, QUIVER, data)
        sweep_nonunique(5, S_DIAGRAM, data)
        assert len(calls) == 1412


class TestRandomPlans:
    def test_deterministic_for_seed(self, data):
        a = [random_plan(data, QUIVER, Random(7)) for _ in range(20)]
        b = [random_plan(data, QUIVER, Random(7)) for _ in range(20)]
        assert a == b

    def test_random_plans_always_glue(self, data):
        rng = Random(11)
        for i in range(200):
            mode = QUIVER if i % 2 else S_DIAGRAM
            glue(data, random_plan(data, mode, rng))  # must not raise

    def test_random_plan_refound_sample(self, data):
        rng = Random(3)
        for _ in range(25):
            plan = random_plan(data, QUIVER, rng, max_blocks=3)
            diagram = glue(data, plan).diagram
            keys = {
                plan_key(data, p)
                for p in enumerate_decompositions(diagram, data).plans
            }
            assert plan_key(data, plan) in keys
