"""Tests for the decomposition search against hand-verified plan sets."""

import sys
import time
from importlib import resources
from math import prod
from random import Random

import pytest

from blockdec import decompose
from blockdec.blocks import BLACK, BlockDataError, load_block_data, parse_block_data
from blockdec.catalog import catalog_entry, load_catalog
from blockdec.decompose import (
    DecomposeResult, SearchStats, enumerate_decompositions, is_decomposable,
)
from blockdec.diagram import QUIVER, S_DIAGRAM, make_diagram, relabel_diagram
from blockdec.gluing import (
    NO_EDGE, BlockInstance, Plan, canonical_instance, glue, net_with_arrow, plan_key,
)
from blockdec.oracle import enumerate_plans, random_plan


@pytest.fixture(scope="module")
def data():
    return load_block_data()


def keys(data, result):
    return {plan_key(data, p) for p in result.plans}


def kplan(data, mode, *instances):
    return plan_key(
        data, Plan(mode, tuple(BlockInstance(t, tuple(n)) for t, n in instances))
    )


class TestSmallQuivers:
    def test_three_cycle_has_two_plans(self, data):
        diagram = make_diagram(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        result = enumerate_decompositions(diagram, data)
        assert keys(data, result) == {
            kplan(data, QUIVER, ("Triangle", (0, 1, 2))),
            kplan(data, QUIVER, ("Spike", (1, 0)), ("Spike", (2, 1)), ("Spike", (0, 2))),
        }

    def test_infork_shape_has_two_plans(self, data):
        diagram = make_diagram(3, [(1, 0, 1), (2, 0, 1)])
        result = enumerate_decompositions(diagram, data)
        assert keys(data, result) == {
            kplan(data, QUIVER, ("Infork", (0, 1, 2))),
            kplan(data, QUIVER, ("Spike", (0, 1)), ("Spike", (0, 2))),
        }

    def test_path_has_two_plans(self, data):
        diagram = make_diagram(3, [(0, 1, 1), (1, 2, 1)])
        result = enumerate_decompositions(diagram, data)
        assert keys(data, result) == {
            kplan(data, QUIVER, ("Spike", (1, 0)), ("Spike", (2, 1))),
            kplan(data, QUIVER, ("Triangle", (0, 1, 2)), ("Spike", (2, 0))),
        }

    def test_in_star_three_leaves(self, data):
        diagram = make_diagram(4, [(1, 0, 1), (2, 0, 1), (3, 0, 1)])
        result = enumerate_decompositions(diagram, data)
        assert keys(data, result) == {
            kplan(data, QUIVER, ("Infork", (0, 1, 2)), ("Spike", (0, 3))),
            kplan(data, QUIVER, ("Infork", (0, 1, 3)), ("Spike", (0, 2))),
            kplan(data, QUIVER, ("Infork", (0, 2, 3)), ("Spike", (0, 1))),
        }

    def test_mixed_fork_three_plans(self, data):
        # 1 -> 0, 0 -> 2, 0 -> 3
        diagram = make_diagram(4, [(1, 0, 1), (0, 2, 1), (0, 3, 1)])
        result = enumerate_decompositions(diagram, data)
        assert keys(data, result) == {
            kplan(data, QUIVER, ("Outfork", (0, 2, 3)), ("Spike", (0, 1))),
            kplan(data, QUIVER, ("Triangle", (0, 2, 1)), ("Spike", (2, 1)), ("Spike", (3, 0))),
            kplan(data, QUIVER, ("Triangle", (0, 3, 1)), ("Spike", (3, 1)), ("Spike", (2, 0))),
        }

    def test_out_star_four_leaves_pairings(self, data):
        diagram = make_diagram(5, [(0, i, 1) for i in range(1, 5)])
        result = enumerate_decompositions(diagram, data)
        assert keys(data, result) == {
            kplan(data, QUIVER, ("Outfork", (0, 1, 2)), ("Outfork", (0, 3, 4))),
            kplan(data, QUIVER, ("Outfork", (0, 1, 3)), ("Outfork", (0, 2, 4))),
            kplan(data, QUIVER, ("Outfork", (0, 1, 4)), ("Outfork", (0, 2, 3))),
        }

    def test_two_in_two_out_star(self, data):
        diagram = make_diagram(5, [(0, 1, 1), (0, 2, 1), (3, 0, 1), (4, 0, 1)])
        result = enumerate_decompositions(diagram, data)
        assert keys(data, result) == {
            kplan(data, QUIVER, ("Outfork", (0, 1, 2)), ("Infork", (0, 3, 4))),
            kplan(
                data, QUIVER,
                ("Triangle", (0, 1, 3)), ("Spike", (1, 3)),
                ("Triangle", (0, 2, 4)), ("Spike", (2, 4)),
            ),
            kplan(
                data, QUIVER,
                ("Triangle", (0, 1, 4)), ("Spike", (1, 4)),
                ("Triangle", (0, 2, 3)), ("Spike", (2, 3)),
            ),
        }

    def test_diamond_target_three_plans(self, data):
        # Triangle 0->1->3->0 plus path 3->2->1.
        diagram = make_diagram(
            4, [(3, 0, 1), (0, 1, 1), (1, 3, 1), (2, 1, 1), (3, 2, 1)]
        )
        result = enumerate_decompositions(diagram, data)
        assert keys(data, result) == {
            kplan(data, QUIVER, ("Diamond", (1, 2, 3, 0))),
            kplan(data, QUIVER, ("Triangle", (0, 1, 3)), ("Spike", (1, 2)), ("Spike", (2, 3))),
            kplan(data, QUIVER, ("Triangle", (1, 3, 2)), ("Spike", (0, 3)), ("Spike", (1, 0))),
        }

    def test_four_cycle_three_plans(self, data):
        diagram = make_diagram(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
        result = enumerate_decompositions(diagram, data)
        assert keys(data, result) == {
            kplan(
                data, QUIVER,
                ("Spike", (1, 0)), ("Spike", (2, 1)), ("Spike", (3, 2)), ("Spike", (0, 3)),
            ),
            kplan(data, QUIVER, ("Triangle", (0, 1, 2)), ("Triangle", (2, 3, 0))),
            kplan(data, QUIVER, ("Triangle", (1, 2, 3)), ("Triangle", (3, 0, 1))),
        }

    def test_weight4_edge_is_two_parallel_spikes(self, data):
        diagram = make_diagram(2, [(0, 1, 4)])
        result = enumerate_decompositions(diagram, data)
        assert keys(data, result) == {
            kplan(data, QUIVER, ("Spike", (1, 0)), ("Spike", (1, 0))),
        }

    def test_empty_two_node_diagram(self, data):
        diagram = make_diagram(2, [])
        result = enumerate_decompositions(diagram, data)
        assert keys(data, result) == {
            kplan(data, QUIVER, ("Spike", (0, 1)), ("Spike", (1, 0))),
        }

    def test_single_node_is_indecomposable(self, data):
        assert not is_decomposable(make_diagram(1, []), data)

    def test_two_cycle_free_nondecomposable_example(self, data):
        # A lone node attached by nothing cannot be covered.
        diagram = make_diagram(3, [(0, 1, 1)])
        assert not is_decomposable(diagram, data)


class TestSDiagrams:
    def test_weight2_chain(self, data):
        # 0 -2-> 1 -2-> 2
        diagram = make_diagram(3, [(0, 1, 2), (1, 2, 2)], mode=S_DIAGRAM)
        result = enumerate_decompositions(diagram, data)
        assert keys(data, result) == {
            kplan(data, S_DIAGRAM, ("Ia", (1, 0)), ("Ib", (1, 2))),
            kplan(data, S_DIAGRAM, ("II", (0, 1, 2)), ("Spike", (2, 0))),
        }

    def test_weight2_chain_with_weight4_closure(self, data):
        # 0 -2-> 1 -2-> 2 -4-> 0
        diagram = make_diagram(
            3, [(0, 1, 2), (1, 2, 2), (2, 0, 4)], mode=S_DIAGRAM
        )
        result = enumerate_decompositions(diagram, data)
        assert keys(data, result) == {
            kplan(data, S_DIAGRAM, ("IV", (1, 2, 0))),
            kplan(data, S_DIAGRAM, ("II", (0, 1, 2)), ("Spike", (0, 2))),
        }

    def test_single_weight2_edge(self, data):
        diagram = make_diagram(2, [(1, 0, 2)], mode=S_DIAGRAM)
        result = enumerate_decompositions(diagram, data)
        assert keys(data, result) == {
            kplan(data, S_DIAGRAM, ("Ia", (0, 1))),
            kplan(data, S_DIAGRAM, ("Ib", (1, 0))),
        }

    def test_quiver_shapes_still_decompose_in_s_mode(self, data):
        diagram = make_diagram(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)], mode=S_DIAGRAM)
        result = enumerate_decompositions(diagram, data)
        assert len(result.plans) == 2


class TestIdentityPlans:
    def test_each_template_diagram_recovers_itself(self, data):
        for tag in data.templates:
            template = data.template(tag)
            diagram = template.diagram()
            result = enumerate_decompositions(diagram, data)
            identity = kplan(
                data, diagram.mode, (tag, tuple(range(template.size)))
            )
            assert identity in keys(data, result), tag


class TestRoundTrip:
    def test_every_plan_glues_back(self, data):
        targets = [
            make_diagram(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)]),
            make_diagram(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]),
            make_diagram(3, [(0, 1, 2), (1, 2, 2)], mode=S_DIAGRAM),
            make_diagram(3, [(0, 1, 2), (1, 2, 2), (2, 0, 4)], mode=S_DIAGRAM),
        ]
        for diagram in targets:
            for plan in enumerate_decompositions(diagram, data).plans:
                assert glue(data, plan).diagram == diagram


class TestLimitsAndThreads:
    def test_limit_truncates(self, data):
        diagram = make_diagram(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
        result = enumerate_decompositions(diagram, data, limit=1)
        assert result.truncated
        assert len(result.plans) == 1

    def test_threads_are_deterministic(self, data):
        diagram = make_diagram(5, [(0, 1, 1), (0, 2, 1), (3, 0, 1), (4, 0, 1)])
        sequential = enumerate_decompositions(diagram, data, threads=1)
        threaded = enumerate_decompositions(diagram, data, threads=3)
        more = enumerate_decompositions(diagram, data, threads=7)
        assert sequential == threaded == more
        assert not sequential.truncated


def disjoint_union(*diagrams, isolated=0):
    """The diagrams side by side, each shifted past the ones before it, then
    ``isolated`` edgeless nodes."""
    edges, offset = [], 0
    for d in diagrams:
        edges += [(e.src + offset, e.dst + offset, e.weight) for e in d.edges]
        offset += d.node_count
    return make_diagram(offset + isolated, edges, mode=diagrams[0].mode)


def relabelled_keys(data, plans, relabel):
    """Plan keys after moving node ``v`` to ``relabel[v]``."""
    return {
        plan_key(
            data,
            Plan(p.mode, tuple(
                BlockInstance(i.tag, tuple(relabel[v] for v in i.nodes))
                for i in p.instances
            )),
        )
        for p in plans
    }


def parts_of(diagram):
    """Node -> part: the connected components with edges, and one more part
    holding every isolated node."""
    part = list(range(diagram.node_count))

    def find(v):
        while part[v] != v:
            v = part[v]
        return v

    touched = set()
    for e in diagram.edges:
        touched.update((e.src, e.dst))
        part[find(e.src)] = find(e.dst)
    return {v: find(v) if v in touched else -1 for v in range(diagram.node_count)}


class TestDisjointUnions:
    @pytest.mark.parametrize(
        "ids, isolated",
        [(("1", "4"), 0), (("5", "9"), 0), (("6", "7"), 0), (("16", "17"), 0),
         (("1", "11"), 4)],
    )
    def test_plans_are_the_product_of_the_parts(self, data, ids, isolated):
        parts = [catalog_entry(i).diagram for i in ids]
        if isolated:
            parts.append(make_diagram(isolated, [], mode=parts[0].mode))
        counts = [len(enumerate_decompositions(d, data).plans) for d in parts]
        target = disjoint_union(*parts)
        result = enumerate_decompositions(target, data)
        assert not result.truncated
        assert len(result.plans) == prod(counts)
        for plan in result.plans:
            assert glue(data, plan).diagram == target

        # Swapping the two parts, or shuffling every node id, only renames the
        # plans.
        first, second = parts[0].node_count, parts[1].node_count
        swapped = disjoint_union(parts[1], parts[0], *parts[2:])
        to_target = [
            v + first if v < second else v - second if v < first + second else v
            for v in range(target.node_count)
        ]
        shuffled = list(range(target.node_count))
        Random(len(shuffled)).shuffle(shuffled)
        back = [shuffled.index(v) for v in range(target.node_count)]
        keys = [plan_key(data, p) for p in result.plans]
        for other, relabel in (
            (swapped, to_target),
            (relabel_diagram(target, shuffled), back),
        ):
            plans = enumerate_decompositions(other, data).plans
            assert relabelled_keys(data, plans, relabel) == set(keys)

    def test_limit_below_the_product_truncates(self, data):
        target = disjoint_union(catalog_entry("4").diagram, catalog_entry("9").diagram)
        full = enumerate_decompositions(target, data)
        assert len(full.plans) == 9 and not full.truncated
        for limit in (1, 4, 8):
            result = enumerate_decompositions(target, data, limit=limit)
            assert result.truncated
            assert len(result.plans) == limit
            assert set(result.plans) <= set(full.plans)
            for plan in result.plans:
                assert glue(data, plan).diagram == target

    def test_truncation_builds_at_most_limit_plus_one_combinations(self, data):
        # 2**16 combined plans; only the first 101 are built.
        cycle = make_diagram(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        target = disjoint_union(*[cycle] * 16)
        result = enumerate_decompositions(target, data, limit=100)
        assert result.truncated and len(result.plans) == 100
        for plan in result.plans:
            assert glue(data, plan).diagram == target

    def test_decomposability_does_not_build_the_product(self, data):
        # 2**20 combined plans; every part decomposes on its own.
        cycle = make_diagram(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        assert is_decomposable(disjoint_union(*[cycle] * 20), data)
        assert not is_decomposable(disjoint_union(*[cycle] * 20, isolated=1), data)

    def test_a_part_without_plans_empties_the_result(self, data):
        # Entry 1 decomposes; the lone isolated node cannot be covered.
        target = disjoint_union(catalog_entry("1").diagram, make_diagram(3, [(0, 1, 1)]))
        result = enumerate_decompositions(target, data)
        assert result.plans == () and not result.truncated
        assert not is_decomposable(target, data)
        # The search stops at the isolated node, the last part.
        assert [(s.nodes, s.plans) for s in result.stats] == [(2, 1), (3, 2), (1, 0)]


    def test_isolated_part_is_searched_last(self, data, monkeypatch):
        """A component without a plan ends the search before the isolated
        nodes, which have many plans, are enumerated."""
        # A 25-node path with five more leaves on node 0, then ten isolated
        # nodes: node 0 has six arrows out, more than two blocks can give it.
        edges = [(i, i + 1, 1) for i in range(24)] + [(0, 25 + j, 1) for j in range(5)]
        target = make_diagram(40, edges)
        searched = []
        part_plans = decompose._part_plans

        def spy(diagram, nodes, data, limit):
            searched.append(nodes)
            return part_plans(diagram, nodes, data, limit)

        monkeypatch.setattr(decompose, "_part_plans", spy)
        result = enumerate_decompositions(target, data)
        assert result.plans == () and not result.truncated
        assert not is_decomposable(target, data)
        assert searched == [tuple(range(30))] * 2

    def test_truncated_product_takes_the_parts_smallest_first(self, data):
        """The isolated part is searched last but keeps its place by size in
        the product, which fixes the plans a truncated result holds."""
        # A two-in two-out star (3 plans) and four isolated nodes (3 plans).
        target = make_diagram(9, [(0, 1, 1), (0, 2, 1), (3, 0, 1), (4, 0, 1)])
        result = enumerate_decompositions(target, data, limit=2)
        assert result.truncated
        assert [plan_key(data, p) for p in result.plans] == [
            "quiver|Infork:0,3,4;Outfork:0,1,2;Spike:5,6;Spike:6,5;Spike:7,8;Spike:8,7",
            "quiver|Spike:1,3;Spike:2,4;Spike:5,6;Spike:6,5;Spike:7,8;Spike:8,7;"
            "Triangle:0,1,3;Triangle:0,2,4",
        ]


def random_targets(data):
    """The glued diagrams of 40 ``random_plan`` draws, alternating modes."""
    rng = Random(2024)
    return [
        glue(data, random_plan(data, QUIVER if i % 2 else S_DIAGRAM, rng)).diagram
        for i in range(40)
    ]


def stats_totals(results):
    return {
        name: sum(getattr(stats, name) for result in results for stats in result.stats)
        for name in SearchStats.__dataclass_fields__
    }


class TestSearchStats:
    def test_catalog_totals(self, data):
        """The counts depend on the search tree alone, so a change to the
        search that keeps the tree keeps them."""
        results = [enumerate_decompositions(e.diagram, data) for e in load_catalog()]
        assert len(results) == 18
        assert stats_totals(results) == {
            "nodes": 76, "states": 234, "dedup_hits": 37, "expansions": 204,
            "dead_ends": 73, "placements": 305, "plans": 48,
        }

    def test_random_plan_totals(self, data):
        results = [enumerate_decompositions(d, data) for d in random_targets(data)]
        assert stats_totals(results) == {
            "nodes": 328, "states": 716, "dedup_hits": 68, "expansions": 676,
            "dead_ends": 415, "placements": 957, "plans": 105,
        }

    @pytest.mark.parametrize("mode", [QUIVER, S_DIAGRAM])
    def test_isolated_part_totals(self, data, mode):
        """The tree of an edgeless diagram, whose pivots never have an
        unsettled pair; both modes walk the same one."""
        whole = enumerate_decompositions(make_diagram(7, [], mode), data)
        assert len(whole.plans) == 105 and not whole.truncated
        assert stats_totals([whole]) == {
            "nodes": 7, "states": 972, "dedup_hits": 324, "expansions": 868,
            "dead_ends": 93, "placements": 1296, "plans": 105,
        }
        cut = enumerate_decompositions(make_diagram(10, [], mode), data, limit=50)
        assert len(cut.plans) == 50 and cut.truncated
        assert stats_totals([cut]) == {
            "nodes": 10, "states": 554, "dedup_hits": 180, "expansions": 504,
            "dead_ends": 70, "placements": 917, "plans": 51,
        }

    def test_one_record_per_part_in_search_order(self, data):
        # A two-in two-out star (3 plans), then four isolated nodes (3 plans).
        target = make_diagram(9, [(0, 1, 1), (0, 2, 1), (3, 0, 1), (4, 0, 1)])
        result = enumerate_decompositions(target, data)
        assert [(s.nodes, s.plans) for s in result.stats] == [(5, 3), (4, 3)]
        for s in result.stats:
            # Every pushed state is complete, and a plan, or expanded; the
            # root is expanded too.
            assert s.states == s.plans + s.expansions - 1
            assert s.dead_ends < s.expansions
        # The counts do not take part in comparing results.
        assert result == DecomposeResult(result.plans, result.truncated)


def reference_extensions(search, pivot):
    """The placements of ``search`` at ``pivot``, sorted, as a kernel that
    walks every placement order of every template and cuts a closing label
    only when its node has more unsettled pairs than the label has edges.
    It reads the search's state and touches none of its counters."""
    state, final, open_nets = search.state, search.final, search.open_nets
    covers, blacks, nets = state.covers, state.blacks, state.nets
    unsettled_at, neighbours, balls = search.unsettled_at, search.neighbours, search.balls
    out = set()
    covered, count = covers[pivot], unsettled_at[pivot]
    closed = covered > 1 or blacks[pivot]
    for template in search.reference_templates:
        is_black, degrees = template.blacks, template.degrees
        for start, steps in template.placement_orders:
            black = is_black[start]
            if covered and (closed or black):
                continue
            if (covered or black) and count > degrees[start]:
                continue
            nodes = [pivot] * len(is_black)
            if not steps:
                out.add(canonical_instance(search.data, BlockInstance(template.tag, tuple(nodes))))
                continue
            placed = [pivot]
            candidates = [iter(())] * len(steps)
            depth, descended = 0, True
            while depth >= 0:
                pos, anchor, adjacent, edges = steps[depth]
                if descended:
                    near = nodes[anchor]
                    ring = neighbours[near] if adjacent else balls[near] or search._ball(near)
                    candidates[depth] = iter(ring)
                    descended = False
                black, degree = is_black[pos], degrees[pos]
                for node in candidates[depth]:
                    if node in placed:
                        continue
                    c = covers[node]
                    if c and (c > 1 or black or blacks[node]):
                        continue
                    if (c or black) and unsettled_at[node] > degree:
                        continue
                    nodes[pos] = node
                    for f, t, w, hard in edges:
                        a, b = nodes[f], nodes[t]
                        key, net = net_with_arrow(nets, a, b, w)
                        allowed = final.get(key, NO_EDGE)
                        if not (hard or covers[a] or covers[b]):
                            allowed = open_nets[allowed]
                        if net not in allowed:
                            break
                    else:
                        if depth + 1 < len(steps):
                            placed.append(node)
                            depth, descended = depth + 1, True
                            break
                        inst = BlockInstance(template.tag, tuple(nodes))
                        out.add(canonical_instance(search.data, inst))
                else:
                    depth -= 1
                    placed.pop()
    return sorted(out)


@pytest.fixture
def checked_kernel(monkeypatch):
    """Make every expansion of the search compare its placements with
    :func:`reference_extensions`, and check that each carries its interned
    id; yields the list of checked expansions' pivots."""
    init, kernel = decompose._Search.__init__, decompose._Search._extensions
    checked = []

    def spy_init(self, diagram, data, limit):
        init(self, diagram, data, limit)
        self.reference_templates = [data.template(t) for t in data.tags_for_mode(diagram.mode)]

    def spy(self, pivot):
        expected = reference_extensions(self, pivot)
        extensions = kernel(self, pivot)
        assert [inst for inst, _ in extensions] == expected, pivot
        assert all(self.instances[i] == inst for inst, i in extensions)
        checked.append(pivot)
        return extensions

    monkeypatch.setattr(decompose._Search, "__init__", spy_init)
    monkeypatch.setattr(decompose._Search, "_extensions", spy)
    return checked


class TestKernel:
    """The kernel against :func:`reference_extensions`, expansion by
    expansion, on the trees the search counts pin."""

    def test_catalog(self, data, checked_kernel):
        results = [enumerate_decompositions(e.diagram, data) for e in load_catalog()]
        assert len(checked_kernel) == stats_totals(results)["expansions"] == 204

    def test_random_plans(self, data, checked_kernel):
        results = [enumerate_decompositions(d, data) for d in random_targets(data)]
        assert len(checked_kernel) == stats_totals(results)["expansions"] == 676

    @pytest.mark.parametrize("mode", [QUIVER, S_DIAGRAM])
    def test_edgeless(self, data, checked_kernel, mode):
        result = enumerate_decompositions(make_diagram(7, [], mode), data)
        assert len(checked_kernel) == stats_totals([result])["expansions"] == 868


@pytest.fixture
def default_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)


def triangle_chain(triangles):
    """Oriented triangles in a row, each sharing its last node with the next."""
    edges = [
        e
        for j in range(triangles)
        for e in ((2 * j, 2 * j + 1, 1), (2 * j + 1, 2 * j + 2, 1), (2 * j + 2, 2 * j, 1))
    ]
    return make_diagram(2 * triangles + 1, edges)


class TestScale:
    @pytest.mark.parametrize(
        "target",
        [make_diagram(1000, [(i, i + 1, 1) for i in range(999)]), triangle_chain(500)],
        ids=["path-1000", "triangle-chain-1001"],
    )
    def test_plan_of_a_thousand_blocks(self, data, target, default_recursion_limit):
        """One plan of about a thousand blocks, found in under a second at the
        default recursion limit."""
        start = time.perf_counter()
        result = enumerate_decompositions(target, data)
        assert time.perf_counter() - start < 1.0
        assert len(result.plans) == 1 and not result.truncated
        assert glue(data, result.plans[0]).diagram == target


def neighbours(diagram):
    near = [set() for _ in range(diagram.node_count)]
    for e in diagram.edges:
        near[e.src].add(e.dst)
        near[e.dst].add(e.src)
    return near


class TestPartLemma:
    @pytest.mark.parametrize(
        "mode, max_blocks, max_nodes", [(QUIVER, 4, 7), (S_DIAGRAM, 4, 6)]
    )
    def test_no_instance_leaves_its_part(self, data, mode, max_blocks, max_nodes):
        """The lemma the component split rests on, on every oracle plan within
        the budget: each instance lies inside one part of the glued diagram."""
        plans = 0
        for plan, *_ in enumerate_plans(data, mode, max_blocks, max_nodes):
            part = parts_of(glue(data, plan).diagram)
            for inst in plan.instances:
                assert len({part[v] for v in inst.nodes}) == 1, plan_key(data, plan)
            plans += 1
        assert plans > 1000

    @pytest.mark.parametrize(
        "mode, max_blocks, max_nodes", [(QUIVER, 4, 7), (S_DIAGRAM, 4, 6)]
    )
    def test_template_edges_stay_within_distance_two(self, data, mode, max_blocks, max_nodes):
        """The corollary the search draws its candidates from, on every oracle
        plan within the budget: each template edge of an instance joins two
        isolated nodes or two nodes at target distance at most 2, and at
        distance 1 when an end is black."""
        plans = 0
        for plan, *_ in enumerate_plans(data, mode, max_blocks, max_nodes):
            near = neighbours(glue(data, plan).diagram)
            for inst in plan.instances:
                template = data.template(inst.tag)
                for f, t, _ in template.index_edges:
                    a, b = inst.nodes[f], inst.nodes[t]
                    if BLACK in (template.colors[f], template.colors[t]):
                        assert b in near[a], plan_key(data, plan)
                    else:
                        close = b in near[a] or near[a] & near[b]
                        assert close or not near[a] and not near[b], plan_key(data, plan)
            plans += 1
        assert plans > 1000

    @pytest.mark.parametrize(
        "tag, block",
        [
            # Connected, but the Spike arrow 1 -> 0 cancels the path's 0 -> 1
            # and leaves node 0 isolated.
            ("Path", "block Path\nnode 1 white\nnode 2 white\nnode 3 white\n"
             "edge 1 2 1\nedge 2 3 1\npiece triangle\n"),
            # Disconnected: one instance could span two components.
            ("Apart", "block Apart\nnode 1 white\nnode 2 white\nnode 3 white\n"
             "edge 2 1 1\npiece triangle\n"),
        ],
        ids=["connected", "disconnected"],
    )
    def test_data_that_breaks_the_lemma_is_rejected(self, tag, block):
        """Block data whose templates fail the lemma's conditions does not
        load: the search relies on them to split the target into parts."""
        text = resources.files("blockdec.data").joinpath("blocks.txt").read_text()
        with pytest.raises(BlockDataError, match=tag):
            parse_block_data(text + block)
