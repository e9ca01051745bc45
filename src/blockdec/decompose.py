"""Enumerating block decompositions of a target diagram.

A decomposition is a plan (multiset of block instances on the diagram's nodes)
that glues exactly to the target.  The search is a backtracking enumeration:

* The state of a partial plan is one :class:`~blockdec.gluing.GlueState`
  (per-node slot usage and per-pair signed (unit, heavy) nets), compared
  per pair against the nets :func:`~blockdec.gluing.target_nets` allows.
  Descending into a placement pushes it onto the state; coming back pops it.
* A pair *freezes* as soon as either endpoint can accept no further block:
  no future instance can contribute an arrow there, so a frozen pair whose
  net does not realise the target edge kills the branch.
* Branching happens at a single *pivot* node per state -- the lowest open node
  touching an unsettled pair, else the lowest uncovered node.  Every valid
  completion must place a block on the pivot, so branching over all placements
  there is exhaustive; a visited set of partial plans, each a sorted tuple of
  interned canonical instances, removes the reorderings of one multiset.
* A state with every node covered and every pair realised is emitted -- and
  never extended: any strict superset would need two extra slots per touched
  node, which coverage has already spent.

Plans are reported in canonical form, deduplicated modulo template
automorphisms, sorted by their plan key.

The search runs once per *part* of the target: each connected component that
has edges is a part, and all isolated nodes together form one more part.  A
decomposition of the whole is one decomposition of each part, so the result
is the Cartesian product of the parts' plan lists.  This rests on a lemma:

    In a plan that glues to a diagram, every block instance lies inside one
    part, provided (1) every template is connected, and (2) wherever an
    instance J cancels the arrow of an instance I between white nodes a and
    b, the net of I + J leaves a and b either both without arrows or with
    arrows to one common node.

Proof.  Take an instance I and an edge of its template, placed on the nodes
a and b.  If the plan's net on {a, b} is nonzero, the plan glues only if the
diagram has that edge, so a and b share a component.  Otherwise another
instance J cancels I's arrow there.  A black slot cannot be shared, and a
node takes at most two white slots, so a and b are white in I and J and lie
in no third instance.  Every arrow at a or at b therefore comes from I or J,
and the diagram's edges at a and b are exactly the nonzero nets of I + J
there.  By (2), either a and b are both isolated, or both are joined to one
node and share a component.  So each template edge of I joins two nodes of
one part, and since the template is connected by (1), all of I lies in one
part.  So a plan of the whole, cut along the parts, gives one plan of each
part; and plans of the parts share no node and put no arrow between parts,
so their union glues to the whole.

Connectivity alone is not enough: a white path 0 -> 1 -> 2 and a white arrow
1 -> 0 glue to the single edge 1 -> 2 plus the isolated node 0.
:func:`blockdec.blocks.parse_block_data` checks (1) and (2) per mode by
trying every way two templates can cancel an arrow, and records the modes
that pass in ``BlockData.split_modes``; in any other mode the whole diagram
is searched as one part.  The bundled block data passes in both modes, and
``tests/test_decompose.py`` also checks the lemma on every plan the oracle
enumerates within small budgets.  Parts are searched smallest first, so a
diagram without a decomposition is usually rejected early.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, product

from .blocks import BLACK, WHITE, BlockData, BlockTemplate, load_block_data
from .diagram import Diagram, make_diagram
from .gluing import (
    BlockInstance, GlueState, Plan, canonical_instance, net_with_arrow, plan_key, target_nets,
)


@dataclass(frozen=True)
class DecomposeResult:
    plans: tuple[Plan, ...]  # canonical, sorted by plan key
    truncated: bool  # True when enumeration stopped at the limit


_NO_EDGE = frozenset({(0, 0)})


class _Search:
    def __init__(self, diagram: Diagram, data: BlockData, limit: int):
        self.data = data
        self.limit = limit
        self.n = diagram.node_count
        self.templates = [data.template(tag) for tag in data.tags_for_mode(diagram.mode)]
        # The nets one template arrow can add to a pair, in either direction.
        steps = {
            net_with_arrow({}, a, b, w)[1]
            for template in self.templates
            for _, _, w in template.index_edges
            for a, b in ((0, 1), (1, 0))
        }

        def reachable(nets: frozenset[tuple[int, int]]) -> frozenset[tuple[int, int]]:
            return nets | {(u - du, h - dh) for u, h in nets for du, dh in steps}

        # Per pair: the nets that may stand once it is frozen, and, while one
        # more block can still reach it, those plus the nets one arrow turns
        # into them.  A pair missing from ``final`` carries no target edge.
        self.final = target_nets(diagram)
        self.open = {pair: reachable(nets) for pair, nets in self.final.items()}
        self.open_no_edge = reachable(_NO_EDGE)
        self.state = GlueState(data, self.n)
        self.interned: dict[BlockInstance, BlockInstance] = {}
        self.visited: set[tuple[BlockInstance, ...]] = set()
        self.found: set[tuple[BlockInstance, ...]] = set()
        self.truncated = False

    # -- extension generation ---------------------------------------------------

    def _extensions(self, pivot: int) -> list[BlockInstance]:
        """All canonical single-block placements covering the pivot node."""
        state = self.state
        out: set[BlockInstance] = set()
        for template in self.templates:
            for start, steps in enumerate(template.placement_orders):
                if not state.accepts(pivot, template.colors[start]):
                    continue
                placement: dict[int, int] = {start: pivot}

                def assign(depth: int) -> None:
                    if depth == len(steps):
                        nodes = tuple(placement[i] for i in range(template.size))
                        inst = canonical_instance(
                            self.data, BlockInstance(template.tag, nodes)
                        )
                        out.add(self.interned.setdefault(inst, inst))
                        return
                    pos, edges = steps[depth]
                    color = template.colors[pos]
                    used = set(placement.values())
                    for node in range(self.n):
                        if node in used or not state.accepts(node, color):
                            continue
                        placement[pos] = node
                        if self._placement_ok(template, placement, edges):
                            assign(depth + 1)
                        del placement[pos]

                assign(1)
        return sorted(out)

    def _placement_ok(
        self,
        template: BlockTemplate,
        placement: dict[int, int],
        edges: tuple[tuple[int, int, int], ...],
    ) -> bool:
        """Check the pairs of ``edges``, whose labels were just placed, against
        the targets; the pairs of earlier steps passed already and cannot
        change within one extension.

        A pair freezes after this block if an endpoint's slots fill up, and
        its net must then be final.  Otherwise both endpoints keep one white
        slot, so at most one more block can add an arrow there.
        """
        covers, nets, colors = self.state.covers, self.state.nets, template.colors
        for fpos, tpos, w in edges:
            a, b = placement[fpos], placement[tpos]
            key, net = net_with_arrow(nets, a, b, w)
            if covers[a] or covers[b] or colors[fpos] == BLACK or colors[tpos] == BLACK:
                allowed = self.final.get(key, _NO_EDGE)
            else:
                allowed = self.open.get(key, self.open_no_edge)
            if net not in allowed:
                return False
        return True

    # -- search -----------------------------------------------------------------

    def _dfs(self, plan: tuple[BlockInstance, ...]) -> None:
        """Search below the plan on ``self.state``: its instances, sorted."""
        if self.truncated or plan in self.visited:
            return
        self.visited.add(plan)
        state = self.state
        unsettled = [
            pair
            for pair in set(self.final) | set(state.nets)
            if state.nets.get(pair, (0, 0)) not in self.final.get(pair, _NO_EDGE)
        ]

        # Dead end: an unsettled pair with a closed endpoint is frozen.
        if any(not state.accepts(node, WHITE) for pair in unsettled for node in pair):
            return

        if plan and not unsettled and all(state.covers):
            self.found.add(plan)
            if len(self.found) > self.limit:
                self.truncated = True
            return

        # The pivot: the lowest endpoint of an unsettled pair (every one is
        # open or uncovered by now), else the lowest uncovered node.
        pivot = min(unsettled)[0] if unsettled else state.covers.index(0)
        for inst in self._extensions(pivot):
            state.push(inst)
            self._dfs(tuple(sorted(plan + (inst,))))
            state.pop()


def _parts(diagram: Diagram, data: BlockData) -> list[tuple[int, ...]]:
    """The node sets searched on their own, smallest first: each connected
    component with edges, and all isolated nodes together.  Where the block
    data does not meet the part lemma's conditions, the whole diagram is the
    only part."""
    if diagram.mode not in data.split_modes:
        return [tuple(range(diagram.node_count))] if diagram.node_count else []
    components = diagram.components()
    parts = [c for c in components if len(c) > 1]
    isolated = tuple(c[0] for c in components if len(c) == 1)
    if isolated:
        parts.append(isolated)
    return sorted(parts, key=lambda part: (len(part), part))


def _part_plans(
    diagram: Diagram, nodes: tuple[int, ...], data: BlockData, limit: int
) -> tuple[list[tuple[BlockInstance, ...]], bool]:
    """The plans of one part on the original node ids, sorted as tuples, and
    whether its search was truncated.

    A part smaller than the diagram is relabelled to ``0..k-1`` in increasing
    node order and its plans are mapped back.  Both maps are increasing, so
    they keep canonical instances canonical and sorted plans sorted.
    """
    if len(nodes) == diagram.node_count:
        part = diagram
    else:
        index = {node: i for i, node in enumerate(nodes)}
        edges = [
            (index[e.src], index[e.dst], e.weight)
            for e in diagram.edges
            if e.src in index
        ]
        part = make_diagram(len(nodes), edges, diagram.mode)
    search = _Search(part, data, limit)
    search._dfs(())
    plans = sorted(search.found)
    if part is not diagram:
        plans = [
            tuple(BlockInstance(i.tag, tuple(nodes[v] for v in i.nodes)) for i in plan)
            for plan in plans
        ]
    return plans, search.truncated


def enumerate_decompositions(
    diagram: Diagram,
    data: BlockData | None = None,
    *,
    limit: int = 10000,
    threads: int = 1,
) -> DecomposeResult:
    """All inequivalent decompositions of ``diagram``, sorted by plan key.

    Each part of the diagram (a connected component with edges, or the set of
    all isolated nodes) is searched on its own, smallest first, and the plans
    of the whole are the Cartesian product of the parts' plans.  If a part
    has no plan, neither has the diagram, and the result is empty and not
    truncated.  The result is truncated and flagged when a part's search
    stops at ``limit`` or the product has more than ``limit`` plans; it then
    holds ``limit`` valid plans, sorted by plan key, and which ones is
    unspecified.  The search is serial; ``threads`` is accepted for
    compatibility and changes neither the output nor the work.
    """
    if data is None:
        data = load_block_data()
    lists = []
    truncated = False
    for nodes in _parts(diagram, data):
        plans, part_truncated = _part_plans(diagram, nodes, data, limit)
        if not plans:
            return DecomposeResult((), False)
        lists.append(plans)
        truncated = truncated or part_truncated
    if not lists:
        return DecomposeResult((), False)

    # At most limit + 1 combinations are built: a truncated part holds
    # limit + 1 plans, so a lone part is cut exactly as a whole search is.
    choices = islice(product(*lists), limit + 1)
    plans = sorted(
        (Plan(diagram.mode, tuple(sorted(chain.from_iterable(choice)))) for choice in choices),
        key=lambda p: plan_key(data, p),
    )
    if len(plans) > limit:
        plans, truncated = plans[:limit], True
    return DecomposeResult(tuple(plans), truncated)


def is_decomposable(
    diagram: Diagram, data: BlockData | None = None
) -> bool:
    """Whether at least one block decomposition exists, that is, whether
    every part of the diagram has one; the product is never built."""
    if data is None:
        data = load_block_data()
    parts = _parts(diagram, data)
    return bool(parts) and all(_part_plans(diagram, nodes, data, 1)[0] for nodes in parts)
