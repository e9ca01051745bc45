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
* The search keeps the set of *unsettled* pairs, whose net the target does
  not allow, and a count of them per node.  A push or pop updates only the
  pairs the block's edges touch.  A placement that would close a node with
  an unsettled pair is a dead end: a closed node takes no further block, so
  its pairs never change again.  Only the block's own nodes can close, and
  the block's edges at a closing node must settle every unsettled pair
  there, so such a label needs exactly as many edges as the node has
  unsettled pairs; that equality is checked before any edge.
* Branching happens at a single *pivot* node per state -- the lowest node of
  an unsettled pair, else the lowest uncovered node.  Every valid completion
  must place a block on the pivot, so branching over all placements there is
  exhaustive; a visited set of live partial plans, each a sorted tuple of
  interned instances, removes the reorderings of one multiset.
* A placement puts one label per automorphism orbit of its template on the
  pivot and places the other labels breadth first.  Each joins a placed
  node by a template edge, and the corollary below bounds its candidates:
  that node's target neighbours if an end of the edge is black, else its
  distance-2 ball, or every isolated node if it is isolated.  So a state
  costs time in the size of a block, not of the diagram.
* The block data compiles these walks once, when it loads: per template,
  its black labels, edge degrees and placement orders, each step with its
  anchor label, whether its candidates are the anchor's neighbours only,
  and its joining edges, each flagged when an end is black
  (:class:`~blockdec.blocks.PlacementStep`); per mode, the nets one more
  arrow can still turn into a target's and one flat list of the placement
  orders (:class:`~blockdec.blocks.ModeTables`).  A state's placements are
  one loop over that list, each kept as its tag and canonical nodes.
* A state with every node covered and every pair realised is emitted -- and
  never extended: any strict superset would need two extra slots per touched
  node, which coverage has already spent.
* The tree is walked in pre-order with children in sorted order, on an
  explicit stack, so the depth of a plan is not bounded by the interpreter's
  recursion limit.

Plans are reported in canonical form, deduplicated modulo template
automorphisms, sorted by their plan key.  The search also reports its
counts, one :class:`SearchStats` per part (below): states, dedup hits,
expansions and dead ends, placements completed, and plans.

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

Corollary.  Under (1) and (2), each template edge of an instance I in a plan
that glues to a diagram joins two nodes a and b that are both isolated or at
distance at most 2 in the diagram, and at distance 1 if a or b is black in I.

Proof.  In the proof above, a nonzero net on {a, b} puts the edge a - b in
the diagram, and a net that cancels leaves a and b both isolated or both
joined to one node.  A node black in I lies in no other instance, so then
the net on {a, b} is I's own arrow, which is not zero.

Connectivity alone is not enough: a white path 0 -> 1 -> 2 and a white arrow
1 -> 0 glue to the single edge 1 -> 2 plus the isolated node 0.
:func:`blockdec.blocks.parse_block_data` therefore rejects block data that
breaks (1) or (2), trying every way two templates can cancel an arrow.
``tests/test_decompose.py`` also checks the lemma and the corollary on every
plan the oracle expands within small budgets; those are all the plans up
to isomorphism, and neither statement depends on node names.  Components
are searched smallest first and the isolated nodes last, so a diagram
without a decomposition is usually rejected early: the isolated part has a plan
whenever it has two nodes or more, and often many.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, islice, product

from .blocks import BlockData
from .diagram import Diagram, make_diagram
from .gluing import (
    NO_EDGE, BlockInstance, GlueState, Plan, net_with_arrow, plan_key, target_nets,
)


@dataclass(frozen=True)
class SearchStats:
    """The counts of one part's search.  They depend on the part, the block
    data and the limit, not on the machine."""

    nodes: int  # nodes of the part
    states: int  # children pushed: partial plans entered
    dedup_hits: int  # children skipped as reorderings of a visited plan
    expansions: int  # states whose placements were generated
    dead_ends: int  # expansions with no placement
    placements: int  # placements completed
    plans: int  # plans found


@dataclass(frozen=True)
class DecomposeResult:
    plans: tuple[Plan, ...]  # canonical, sorted by plan key
    truncated: bool  # True when enumeration stopped at the limit
    # One record per part searched, in search order.
    stats: tuple[SearchStats, ...] = field(default=(), compare=False)


class _Search:
    """The search of one part; :meth:`run` fills ``found`` with its plans."""

    def __init__(self, diagram: Diagram, data: BlockData, limit: int):
        self.data = data
        self.limit = limit
        n = diagram.node_count
        tables = data.modes[diagram.mode]
        self.orders = tables.orders
        # Per pair: the nets that may stand once it is frozen.  A pair missing
        # here carries no target edge.  While one more block can still reach
        # a pair, ``open_nets`` of its final set may stand.
        self.final = target_nets(diagram)
        self.open_nets = tables.open_nets
        self.state = GlueState(data, n)

        # The pairs whose net the target does not allow, how many of them
        # touch each node, and how many nodes no block covers yet.
        self.unsettled = set(self.final)
        self.unsettled_at = [0] * n
        for a, b in self.final:
            self.unsettled_at[a] += 1
            self.unsettled_at[b] += 1
        self.uncovered = n

        # Per node, for the corollary: its target neighbours, and its
        # distance-2 ball, built on first use (every isolated node for an
        # isolated one).
        near: list[set[int]] = [set() for _ in range(n)]
        for e in diagram.edges:
            near[e.src].add(e.dst)
            near[e.dst].add(e.src)
        self.neighbours = [tuple(sorted(s)) for s in near]
        self.lonely = tuple([v for v in range(n) if not near[v]])
        self.balls: list[tuple[int, ...] | None] = [None] * n

        # Instances are interned to ids by their (tag, nodes) key; a partial
        # plan is the sorted tuple of its instances' ids.
        self.ids: dict[tuple[str, tuple[int, ...]], int] = {}
        self.instances: list[BlockInstance] = []
        self.visited: set[tuple[int, ...]] = set()
        self.found: set[tuple[BlockInstance, ...]] = set()
        self.truncated = False
        self.states = self.dedup_hits = self.expansions = 0
        self.dead_ends = self.placements = 0

    # -- extension generation ---------------------------------------------------

    def _extensions(self, pivot: int) -> list[tuple[BlockInstance, int]]:
        """All canonical single-block placements covering the pivot node that
        strand no unsettled pair, sorted, each with its id.

        Each placement order of the mode puts its start label on the pivot
        and walks its steps depth first, one candidate iterator per step.  A
        candidate must be unused in the placement and accept the label's
        slot.  A label that closes its node needs exactly as many template
        edges as the node has unsettled pairs (below); labels that fail this
        are cut at once.  Then the pairs of the step's joining edges are
        checked against the targets; the pairs of earlier
        steps passed already and cannot change within one extension.  A pair
        freezes after this block if an endpoint is black in it or covered
        already, and its net must then be final.  Otherwise both endpoints
        keep one white slot, so at most one more block can add an arrow
        there.

        No completed placement strands a pair at a node it closes, so none
        is checked again, and the cut drops no completed placement.  Each
        template edge at a closing label lands on a pair that freezes with a
        final net, and no final net set holds two nets one arrow apart, so
        that pair was unsettled before; templates have no parallel edges, so
        these pairs are distinct.  The label's edges thus number at most the
        node's unsettled pairs, and they must settle every one, so they
        number exactly as many.
        """
        state, final, open_nets = self.state, self.final, self.open_nets
        covers, blacks, nets = state.covers, state.blacks, state.nets
        unsettled_at, neighbours, balls = self.unsettled_at, self.neighbours, self.balls
        out: set[tuple[str, tuple[int, ...]]] = set()
        placements = 0
        # The pivot's slot use and unsettled pairs, which every start label meets.
        covered, count = covers[pivot], unsettled_at[pivot]
        closed = covered > 1 or blacks[pivot]
        for tag, is_black, degrees, canonical, start, steps in self.orders:
            black = is_black[start]
            if covered and (closed or black):
                continue
            if (covered or black) and count != degrees[start]:
                continue
            nodes = [pivot] * len(is_black)
            if not steps:
                placements += 1
                out.add((tag, canonical(tuple(nodes))))
                continue
            placed = [pivot]  # the nodes of the start and of the steps before ``depth``
            candidates = [iter(())] * len(steps)
            depth, descended = 0, True
            while depth >= 0:
                pos, anchor, adjacent, edges = steps[depth]
                if descended:
                    near = nodes[anchor]
                    ring = neighbours[near] if adjacent else balls[near] or self._ball(near)
                    candidates[depth] = iter(ring)
                    descended = False
                black, degree = is_black[pos], degrees[pos]
                for node in candidates[depth]:
                    if node in placed:
                        continue
                    c = covers[node]
                    if c and (c > 1 or black or blacks[node]):
                        continue
                    if (c or black) and unsettled_at[node] != degree:
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
                        placements += 1
                        out.add((tag, canonical(tuple(nodes))))
                else:
                    depth -= 1
                    placed.pop()
        self.placements += placements
        self.expansions += 1
        self.dead_ends += not out
        ids, instances = self.ids, self.instances
        for key in sorted(out.difference(ids)):
            ids[key] = len(instances)
            instances.append(BlockInstance(*key))
        return [(instances[i], i) for i in map(ids.__getitem__, sorted(out))]

    def _ball(self, node: int) -> tuple[int, ...]:
        """The distance-2 ball of ``node`` without it, ascending, or every
        isolated node if it is isolated; built once per node."""
        near = self.neighbours
        ring = set(near[node]).union(*(near[u] for u in near[node]))
        ring.discard(node)
        ball = self.balls[node] = tuple(sorted(ring)) if ring else self.lonely
        return ball

    # -- search state -----------------------------------------------------------

    def _resettle(self, inst: BlockInstance, sign: int) -> None:
        """Update ``unsettled`` on the pairs that the edges of ``inst``, just
        pushed (``sign`` 1) or popped (-1), touch, and ``uncovered`` on its
        nodes: a node now covered once was uncovered, one covered no more is."""
        final, unsettled, count = self.final, self.unsettled, self.unsettled_at
        nets, covers, nodes = self.state.nets, self.state.covers, inst.nodes
        self.uncovered -= sign * [covers[v] for v in nodes].count(1 if sign > 0 else 0)
        for f, t, _ in self.data.template(inst.tag).edges:
            a, b = nodes[f], nodes[t]
            pair = (a, b) if a < b else (b, a)
            settled = nets.get(pair, (0, 0)) in final.get(pair, NO_EDGE)
            if settled != (pair in unsettled):
                continue
            if settled:
                unsettled.remove(pair)
                count[a] -= 1
                count[b] -= 1
            else:
                unsettled.add(pair)
                count[a] += 1
                count[b] += 1

    def _pivot(self) -> int:
        """The lowest endpoint of an unsettled pair, else the lowest uncovered
        node."""
        return min(self.unsettled)[0] if self.unsettled else self.state.covers.index(0)

    # -- search -----------------------------------------------------------------

    def run(self) -> None:
        """Walk the search tree in pre-order, children in sorted order, on an
        explicit stack of (plan, remaining children) frames; the state holds
        the instances of the top frame's plan."""
        stack = [((), iter(self._extensions(self._pivot())))]
        while stack:
            plan, children = stack[-1]
            for inst, i in children:
                at = bisect_left(plan, i)
                child = plan[:at] + (i,) + plan[at:]
                if child in self.visited:
                    self.dedup_hits += 1
                    continue
                self.state.push(inst)
                self._resettle(inst, 1)
                self.visited.add(child)
                self.states += 1
                if self.unsettled or self.uncovered:
                    stack.append((child, iter(self._extensions(self._pivot()))))
                    break
                # Complete: emitted, and never extended.
                self.found.add(tuple(sorted(self.instances[j] for j in child)))
                self._resettle(self.state.pop(), -1)
                if len(self.found) > self.limit:
                    self.truncated = True
                    return
            else:
                stack.pop()
                if stack:
                    self._resettle(self.state.pop(), -1)


def _parts(diagram: Diagram) -> list[tuple[int, ...]]:
    """The node sets searched on their own, in search order: each connected
    component with edges, smallest first, then all isolated nodes together.
    The isolated part comes last: it has a plan whenever it has two nodes or
    more, and often many, so a component without one ends the search
    before they are enumerated."""
    components = diagram.components()
    parts = sorted((c for c in components if len(c) > 1), key=lambda part: (len(part), part))
    isolated = tuple(c[0] for c in components if len(c) == 1)
    if isolated:
        parts.append(isolated)
    return parts


def _part_plans(
    diagram: Diagram, nodes: tuple[int, ...], data: BlockData, limit: int
) -> tuple[list[tuple[BlockInstance, ...]], bool, SearchStats]:
    """The plans of one part on the original node ids, sorted as tuples,
    whether its search was truncated, and its counts.

    A part smaller than the diagram is relabelled to ``0..k-1`` in increasing
    node order and its plans are mapped back.  Both maps are increasing, so
    they keep canonical instances canonical and sorted plans sorted.
    """
    if len(nodes) == diagram.node_count:
        part = diagram
    else:
        index = {node: i for i, node in enumerate(nodes)}
        edges = [(index[e.src], index[e.dst], e.weight) for e in diagram.edges if e.src in index]
        part = make_diagram(len(nodes), edges, diagram.mode)
    search = _Search(part, data, limit)
    search.run()
    plans = sorted(search.found)
    stats = SearchStats(
        len(nodes), search.states, search.dedup_hits, search.expansions,
        search.dead_ends, search.placements, len(plans),
    )
    if part is not diagram:
        plans = [
            tuple([BlockInstance(i.tag, tuple([nodes[v] for v in i.nodes])) for i in plan])
            for plan in plans
        ]
    return plans, search.truncated, stats


def enumerate_decompositions(
    diagram: Diagram,
    data: BlockData,
    *,
    limit: int = 10000,
    threads: int = 1,
) -> DecomposeResult:
    """All inequivalent decompositions of ``diagram``, sorted by plan key.

    Each part of the diagram (a connected component with edges, or the set of
    all isolated nodes) is searched on its own: the components smallest
    first, then the isolated nodes.  The plans of the whole are the Cartesian
    product of the parts' plans.  If a part has no plan, neither has the
    diagram, the search stops there, and the result is empty and not
    truncated.  The result is truncated and flagged when a part's search
    stops at ``limit`` or the product has more than ``limit`` plans; it then
    holds ``limit`` valid plans, sorted by plan key, and which ones is
    unspecified.  The search is serial; ``threads`` is accepted for
    compatibility and changes neither the output nor the work.
    """
    part_plans = {}
    truncated = False
    stats = []
    for nodes in _parts(diagram):
        plans, part_truncated, part_stats = _part_plans(diagram, nodes, data, limit)
        stats.append(part_stats)
        if not plans:
            return DecomposeResult((), False, tuple(stats))
        part_plans[nodes] = plans
        truncated = truncated or part_truncated
    if not part_plans:
        return DecomposeResult((), False)

    # The product runs over the parts smallest first, the isolated part in
    # its place by size, which fixes which combinations a truncated result
    # holds.  At most limit + 1 of them are built: a truncated part holds
    # limit + 1 plans, so a lone part is cut exactly as a whole search is.
    lists = [part_plans[nodes] for nodes in sorted(part_plans, key=lambda p: (len(p), p))]
    choices = islice(product(*lists), limit + 1)
    plans = sorted(
        (Plan(diagram.mode, tuple(sorted(chain.from_iterable(choice)))) for choice in choices),
        key=lambda p: plan_key(data, p),
    )
    if len(plans) > limit:
        plans, truncated = plans[:limit], True
    return DecomposeResult(tuple(plans), truncated, tuple(stats))


def is_decomposable(diagram: Diagram, data: BlockData) -> bool:
    """Whether at least one block decomposition exists: the search of
    :func:`enumerate_decompositions` at limit 1, which stops at the first
    part without a plan."""
    return bool(enumerate_decompositions(diagram, data, limit=1).plans)
