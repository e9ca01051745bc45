"""Exhaustive plan enumeration: the brute-force oracle.

The oracle enumerates the gluable plans up to a block budget over abstract
nodes (numbered in first-use order), reads each plan's diagram off the gluing
state its search holds, and files the diagram under its canonical key together
with the plan mapped into canonical coordinates, as a sorted tuple of
canonical instances.  That pair is the plan's *entry*; the search expands one
plan per entry, so it reaches every plan up to isomorphism, but not every
automorphic image of one.  The index lives in memory only.  Looking a key up
closes the stored plans under the diagram's automorphisms, which restores
those images: one abstract plan can stand for several concrete placements on
a symmetric diagram.  The closure is an orbit search under the generators of
the automorphism group that the canonical labelling finds in the same search
as the key, so the group itself is never listed.

The full index, over every plan, is the differential tests' ground truth.
``sweep`` needs connected diagrams only, so it builds the index over
overlap-connected plans alone, where each block after the first shares a node
with an earlier one: every connected diagram keeps all its entries, and about
half the children are never built.  At each key's first plan,
:func:`build_index` keeps the generators, and with ``connected`` it drops the
key if its diagram is disconnected, so no diagram is rebuilt from its key.

Before a child is glued, a cheap isomorphism-invariant score gates it, in the
manner of canonical augmentation: the child is built only if the instance
just added scores at least as high as every instance whose removal leaves a
plan the walk reaches.  Every plan class is still reached (see
:func:`enumerate_plans`).  Without the gate, more than half the children
``sweep`` glues and labels only reach an entry already visited; with it,
``sweep`` builds about 45% fewer children.

The walk keeps its state in one small class, :class:`_Walk`, whose methods
recurse; no closure refers to itself, so the walk leaves no cyclic garbage
and its visited set is freed as soon as it ends.

The decomposition search in :mod:`blockdec.decompose` can then be audited
against ground truth that was produced without any of its pruning logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .blocks import BlockData
from .diagram import canonical_form, orbit
from .gluing import (
    WHITE,
    BlockInstance,
    GlueState,
    Plan,
    _check_instances,
    canonical_instance,
)

PlanTuple = tuple[BlockInstance, ...]
Generators = tuple[tuple[int, ...], ...]


def enumerate_plans(
    data: BlockData,
    mode: str,
    max_blocks: int,
    max_nodes: int,
    connected: bool = False,
):
    """Yield ``(plan, diagram, key, canonical, generators)`` for one gluable
    plan of each entry, over plans with at most ``max_blocks`` instances on at
    most ``max_nodes`` abstract nodes: the plan, its glued diagram, its entry
    (the diagram's canonical key with the plan in canonical coordinates), and
    generators of the automorphism group of the diagram the key spells out.

    Nodes are numbered in first-use order.  Any occupancy-legal placement
    glues, so enumeration only reads slot usage from its gluing state: a
    white slot may land on an open node or a fresh one, a black slot only on
    a fresh one.  Every child built still passes :func:`~blockdec.gluing.glue`'s
    checks: its instances are checked on their own, and its diagram is read
    from the search state by :meth:`GlueState.glued`, which checks rules 1
    and 4.

    A child is expanded only if its entry is new; plans with equal entries
    are isomorphic, and isomorphic plans have isomorphic children under
    first-use numbering.  Children of one parent that are the same sorted
    tuple of canonical instances are skipped before they are glued.

    Before that, a cheap gate skips most children that only reach a plan
    class again from another parent, as McKay's canonical augmentation does
    ("Isomorph-free exhaustive generation", J. Algorithms 26, 1998).  An
    instance's *score* in a plan is its template's rank in data order, then
    the number of its nodes that another instance also covers; both are read
    from the search state before the push, and both are invariant under
    isomorphism.  An instance J of a child C is *removable* when ``C - J`` is
    a plan the walk reaches: any plan, or with ``connected`` an
    overlap-connected one.  A child ``C = P + I`` is built only if no
    removable instance of C outscores I, and removability is tested only for
    an instance that does.  The gate loses no class.  By induction on the
    block count, every class the labelled search reaches is expanded: take a
    removable instance J* of C of greatest score.  The class of ``C - J*``
    has one block fewer, so it is expanded, and isomorphic plans have
    isomorphic children, so that expansion builds a child isomorphic to C
    whose added instance is the image of J*.  No removable instance of that
    child outscores it, as none of C outscores J*, so the gate lets it
    through.  Ties go through, and the visited set of entries still does the
    exact dedup.  On ``sweep`` at quiver 6 and s 5 the gate cuts the children
    built from 2,511 to 1,412.

    With ``connected``, only *overlap-connected* plans are enumerated: every
    instance after the first uses a node an earlier one used, so
    ``min(inst.nodes) < n``.  The assignment search never builds the
    placements that use fresh nodes only.  Every plan of a connected diagram
    is overlap-connected, because each edge joins two nodes of one instance,
    so instances falling into two node-disjoint groups glue to a disconnected
    diagram.  Such a plan keeps, after dropping a leaf of a spanning tree of
    its overlap graph, an overlap-connected plan one block smaller, and the
    dropped instance meets one of its open white nodes, as any removable
    instance of a plan of two or more blocks does.  Overlap-connectedness is
    invariant under isomorphism, so the induction above runs unchanged
    within these plans, and every connected diagram keeps all its entries.
    A plan is expanded even when its arrows cancel to a disconnected diagram,
    since a child may be connected again.
    """
    return _Walk(data, mode, max_blocks, max_nodes, connected).dfs((), 0)


class _Walk:
    """The search of :func:`enumerate_plans`: one gluing state that
    :meth:`dfs` pushes and pops as it walks the plans, the instances
    interned in canonical form, and the visited set of entries."""

    def __init__(
        self, data: BlockData, mode: str, max_blocks: int, max_nodes: int, connected: bool
    ):
        self.data, self.mode, self.connected = data, mode, connected
        self.max_blocks, self.max_nodes = max_blocks, max_nodes
        self.templates = [data.template(tag) for tag in data.modes[mode].tags]
        self.rank = {template.tag: r for r, template in enumerate(self.templates)}
        self.state = GlueState(data, max_nodes)
        self.interned: dict[BlockInstance, BlockInstance] = {}
        self.visited: set[tuple[str, PlanTuple]] = set()

    def placements(self, n: int):
        """All single-instance extensions of a state on ``n`` used nodes;
        with ``connected``, only those that use a node already in use.

        Each template's slots are assigned one position at a time, every
        partial assignment grown in order, which lists the assignments in
        the order a depth-first search over the slots would."""
        max_nodes = self.max_nodes
        open_nodes = [i for i in range(n) if self.state.is_open(i)]
        touch = self.connected and n > 0
        if touch and not open_nodes:
            return
        for template in self.templates:
            colors = template.colors
            last_white = max((p for p, c in enumerate(colors) if c == WHITE), default=-1)
            partial: list[tuple[tuple[int, ...], int]] = [((), 0)]  # (nodes, fresh ones)
            for pos, color in enumerate(colors):
                grown = []
                for chosen, fresh in partial:
                    if color == WHITE:
                        grown += [(chosen + (v,), fresh) for v in open_nodes if v not in chosen]
                    # A fresh node: always the next unused id (first-use
                    # order).  Under ``touch``, a slot takes one while an
                    # earlier slot holds a used node or a later white slot
                    # still can.
                    if n + fresh < max_nodes and (not touch or fresh < pos or pos < last_white):
                        grown.append((chosen + (n + fresh,), fresh + 1))
                partial = grown
            for nodes, _ in partial:
                yield BlockInstance(template.tag, nodes)

    def canonical(self, inst: BlockInstance) -> BlockInstance:
        interned = self.interned
        canon = interned.get(inst)
        if canon is None:
            canon = canonical_instance(self.data, inst)
            canon = interned[inst] = interned.setdefault(canon, canon)
        return canon

    def removals(self, plan: PlanTuple) -> list:
        """Per instance J of ``plan``: its template rank, how many of its
        nodes another instance covers, its nodes, and the node sets of the
        overlap components of ``plan - J``.  With ``connected``, a child
        ``plan + I - J`` is overlap-connected when I meets every one of them;
        without, no set is listed and every J is removable."""
        rank, covers, connected = self.rank, self.state.covers, self.connected
        out = []
        for j, inst in enumerate(plan):
            groups: list[set[int]] = []
            if connected:
                for other in plan[:j] + plan[j + 1:]:
                    joined = set(other.nodes)
                    for group in [g for g in groups if not g.isdisjoint(joined)]:
                        joined |= group
                        groups.remove(group)
                    groups.append(joined)
            shared = sum(1 for v in inst.nodes if covers[v] == 2)
            out.append((rank[inst.tag], shared, set(inst.nodes), groups))
        return out

    def dfs(self, plan: PlanTuple, n: int):
        if len(plan) == self.max_blocks:
            return
        data, mode, rank, visited = self.data, self.mode, self.rank, self.visited
        state, covers = self.state, self.state.covers
        children: set[PlanTuple] = set()
        scored = self.removals(plan)
        for inst in self.placements(n):
            # The gate: skip inst if a removable instance outscores it.
            score = (rank[inst.tag], sum(1 for v in inst.nodes if covers[v]))
            if any(
                (r, shared + len(nodes.intersection(inst.nodes))) > score
                and all(not g.isdisjoint(inst.nodes) for g in groups)
                for r, shared, nodes, groups in scored
            ):
                continue
            child = tuple(sorted(plan + (self.canonical(inst),)))
            if child in children:
                continue
            children.add(child)
            found = Plan(mode, child)
            _check_instances(data, found)
            m = max(n, max(inst.nodes) + 1)
            state.push(inst)
            diagram = state.glued(mode, m).diagram
            key, relabel, generators = canonical_form(diagram)
            entry = (key, _mapped(data, child, relabel))
            if entry not in visited:
                visited.add(entry)
                yield found, diagram, *entry, _conjugated(generators, relabel)
                yield from self.dfs(child, m)
            state.pop()


def _mapped(data: BlockData, instances: PlanTuple, mapping: tuple[int, ...]) -> PlanTuple:
    """``instances`` with every node v moved to ``mapping[v]``, each instance
    canonical, sorted: the form the decomposer's plans take."""
    templates = data.templates
    return tuple(sorted([
        BlockInstance(
            i.tag, templates[i.tag].canonical_assignment(tuple([mapping[v] for v in i.nodes]))
        )
        for i in instances
    ]))


def _conjugated(generators: Generators, relabel: tuple[int, ...]) -> Generators:
    """``generators`` carried into the coordinates ``relabel`` maps to."""
    out = []
    for g in generators:
        image = [0] * len(g)
        for v, w in enumerate(g):
            image[relabel[v]] = relabel[w]
        out.append(tuple(image))
    return tuple(out)


@dataclass(frozen=True)
class OracleIndex:
    """Canonical diagram key -> plans in canonical coordinates, each a sorted
    tuple of canonical instances, and per key generators of the automorphism
    group of the diagram the key spells out, in the same coordinates.  The
    plans of a key are one or more per isomorphism class of plan, not closed
    under the diagram's automorphisms."""

    entries: dict[str, frozenset[PlanTuple]]
    generators: dict[str, Generators]

    def closed_plans(self, key: str, data: BlockData) -> frozenset[PlanTuple]:
        """All decompositions of the diagram ``key`` spells out, in its
        canonical coordinates: the orbits of the stored plans under the
        stored generators, found by mapping each plan reached under each
        generator until no new plan comes."""
        stored = self.entries.get(key)
        if not stored:
            return frozenset()
        return frozenset(
            orbit(stored, self.generators[key], lambda g, plan: _mapped(data, plan, g))
        )


def build_index(
    max_blocks: int,
    mode: str,
    data: BlockData,
    max_nodes: int,
    connected: bool = False,
) -> OracleIndex:
    """Index every diagram gluable from at most ``max_blocks`` blocks.

    ``max_nodes`` bounds the abstract node supply; five nodes per block are
    enough for fully disjoint placements.  With ``connected``, only
    connected diagrams are indexed, from overlap-connected plans alone (see
    :func:`enumerate_plans`), and each keeps exactly its entries.  The first
    plan of each key brings the generators its plans are closed under and
    tells whether its diagram is connected.
    """
    entries: dict[str, set[PlanTuple]] = {}
    generators: dict[str, Generators | None] = {}  # None: disconnected, dropped
    for _, diagram, key, canonical, gens in enumerate_plans(
        data, mode, max_blocks, max_nodes, connected
    ):
        if key not in generators:
            generators[key] = gens if not connected or diagram.is_connected() else None
        if generators[key] is not None:
            entries.setdefault(key, set()).add(canonical)
    return OracleIndex(
        {k: frozenset(v) for k, v in entries.items()},
        {k: generators[k] for k in entries},
    )


def sweep_nonunique(
    max_nodes: int,
    mode: str,
    data: BlockData,
) -> dict[str, int]:
    """Connected diagrams on at most ``max_nodes`` nodes with two or more
    inequivalent decompositions: canonical key -> decomposition count, read
    off the connected index of up to ``max_nodes`` blocks (see
    :func:`build_index`)."""
    index = build_index(max_nodes, mode, data, max_nodes, connected=True)
    counts = {key: len(index.closed_plans(key, data)) for key in index.entries}
    return {key: count for key, count in counts.items() if count >= 2}


def random_plan(
    data: BlockData,
    mode: str,
    rng: Random,
    max_blocks: int = 5,
) -> Plan:
    """A uniformly haphazard (not uniform) gluable plan, for round-trip tests.

    Every draw is occupancy-legal by construction, hence glues successfully.
    """
    tags = data.modes[mode].tags
    count = rng.randint(1, max_blocks)
    state = GlueState(data, count * max(t.size for t in data.templates.values()))
    n = 0  # nodes used so far, numbered in first-use order
    instances = []
    for _ in range(count):
        tag = rng.choice(tags)
        template = data.template(tag)
        chosen: list[int] = []
        for color in template.colors:
            options = []
            if color == WHITE:
                options = [i for i in range(n) if state.is_open(i) and i not in chosen]
            options.append(n + sum(1 for c in chosen if c >= n))
            node = rng.choice(options)
            chosen.append(node)
        inst = BlockInstance(tag, tuple(chosen))
        state.push(inst)
        n = max(n, max(chosen) + 1)
        instances.append(inst)
    return Plan(mode, tuple(instances))
