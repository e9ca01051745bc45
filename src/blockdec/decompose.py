"""Enumerating block decompositions of a target diagram.

A decomposition is a plan (multiset of block instances on the diagram's nodes)
that glues exactly to the target.  The search is a backtracking enumeration:

* The state of a partial plan is one :class:`~blockdec.gluing.GlueState`
  (per-node slot usage and per-pair signed (unit, heavy) nets), compared
  against the target's requirements.  Descending into a placement pushes it
  onto the state; coming back pops it.
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
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import BLACK, WHITE, BlockData, BlockTemplate, load_block_data
from .diagram import Diagram, QUIVER, S_DIAGRAM
from .gluing import BlockInstance, GlueState, Plan, canonical_instance, plan_key


@dataclass(frozen=True)
class DecomposeResult:
    plans: tuple[Plan, ...]  # canonical, sorted by plan key
    truncated: bool  # True when enumeration stopped at the limit


# Single-block contributions a pair can still receive, per mode.
_STEPS = {
    QUIVER: ((1, 0), (-1, 0)),
    S_DIAGRAM: ((1, 0), (-1, 0), (0, 2), (0, -2), (0, 4), (0, -4)),
}


def _target_reps(diagram: Diagram) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
    """Admissible final (unit, heavy) nets per pair carrying a target edge."""
    reps: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    for (src, dst), weight in diagram.edge_map().items():
        key, sign = ((src, dst), 1) if src < dst else ((dst, src), -1)
        if weight == 1:
            reps[key] = ((sign, 0),)
        elif weight == 2:
            reps[key] = ((0, 2 * sign),)
        else:  # weight 4: two aligned unit arrows, or a heavy net of four
            reps[key] = ((2 * sign, 0), (0, 4 * sign))
    return reps


class _Search:
    def __init__(self, diagram: Diagram, data: BlockData, limit: int):
        self.data = data
        self.limit = limit
        self.mode = diagram.mode
        self.n = diagram.node_count
        self.targets = _target_reps(diagram)
        self.steps = _STEPS[self.mode]
        self.templates = [data.template(tag) for tag in data.tags_for_mode(self.mode)]
        self.state = GlueState(data, self.n)
        self.interned: dict[BlockInstance, BlockInstance] = {}
        self.visited: set[tuple[BlockInstance, ...]] = set()
        self.found: dict[tuple[BlockInstance, ...], Plan] = {}
        self.truncated = False

    def _pair_ok(
        self,
        net: tuple[int, int],
        pair: tuple[int, int],
        frozen: bool,
    ) -> bool:
        """Is this pair's net exact (if frozen) or still completable?"""
        reps = self.targets.get(pair, ((0, 0),))
        if net in reps:
            return True
        if frozen:
            return False
        return any(
            (net[0] + du, net[1] + dd) in reps for du, dd in self.steps
        )

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

        A pair freezes after this block if an endpoint's slots fill up; frozen
        pairs must land exactly on a target representation.
        """
        covers, nets, colors = self.state.covers, self.state.nets, template.colors
        for fpos, tpos, w in edges:
            a, b = placement[fpos], placement[tpos]
            key, sign = ((a, b), 1) if a < b else ((b, a), -1)
            unit, heavy = nets.get(key, (0, 0))
            if w == 1:
                unit += sign
            else:
                heavy += sign * w
            frozen = (
                covers[a] >= 1 or covers[b] >= 1
                or colors[fpos] == BLACK or colors[tpos] == BLACK
            )
            if not self._pair_ok((unit, heavy), key, frozen):
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
            for pair in set(self.targets) | set(state.nets)
            if state.nets.get(pair, (0, 0)) not in self.targets.get(pair, ((0, 0),))
        ]

        # Dead end: an unsettled pair with a closed endpoint is frozen.
        if any(not state.accepts(node, WHITE) for pair in unsettled for node in pair):
            return

        if plan and not unsettled and all(state.covers):
            self.found[plan] = Plan(self.mode, plan)
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


def enumerate_decompositions(
    diagram: Diagram,
    data: BlockData | None = None,
    *,
    limit: int = 10000,
    threads: int = 1,
) -> DecomposeResult:
    """All inequivalent decompositions of ``diagram``, sorted by plan key.

    The search is serial; ``threads`` is accepted for compatibility and
    changes neither the output nor the work.  When more than ``limit`` plans
    exist the result is truncated and flagged.
    """
    if data is None:
        data = load_block_data()
    if diagram.node_count == 0:
        return DecomposeResult((), False)

    search = _Search(diagram, data, limit)
    search._dfs(())
    plans = sorted(search.found.values(), key=lambda p: plan_key(data, p))
    truncated = search.truncated
    if len(plans) > limit:
        plans = plans[:limit]
        truncated = True
    return DecomposeResult(tuple(plans), truncated)


def is_decomposable(
    diagram: Diagram, data: BlockData | None = None
) -> bool:
    """Whether at least one block decomposition exists."""
    return bool(enumerate_decompositions(diagram, data, limit=1).plans)
