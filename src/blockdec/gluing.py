"""Gluing block instances into a diagram.

A *plan* is a multiset of block instances over integer node ids plus a mode.
Gluing follows four rules:

* **Rule 1 (occupancy).**  Every node id from ``0`` to the largest used must be
  covered.  A node may be covered by at most two instances; a node covered
  through a black template slot may not be covered by any other instance.  A
  node covered once through a white slot stays *white* (open); any other legal
  coverage makes it *black* (closed).  The two colours, :data:`WHITE` and
  :data:`BLACK`, are defined here and name template slots too.
* **Rule 2 (unit arrows).**  Weight-1 template edges between the same pair of
  nodes add up with signs: opposite arrows cancel.
* **Rule 3 (heavy arrows).**  Weight-2 and weight-4 template edges accumulate
  separately from unit arrows, also with signs.  Unit and heavy contributions
  may never survive together on one pair.
* **Rule 4 (merging).**  Per node pair, the surviving net must be one of:
  nothing; a single unit arrow (weight 1); two aligned unit arrows (weight 4);
  a net heavy contribution of 2 (weight 2) or 4 (weight 4).

Weight-2 edges only exist in s-mode; in quiver mode only the blocks whose
edges all weigh 1 may be used, so rule 3 is vacuous there.

This module is the only one that knows how a pair's net is encoded and what
rule 4 makes of it.  :func:`net_with_arrow` is the pair arithmetic of rules 2
and 3; :func:`_resolve_pair` reads rule 4 forwards, from a net to an edge, and
:func:`target_nets` reads it backwards, from an edge to the nets that give it.
:func:`open_nets` adds the nets one more arrow can still turn into those; block
data compiles it once per mode when it loads, and the decomposer reads it
there, calling :func:`net_with_arrow` for every pair it checks.

:class:`GlueState` is the one record of rules 1 to 3: per-node slot use and
per-pair signed nets, kept up to date as instances are pushed and popped.
:func:`glue` pushes a whole plan onto a fresh state; the decomposer and the
oracle walk their search trees on one state each, pushing an instance on the
way down and popping it on the way back.  :meth:`GlueState.glued` turns a
state into its diagram, with the rule-1 and rule-4 checks: :func:`glue` calls
it on its fresh state, and the oracle on its search state at every child plan
it builds.  Loading block data glues pairs of instances on a state to check
the part lemma of :mod:`blockdec.decompose`.  Every check raises the first
fault it finds, as a :class:`GluingError` whose ``rule`` names the rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .diagram import Diagram, make_diagram, MODES

if TYPE_CHECKING:  # block data is loaded above this module: blocks imports gluing
    from .blocks import BlockData, BlockTemplate

WHITE = "white"  # open: one more block may still attach
BLACK = "black"  # closed


class GluingError(ValueError):
    """A plan violates a gluing rule; ``rule`` says which."""

    rule = 0


class BadInstance(GluingError):
    rule = 0


class OverlapViolation(GluingError):
    rule = 1


class CoverageViolation(GluingError):
    rule = 1


class WeightClash(GluingError):
    rule = 3


class MixedWeightClash(GluingError):
    rule = 3


class BlockInstance(NamedTuple):
    """One block placed on diagram nodes; ``nodes[i]`` hosts template label i.

    An instance equals the plain tuple ``(tag, nodes)``, and it sorts,
    hashes and compares as that tuple does."""

    tag: str
    nodes: tuple[int, ...]


@dataclass(frozen=True)
class Plan:
    mode: str
    instances: tuple[BlockInstance, ...]


@dataclass(frozen=True)
class GlueResult:
    diagram: Diagram
    colors: tuple[str, ...]  # per node: "white" (open) or "black" (closed)


def instance_edges(data: BlockData, inst: BlockInstance) -> list[tuple[int, int, int]]:
    """The weighted arrows an instance contributes, on diagram nodes."""
    nodes = inst.nodes
    return [(nodes[f], nodes[t], w) for f, t, w in data.template(inst.tag).edges]


def canonical_instance(data: BlockData, inst: BlockInstance) -> BlockInstance:
    """Normalize the assignment modulo the template's automorphisms."""
    return BlockInstance(inst.tag, data.template(inst.tag).canonical_assignment(inst.nodes))


def canonical_plan(data: BlockData, plan: Plan) -> Plan:
    return Plan(plan.mode, tuple(sorted(canonical_instance(data, i) for i in plan.instances)))


def plan_key(data: BlockData, plan: Plan) -> str:
    """Canonical string identity of a plan (mode + canonical instance multiset)."""
    canon = canonical_plan(data, plan)
    body = ";".join(f"{i.tag}:{','.join(map(str, i.nodes))}" for i in canon.instances)
    return f"{canon.mode}|{body}"


def _check_instances(data: BlockData, plan: Plan) -> None:
    """Raise the first fault of the plan's instances taken on their own."""
    if plan.mode not in MODES:
        raise BadInstance(f"unknown mode {plan.mode!r}")
    allowed = data.modes[plan.mode].tags
    for inst in plan.instances:
        if inst.tag not in data.templates:
            raise BadInstance(f"unknown block tag {inst.tag!r}")
        if inst.tag not in allowed:
            raise BadInstance(f"block {inst.tag} is not usable in {plan.mode} mode")
        size = data.template(inst.tag).size
        if len(inst.nodes) != size:
            raise BadInstance(f"block {inst.tag} takes {size} nodes, got {len(inst.nodes)}")
        if any(n < 0 for n in inst.nodes):
            raise BadInstance(f"negative node id in {inst.tag} instance")
        if len(set(inst.nodes)) != len(inst.nodes):
            raise BadInstance(f"block {inst.tag} placed on repeated node {inst.nodes}")
    # Fewer slots than ids 0..max cannot cover them; say so before any state
    # sized by the largest id is built.
    slots = [n for inst in plan.instances for n in inst.nodes]
    if max(slots, default=-1) >= len(slots):
        raise CoverageViolation(
            f"uncovered node ids: {len(slots)} slots cannot cover 0..{max(slots)}"
        )


def net_with_arrow(
    nets: dict[tuple[int, int], tuple[int, int]], a: int, b: int, w: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """The low-high key of the pair {a, b} and its ``(unit, heavy)`` net in
    ``nets`` after one more arrow a -> b of weight ``w``.

    Arrows count +1 low->high and -1 high->low: a unit arrow by that sign in
    ``unit``, a heavy arrow by that sign times its weight in ``heavy``.
    """
    key, sign = ((a, b), 1) if a < b else ((b, a), -1)
    unit, heavy = nets.get(key, (0, 0))
    return key, ((unit + sign, heavy) if w == 1 else (unit, heavy + sign * w))


class GlueState:
    """Rule-1 to rule-3 bookkeeping of a plan built one instance at a time.

    ``covers[v]`` counts the template slots on node ``v`` and ``blacks[v]``
    the black ones among them.  ``nets`` maps every low-high node pair whose
    signed ``(unit, heavy)`` net is nonzero to that net; rule 4 reads it
    through :func:`_resolve_pair`.  :meth:`pop` undoes the last :meth:`push`,
    so the state depends only on the multiset of instances pushed.
    """

    def __init__(self, data: BlockData, node_count: int):
        self.data = data
        self.covers = [0] * node_count
        self.blacks = [0] * node_count
        self.nets: dict[tuple[int, int], tuple[int, int]] = {}
        self.stack: list[BlockInstance] = []

    @classmethod
    def of(cls, data: BlockData, plan: Plan) -> GlueState:
        """The state of a whole plan, on nodes ``0..max``."""
        nodes = [n for inst in plan.instances for n in inst.nodes]
        state = cls(data, max(nodes, default=-1) + 1)
        for inst in plan.instances:
            state.push(inst)
        return state

    def push(self, inst: BlockInstance) -> None:
        self._apply(inst, 1)
        self.stack.append(inst)

    def pop(self) -> BlockInstance:
        inst = self.stack.pop()
        self._apply(inst, -1)
        return inst

    def _apply(self, inst: BlockInstance, sign: int) -> None:
        template = self.data.template(inst.tag)
        nodes, nets, covers, blacks = inst.nodes, self.nets, self.covers, self.blacks
        for node, black in zip(nodes, template.blacks):
            covers[node] += sign
            if black:
                blacks[node] += sign
        for f, t, w in template.edges:
            if sign < 0:
                f, t = t, f  # popping an arrow adds its reverse
            key, net = net_with_arrow(nets, nodes[f], nodes[t], w)
            if net != (0, 0):
                nets[key] = net
            else:
                del nets[key]

    def is_open(self, node: int) -> bool:
        """Covered once, through a white slot."""
        return self.covers[node] == 1 and not self.blacks[node]

    def glued(self, mode: str, node_count: int) -> GlueResult:
        """The diagram on nodes ``0..node_count-1`` that the pushed instances
        glue to, or raise the first rule-1 violation, then the first illegal
        pair net (rules 3 and 4) in low-high pair order.

        A node's colour is white when one more block could still attach there.
        """
        covers_of, blacks = self.covers[:node_count], self.blacks
        for node, covers in enumerate(covers_of):
            if covers > 2:
                raise OverlapViolation(f"node {node} is covered by {covers} blocks")
            if covers == 2 and blacks[node]:
                raise OverlapViolation(f"node {node} is shared through a black slot")
        missing = [node for node, covers in enumerate(covers_of) if not covers]
        if missing:
            raise CoverageViolation(f"uncovered node ids: {missing}")
        edges = []
        for (a, b), (unit, heavy) in sorted(self.nets.items()):
            direction, weight = _resolve_pair(unit, heavy)
            if direction > 0:
                edges.append((a, b, weight))
            elif direction < 0:
                edges.append((b, a, weight))
        colors = tuple([WHITE if self.is_open(n) else BLACK for n in range(node_count)])
        return GlueResult(make_diagram(node_count, edges, mode=mode), colors)


_RESIDUALS = {
    (0, 0): 0,  # cancelled
    (1, 0): 1,
    (2, 0): 4,
    (0, 2): 2,
    (0, 4): 4,
}


def _resolve_pair(unit: int, heavy: int) -> tuple[int, int]:
    """Map a signed (unit, heavy) net to (direction, weight).

    Direction is +1 for low->high, -1 for high->low, 0 for no edge.
    Raises WeightClash/MixedWeightClash for illegal nets.
    """
    if unit and heavy:
        # Unreachable for well-occupied plans: every heavy template edge has a
        # black endpoint, so its pair can never also receive a unit arrow.
        raise MixedWeightClash(f"unit net {unit} and heavy net {heavy} on one pair")
    sign = 1 if (unit + heavy) > 0 else -1
    weight = _RESIDUALS.get((abs(unit), abs(heavy)))
    if weight is None:
        raise WeightClash(f"illegal net ({unit}, {heavy}) on one pair")
    return (0, 0) if weight == 0 else (sign, weight)


# Per edge weight and direction (+1 low->high, -1 high->low), the nets that
# rule 4 maps to that edge.
_TARGET_NETS = {
    (weight, sign): frozenset(
        (sign * unit, sign * heavy) for (unit, heavy), w in _RESIDUALS.items() if w == weight
    )
    for weight in set(_RESIDUALS.values()) - {0}
    for sign in (1, -1)
}

NO_EDGE = frozenset({(0, 0)})  # the nets of a pair that carries no edge


def target_nets(diagram: Diagram) -> dict[tuple[int, int], frozenset[tuple[int, int]]]:
    """Rule 4 backwards: per low-high pair carrying an edge of ``diagram``,
    every net that :func:`_resolve_pair` maps to that edge.  A pair missing
    here carries no edge, which only the nets in :data:`NO_EDGE` mean."""
    nets = {}
    for (src, dst), weight in diagram.edge_map().items():
        key, (sign, _) = net_with_arrow({}, src, dst, 1)  # one unit arrow src -> dst
        nets[key] = _TARGET_NETS[weight, sign]
    return nets


def open_nets(
    templates: tuple[BlockTemplate, ...]
) -> dict[frozenset[tuple[int, int]], frozenset[tuple[int, int]]]:
    """Per set of nets that a pair may end with (each value of
    :func:`target_nets`, and :data:`NO_EDGE`): that set plus every net that
    one more arrow of ``templates``, in either direction, turns into one of
    them.  While one more block can still reach a pair, its net must lie
    there.  Block data compiles this once per mode when it loads."""
    steps = {
        net_with_arrow({}, a, b, w)[1]
        for template in templates
        for _, _, w in template.edges
        for a, b in ((0, 1), (1, 0))
    }
    return {
        nets: nets | {(unit - du, heavy - dh) for unit, heavy in nets for du, dh in steps}
        for nets in (*_TARGET_NETS.values(), NO_EDGE)
    }


def glue(data: BlockData, plan: Plan) -> GlueResult:
    """Glue a plan into a diagram, or raise a GluingError.

    The resulting diagram's nodes are exactly the covered ids ``0..max``; a
    node's colour is white when one more block could still attach there.
    """
    _check_instances(data, plan)
    if not plan.instances:
        raise CoverageViolation("empty plan covers no nodes")
    state = GlueState.of(data, plan)
    return state.glued(plan.mode, len(state.covers))


# --- plan text format --------------------------------------------------------


def parse_plan(text: str) -> Plan:
    """Parse the plan text format::

        mode quiver
        block Spike 0 1
        block Triangle 1 2 3

    Node ids follow the block's node-label declaration order.
    """
    mode = None
    instances = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "mode":
            if len(tokens) != 2 or tokens[1] not in MODES:
                raise BadInstance(f"plan line {lineno}: expected 'mode <quiver|s>'")
            if mode is not None:
                raise BadInstance(f"plan line {lineno}: duplicate mode line")
            mode = tokens[1]
        elif tokens[0] == "block":
            if len(tokens) < 3:
                raise BadInstance(f"plan line {lineno}: expected 'block <tag> <node>...'")
            try:
                nodes = tuple(int(t) for t in tokens[2:])
            except ValueError:
                raise BadInstance(f"plan line {lineno}: node ids must be integers") from None
            instances.append(BlockInstance(tokens[1], nodes))
        else:
            raise BadInstance(f"plan line {lineno}: unknown keyword {tokens[0]!r}")
    if mode is None:
        raise BadInstance("plan is missing a 'mode' line")
    return Plan(mode, tuple(instances))


def serialize_plan(plan: Plan) -> str:
    lines = [f"mode {plan.mode}"]
    lines.extend(f"block {i.tag} {' '.join(map(str, i.nodes))}" for i in plan.instances)
    return "\n".join(lines) + "\n"
