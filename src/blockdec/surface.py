"""Assembling the triangulated surface of a decomposition.

Each block instance contributes a copy of its template's triangulated piece,
read from the tables compiled when the block data loads
(:class:`~blockdec.blocks.PieceTables`); its vertices and sides are numbered
after those of the instances before it, so every id is an int.
Whenever two instances share a (white) diagram node, their outlet arcs are
identified; each face slot keeps counter-clockwise orientation, so the two
faces must traverse the merged arc in opposite directions -- if both stored
traversals agree, the identification reverses the arc (tail to head).  A node
covered once through a white slot keeps a boundary outlet; it is *capped* by a
triangle attached along the outlet with two fresh boundary segments, which
take the next free ids.

The result is a closed-or-bordered triangulated surface.  Its invariants:

* ``chi = V - E + F`` and boundary count give ``genus = (2 - chi - b) / 2``;
* boundary components are the directed cycles of boundary segments, and each
  carries its vertex count as marked points;
* punctures are the vertices met by no boundary segment.

``signed_adjacency_matrix`` recovers the diagram's exchange matrix from the
triangulation: adjacent arc sides of every non-self-folded face contribute
``+1/-1``, and an arc enclosed by a self-folded triangle is read through the
enclosing loop.  This is only defined for quiver-mode assemblies, where each
diagram node corresponds to exactly one arc.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .blocks import BlockData
from .diagram import QUIVER, Diagram, _find, _union
from .gluing import WHITE, Plan, glue

Slot = tuple  # (side id, +1 | -1)


class SurfaceError(ValueError):
    """The assembled complex is not a bordered surface."""


class NonSurfaceComplex(SurfaceError):
    pass


class DisconnectedComplex(NonSurfaceComplex):
    """The plan's blocks fall into pieces that share no node, so they glue
    into several surfaces; :func:`assemble` builds one."""

    def __init__(self, components: int):
        super().__init__(
            f"the blocks form {components} connected components; "
            "a surface is assembled for a connected decomposition only"
        )
        self.components = components


@dataclass(frozen=True)
class SurfaceInvariants:
    genus: int
    boundary: int
    punctures: int
    boundary_marked: tuple[int, ...]  # sorted marked-point count per component
    chi: int
    triangles: int
    arcs: int

    @property
    def surface_class(self) -> tuple[int, int]:
        """The invariants equal across decompositions of one diagram."""
        return (self.genus, self.boundary)

    def as_dict(self) -> dict:
        return {**vars(self), "boundary_marked": list(self.boundary_marked)}


@dataclass(frozen=True)
class Triangulation:
    """A glued triangulated surface with boundary.

    :func:`assemble` numbers vertices and sides with ints.  The checks and
    invariants need only hashable ids, and no order on them.
    """

    mode: str
    vertices: tuple[int, ...]  # one id per glued vertex
    arc_ends: dict[int, tuple[int, int]]  # side id -> tail, head (glued)
    bseg_ends: dict[int, tuple[int, int]]
    faces: tuple[tuple[Slot, Slot, Slot], ...]
    node_arc: dict[int, int]  # diagram node -> its arc (quiver mode)
    diagram: Diagram  # what the plan glues to

    def validate(self) -> None:
        side_ends = {**self.arc_ends, **self.bseg_ends}
        slots: dict[int, list[int]] = {}
        for face in self.faces:
            for sid, direction in face:
                slots.setdefault(sid, []).append(direction)

        for sid in side_ends:
            used = slots.get(sid, [])
            if sid in self.bseg_ends:
                if len(used) != 1:
                    raise NonSurfaceComplex(
                        f"boundary segment {sid} bounds {len(used)} faces"
                    )
            elif sorted(used) != [-1, 1]:
                raise NonSurfaceComplex(
                    f"arc {sid} has traversals {used}; need one of each direction"
                )
        for sid in slots:
            if sid not in side_ends:
                raise NonSurfaceComplex(f"face references unknown side {sid}")

        for face in self.faces:
            # Each traversal finishes where the next one starts.
            for (s1, d1), (s2, d2) in zip(face, face[1:] + face[:1]):
                if side_ends[s1][d1 > 0] != side_ends[s2][d2 <= 0]:
                    raise NonSurfaceComplex(f"face {face} does not close up")

        self._validate_links(side_ends)

        chi = self.chi
        b = len(self.boundary_cycles)
        if (2 - chi - b) % 2 or (2 - chi - b) < 0:
            raise NonSurfaceComplex(
                f"chi={chi} with {b} boundary components is not a surface"
            )

    def _validate_links(self, side_ends) -> None:
        """Each vertex link must be a single circle (interior vertex) or a
        single path whose ends are boundary-segment ends.  The slot counts
        :meth:`validate` checks first give every side-end one corner on a
        boundary segment and two on an arc, so the links are circles and
        such paths, and only their connectedness is left to check."""
        # Link nodes are side-ends, 2i + 0 (tail) and 2i + 1 (head) of the
        # i-th side; corners of faces join them.
        first = {sid: 2 * i for i, sid in enumerate(side_ends)}
        part = list(range(2 * len(first)))  # union-find over the side-ends
        for face in self.faces:
            for (s1, d1), (s2, d2) in zip(face, face[1:] + face[:1]):
                # This traversal finishes where the next one starts.
                _union(part, first[s1] + (d1 > 0), first[s2] + (d2 <= 0))

        incident: dict[int, list[int]] = {}
        for sid, (tail, head) in side_ends.items():
            incident.setdefault(tail, []).append(first[sid])
            incident.setdefault(head, []).append(first[sid] + 1)
        for vertex in self.vertices:
            ends = incident.get(vertex)
            if not ends:
                raise NonSurfaceComplex(f"vertex {vertex} touches no side")
            if len({_find(part, end) for end in ends}) > 1:
                raise NonSurfaceComplex(
                    f"vertex {vertex} link is disconnected: pinched complex"
                )

    @property
    def chi(self) -> int:
        return (
            len(self.vertices)
            - (len(self.arc_ends) + len(self.bseg_ends))
            + len(self.faces)
        )

    @cached_property
    def boundary_cycles(self) -> list[list[int]]:
        """The boundary cycles, walked once: :meth:`validate` checks them and
        :meth:`invariants` reads them."""
        following: dict[int, int] = {}  # boundary vertex -> head of its segment
        for tail, head in self.bseg_ends.values():
            if tail in following:
                raise NonSurfaceComplex(f"boundary vertex {tail} starts two boundary segments")
            following[tail] = head
        # As many heads as starts, and the starts are distinct: the two agree
        # as multisets exactly when they agree as sets.
        if following.keys() != set(following.values()):
            raise NonSurfaceComplex("boundary segments do not chain into cycles")

        cycles: list[list[int]] = []
        while following:  # each cycle starts at the first vertex left
            cycle = [next(iter(following))]
            vertex = following.pop(cycle[0])
            while vertex != cycle[0]:
                cycle.append(vertex)
                vertex = following.pop(vertex)
            cycles.append(cycle)
        return cycles

    def invariants(self) -> SurfaceInvariants:
        cycles = self.boundary_cycles
        boundary_vertices = {v for cycle in cycles for v in cycle}
        punctures = sum(1 for v in self.vertices if v not in boundary_vertices)
        chi = self.chi
        b = len(cycles)
        genus = (2 - chi - b) // 2
        return SurfaceInvariants(
            genus=genus,
            boundary=b,
            punctures=punctures,
            boundary_marked=tuple(sorted(len(c) for c in cycles)),
            chi=chi,
            triangles=len(self.faces),
            arcs=len(self.arc_ends),
        )


def assemble(data: BlockData, plan: Plan) -> Triangulation:
    """Glue the plan's pieces into the decomposition's surface."""
    result = glue(data, plan)  # validates the plan
    colors = result.colors
    tables = [data.template(inst.tag).tables for inst in plan.instances]
    bases = []  # per instance, its first side id
    tails: list[int] = []  # per side id, its ends before gluing
    heads: list[int] = []
    arcs: list[int] = []
    bsegs: list[int] = []
    carried = []  # (node, arc) for every arc
    covers: list[list[tuple]] = [[] for _ in colors]  # outlets, (side, direction, instance)
    vertex_count = 0
    for index, (inst, table) in enumerate(zip(plan.instances, tables)):
        bases.append(len(tails))
        for sid, (tail, head, is_arc, label) in enumerate(table.sides, len(tails)):
            tails.append(vertex_count + tail)
            heads.append(vertex_count + head)
            if is_arc:
                arcs.append(sid)
                carried.append((inst.nodes[label], sid))
            else:
                bsegs.append(sid)
        for label, side, direction in table.outlets:
            covers[inst.nodes[label]].append((bases[-1] + side, direction, index))
        vertex_count += table.vertex_count

    # Per side, the slots its forward and backward traversals fill; an
    # identified outlet fills its partner's, so it is kept iff its own.
    slots = [((sid, 1), (sid, -1)) for sid in range(len(tails))]
    parent = list(range(vertex_count))
    pieces = list(range(len(tables)))  # instances glued along shared nodes
    for pair in covers:  # a node shared by two instances is white in both
        if len(pair) != 2:
            continue
        (keep, keep_dir, i), (drop, drop_dir, j) = pair
        _union(pieces, i, j)
        if keep_dir == drop_dir:  # both faces run one way: glue the copy reversed
            _union(parent, tails[keep], heads[drop])
            _union(parent, heads[keep], tails[drop])
            slots[drop] = slots[keep][::-1]
        else:
            _union(parent, tails[keep], tails[drop])
            _union(parent, heads[keep], heads[drop])
            slots[drop] = slots[keep]
    components = sum(pieces[i] == i for i in range(len(pieces)))
    if components > 1:
        raise DisconnectedComplex(components)
    faces = [
        tuple([slots[base + side][direction < 0] for side, direction in face])
        for base, table in zip(bases, tables)
        for face in table.faces
    ]

    for node, cover in enumerate(covers):  # cap every still-open node
        if colors[node] != WHITE:
            continue
        ((arc, direction, _),) = cover
        start, finish = (heads[arc], tails[arc]) if direction > 0 else (tails[arc], heads[arc])
        fresh, b1 = len(parent), len(tails)
        parent.append(fresh)
        tails += (finish, fresh)
        heads += (fresh, start)
        bsegs += (b1, b1 + 1)
        faces.append(((arc, -direction), (b1, 1), (b1 + 1, 1)))

    root = parent  # every parent is a lesser id: one ascending pass finds the roots
    for v in range(len(root)):
        root[v] = root[root[v]]
    node_arc: dict[int, int] = {}
    if plan.mode == QUIVER:
        carriers: dict[int, set[int]] = {}
        for node, sid in carried:
            carriers.setdefault(node, set()).add(slots[sid][0][0])
        node_arc = {node: kept.pop() for node, kept in carriers.items() if len(kept) == 1}
    tri = Triangulation(
        mode=plan.mode,
        vertices=tuple([v for v, r in enumerate(root) if v == r]),
        arc_ends={s: (root[tails[s]], root[heads[s]]) for s in arcs if slots[s][0][0] == s},
        bseg_ends={s: (root[tails[s]], root[heads[s]]) for s in bsegs},
        faces=tuple(faces),
        node_arc=node_arc,
        diagram=result.diagram,
    )
    tri.validate()
    return tri


def signed_adjacency_matrix(tri: Triangulation, node_count: int) -> tuple[tuple[int, ...], ...]:
    """The exchange matrix read off the triangulation (quiver mode only)."""
    if tri.mode != QUIVER:
        raise SurfaceError(
            "signed adjacency matrices are defined for quiver-mode assemblies only"
        )
    if sorted(tri.node_arc) != list(range(node_count)):
        raise SurfaceError("triangulation does not carry one arc per node")

    pi: dict[int, int] = {}  # a self-folded triangle's repeated side -> its loop
    bump: dict[tuple[int, int], int] = {}
    for face in tri.faces:
        sids = [sid for sid, _ in face]
        repeated = {s for s in sids if sids.count(s) == 2}
        if repeated:
            (fold,) = repeated
            (loop,) = (s for s in sids if s != fold)
            pi[fold] = loop
            continue
        for s1, s2 in zip(sids, sids[1:] + sids[:1]):
            if s1 in tri.bseg_ends or s2 in tri.bseg_ends:
                continue
            bump[(s2, s1)] = bump.get((s2, s1), 0) + 1
            bump[(s1, s2)] = bump.get((s1, s2), 0) - 1

    rows = []
    for i in range(node_count):
        ai = pi.get(tri.node_arc[i], tri.node_arc[i])
        row = []
        for j in range(node_count):
            aj = pi.get(tri.node_arc[j], tri.node_arc[j])
            row.append(bump.get((ai, aj), 0))
        rows.append(tuple(row))
    return tuple(rows)
