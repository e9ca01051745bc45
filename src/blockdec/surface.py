"""Assembling the triangulated surface of a decomposition.

Each block instance contributes a copy of its template's triangulated piece.
Whenever two instances share a (white) diagram node, their outlet arcs are
identified; each face slot keeps counter-clockwise orientation, so the two
faces must traverse the merged arc in opposite directions -- if both stored
traversals agree, the identification reverses the arc (tail to head).  A node
covered once through a white slot keeps a boundary outlet; it is *capped* by a
triangle attached along the outlet with two fresh boundary segments.

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

from .blocks import WHITE, BlockData, load_block_data
from .diagram import QUIVER
from .gluing import Plan, glue

Vertex = tuple  # namespaced vertex id
SideId = tuple  # namespaced side id
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
        return {
            "genus": self.genus,
            "boundary": self.boundary,
            "punctures": self.punctures,
            "boundary_marked": list(self.boundary_marked),
            "chi": self.chi,
            "triangles": self.triangles,
            "arcs": self.arcs,
        }


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        parent = self.parent
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb, key=repr)] = min(ra, rb, key=repr)


@dataclass(frozen=True)
class Triangulation:
    """A glued triangulated surface with boundary."""

    mode: str
    vertices: tuple[Vertex, ...]
    arc_ends: dict[SideId, tuple[Vertex, Vertex]]  # tail, head (resolved)
    bseg_ends: dict[SideId, tuple[Vertex, Vertex]]
    faces: tuple[tuple[Slot, Slot, Slot], ...]
    node_arc: dict[int, SideId]  # diagram node -> its arc (quiver mode)

    def _slots_by_side(self) -> dict[SideId, list[int]]:
        slots: dict[SideId, list[int]] = {}
        for face in self.faces:
            for sid, direction in face:
                slots.setdefault(sid, []).append(direction)
        return slots

    def validate(self) -> None:
        side_ends = {**self.arc_ends, **self.bseg_ends}
        slots = self._slots_by_side()

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
            walk = [
                side_ends[sid] if d > 0 else side_ends[sid][::-1] for sid, d in face
            ]
            for (_, head), (tail, _) in zip(walk, walk[1:] + walk[:1]):
                if head != tail:
                    raise NonSurfaceComplex(f"face {face} does not close up")

        self._validate_links(side_ends)

        chi = self.chi
        b = len(self._boundary_cycles())
        if (2 - chi - b) % 2 or (2 - chi - b) < 0:
            raise NonSurfaceComplex(
                f"chi={chi} with {b} boundary components is not a surface"
            )

    def _validate_links(self, side_ends) -> None:
        """Each vertex link must be a single circle (interior vertex) or a
        single path whose ends are boundary-segment ends."""
        # Link nodes are side-ends; corners of faces join them.
        adjacency: dict[tuple, list[tuple]] = {}
        incident: dict[Vertex, set[tuple]] = {}
        for sid, (tail, head) in side_ends.items():
            incident.setdefault(tail, set()).add((sid, 0))
            incident.setdefault(head, set()).add((sid, 1))
        for face in self.faces:
            for (s1, d1), (s2, d2) in zip(face, face[1:] + face[:1]):
                end1 = (s1, 1 if d1 > 0 else 0)  # traversal finishes here
                end2 = (s2, 0 if d2 > 0 else 1)  # next traversal starts here
                adjacency.setdefault(end1, []).append(end2)
                adjacency.setdefault(end2, []).append(end1)

        for vertex in self.vertices:
            ends = incident.get(vertex, set())
            if not ends:
                raise NonSurfaceComplex(f"vertex {vertex} touches no side")
            for end in ends:
                degree = len(adjacency.get(end, []))
                expected = 1 if end[0] in self.bseg_ends else 2
                if degree != expected:
                    raise NonSurfaceComplex(
                        f"vertex {vertex}: side-end {end} has {degree} corners"
                    )
            # single component?
            start = next(iter(ends))
            seen = {start}
            queue = [start]
            while queue:
                for nxt in adjacency.get(queue.pop(), []):
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
            if seen != ends:
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

    def _boundary_cycles(self) -> list[list[Vertex]]:
        starts: dict[Vertex, list[SideId]] = {}
        for sid, (tail, head) in self.bseg_ends.items():
            starts.setdefault(tail, []).append(sid)
        for vertex, sids in starts.items():
            if len(sids) != 1:
                raise NonSurfaceComplex(
                    f"boundary vertex {vertex} starts {len(sids)} boundary segments"
                )
        outgoing = {vertex: sids[0] for vertex, sids in starts.items()}
        heads = [head for _, head in self.bseg_ends.values()]
        if sorted(heads, key=repr) != sorted(outgoing, key=repr):
            raise NonSurfaceComplex("boundary segments do not chain into cycles")

        cycles: list[list[Vertex]] = []
        remaining = dict(outgoing)
        while remaining:
            start = min(remaining, key=repr)
            cycle = [start]
            sid = remaining.pop(start)
            vertex = self.bseg_ends[sid][1]
            while vertex != start:
                cycle.append(vertex)
                sid = remaining.pop(vertex)
                vertex = self.bseg_ends[sid][1]
            cycles.append(cycle)
        return cycles

    def invariants(self) -> SurfaceInvariants:
        cycles = self._boundary_cycles()
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
    pieces = _UnionFind()  # instances that share a node are glued together
    for inst in plan.instances:
        for node in inst.nodes:
            pieces.union(inst.nodes[0], node)
    components = len({pieces.find(node) for node in range(len(colors))})
    if components > 1:
        raise DisconnectedComplex(components)

    arc_ends: dict[SideId, list[Vertex]] = {}
    bseg_ends: dict[SideId, list[Vertex]] = {}
    faces: list[list[Slot]] = []
    outlet_slots: dict[SideId, int] = {}  # direction of an outlet's single slot
    covers: dict[int, list[SideId]] = {}  # node -> outlet arcs landing on it
    arcard: dict[int, list[SideId]] = {}  # node -> every arc carrying it

    for idx, inst in enumerate(plan.instances):
        template = data.template(inst.tag)
        piece = data.piece_for(inst.tag)
        node_of = dict(zip(template.labels, inst.nodes))
        outlets = {sid for _, sid in piece.outlets}
        for side in piece.sides:
            sid = (idx, side.sid)
            ends = [(idx, side.tail), (idx, side.head)]
            if side.is_arc:
                arc_ends[sid] = ends
                arcard.setdefault(node_of[side.label], []).append(sid)
            else:
                bseg_ends[sid] = ends
        for face in piece.faces:
            faces.append([((idx, sid), d) for sid, d in face])
            for sid, d in face:
                if sid in outlets:
                    outlet_slots[(idx, sid)] = d
        for label, sid in piece.outlets:
            covers.setdefault(node_of[label], []).append((idx, sid))

    uf = _UnionFind()
    for ends in list(arc_ends.values()) + list(bseg_ends.values()):
        for v in ends:
            uf.find(v)

    # Identify outlet arcs of shared nodes.
    substitution: dict[SideId, tuple[SideId, int]] = {}
    for node in sorted(covers):
        arcs = covers[node]
        if len(arcs) != 2:
            continue
        keep, drop = arcs
        flip = -1 if outlet_slots[keep] == outlet_slots[drop] else 1
        kt, kh = arc_ends[keep]
        dt, dh = arc_ends[drop]
        if flip < 0:
            uf.union(kt, dh)
            uf.union(kh, dt)
        else:
            uf.union(kt, dt)
            uf.union(kh, dh)
        substitution[drop] = (keep, flip)
        del arc_ends[drop]

    faces = [
        [
            (sid, d) if sid not in substitution
            else (substitution[sid][0], d * substitution[sid][1])
            for sid, d in face
        ]
        for face in faces
    ]

    # Cap every still-open node.
    for node in sorted(covers):
        if colors[node] != WHITE:
            continue
        (arc,) = covers[node]
        direction = outlet_slots[arc]
        tail, head = arc_ends[arc]
        start, finish = (head, tail) if direction > 0 else (tail, head)
        fresh = ("cap", node)
        b1 = ("capb", node, 1)
        b2 = ("capb", node, 2)
        bseg_ends[b1] = [finish, fresh]
        bseg_ends[b2] = [fresh, start]
        uf.find(fresh)
        faces.append([(arc, -direction), (b1, 1), (b2, 1)])

    resolved_arcs = {
        sid: (uf.find(t), uf.find(h)) for sid, (t, h) in arc_ends.items()
    }
    resolved_bsegs = {
        sid: (uf.find(t), uf.find(h)) for sid, (t, h) in bseg_ends.items()
    }
    vertices = tuple(
        sorted({v for ends in (*resolved_arcs.values(), *resolved_bsegs.values())
                for v in ends}, key=repr)
    )

    node_arc: dict[int, SideId] = {}
    if plan.mode == QUIVER:
        for node, arcs in arcard.items():
            merged = {substitution.get(a, (a, 1))[0] for a in arcs}
            if len(merged) == 1:
                node_arc[node] = merged.pop()

    tri = Triangulation(
        mode=plan.mode,
        vertices=vertices,
        arc_ends=resolved_arcs,
        bseg_ends=resolved_bsegs,
        faces=tuple([tuple(face) for face in faces]),
        node_arc=node_arc,
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

    # Self-folded triangles: the repeated side maps to its enclosing loop.
    pi: dict[SideId, SideId] = {}
    folded_faces = []
    for face in tri.faces:
        sids = [sid for sid, _ in face]
        repeated = {s for s in sids if sids.count(s) == 2}
        if repeated:
            (fold,) = repeated
            (loop,) = (s for s in sids if s != fold)
            pi[fold] = loop
            folded_faces.append(face)

    bump: dict[tuple[SideId, SideId], int] = {}
    for face in tri.faces:
        if face in folded_faces:
            continue
        for (s1, _), (s2, _) in zip(face, face[1:] + face[:1]):
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
