"""Surface assembly: golden invariants and exchange-matrix recovery."""

from dataclasses import replace
from random import Random

import pytest

from blockdec.blocks import WHITE, load_block_data
from blockdec.catalog import load_catalog
from blockdec.decompose import enumerate_decompositions
from blockdec.diagram import QUIVER, S_DIAGRAM, make_diagram, to_matrix
from blockdec.gluing import BlockInstance, Plan, glue
from blockdec.oracle import random_plan
from blockdec.surface import (
    DisconnectedComplex,
    NonSurfaceComplex,
    SurfaceError,
    Triangulation,
    assemble,
    signed_adjacency_matrix,
)

DATA = load_block_data()


def plan(mode, *blocks):
    return Plan(mode, tuple(BlockInstance(tag, tuple(nodes)) for tag, *nodes in blocks))


def invariants(p):
    return assemble(DATA, p).invariants()


def quadruple(inv):
    return (inv.genus, inv.boundary, inv.punctures, list(inv.boundary_marked))


# ---------------------------------------------------------------------------
# Golden invariants, checked by hand against the gluing rules.
# ---------------------------------------------------------------------------

GOLDEN = [
    # three-cycle: one triangle piece = hexagon disk; three spikes = once-
    # punctured triangle
    (plan(QUIVER, ("Triangle", 0, 1, 2)), (0, 1, 0, [6])),
    (plan(QUIVER, ("Spike", 1, 0), ("Spike", 2, 1), ("Spike", 0, 2)), (0, 1, 1, [3])),
    # two arrows into one node
    (plan(QUIVER, ("Infork", 0, 1, 2)), (0, 1, 1, [3])),
    (plan(QUIVER, ("Spike", 0, 1), ("Spike", 0, 2)), (0, 1, 0, [6])),
    (plan(QUIVER, ("Outfork", 0, 1, 2)), (0, 1, 1, [3])),
    # 2-node path
    (plan(QUIVER, ("Spike", 1, 0), ("Spike", 2, 1)), (0, 1, 0, [6])),
    (plan(QUIVER, ("Triangle", 0, 1, 2), ("Spike", 2, 0)), (0, 1, 1, [3])),
    # single pieces
    (plan(QUIVER, ("Diamond", 0, 1, 2, 3)), (0, 1, 1, [4])),
    (plan(QUIVER, ("Square", 0, 1, 2, 3, 4)), (0, 1, 2, [2])),
    (plan(S_DIAGRAM, ("V", 0, 1, 2, 3, 4)), (0, 0, 4, [])),
    # weight-4 edge from two aligned spikes: a twice-marked annulus
    (plan(QUIVER, ("Spike", 1, 0), ("Spike", 1, 0)), (0, 2, 0, [1, 1])),
    # empty 2-node diagram from opposite spikes: punctured bigon
    (plan(QUIVER, ("Spike", 0, 1), ("Spike", 1, 0)), (0, 1, 1, [2])),
]


@pytest.mark.parametrize("p,expected", GOLDEN, ids=lambda v: str(v)[:50])
def test_golden_invariants(p, expected):
    assert quadruple(invariants(p)) == expected


def test_surface_class_is_genus_boundary():
    inv = invariants(plan(QUIVER, ("Triangle", 0, 1, 2)))
    assert inv.surface_class == (0, 1)
    assert inv.as_dict() == {
        "genus": 0,
        "boundary": 1,
        "punctures": 0,
        "boundary_marked": [6],
        "chi": 1,
        "triangles": 4,
        "arcs": 3,
    }


# ---------------------------------------------------------------------------
# The theorem's showcase: one diagram whose two decompositions give different
# surfaces (disk vs annulus), and s-mode pairs that agree.
# ---------------------------------------------------------------------------


def test_disk_vs_annulus():
    disk = plan(QUIVER, ("Diamond", 1, 2, 3, 0), ("Spike", 3, 1))
    annulus = plan(QUIVER, ("Triangle", 1, 3, 0), ("Triangle", 1, 3, 2))
    g1, g2 = glue(DATA, disk), glue(DATA, annulus)
    assert g1.diagram == g2.diagram  # same diagram underneath

    inv_disk, inv_annulus = invariants(disk), invariants(annulus)
    assert quadruple(inv_disk) == (0, 1, 2, [1])
    assert quadruple(inv_annulus) == (0, 2, 0, [2, 2])
    assert inv_disk.surface_class != inv_annulus.surface_class


def test_s_mode_pairs_agree():
    pairs = [
        # a -2-> o -2-> b
        (
            plan(S_DIAGRAM, ("Ia", 1, 0), ("Ib", 1, 2)),
            plan(S_DIAGRAM, ("II", 0, 1, 2), ("Spike", 2, 0)),
            (0, 1, 2, [2]),
            (0, 1, 2, [1]),
        ),
        # ... plus b -4-> a
        (
            plan(S_DIAGRAM, ("IV", 1, 2, 0)),
            plan(S_DIAGRAM, ("II", 0, 1, 2), ("Spike", 0, 2)),
            (0, 1, 2, [2]),
            (0, 1, 2, [1]),
        ),
    ]
    for p1, p2, q1, q2 in pairs:
        assert glue(DATA, p1).diagram == glue(DATA, p2).diagram
        i1, i2 = invariants(p1), invariants(p2)
        assert quadruple(i1) == q1
        assert quadruple(i2) == q2
        assert i1.surface_class == i2.surface_class == (0, 1)


# ---------------------------------------------------------------------------
# Exchange-matrix recovery (Definition 1).
# ---------------------------------------------------------------------------

MATRIX_PLANS = [
    plan(QUIVER, ("Spike", 0, 1)),
    plan(QUIVER, ("Triangle", 0, 1, 2)),
    plan(QUIVER, ("Infork", 0, 1, 2)),
    plan(QUIVER, ("Outfork", 0, 1, 2)),
    plan(QUIVER, ("Diamond", 0, 1, 2, 3)),
    plan(QUIVER, ("Square", 0, 1, 2, 3, 4)),
    plan(QUIVER, ("Spike", 1, 0), ("Spike", 2, 1), ("Spike", 0, 2)),
    plan(QUIVER, ("Triangle", 0, 1, 2), ("Spike", 2, 0)),
    plan(QUIVER, ("Spike", 1, 0), ("Spike", 1, 0)),
    plan(QUIVER, ("Spike", 0, 1), ("Spike", 1, 0)),
    plan(QUIVER, ("Diamond", 1, 2, 3, 0), ("Spike", 3, 1)),
    plan(QUIVER, ("Triangle", 1, 3, 0), ("Triangle", 1, 3, 2)),
    plan(QUIVER, ("Triangle", 0, 1, 2), ("Triangle", 2, 3, 0)),
]


@pytest.mark.parametrize("p", MATRIX_PLANS, ids=lambda v: str(v)[:60])
def test_matrix_matches_glued_diagram(p):
    result = glue(DATA, p)
    tri = assemble(DATA, p)
    assert signed_adjacency_matrix(tri, result.diagram.node_count) == to_matrix(
        result.diagram
    )


def test_matrix_for_every_decomposition_of_small_diagrams():
    diagrams = [
        make_diagram(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)]),
        make_diagram(4, [(1, 0, 1), (0, 2, 1), (0, 3, 1)]),
        make_diagram(4, [(3, 0, 1), (0, 1, 1), (1, 3, 1), (2, 1, 1), (3, 2, 1)]),
        make_diagram(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]),
        make_diagram(5, [(0, 1, 1), (0, 3, 1), (2, 0, 1), (4, 0, 1),
                         (1, 2, 1), (1, 4, 1), (3, 2, 1), (3, 4, 1)]),
    ]
    for d in diagrams:
        result = enumerate_decompositions(d, DATA)
        assert result.plans
        for p in result.plans:
            assert signed_adjacency_matrix(assemble(DATA, p), d.node_count) == to_matrix(d)


def test_matrix_rejects_s_mode():
    tri = assemble(DATA, plan(S_DIAGRAM, ("Ia", 1, 0), ("Ib", 1, 2)))
    with pytest.raises(SurfaceError):
        signed_adjacency_matrix(tri, 3)


# ---------------------------------------------------------------------------
# Structural soundness.
# ---------------------------------------------------------------------------


def test_every_arc_is_interior_and_every_bseg_boundary():
    tri = assemble(DATA, plan(QUIVER, ("Triangle", 0, 1, 2), ("Spike", 2, 0)))
    slots = {}
    for face in tri.faces:
        for sid, d in face:
            slots.setdefault(sid, []).append(d)
    for sid in tri.arc_ends:
        assert sorted(slots[sid]) == [-1, 1]
    for sid in tri.bseg_ends:
        assert len(slots[sid]) == 1


def test_all_faces_are_triangles_and_close():
    for p, _ in GOLDEN:
        tri = assemble(DATA, p)
        ends = {**tri.arc_ends, **tri.bseg_ends}
        for face in tri.faces:
            assert len(face) == 3
            walk = [ends[sid] if d > 0 else ends[sid][::-1] for sid, d in face]
            for (_, head), (tail, _) in zip(walk, walk[1:] + walk[:1]):
                assert head == tail


def test_chi_equals_two_minus_twog_minus_b():
    for p, _ in GOLDEN:
        inv = invariants(p)
        assert inv.chi == 2 - 2 * inv.genus - inv.boundary


def test_validator_rejects_dangling_arc():
    tri = assemble(DATA, plan(QUIVER, ("Triangle", 0, 1, 2)))
    broken = replace(
        tri, arc_ends={**tri.arc_ends, ("extra",): next(iter(tri.arc_ends.values()))}
    )
    with pytest.raises(NonSurfaceComplex, match="has traversals"):
        broken.validate()


def test_validator_rejects_incoherent_orientation():
    tri = assemble(DATA, plan(QUIVER, ("Triangle", 0, 1, 2)))
    flipped = []
    target = next(iter(tri.arc_ends))
    for face in tri.faces:
        flipped.append(
            tuple((sid, -d if sid == target else d) for sid, d in face)
        )
    broken = replace(tri, faces=tuple(flipped))
    with pytest.raises(NonSurfaceComplex):
        broken.validate()


# ---------------------------------------------------------------------------
# One mutation of an assembled surface per rejection of ``validate``.  The
# hexagon disk of one Triangle piece has 6 boundary segments and no interior
# vertex; mutations add ids like ("extra",) next to the int ids.
# ---------------------------------------------------------------------------


@pytest.fixture
def hexagon():
    tri = assemble(DATA, plan(QUIVER, ("Triangle", 0, 1, 2)))
    assert (len(tri.vertices), len(tri.bseg_ends), len(tri.faces)) == (6, 6, 4)
    return tri


def test_validator_rejects_unknown_side(hexagon):
    arc = next(iter(hexagon.arc_ends))
    broken = replace(hexagon, arc_ends={s: e for s, e in hexagon.arc_ends.items() if s != arc})
    with pytest.raises(NonSurfaceComplex, match="unknown side"):
        broken.validate()


def test_validator_rejects_segment_bounding_two_faces(hexagon):
    """A triangle glued on the far side of a boundary segment, its other two
    sides fresh boundary segments."""
    b, (tail, head) = next(iter(hexagon.bseg_ends.items()))
    extra = ("extra",)
    broken = replace(
        hexagon,
        vertices=hexagon.vertices + (extra,),
        bseg_ends={**hexagon.bseg_ends, ("x",): (tail, extra), ("y",): (extra, head)},
        faces=hexagon.faces + (((b, -1), (("x",), 1), (("y",), 1)),),
    )
    with pytest.raises(NonSurfaceComplex, match=f"boundary segment {b} bounds 2 faces"):
        broken.validate()


def test_validator_rejects_open_face(hexagon):
    b, (tail, head) = next(iter(hexagon.bseg_ends.items()))
    broken = replace(hexagon, bseg_ends={**hexagon.bseg_ends, b: (head, tail)})
    with pytest.raises(NonSurfaceComplex, match="does not close up"):
        broken.validate()


def test_validator_rejects_vertex_on_no_side(hexagon):
    broken = replace(hexagon, vertices=hexagon.vertices + (("extra",),))
    with pytest.raises(NonSurfaceComplex, match=r"vertex \('extra',\) touches no side"):
        broken.validate()


def test_validator_rejects_pinched_vertex(hexagon):
    """Two opposite corners of the hexagon made one vertex: its link is two
    paths."""
    (cycle,) = hexagon.boundary_cycles
    keep, merge = cycle[0], cycle[3]
    moved = lambda ends: {s: tuple(keep if v == merge else v for v in e) for s, e in ends.items()}  # noqa: E731
    broken = replace(
        hexagon,
        vertices=tuple(v for v in hexagon.vertices if v != merge),
        arc_ends=moved(hexagon.arc_ends),
        bseg_ends=moved(hexagon.bseg_ends),
    )
    with pytest.raises(NonSurfaceComplex, match=f"vertex {keep} link is disconnected"):
        broken.validate()


def test_validator_rejects_vertex_starting_two_segments(hexagon):
    """One boundary segment reversed together with its face slot: every face
    closes and every link is a path, but the segment's new tail starts the
    next segment too."""
    b, (tail, head) = next(iter(hexagon.bseg_ends.items()))
    faces = tuple(tuple((s, -d if s == b else d) for s, d in face) for face in hexagon.faces)
    broken = replace(hexagon, bseg_ends={**hexagon.bseg_ends, b: (head, tail)}, faces=faces)
    with pytest.raises(NonSurfaceComplex, match=f"boundary vertex {head} starts two"):
        broken.validate()


def test_validator_rejects_two_disks(hexagon):
    """The hexagon and a copy on ids ("copy", id): chi 2 and 2 boundary
    components leave 2 - chi - b = -2."""
    copy = lambda ends: {("copy", s): (("copy", t), ("copy", h)) for s, (t, h) in ends.items()}  # noqa: E731
    broken = replace(
        hexagon,
        vertices=hexagon.vertices + tuple(("copy", v) for v in hexagon.vertices),
        arc_ends={**hexagon.arc_ends, **copy(hexagon.arc_ends)},
        bseg_ends={**hexagon.bseg_ends, **copy(hexagon.bseg_ends)},
        faces=hexagon.faces
        + tuple(tuple((("copy", s), d) for s, d in face) for face in hexagon.faces),
    )
    with pytest.raises(NonSurfaceComplex, match="chi=2 with 2 boundary components"):
        broken.validate()


def test_disconnected_plan_is_refused():
    with pytest.raises(DisconnectedComplex) as info:
        assemble(DATA, plan(QUIVER, ("Spike", 0, 1), ("Spike", 2, 3)))
    assert info.value.components == 2


def test_assemble_validates_plan_first():
    from blockdec.gluing import GluingError

    with pytest.raises(GluingError):
        assemble(DATA, plan(QUIVER, ("Spike", 0, 0)))


def test_determinism():
    p = plan(QUIVER, ("Triangle", 1, 3, 0), ("Triangle", 1, 3, 2))
    t1, t2 = assemble(DATA, p), assemble(DATA, p)
    assert t1 == t2
    assert t1.invariants() == t2.invariants()


# ---------------------------------------------------------------------------
# Differential test against the tuple-keyed assembly that the integer one
# replaced: vertices and sides namespaced by instance, a dict union-find.
# ---------------------------------------------------------------------------


class _UnionFind:
    def __init__(self):
        self.parent = {}

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


def reference_assemble(data, p):
    result = glue(data, p)
    colors = result.colors
    pieces = _UnionFind()
    for inst in p.instances:
        for node in inst.nodes:
            pieces.union(inst.nodes[0], node)
    components = len({pieces.find(node) for node in range(len(colors))})
    if components > 1:
        raise DisconnectedComplex(components)

    arc_ends, bseg_ends, faces = {}, {}, []
    outlet_slots, covers, arcard = {}, {}, {}
    for idx, inst in enumerate(p.instances):
        template = data.template(inst.tag)
        piece = data.template(inst.tag).piece
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
    substitution = {}
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
        [(sid, d) if sid not in substitution else (substitution[sid][0], d * substitution[sid][1])
         for sid, d in face]
        for face in faces
    ]
    for node in sorted(covers):
        if colors[node] != WHITE:
            continue
        (arc,) = covers[node]
        direction = outlet_slots[arc]
        tail, head = arc_ends[arc]
        start, finish = (head, tail) if direction > 0 else (tail, head)
        fresh, b1, b2 = ("cap", node), ("capb", node, 1), ("capb", node, 2)
        bseg_ends[b1] = [finish, fresh]
        bseg_ends[b2] = [fresh, start]
        faces.append([(arc, -direction), (b1, 1), (b2, 1)])

    resolved_arcs = {sid: (uf.find(t), uf.find(h)) for sid, (t, h) in arc_ends.items()}
    resolved_bsegs = {sid: (uf.find(t), uf.find(h)) for sid, (t, h) in bseg_ends.items()}
    vertices = tuple(sorted(
        {v for ends in (*resolved_arcs.values(), *resolved_bsegs.values()) for v in ends}, key=repr
    ))
    node_arc = {}
    if p.mode == QUIVER:
        for node, arcs in arcard.items():
            merged = {substitution.get(a, (a, 1))[0] for a in arcs}
            if len(merged) == 1:
                node_arc[node] = merged.pop()
    tri = Triangulation(
        mode=p.mode,
        vertices=vertices,
        arc_ends=resolved_arcs,
        bseg_ends=resolved_bsegs,
        faces=tuple(tuple(face) for face in faces),
        node_arc=node_arc,
        diagram=result.diagram,
    )
    tri.validate()
    return tri


def surface_of(assembler, p):
    tri = assembler(DATA, p)
    n = tri.diagram.node_count
    matrix = signed_adjacency_matrix(tri, n) if p.mode == QUIVER else None
    return tri.diagram, tri.invariants().as_dict(), matrix


def test_catalog_surfaces_match_the_reference():
    count = 0
    for entry in load_catalog():
        for p in enumerate_decompositions(entry.diagram, DATA).plans:
            assert surface_of(assemble, p) == surface_of(reference_assemble, p), (entry.entry_id, p)
            count += 1
    assert count == 48


@pytest.mark.parametrize("mode", [QUIVER, S_DIAGRAM])
def test_random_surfaces_match_the_reference(mode):
    """Every decomposition of connected ``random_plan`` draws, at least 400
    per mode."""
    rng = Random(14)
    count = 0
    while count < 400:
        d = glue(DATA, random_plan(DATA, mode, rng, max_blocks=5)).diagram
        if len(d.components()) != 1:
            continue
        for p in enumerate_decompositions(d, DATA).plans:
            assert surface_of(assemble, p) == surface_of(reference_assemble, p), p
            count += 1
