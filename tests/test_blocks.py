"""Tests for block template and piece data."""

import pytest

from blockdec.blocks import (
    BLACK,
    ELEMENTARY_TAGS,
    UNFOLDING_TAGS,
    WHITE,
    BlockDataError,
    load_block_data,
    parse_block_data,
)
from blockdec.diagram import ALLOWED_WEIGHTS, QUIVER, S_DIAGRAM, canonical_key, make_diagram
from blockdec.gluing import NO_EDGE, net_with_arrow, target_nets


@pytest.fixture(scope="module")
def data():
    return load_block_data()


ALL_TAGS = ELEMENTARY_TAGS + UNFOLDING_TAGS


class TestTemplates:
    def test_all_thirteen_blocks_present(self, data):
        assert tuple(data.templates) == ALL_TAGS

    def test_sizes(self, data):
        sizes = {tag: data.template(tag).size for tag in ALL_TAGS}
        assert sizes == {
            "Spike": 2, "Triangle": 3, "Infork": 3, "Outfork": 3,
            "Diamond": 4, "Square": 5,
            "Ia": 2, "Ib": 2, "II": 3, "IIIa": 4, "IIIb": 4, "IV": 3, "V": 5,
        }

    def test_white_node_counts(self, data):
        whites = {tag: len(data.template(tag).white_labels()) for tag in ALL_TAGS}
        assert whites == {
            "Spike": 2, "Triangle": 3, "Infork": 1, "Outfork": 1,
            "Diamond": 2, "Square": 1,
            "Ia": 1, "Ib": 1, "II": 2, "IIIa": 1, "IIIb": 1, "IV": 1, "V": 0,
        }

    def test_elementary_blocks_have_unit_weights(self, data):
        for tag in ELEMENTARY_TAGS:
            assert all(w == 1 for _, _, w in data.template(tag).edges)

    def test_unfolding_blocks_carry_heavy_edges(self, data):
        for tag in UNFOLDING_TAGS:
            assert any(w in (2, 4) for _, _, w in data.template(tag).edges), tag

    def test_template_diagram_modes(self, data):
        for tag in ELEMENTARY_TAGS:
            assert data.template(tag).diagram().mode == QUIVER
        for tag in UNFOLDING_TAGS:
            assert data.template(tag).diagram().mode == S_DIAGRAM

    def test_triangle_diagram_is_three_cycle(self, data):
        got = data.template("Triangle").diagram()
        want = make_diagram(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        assert canonical_key(got) == canonical_key(want)

    def test_iv_diagram(self, data):
        # u -2-> w -4-> p -2-> u
        got = data.template("IV").diagram()
        want = make_diagram(3, [(0, 1, 2), (1, 2, 4), (2, 0, 2)], mode=S_DIAGRAM)
        assert canonical_key(got) == canonical_key(want)

    def test_fork_diagrams_are_mutual_reversals(self, data):
        from blockdec.diagram import reverse_diagram
        infork = data.template("Infork").diagram()
        outfork = data.template("Outfork").diagram()
        assert canonical_key(reverse_diagram(infork)) == canonical_key(outfork)

    def test_v_block_is_all_black(self, data):
        assert all(c == BLACK for c in data.template("V").colors)

    def test_automorphism_group_orders(self, data):
        orders = {tag: len(data.template(tag).automorphisms) for tag in ALL_TAGS}
        assert orders == {
            "Spike": 1, "Triangle": 3, "Infork": 2, "Outfork": 2,
            "Diamond": 2, "Square": 4,
            "Ia": 1, "Ib": 1, "II": 1, "IIIa": 2, "IIIb": 2, "IV": 1, "V": 4,
        }

    def test_placements_start_once_per_orbit(self, data):
        """The compiled placement orders start at one label of each orbit of
        the automorphism group."""
        for tag in ALL_TAGS:
            t = data.template(tag)
            starts = [start for start, _ in t.placement_orders]
            orbits = {frozenset(p[i] for p in t.automorphisms) for i in range(t.size)}
            assert len(starts) == len(orbits), tag
            assert all(len(orbit.intersection(starts)) == 1 for orbit in orbits), tag
        assert len(data.template("Triangle").placement_orders) == 1
        assert len(data.template("Square").placement_orders) == 3

    def test_identity_is_always_an_automorphism(self, data):
        for tag in ALL_TAGS:
            t = data.template(tag)
            assert tuple(range(t.size)) in t.automorphisms

    def test_canonical_assignment_triangle(self, data):
        t = data.template("Triangle")
        # The cyclic rotations identify all three rotations of an assignment.
        assert t.canonical_assignment((5, 3, 9)) == (3, 9, 5)
        assert t.canonical_assignment((3, 9, 5)) == (3, 9, 5)

    def test_canonical_assignment_infork_swaps_tails(self, data):
        t = data.template("Infork")
        assert t.canonical_assignment((7, 9, 2)) == (7, 2, 9)

    def test_canonical_assignment_spike_is_identity(self, data):
        t = data.template("Spike")
        assert t.canonical_assignment((9, 1)) == (9, 1)

    def test_tags_for_mode(self, data):
        assert data.tags_for_mode(QUIVER) == ELEMENTARY_TAGS
        assert data.tags_for_mode(S_DIAGRAM) == ALL_TAGS


class TestCompiledTables:
    """The tables the decomposer reads, against what they are compiled from."""

    def test_black_flags_and_degrees(self, data):
        for tag in ALL_TAGS:
            t = data.template(tag)
            assert t.blacks == tuple(c == BLACK for c in t.colors), tag
            assert t.degrees == tuple(
                sum(pos in (f, h) for f, h, _ in t.index_edges) for pos in range(t.size)
            ), tag

    def test_placement_steps(self, data):
        """Every order places each label once; each step's anchor is placed
        before it and is the other end of its first joining edge; candidates
        are neighbours only when that edge has a black end, and an edge is
        hard when an end is black.  Every index edge joins exactly one step."""
        for tag in ALL_TAGS:
            t = data.template(tag)
            for start, steps in t.placement_orders:
                placed, joined = [start], []
                for step in steps:
                    assert step.anchor in placed, (tag, start, step)
                    f, h, _, _ = step.edges[0]
                    assert step.anchor == (h if f == step.pos else f), (tag, start, step)
                    assert step.adjacent == (BLACK in (t.colors[f], t.colors[h])), (tag, step)
                    for f, h, w, hard in step.edges:
                        assert step.pos in (f, h) and {f, h} - {step.pos} <= set(placed)
                        assert hard == (BLACK in (t.colors[f], t.colors[h])), (tag, step)
                        joined.append((f, h, w))
                    placed.append(step.pos)
                assert sorted(placed) == list(range(t.size)), (tag, start)
                assert sorted(joined) == sorted(t.index_edges), (tag, start)

    @pytest.mark.parametrize("mode", [QUIVER, S_DIAGRAM])
    def test_mode_tables(self, data, mode):
        """Per mode: the placement orders of the mode's templates in one
        flat list, in data order, and for every set of nets that
        ``target_nets`` gives a pair of the mode, and for no edge, that set
        plus the nets one more template arrow turns into it."""
        tables = data.modes[mode]
        templates = [data.template(tag) for tag in data.tags_for_mode(mode)]
        assert tables.orders == tuple(
            (t.tag, t.blacks, t.degrees, t.canonical_assignment, start, steps)
            for t in templates
            for start, steps in t.placement_orders
        )
        steps = {
            net_with_arrow({}, a, b, w)[1]
            for template in templates
            for _, _, w in template.index_edges
            for a, b in ((0, 1), (1, 0))
        }

        def reachable(nets):
            return nets | {(u - du, h - dh) for u, h in nets for du, dh in steps}

        targets = {NO_EDGE}
        for weight in ALLOWED_WEIGHTS[mode]:
            for edge in ((0, 1, weight), (1, 0, weight)):
                targets.update(target_nets(make_diagram(2, [edge], mode)).values())
        assert len(targets) == 1 + 2 * len(ALLOWED_WEIGHTS[mode])
        for nets in targets:
            assert tables.open_nets[nets] == reachable(nets), nets


    def test_piece_tables(self, data):
        """Per template, its piece on integer ids against the ``Piece``: the
        vertex count, each side's ends, kind and arc label position, the
        faces, and each outlet's label, side and single slot direction."""
        for tag in ALL_TAGS:
            t, piece, table = data.template(tag), data.piece_for(tag), data.piece_tables[tag]
            assert table.vertex_count == len(piece.vertices), tag
            assert len(table.sides) == len(piece.sides), tag
            for (tail, head, is_arc, label), side in zip(table.sides, piece.sides):
                assert (piece.vertices[tail], piece.vertices[head]) == (side.tail, side.head)
                assert is_arc == side.is_arc, (tag, side)
                assert (t.labels[label] if is_arc else label) == (side.label if is_arc else -1)
            faces = tuple(tuple((piece.sides[s].sid, d) for s, d in face) for face in table.faces)
            assert faces == piece.faces, tag
            assert len(table.outlets) == len(piece.outlets), tag
            for (label, s, d), (outlet_label, sid) in zip(table.outlets, piece.outlets):
                assert (t.labels[label], piece.sides[s].sid) == (outlet_label, sid)
                assert [fd for face in piece.faces for fs, fd in face if fs == sid] == [d]


class TestPieces:
    def test_every_block_has_a_piece(self, data):
        for tag in ALL_TAGS:
            assert data.piece_for(tag) is not None

    def test_outlets_match_white_labels(self, data):
        for tag in ALL_TAGS:
            t = data.template(tag)
            piece = data.piece_for(tag)
            assert {lab for lab, _ in piece.outlets} == set(t.white_labels())

    def test_euler_characteristics(self, data):
        # All pieces are disks (chi=1) except the closed V piece (a sphere).
        for tag in ALL_TAGS:
            piece = data.piece_for(tag)
            chi = len(piece.vertices) - len(piece.sides) + len(piece.faces)
            assert chi == (2 if tag == "V" else 1), tag

    def test_v_piece_is_closed(self, data):
        piece = data.piece_for("V")
        assert all(s.is_arc for s in piece.sides)
        assert all(piece.slot_count(s.sid) == 2 for s in piece.sides)

    def test_boundary_arcs_are_exactly_outlets_plus_bsegs(self, data):
        for tag in ALL_TAGS:
            piece = data.piece_for(tag)
            outlet_sids = {sid for _, sid in piece.outlets}
            for s in piece.sides:
                slots = piece.slot_count(s.sid)
                if s.kind == "bseg":
                    assert slots == 1
                elif slots == 1:
                    assert s.sid in outlet_sids, (tag, s.sid)
                else:
                    assert slots == 2 and s.sid not in outlet_sids, (tag, s.sid)

    def test_unfolding_pieces_carry_tagged_pairs(self, data):
        for tag in UNFOLDING_TAGS:
            piece = data.piece_for(tag)
            assert piece.tagpairs, tag
            for a, b in piece.tagpairs:
                assert piece.side(a).label == piece.side(b).label

    def test_elementary_pieces_have_no_tagged_pairs(self, data):
        for tag in ELEMENTARY_TAGS:
            assert data.piece_for(tag).tagpairs == ()

    def test_arc_labels_cover_template(self, data):
        for tag in ALL_TAGS:
            t = data.template(tag)
            piece = data.piece_for(tag)
            assert {s.label for s in piece.sides if s.is_arc} == set(t.labels)


class TestDataErrors:
    def test_nonclosing_face_rejected(self):
        text = """
piecedef bad
vertex A B C
side x arc A B
side y arc A C
side z bseg C A
face x+ y+ z+
"""
        with pytest.raises(BlockDataError, match="close"):
            parse_block_data(text)

    def test_vertex_on_no_side_rejected(self):
        text = """
piecedef bad
vertex A B C D
side x arc A B
side y arc B C
side z bseg C A
face x+ y+ z+
"""
        with pytest.raises(BlockDataError, match="vertex 'D' lies on no side"):
            parse_block_data(text)

    def test_incoherent_orientation_rejected(self):
        text = """
piecedef bad
vertex A B C
side x arc A B
side y arc B C
side z arc C A
side y2 arc B C
side z2 arc C A
face x+ y+ z+
face x+ y2+ z2+
"""
        with pytest.raises(BlockDataError, match="same direction"):
            parse_block_data(text)

    def test_unknown_piece_reference_rejected(self):
        text = """
block Solo
node 1 white
edge 1 1 1
piece nowhere
"""
        with pytest.raises(BlockDataError, match="unknown piece"):
            parse_block_data(text)

    def test_elementary_heavy_edge_rejected(self):
        text = """
block Spike
node 1 white
node 2 white
edge 2 1 2
piece p
piecedef p
vertex A B C
side a1 arc A B label 1
side a2 arc B C label 2
side s3 bseg C A
outlet 1 a1
outlet 2 a2
face a1+ a2+ s3+
"""
        with pytest.raises(BlockDataError, match="weight-1"):
            parse_block_data(text)


class TestDataOverride:
    def test_blockdec_data_env_override(self, tmp_path, monkeypatch):
        # A data dir with a single cut-down block is honoured via the env var.
        (tmp_path / "blocks.txt").write_text(
            """
block Spike
node 1 white
node 2 white
edge 2 1 1
piece spike

piecedef spike
vertex A B C
side a1 arc A B label 1
side a2 arc B C label 2
side s3 bseg C A
outlet 1 a1
outlet 2 a2
face a1+ a2+ s3+
"""
        )
        monkeypatch.setenv("BLOCKDEC_DATA", str(tmp_path))
        data = load_block_data()
        assert tuple(data.templates) == ("Spike",)
