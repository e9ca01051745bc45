"""Block templates and their triangulated pieces.

A *block template* is a small diagram with labelled nodes, each node coloured
white (open: may be shared with one other block) or black (closed: may not be
shared).  A *piece* is the triangulated bordered surface attached to a
template; its boundary arcs ("outlets") correspond to the template's white
nodes and are the sites along which pieces are glued together.

The built-in templates and pieces live in ``data/blocks.txt``; the
``BLOCKDEC_DATA`` environment variable may point at a directory containing an
alternative ``blocks.txt`` (and ``catalog.txt``).  In the package only the
command line loads them; every engine function takes the loaded
:class:`BlockData` as an argument.  Each ``block`` stanza is checked against
its piece and then built once into a complete :class:`BlockTemplate`, which
holds its piece and every table compiled from the two.  Which mode admits a
template is read off its weights: quivers admit the templates whose edges
all weigh 1, s-diagrams every template.

The modules import one way, in the order ``diagram``, ``gluing``, this
module, then ``decompose``, ``oracle`` and ``surface``, then ``catalog`` and
``cli``.  This module sits above ``gluing`` because the colours are rule 1's
and loading the data glues instances to check the part lemma.
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from importlib import resources
from operator import itemgetter
from typing import NamedTuple

from .diagram import (
    ALLOWED_WEIGHTS,
    MODES,
    QUIVER,
    S_DIAGRAM,
    Diagram,
    make_diagram,
)
from .gluing import BLACK, WHITE, BlockInstance, GlueState, open_nets


class BlockDataError(ValueError):
    """The block data file is malformed or structurally inconsistent."""


@dataclass(frozen=True)
class Side:
    """One side of a triangulated piece: an interior arc or a boundary segment."""

    sid: str
    kind: str  # "arc" or "bseg"
    tail: str
    head: str
    label: str | None = None  # template node label carried by an arc

    @property
    def is_arc(self) -> bool:
        return self.kind == "arc"

    @property
    def is_loop(self) -> bool:
        return self.tail == self.head


@dataclass(frozen=True)
class Piece:
    """A triangulated bordered surface; faces are oriented counter-clockwise.

    Each face is a triple of ``(side-id, direction)`` slots, direction ``+1``
    when the face traverses the side tail-to-head and ``-1`` otherwise.  A face
    that uses one side twice is a self-folded triangle.
    """

    pid: str
    vertices: tuple[str, ...]
    sides: tuple[Side, ...]
    outlets: tuple[tuple[str, str], ...]  # (template label, side id)
    faces: tuple[tuple[tuple[str, int], ...], ...]
    tagpairs: tuple[tuple[str, str], ...]

    def side(self, sid: str) -> Side:
        for s in self.sides:
            if s.sid == sid:
                return s
        raise KeyError(sid)

    def slot_count(self, sid: str) -> int:
        return sum(1 for face in self.faces for fsid, _ in face if fsid == sid)


class PlacementStep(NamedTuple):
    """One label that the decomposer places after the start of a placement
    order, joined to labels placed before it."""

    pos: int  # the label placed
    anchor: int  # an earlier label; the candidates lie near its node
    adjacent: bool  # candidates are the anchor's target neighbours only
    # The edges joining ``pos`` to earlier labels, each with a flag that is
    # set when an end is black: those first, then by how early their other
    # end was placed.
    edges: tuple[tuple[int, int, int, bool], ...]


@dataclass(frozen=True)
class BlockTemplate:
    """A block: labelled coloured nodes, weighted edges, and its piece.

    :func:`parse_block_data` builds each template once, complete, from a
    ``block`` stanza it has checked against the stanza's piece.  Labels are
    referred to by position in ``labels`` everywhere but in ``piece``:

    * ``edges``: ``(from, to, weight)`` per edge;
    * ``automorphisms``: the label permutations preserving colours and
      edges, each as a position permutation ``p`` mapping label ``i`` to
      label ``p[i]``;
    * ``blacks`` and ``degrees``: per label, whether it is black and how many
      edges meet it;
    * ``image_getters``: per automorphism, a getter taking an assignment to
      its image;
    * ``placement_orders``: one breadth-first placement per orbit of
      ``automorphisms``, as its start label and a :class:`PlacementStep` per
      later label.  A step's anchor is the other end of its first joining
      edge.  By the corollary in :mod:`blockdec.decompose`, the label's
      candidates are the anchor's target neighbours when that edge has a
      black end (then ``adjacent`` is set), and its distance-2 ball
      otherwise;
    * ``piece`` and ``tables``: the triangulated piece, and the piece on
      integer ids.
    """

    tag: str
    labels: tuple[str, ...]
    colors: tuple[str, ...]
    edges: tuple[tuple[int, int, int], ...]
    automorphisms: tuple[tuple[int, ...], ...]
    blacks: tuple[bool, ...]
    degrees: tuple[int, ...]
    image_getters: tuple[Callable, ...] = field(compare=False, repr=False)
    placement_orders: tuple[tuple[int, tuple[PlacementStep, ...]], ...]
    piece: Piece
    tables: PieceTables

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def mode(self) -> str:
        """Quiver when every edge weighs 1, else s: the least mode whose
        diagrams the template can be part of."""
        return QUIVER if all(w == 1 for _, _, w in self.edges) else S_DIAGRAM

    def diagram(self) -> Diagram:
        """The template as a standalone diagram (labels in declaration order)."""
        return make_diagram(self.size, self.edges, mode=self.mode)

    def canonical_assignment(self, nodes: tuple[int, ...]) -> tuple[int, ...]:
        """Least representative of ``nodes`` under the template's automorphisms.

        ``nodes[i]`` is the diagram node assigned to ``labels[i]``; two
        assignments related by an automorphism place identical edges.
        """
        return min(image(nodes) for image in self.image_getters)


@dataclass(frozen=True)
class ModeTables:
    """What the decomposer reads for one mode, compiled when the data loads.

    ``tags`` are the block tags the mode admits, in data order: s-diagrams
    admit every block, quivers the blocks whose edges all weigh 1.
    ``open_nets`` maps each set of nets that a pair may end with (each value
    of :func:`~blockdec.gluing.target_nets`, and
    :data:`~blockdec.gluing.NO_EDGE`) to that set plus the nets that one more
    arrow of those templates turns into one of them.
    ``orders`` holds those templates' placement orders in data order, in one
    list, each with the template's tag, blacks, degrees and
    ``canonical_assignment``.
    """

    tags: tuple[str, ...]
    open_nets: dict[frozenset[tuple[int, int]], frozenset[tuple[int, int]]]
    orders: tuple[tuple[str, tuple[bool, ...], tuple[int, ...], Callable, int, tuple], ...]


class PieceTables(NamedTuple):
    """A template's piece on integer ids, compiled when the data loads.

    Vertices and sides are numbered in declaration order.  Per side:
    ``(tail, head, is_arc, label)``, ``label`` the position of the template
    label an arc carries (``-1`` for a boundary segment).  Faces are
    ``(side, direction)`` slots; an outlet is ``(label, side, direction)``,
    the direction that of its single face slot.
    """

    vertex_count: int
    sides: tuple[tuple[int, int, bool, int], ...]
    faces: tuple[tuple[tuple[int, int], ...], ...]
    outlets: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class BlockData:
    """All templates from one data file, in data order, and per mode the
    decomposer's tables."""

    templates: dict[str, BlockTemplate]
    modes: dict[str, ModeTables] = field(compare=False, repr=False)

    def template(self, tag: str) -> BlockTemplate:
        try:
            return self.templates[tag]
        except KeyError:
            raise BlockDataError(f"unknown block tag {tag!r}") from None


def _build_template(stanza: dict, piece: Piece) -> BlockTemplate:
    """The template of a ``block`` stanza that :func:`_check_block` passed."""
    labels = tuple(label for label, _ in stanza["nodes"])
    colors = tuple(color for _, color in stanza["nodes"])
    index = {label: i for i, label in enumerate(labels)}
    edges = tuple((index[f], index[t], w) for f, t, w in stanza["edges"])
    edge_set = set(edges)
    automorphisms = tuple(
        p
        for p in itertools.permutations(range(len(labels)))
        if all(colors[i] == colors[j] for i, j in enumerate(p))
        and {(p[f], p[t], w) for f, t, w in edges} == edge_set
    )
    blacks = tuple(color == BLACK for color in colors)
    adjacency: list[list[int]] = [[] for _ in labels]
    for f, t, _ in edges:
        adjacency[f].append(t)
        adjacency[t].append(f)
    # One start per orbit of the automorphism group, its least position: a
    # placement anchored at any other position of the orbit is the same
    # instance up to an automorphism.
    starts = sorted({min(p[i] for p in automorphisms) for i in range(len(labels))})
    orders = []
    for start in starts:
        order, seen = [start], {start}
        for pos in order:  # grows while it is walked: a breadth-first queue
            for nxt in sorted(adjacency[pos]):
                if nxt not in seen:
                    seen.add(nxt)
                    order.append(nxt)
        steps, rank = [], {start: 0}
        for pos in order[1:]:
            rank[pos] = len(rank)
            joins = sorted(
                (not hard, rank[t if f == pos else f], (f, t, w, hard))
                for f, t, w in edges
                if pos in (f, t) and {f, t} <= rank.keys()
                for hard in [blacks[f] or blacks[t]]
            )
            f, t, _, hard = joins[0][2]
            anchor = t if f == pos else f
            steps.append(PlacementStep(pos, anchor, hard, tuple(edge for _, _, edge in joins)))
        orders.append((start, tuple(steps)))
    # itemgetter of one index returns a bare item, but one label has only
    # the identity automorphism, whose image is the assignment itself.
    images = tuple(itemgetter(*p) if len(p) > 1 else tuple for p in automorphisms)
    return BlockTemplate(
        tag=stanza["tag"],
        labels=labels,
        colors=colors,
        edges=edges,
        automorphisms=automorphisms,
        blacks=blacks,
        degrees=tuple(len(near) for near in adjacency),
        image_getters=images,
        placement_orders=tuple(orders),
        piece=piece,
        tables=_compile_piece(index, piece),
    )


def _compile_piece(label: dict[str, int], piece: Piece) -> PieceTables:
    """``piece`` on integer ids, its arcs' labels as positions by ``label``."""
    vertex = {v: i for i, v in enumerate(piece.vertices)}
    side = {s.sid: i for i, s in enumerate(piece.sides)}
    faces = tuple(tuple((side[sid], d) for sid, d in face) for face in piece.faces)
    direction = {sid: d for face in faces for sid, d in face}  # an outlet has one slot
    return PieceTables(
        len(piece.vertices),
        tuple(
            (vertex[s.tail], vertex[s.head], s.is_arc, label[s.label] if s.is_arc else -1)
            for s in piece.sides
        ),
        faces,
        tuple((label[l], side[sid], direction[side[sid]]) for l, sid in piece.outlets),
    )


def _compile_mode(templates: dict[str, BlockTemplate], mode: str) -> ModeTables:
    """The decomposer's tables for ``mode``."""
    admitted = tuple(t for t in templates.values() if mode == S_DIAGRAM or t.mode == QUIVER)
    orders = tuple(
        (t.tag, t.blacks, t.degrees, t.canonical_assignment, start, steps)
        for t in admitted
        for start, steps in t.placement_orders
    )
    return ModeTables(tuple(t.tag for t in admitted), open_nets(admitted), orders)


def _check_part_lemma(data: BlockData) -> None:
    """Raise :class:`BlockDataError` unless the templates meet condition (2)
    of the part lemma in :mod:`blockdec.decompose`: wherever an instance J
    cancels the arrow of an instance I between white nodes a and b, the net
    of I + J leaves a and b either both without arrows or with arrows to a
    common node.  Condition (1), that every template is connected, is
    checked per stanza by :func:`_check_block`.

    Only an arrow between two white labels can be cancelled, and only by an
    arrow of the same weight and the opposite direction between two white
    labels of J.  Every such pairing is tried, glued on one
    :class:`~blockdec.gluing.GlueState`.  The s mode admits every template,
    so one pass covers both modes; a failing pair of weight-1 templates
    fails in quiver mode too.
    """
    templates = list(data.templates.values())
    state = GlueState(data, 2 * max((t.size for t in templates), default=0))
    for s in templates:
        state.push(BlockInstance(s.tag, tuple(range(s.size))))
        for p, q, w in s.edges:
            for t in templates:
                for r, u, tw in t.edges:
                    if tw != w or BLACK in (s.colors[p], s.colors[q], t.colors[r], t.colors[u]):
                        continue
                    for nodes in _cancelling_placements(s, p, q, t, r, u):
                        state.push(BlockInstance(t.tag, nodes))
                        keeps = _cancel_keeps_parts(state.nets, p, q)
                        state.pop()
                        if not keeps:
                            modes = "quiver and s" if s.mode == t.mode == QUIVER else "s"
                            raise BlockDataError(
                                f"{modes} mode: block {t.tag} arrow {t.labels[r]}->{t.labels[u]} "
                                f"cancels block {s.tag} arrow {s.labels[p]}->{s.labels[q]} and "
                                "leaves its ends in different parts"
                            )
        state.pop()


def _cancelling_placements(
    s: BlockTemplate, p: int, q: int, t: BlockTemplate, r: int, u: int
) -> Iterator[tuple[int, ...]]:
    """The nodes of J = ``t`` when its arrow r->u lands on q->p, against the
    arrow p->q of I = ``s`` on nodes ``0..``: each way for J's other white
    labels to share I's other white labels, J's unshared labels after I."""
    s_open = [i for i in range(s.size) if s.colors[i] == WHITE and i not in (p, q)]
    t_open = [j for j in range(t.size) if t.colors[j] == WHITE and j not in (r, u)]
    for k in range(min(len(s_open), len(t_open)) + 1):
        for shared in itertools.combinations(t_open, k):
            for image in itertools.permutations(s_open, k):
                where = {r: q, u: p, **dict(zip(shared, image))}
                yield tuple(where.get(j, s.size + j) for j in range(t.size))


def _cancel_keeps_parts(nets: dict[tuple[int, int], tuple[int, int]], p: int, q: int) -> bool:
    """Given the nonzero nets of two glued instances, are ``p`` and ``q``
    both without arrows, or do both have one to a common node?"""
    near_p, near_q = ({b if a == x else a for a, b in nets if x in (a, b)} for x in (p, q))
    return not near_p and not near_q or bool(near_p & near_q)


def _parse_lines(text: str) -> tuple[list[dict], list[dict]]:
    """Split the data file into raw block and piece stanza dictionaries."""
    blocks: list[dict] = []
    pieces: list[dict] = []
    current: dict | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kw = tokens[0]

        def fail(msg: str) -> BlockDataError:
            return BlockDataError(f"blocks data line {lineno}: {msg}")

        if kw == "block":
            if len(tokens) != 2:
                raise fail("expected 'block <tag>'")
            current = {"kind": "block", "tag": tokens[1], "nodes": [], "edges": [], "piece": None}
            blocks.append(current)
        elif kw == "piecedef":
            if len(tokens) != 2:
                raise fail("expected 'piecedef <id>'")
            current = {
                "kind": "piece",
                "pid": tokens[1],
                "vertices": [],
                "sides": [],
                "outlets": [],
                "faces": [],
                "tagpairs": [],
            }
            pieces.append(current)
        elif current is None:
            raise fail(f"{kw!r} before any 'block' or 'piecedef' stanza")
        elif current["kind"] == "block":
            if kw == "node":
                if len(tokens) != 3 or tokens[2] not in (WHITE, BLACK):
                    raise fail("expected 'node <label> <white|black>'")
                current["nodes"].append((tokens[1], tokens[2]))
            elif kw == "edge":
                if len(tokens) != 4:
                    raise fail("expected 'edge <from> <to> <weight>'")
                try:
                    weight = int(tokens[3])
                except ValueError:
                    raise fail(f"bad weight {tokens[3]!r}") from None
                current["edges"].append((tokens[1], tokens[2], weight))
            elif kw == "piece":
                if len(tokens) != 2:
                    raise fail("expected 'piece <piece-id>'")
                if current["piece"] is not None:
                    raise fail("duplicate piece line")
                current["piece"] = tokens[1]
            else:
                raise fail(f"unknown keyword {kw!r} in block stanza")
        else:  # piece stanza
            if kw == "vertex":
                current["vertices"].extend(tokens[1:])
            elif kw == "side":
                if len(tokens) >= 5 and tokens[2] == "arc":
                    label = None
                    if len(tokens) == 7 and tokens[5] == "label":
                        label = tokens[6]
                    elif len(tokens) != 5:
                        raise fail("expected 'side <id> arc <tail> <head> [label <l>]'")
                    current["sides"].append(Side(tokens[1], "arc", tokens[3], tokens[4], label))
                elif len(tokens) == 5 and tokens[2] == "bseg":
                    current["sides"].append(Side(tokens[1], "bseg", tokens[3], tokens[4]))
                else:
                    raise fail("expected 'side <id> arc|bseg <tail> <head> ...'")
            elif kw == "outlet":
                if len(tokens) != 3:
                    raise fail("expected 'outlet <label> <side-id>'")
                current["outlets"].append((tokens[1], tokens[2]))
            elif kw == "face":
                if len(tokens) != 4:
                    raise fail("expected 'face <side><+|-> x3'")
                slots = []
                for tok in tokens[1:]:
                    if tok[-1] not in "+-":
                        raise fail(f"face slot {tok!r} must end in + or -")
                    slots.append((tok[:-1], 1 if tok[-1] == "+" else -1))
                current["faces"].append(tuple(slots))
            elif kw == "tagpair":
                if len(tokens) != 3:
                    raise fail("expected 'tagpair <side> <side>'")
                current["tagpairs"].append((tokens[1], tokens[2]))
            else:
                raise fail(f"unknown keyword {kw!r} in piece stanza")

    return blocks, pieces


def _validate_piece(piece: Piece) -> None:
    pid = piece.pid
    if len(set(piece.vertices)) != len(piece.vertices):
        raise BlockDataError(f"piece {pid}: duplicate vertices")
    seen_sids = set()
    for s in piece.sides:
        if s.sid in seen_sids:
            raise BlockDataError(f"piece {pid}: duplicate side id {s.sid!r}")
        seen_sids.add(s.sid)
        for v in (s.tail, s.head):
            if v not in piece.vertices:
                raise BlockDataError(f"piece {pid}: side {s.sid} uses undeclared vertex {v!r}")
        if s.kind == "bseg" and s.is_loop:
            raise BlockDataError(f"piece {pid}: boundary segment {s.sid} may not be a loop")
    lone = set(piece.vertices).difference(*((s.tail, s.head) for s in piece.sides))
    if lone:
        raise BlockDataError(f"piece {pid}: vertex {min(lone)!r} lies on no side")

    for face in piece.faces:
        if len(face) != 3:
            raise BlockDataError(f"piece {pid}: face with {len(face)} sides")
        walk = []
        for sid, direction in face:
            if sid not in seen_sids:
                raise BlockDataError(f"piece {pid}: face references unknown side {sid!r}")
            s = piece.side(sid)
            walk.append((s.tail, s.head) if direction > 0 else (s.head, s.tail))
        for (_, head), (tail, _) in zip(walk, walk[1:] + walk[:1]):
            if head != tail:
                raise BlockDataError(f"piece {pid}: face {face} does not close up")

    # Slot counts: interior arcs have two sides-of-face, boundary arcs one,
    # boundary segments exactly one.  Interior arcs must be traversed once in
    # each direction (orientation coherence of the CCW faces).
    for s in piece.sides:
        slots = [d for face in piece.faces for sid, d in face if sid == s.sid]
        if s.kind == "bseg":
            if len(slots) != 1:
                raise BlockDataError(f"piece {pid}: bseg {s.sid} appears in {len(slots)} face slots")
        elif len(slots) == 2:
            if sorted(slots) != [-1, 1]:
                raise BlockDataError(
                    f"piece {pid}: interior arc {s.sid} traversed twice in the same direction"
                )
        elif len(slots) != 1:
            raise BlockDataError(f"piece {pid}: arc {s.sid} appears in {len(slots)} face slots")

    for a, b in piece.tagpairs:
        for sid in (a, b):
            if sid not in seen_sids or not piece.side(sid).is_arc:
                raise BlockDataError(f"piece {pid}: tagpair references non-arc {sid!r}")
        if piece.side(a).label != piece.side(b).label:
            raise BlockDataError(f"piece {pid}: tagpair {a},{b} joins differently-labelled arcs")

    for label, sid in piece.outlets:
        if sid not in seen_sids:
            raise BlockDataError(f"piece {pid}: outlet {label} references unknown side {sid!r}")
        s = piece.side(sid)
        if not s.is_arc or s.label != label:
            raise BlockDataError(f"piece {pid}: outlet {label} must be an arc labelled {label!r}")
        if piece.slot_count(sid) != 1:
            raise BlockDataError(f"piece {pid}: outlet arc {sid} is not on the boundary")


def _check_block(stanza: dict, piece: Piece) -> None:
    """Raise :class:`BlockDataError` unless the ``block`` stanza is a
    connected template of one or more nodes whose labels are ``piece``'s arc
    labels and whose white labels are its outlets."""
    tag = stanza["tag"]
    labels = [label for label, _ in stanza["nodes"]]
    known = set(labels)
    if not labels:
        raise BlockDataError(f"block {tag}: no nodes")
    if len(known) != len(labels):
        raise BlockDataError(f"block {tag}: duplicate node labels")
    seen_pairs = set()
    for f, t, w in stanza["edges"]:
        if f not in known or t not in known:
            raise BlockDataError(f"block {tag}: edge {f}->{t} uses undeclared node")
        if f == t:
            raise BlockDataError(f"block {tag}: loop edge at {f}")
        if w not in ALLOWED_WEIGHTS[S_DIAGRAM]:
            raise BlockDataError(f"block {tag}: bad edge weight {w}")
        if (f, t) in seen_pairs or (t, f) in seen_pairs:
            raise BlockDataError(f"block {tag}: repeated or opposed edge {f}->{t}")
        seen_pairs.add((f, t))

    for s in piece.sides:
        if s.is_arc and s.label is None:
            raise BlockDataError(f"block {tag}: piece {piece.pid} arc {s.sid} carries no label")
    arc_labels = {s.label for s in piece.sides if s.is_arc}
    if arc_labels != known:
        raise BlockDataError(
            f"block {tag}: piece {piece.pid} arc labels {sorted(arc_labels)} "
            f"!= template labels {sorted(known)}"
        )
    outlet_labels = {label for label, _ in piece.outlets}
    whites = {label for label, color in stanza["nodes"] if color == WHITE}
    if outlet_labels != whites:
        raise BlockDataError(
            f"block {tag}: piece outlets {sorted(outlet_labels)} != white labels {sorted(whites)}"
        )
    index = {label: i for i, label in enumerate(labels)}
    edges = [(index[f], index[t], w) for f, t, w in stanza["edges"]]
    if len(make_diagram(len(labels), edges, mode=S_DIAGRAM).components()) > 1:
        raise BlockDataError(f"block {tag}: template is not connected")


def parse_block_data(text: str) -> BlockData:
    """Parse and validate a blocks data file."""
    raw_blocks, raw_pieces = _parse_lines(text)

    pieces: dict[str, Piece] = {}
    for rp in raw_pieces:
        if rp["pid"] in pieces:
            raise BlockDataError(f"duplicate piece id {rp['pid']!r}")
        piece = Piece(
            pid=rp["pid"],
            vertices=tuple(rp["vertices"]),
            sides=tuple(rp["sides"]),
            outlets=tuple(rp["outlets"]),
            faces=tuple(rp["faces"]),
            tagpairs=tuple(rp["tagpairs"]),
        )
        _validate_piece(piece)
        pieces[piece.pid] = piece

    templates: dict[str, BlockTemplate] = {}
    for rb in raw_blocks:
        if rb["tag"] in templates:
            raise BlockDataError(f"duplicate block tag {rb['tag']!r}")
        if rb["piece"] is None:
            raise BlockDataError(f"block {rb['tag']}: missing piece reference")
        if rb["piece"] not in pieces:
            raise BlockDataError(f"block {rb['tag']}: unknown piece {rb['piece']!r}")
        _check_block(rb, pieces[rb["piece"]])
        templates[rb["tag"]] = _build_template(rb, pieces[rb["piece"]])

    data = BlockData(templates, {mode: _compile_mode(templates, mode) for mode in MODES})
    _check_part_lemma(data)
    return data


def _data_text(filename: str) -> str:
    override = os.environ.get("BLOCKDEC_DATA")
    if override:
        path = os.path.join(override, filename)
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    return resources.files("blockdec.data").joinpath(filename).read_text(encoding="utf-8")


_CACHE: dict[str, BlockData] = {}


def load_block_data() -> BlockData:
    """Load block data from ``$BLOCKDEC_DATA/blocks.txt`` or the packaged
    defaults (cached per source)."""
    key = os.environ.get("BLOCKDEC_DATA", "")
    if key not in _CACHE:
        _CACHE[key] = parse_block_data(_data_text("blocks.txt"))
    return _CACHE[key]
