"""Quivers and skew-symmetrizable diagrams.

A *diagram* is a finite directed graph without loops or 2-cycles whose edges
carry a weight in {1, 2, 4}.  The weight of an edge between nodes i and j is
|b_ij * b_ji| for the exchange matrix it encodes:

* weight 1 — a plain arrow, (b_ij, b_ji) = (1, -1);
* weight 4 — a double arrow (two merged parallel arrows), (2, -2);
* weight 2 — an s-diagram edge with an asymmetric split, (2, -1) or (1, -2),
  whichever a global skew-symmetrizer admits.

Two modes restrict the weight set: ``quiver`` allows {1, 4} (skew-symmetric
matrices), ``s`` additionally allows weight 2 (skew-symmetrizable matrices).

The module provides validated construction, exchange-matrix conversion both
ways, a deterministic canonical form (iterative refinement plus an
individualize-and-refine search, adequate for the desk-scale n <= ~20 this
package targets) whose search also yields generators of the automorphism
group, the group enumerated from them for small diagrams, and the text
formats used by the CLI.  The labelling search keeps its state in one small
class, so it leaves no cyclic garbage.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

QUIVER = "quiver"
S_DIAGRAM = "s"
MODES = (QUIVER, S_DIAGRAM)

ALLOWED_WEIGHTS = {QUIVER: frozenset({1, 4}), S_DIAGRAM: frozenset({1, 2, 4})}


class DiagramError(ValueError):
    """Base class for diagram construction/parsing failures."""


class LoopEdge(DiagramError):
    """An edge whose endpoints coincide."""


class TwoCycle(DiagramError):
    """Opposite-direction edges between one node pair."""


class BadWeight(DiagramError):
    """Edge weight outside the mode's allowed set, or an illegal merge."""


class ParseError(DiagramError):
    """Malformed diagram text; message carries line/column information."""


class NotSkewSymmetrizable(DiagramError):
    """No positive symmetrizer exists for the requested weight-2 layout."""


class Edge(NamedTuple):
    src: int
    dst: int
    weight: int


@dataclass(frozen=True)
class Diagram:
    """An immutable normalized diagram.

    ``edges`` is sorted by (src, dst); at most one edge per unordered node
    pair.  Construct through :func:`make_diagram` (or the parsers), which
    enforce all invariants.
    """

    node_count: int
    edges: tuple[Edge, ...]
    mode: str

    def edge_map(self) -> dict[tuple[int, int], int]:
        """Directed (src, dst) -> weight mapping."""
        return {(e.src, e.dst): e.weight for e in self.edges}

    def components(self) -> list[tuple[int, ...]]:
        """The connected components, each sorted, in order of their least
        node; an isolated node is a component of its own."""
        parent = list(range(self.node_count))
        for e in self.edges:
            _union(parent, e.src, e.dst)
        groups: dict[int, list[int]] = {}
        for node in range(self.node_count):
            groups.setdefault(_find(parent, node), []).append(node)
        return [tuple(group) for group in groups.values()]

    def is_connected(self) -> bool:
        return len(self.components()) <= 1


def make_diagram(node_count: int, edges: Iterable[tuple[int, int, int]], mode: str = QUIVER) -> Diagram:
    """Validated constructor.

    Parallel same-direction unit arrows are merged pairwise into one weight-4
    edge; any other duplication is rejected.  Raises :class:`LoopEdge`,
    :class:`TwoCycle` or :class:`BadWeight` on rule violations.
    """
    if mode not in MODES:
        raise DiagramError(f"unknown mode {mode!r}")
    if node_count < 0:
        raise DiagramError("node_count must be >= 0")
    allowed = ALLOWED_WEIGHTS[mode]
    grouped: dict[tuple[int, int], list[int]] = {}
    for src, dst, weight in edges:
        if not (0 <= src < node_count and 0 <= dst < node_count):
            raise DiagramError(f"edge ({src},{dst}) endpoint outside 0..{node_count - 1}")
        if src == dst:
            raise LoopEdge(f"loop edge at node {src}")
        grouped.setdefault((src, dst), []).append(weight)

    merged: dict[tuple[int, int], int] = {}
    for (src, dst), weights in grouped.items():
        if len(weights) == 1:
            weight = weights[0]
        elif len(weights) == 2 and weights == [1, 1]:
            weight = 4  # two parallel unit arrows merge into a double arrow
        else:
            raise BadWeight(f"cannot normalize edges {sorted(weights)} on ({src},{dst})")
        if weight not in allowed:
            raise BadWeight(f"weight {weight} not allowed in {mode} mode on ({src},{dst})")
        merged[(src, dst)] = weight

    for src, dst in merged:
        if (dst, src) in merged:
            raise TwoCycle(f"opposite edges between {min(src, dst)} and {max(src, dst)}")

    # tuple() of a list, not of a generator: from a generator it builds a
    # larger tuple and shrinks it, and a shrunk tuple, once freed, waits on
    # the free list of its new size until the next full garbage collection.
    # The hot paths that build tuples per call do it this way.
    out = tuple([Edge(s, d, w) for (s, d), w in sorted(merged.items())])
    return Diagram(node_count, out, mode)


def reverse_diagram(d: Diagram) -> Diagram:
    """The diagram with every arrow reversed."""
    return Diagram(d.node_count, tuple(sorted(Edge(e.dst, e.src, e.weight) for e in d.edges)), d.mode)


# ---------------------------------------------------------------------------
# Exchange matrices
# ---------------------------------------------------------------------------

def to_matrix(d: Diagram) -> tuple[tuple[int, ...], ...]:
    """Exchange matrix of a diagram.

    Weight-1 edges give (1, -1), weight-4 give (2, -2).  Weight-2 edges need
    an asymmetric split consistent with one global positive symmetrizer:
    across weight-1/4 edges the symmetrizer entries are equal, across a
    weight-2 edge they differ by a factor of 2.  Each connected component of
    the contracted weight-2 graph is solved on its own: every weight-2 edge
    takes the (2, -1) split (head entry twice the tail's) where that is
    consistent, and otherwise the component falls back to a two-coloring
    (which exists iff it is bipartite — otherwise
    :class:`NotSkewSymmetrizable`).  So the matrix of a disjoint union is the
    block-diagonal sum of its parts' matrices.
    """
    n = d.node_count
    b = [[0] * n for _ in range(n)]
    exp = _symmetrizer_exponents(d)
    for e in d.edges:
        if e.weight == 1:
            b[e.src][e.dst], b[e.dst][e.src] = 1, -1
        elif e.weight == 4:
            b[e.src][e.dst], b[e.dst][e.src] = 2, -2
        elif exp[e.dst] == exp[e.src] + 1:
            b[e.src][e.dst], b[e.dst][e.src] = 2, -1
        else:
            b[e.src][e.dst], b[e.dst][e.src] = 1, -2
    return tuple([tuple(row) for row in b])


def _find(parent: list[int], x: int) -> int:
    """The root of ``x`` in the union-find forest ``parent``; halves its path."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _union(parent: list[int], a: int, b: int) -> None:
    """Join the classes of ``a`` and ``b``; a class's root is its least id."""
    a, b = _find(parent, a), _find(parent, b)
    if a != b:
        parent[max(a, b)] = min(a, b)


def _symmetrizer_exponents(d: Diagram) -> list[int]:
    """Per node, the log2 of its entry in the symmetrizer that
    :func:`to_matrix` splits the weight-2 edges by."""
    n = d.node_count
    w2 = [e for e in d.edges if e.weight == 2]
    if not w2:
        return [0] * n

    # Contract weight-1/4 edges: symmetrizer equal across them.
    parent = list(range(n))
    for e in d.edges:
        if e.weight != 2:
            _union(parent, e.src, e.dst)

    pairs = [(_find(parent, e.src), _find(parent, e.dst), e) for e in w2]
    for cs, cd, e in pairs:
        if cs == cd:
            raise NotSkewSymmetrizable(
                f"weight-2 edge ({e.src},{e.dst}) closes a symmetrizer-equal cycle")

    exp = _solve_w2_exponents(pairs)
    return [exp.get(_find(parent, v), 0) for v in range(n)]


def _solve_w2_exponents(pairs: Sequence[tuple[int, int, Edge]]) -> dict[int, int]:
    """Assign symmetrizer exponents (log2) to contracted classes, one
    connected component of the weight-2 graph at a time.

    Every weight-2 edge must see an exponent difference of exactly +-1.  A
    component takes +1 along each edge direction (the (2,-1) split) where
    that is consistent, and otherwise the bipartite 0/1 coloring giving the
    most (2,-1) splits, the least class at 0 on a tie.
    """
    adj: dict[int, list[tuple[int, int]]] = {}
    for cs, cd, _ in pairs:
        adj.setdefault(cs, []).append((cd, +1))
        adj.setdefault(cd, []).append((cs, -1))

    exp: dict[int, int] = {}
    for root in sorted(adj):
        if root in exp:
            continue
        potential = {root: 0}
        consistent = True
        stack = [root]
        while stack:
            x = stack.pop()
            for y, delta in adj[x]:
                want = potential[x] + delta
                if y not in potential:
                    potential[y] = want
                    stack.append(y)
                elif (potential[y] - want) % 2:
                    raise NotSkewSymmetrizable(
                        "odd cycle of weight-2 edges admits no symmetrizer")
                elif potential[y] != want:
                    consistent = False
        if consistent:
            exp.update(potential)
            continue
        # Potentials alternate in parity along every edge: a 2-coloring.
        color = {x: p % 2 for x, p in potential.items()}
        plain = sum(1 for cs, cd, _ in pairs if cs in color and color[cd] > color[cs])
        flipped = sum(1 for cs, cd, _ in pairs if cs in color and color[cd] < color[cs])
        exp.update(color if plain >= flipped else {x: 1 - c for x, c in color.items()})
    return exp


def symmetrizer(d: Diagram) -> tuple[int, ...]:
    """A positive integer symmetrizer for ``to_matrix(d)`` (diag d_i)."""
    exp = _symmetrizer_exponents(d)
    low = min(exp, default=0)
    return tuple([2 ** (e - low) for e in exp])


def from_matrix(rows: Sequence[Sequence[int]], mode: Optional[str] = None) -> Diagram:
    """Diagram of an exchange matrix (inverse of :func:`to_matrix`)."""
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ParseError(f"matrix row {i} has {len(row)} entries, expected {n}")
        if row[i] != 0:
            raise ParseError(f"nonzero diagonal entry at ({i},{i})")
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            bij, bji = rows[i][j], rows[j][i]
            if bij == 0 and bji == 0:
                continue
            if bij > 0 > bji:
                src, dst, p, q = i, j, bij, -bji
            elif bji > 0 > bij:
                src, dst, p, q = j, i, bji, -bij
            else:
                raise ParseError(f"entries ({i},{j}) = ({bij},{bji}) are not sign-opposite")
            weight = p * q
            if weight not in (1, 2, 4) or max(p, q) > 2:
                raise BadWeight(f"entries ({i},{j}) = ({bij},{bji}) encode no legal weight")
            edges.append((src, dst, weight))
    if mode is None:
        mode = S_DIAGRAM if any(w == 2 for _, _, w in edges) else QUIVER
    return make_diagram(n, edges, mode)


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------

def _neighbor_signature(n: int, emap: dict[tuple[int, int], int], colors: Sequence[int]):
    """Per vertex: its colour and the sorted ``(weight, colour)`` pairs of its
    out- and in-neighbours, gathered in one scan of the edge map."""
    out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    inc: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (s, t), w in emap.items():
        out[s].append((w, colors[t]))
        inc[t].append((w, colors[s]))
    return [(colors[v], tuple(sorted(out[v])), tuple(sorted(inc[v]))) for v in range(n)]


def _refine(n: int, emap: dict[tuple[int, int], int], colors: list[int]) -> list[int]:
    while True:
        sigs = _neighbor_signature(n, emap, colors)
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _cells(colors: Sequence[int], vertices: Sequence[int]) -> list[list[int]]:
    by: dict[int, list[int]] = {}
    for v in vertices:
        by.setdefault(colors[v], []).append(v)
    return [sorted(by[c]) for c in sorted(by)]


def _encode(emap: dict[tuple[int, int], int], order: Sequence[int]) -> tuple:
    pos = {v: i for i, v in enumerate(order)}
    return tuple(sorted((pos[s], pos[t], w) for (s, t), w in emap.items()))


def _swap_invariant(emap: dict[tuple[int, int], int], u: int, v: int) -> bool:
    """True if transposing u and v leaves the edge map unchanged."""
    sw = {u: v, v: u}
    return {(sw.get(s, s), sw.get(t, t)): w for (s, t), w in emap.items()} == emap


def _transposition(n: int, u: int, v: int) -> tuple[int, ...]:
    perm = list(range(n))
    perm[u], perm[v] = v, u
    return tuple(perm)


def orbit(seeds: Iterable, generators: Iterable[tuple[int, ...]], act: Callable) -> set:
    """The least set holding ``seeds`` and closed under ``act(g, x)``, the
    image of ``x`` under each generator ``g``: for a finite group, the union
    of the orbits of the seeds under the group the generators generate."""
    generators = list(generators)
    closed = set(seeds)
    stack = list(closed)
    while stack:
        x = stack.pop()
        for g in generators:
            image = act(g, x)
            if image not in closed:
                closed.add(image)
                stack.append(image)
    return closed


class _Labelling:
    """The individualize-and-refine search of :func:`_canonical_order` over
    the touched vertices: :meth:`visit` keeps the first least leaf in
    ``best_order`` and ``best_enc``, and the generators it finds in ``found``."""

    def __init__(self, n: int, emap: dict[tuple[int, int], int], touched: list[int]):
        self.n = n
        self.emap = emap
        self.touched = touched
        self.found: dict[tuple[int, ...], None] = {}  # generators on the touched part, in order
        self.best_enc: Optional[tuple] = None
        self.best_order: list[int] = []

    def visit(self, colors: list[int], path: tuple[int, ...]) -> None:
        n, emap, found = self.n, self.emap, self.found
        cells = _cells(colors, self.touched)
        target = next((c for c in cells if len(c) > 1), None)
        if target is None:
            order = [c[0] for c in cells]
            enc = _encode(emap, order)
            best_enc, best_order = self.best_enc, self.best_order
            if best_enc is None or enc < best_enc:
                self.best_enc, self.best_order = enc, order
            elif enc == best_enc and order != best_order:
                aut = list(range(n))
                for old, new in zip(best_order, order):
                    aut[old] = new
                found.setdefault(tuple(aut))
            return
        first, candidates = target[0], target
        if all(_swap_invariant(emap, first, u) for u in target[1:]):
            for u in target[1:]:
                found.setdefault(_transposition(n, first, u))
            candidates = target[:1]  # the rest lie in its orbit
        mark = max(colors) + 1
        # The first ``known`` generators found that fix ``path``, and the
        # orbits of the explored siblings under them.
        fixing, explored, known = [], set(), 0
        for v in candidates:
            if len(found) > known:
                fixing += [g for g in islice(found, known, None) if all(g[p] == p for p in path)]
                known = len(found)
                explored = orbit(explored, fixing, tuple.__getitem__)
            if v in explored:
                continue
            explored |= orbit([v], fixing, tuple.__getitem__)
            child = list(colors)
            child[v] = mark
            self.visit(_refine(n, emap, child), path + (v,))


def _canonical_order(
    n: int, emap: dict[tuple[int, int], int]
) -> tuple[list[int], tuple, list[tuple[int, ...]]]:
    """Vertex order minimizing the edge encoding (non-isolated vertices
    first); that minimal encoding, the sorted ``(src, dst, weight)`` triples
    of ``emap`` relabelled by position in the order; and generators of the
    automorphism group, each a permutation ``g`` moving ``v`` to ``g[v]``.

    The search refines, then individualizes each vertex of the first
    non-singleton cell in increasing order and recurses; the first leaf
    with the least encoding gives the order.  Two leaves with equal
    encodings differ by an automorphism: the map from the best leaf to each
    later one is a generator, and so are the transpositions of a cell whose
    vertices are pairwise interchangeable and of consecutive isolated
    vertices.  A vertex in the orbit of an explored sibling under the
    generators that fix the individualized path is skipped: its subtree is
    the image of the sibling's, whose leaves carry the same encodings and
    come first, so the first least leaf is never skipped.  Each skipped leaf
    with the least encoding is thus the image of a visited one, the
    generators act transitively on those leaves, and since exactly one
    automorphism maps the best leaf to each of them, they generate the whole
    group (McKay 1981; McKay and Piperno 2014).
    """
    touched_set = {v for e in emap for v in e}
    touched = sorted(touched_set)
    isolated = [v for v in range(n) if v not in touched_set]
    shuffles = [_transposition(n, u, v) for u, v in zip(isolated, isolated[1:])]
    if not touched:
        return isolated, (), shuffles
    search = _Labelling(n, emap, touched)
    search.visit(_refine(n, emap, [0] * n), ())
    return search.best_order + isolated, search.best_enc, list(search.found) + shuffles


class CanonicalForm(NamedTuple):
    key: str
    relabel: tuple[int, ...]  # old -> new
    generators: tuple[tuple[int, ...], ...]  # of the automorphism group, old -> old


def canonical_form(d: Diagram) -> CanonicalForm:
    """Canonical key, the old->new relabeling achieving it, and generators
    of the diagram's automorphism group, from one search.

    Two diagrams have equal keys iff they are isomorphic as directed weighted
    graphs in the same mode.  Isolated nodes are placed after the canonical
    order of the edge-bearing part, so the minimal encoding of that part
    relabels its edges exactly as the returned relabeling does.
    """
    order, enc, generators = _canonical_order(d.node_count, d.edge_map())
    relabel = [0] * d.node_count
    for new, old in enumerate(order):
        relabel[old] = new
    key = f"{d.mode}|{d.node_count}|" + ";".join(f"{s}>{t}*{w}" for s, t, w in enc)
    return CanonicalForm(key, tuple(relabel), tuple(generators))


def canonical_key(d: Diagram) -> str:
    return canonical_form(d).key


def relabel_diagram(d: Diagram, relabel: Sequence[int]) -> Diagram:
    edges = tuple(sorted(Edge(relabel[e.src], relabel[e.dst], e.weight) for e in d.edges))
    return Diagram(d.node_count, edges, d.mode)


def reversal_class_key(d: Diagram) -> str:
    """Canonical key up to global arrow reversal."""
    return min(canonical_key(d), canonical_key(reverse_diagram(d)))


def from_canonical_key(key: str) -> Diagram:
    """Rebuild a diagram from a canonical key (inverse of canonical_key)."""
    try:
        mode, count_text, edge_text = key.split("|")
        node_count = int(count_text)
        edges = []
        if edge_text:
            for part in edge_text.split(";"):
                src_text, rest = part.split(">")
                dst_text, weight_text = rest.split("*")
                edges.append((int(src_text), int(dst_text), int(weight_text)))
    except ValueError:
        raise ParseError(f"malformed diagram key {key!r}") from None
    return make_diagram(node_count, edges, mode=mode)


def automorphisms(d: Diagram) -> list[tuple[int, ...]]:
    """All node permutations preserving the diagram, ``perm[v]`` the image of
    node v, in increasing order: the group generated by the generators that
    :func:`canonical_form` finds.

    The list holds the whole group, so it grows with the factorial of the
    number of isolated nodes and of equal components; closing a set under
    the group needs the generators only.
    """
    generators = _canonical_order(d.node_count, d.edge_map())[2]
    compose = lambda g, perm: tuple([g[v] for v in perm])  # noqa: E731
    return sorted(orbit([tuple(range(d.node_count))], generators, compose))


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------

def parse_diagram(text: str, mode: Optional[str] = None) -> Diagram:
    """Parse edge-list or matrix form (auto-detected).

    Edge-list form: a ``nodes <n>`` line then ``edge <from> <to> <weight>``
    lines; an optional leading ``mode <quiver|s>`` line is accepted.  Matrix
    form: n whitespace-separated rows of n integers.  ``mode`` overrides any
    inferred/declared mode.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    if not lines:
        raise ParseError("empty diagram text")

    first = lines[0][1].split()[0]
    if first in ("nodes", "mode"):
        return _parse_edge_list(lines, mode)
    return _parse_matrix(lines, mode)


def _parse_edge_list(lines: list[tuple[int, str]], mode: Optional[str]) -> Diagram:
    declared: Optional[str] = None
    node_count: Optional[int] = None
    edges: list[tuple[int, int, int]] = []
    for lineno, line in lines:
        parts = line.split()
        if parts[0] == "mode":
            if len(parts) != 2 or parts[1] not in MODES:
                raise ParseError(f"line {lineno}: bad mode line {line!r}")
            if declared is not None:
                raise ParseError(f"line {lineno}: duplicate mode line")
            declared = parts[1]
        elif parts[0] == "nodes":
            if len(parts) != 2 or not parts[1].isdigit():
                raise ParseError(f"line {lineno}: bad nodes line {line!r}")
            if node_count is not None:
                raise ParseError(f"line {lineno}: duplicate nodes line")
            node_count = int(parts[1])
        elif parts[0] == "edge":
            if node_count is None:
                raise ParseError(f"line {lineno}: edge before nodes line")
            if len(parts) != 4:
                raise ParseError(f"line {lineno}: expected 'edge <from> <to> <weight>'")
            try:
                src, dst, weight = (int(p) for p in parts[1:])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: non-integer field in {line!r}") from exc
            edges.append((src, dst, weight))
        else:
            raise ParseError(f"line {lineno}: unknown directive {parts[0]!r}")
    if node_count is None:
        raise ParseError("missing nodes line")
    if mode is None:
        mode = declared if declared is not None else (
            S_DIAGRAM if any(w == 2 for _, _, w in edges) else QUIVER)
    return make_diagram(node_count, edges, mode)


def _parse_matrix(lines: list[tuple[int, str]], mode: Optional[str]) -> Diagram:
    rows = []
    for lineno, line in lines:
        try:
            rows.append([int(p) for p in line.split()])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-integer matrix entry in {line!r}") from exc
    n = len(rows)
    for lineno_row, row in enumerate(rows):
        if len(row) != n:
            raise ParseError(
                f"matrix row {lineno_row + 1} has {len(row)} entries, expected {n}")
    return from_matrix(rows, mode)


def serialize_diagram(d: Diagram) -> str:
    """Edge-list serialization: nodes line, then edges sorted lexicographically."""
    out = [f"nodes {d.node_count}"]
    out.extend(f"edge {e.src} {e.dst} {e.weight}" for e in d.edges)
    return "\n".join(out) + "\n"
