"""Diagram core: construction, matrices, canonical forms, text formats."""

import itertools
import random
import time

import pytest

from blockdec.diagram import (
    BadWeight,
    Diagram,
    LoopEdge,
    NotSkewSymmetrizable,
    ParseError,
    QUIVER,
    S_DIAGRAM,
    TwoCycle,
    _cells,
    _refine,
    automorphisms,
    canonical_form,
    canonical_key,
    from_matrix,
    make_diagram,
    parse_diagram,
    relabel_diagram,
    reversal_class_key,
    reverse_diagram,
    serialize_diagram,
    symmetrizer,
    to_matrix,
)


def cycle3() -> Diagram:
    return make_diagram(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)], QUIVER)


class TestMakeDiagram:
    def test_single_arrow(self):
        d = make_diagram(2, [(1, 0, 1)], QUIVER)
        assert d.node_count == 2
        assert d.edges[0] == (1, 0, 1)

    def test_empty_diagram_valid(self):
        d = make_diagram(0, [], QUIVER)
        assert d.node_count == 0 and d.edges == ()

    def test_loop_rejected(self):
        with pytest.raises(LoopEdge):
            make_diagram(2, [(1, 1, 1)], QUIVER)

    def test_two_cycle_rejected(self):
        with pytest.raises(TwoCycle):
            make_diagram(2, [(0, 1, 1), (1, 0, 1)], QUIVER)

    def test_weight2_rejected_in_quiver_mode(self):
        with pytest.raises(BadWeight):
            make_diagram(2, [(0, 1, 2)], QUIVER)

    def test_weight2_allowed_in_s_mode(self):
        d = make_diagram(2, [(0, 1, 2)], S_DIAGRAM)
        assert d.edges[0].weight == 2

    def test_bad_weight(self):
        with pytest.raises(BadWeight):
            make_diagram(2, [(0, 1, 3)], S_DIAGRAM)

    def test_parallel_unit_arrows_merge_to_weight4(self):
        d = make_diagram(2, [(0, 1, 1), (0, 1, 1)], QUIVER)
        assert d.edges == ((0, 1, 4),)

    def test_triple_parallel_rejected(self):
        with pytest.raises(BadWeight):
            make_diagram(2, [(0, 1, 1)] * 3, QUIVER)

    def test_out_of_range_endpoint(self):
        with pytest.raises(ValueError):
            make_diagram(2, [(0, 2, 1)], QUIVER)


class TestComponents:
    def test_components_in_order_of_least_node(self):
        d = make_diagram(6, [(4, 1, 1), (1, 5, 1), (2, 3, 4)], QUIVER)
        assert d.components() == [(0,), (1, 4, 5), (2, 3)]
        assert not d.is_connected()

    def test_connected_and_trivial(self):
        assert cycle3().components() == [(0, 1, 2)]
        assert cycle3().is_connected()
        assert make_diagram(1, [], QUIVER).is_connected()
        assert make_diagram(0, [], QUIVER).components() == []


class TestToMatrix:
    def test_single_arrow(self):
        d = make_diagram(2, [(0, 1, 1)], QUIVER)
        assert to_matrix(d) == ((0, 1), (-1, 0))

    def test_oriented_3_cycle(self):
        assert to_matrix(cycle3()) == ((0, 1, -1), (-1, 0, 1), (1, -1, 0))

    def test_double_arrow(self):
        d = make_diagram(2, [(0, 1, 4)], QUIVER)
        assert to_matrix(d) == ((0, 2), (-2, 0))

    def test_weight2_default_split(self):
        d = make_diagram(2, [(0, 1, 2)], S_DIAGRAM)
        assert to_matrix(d) == ((0, 2), (-1, 0))

    def test_weight2_chain_all_plain_splits(self):
        # a -> o -> b, both weight 2: symmetrizer (1, 2, 4) supports (2,-1) twice.
        d = make_diagram(3, [(0, 1, 2), (1, 2, 2)], S_DIAGRAM)
        m = to_matrix(d)
        assert m[0][1] == 2 and m[1][0] == -1
        assert m[1][2] == 2 and m[2][1] == -1

    def test_graph17_needs_mixed_splits(self):
        # a -> o w2, o -> b w2, b -> a w4: the w4 edge forces d_a = d_b, so the
        # two w2 edges cannot both take the (2,-1) split.
        d = make_diagram(3, [(0, 1, 2), (1, 2, 2), (2, 0, 4)], S_DIAGRAM)
        m = to_matrix(d)
        splits = {(abs(m[0][1]), abs(m[1][0])), (abs(m[1][2]), abs(m[2][1]))}
        assert splits == {(2, 1), (1, 2)}
        dvec = symmetrizer(d)
        for i in range(3):
            for j in range(3):
                assert dvec[i] * m[i][j] == -dvec[j] * m[j][i]

    def test_odd_w2_cycle_not_symmetrizable(self):
        d = make_diagram(3, [(0, 1, 2), (1, 2, 2), (2, 0, 2)], S_DIAGRAM)
        with pytest.raises(NotSkewSymmetrizable):
            to_matrix(d)

    def test_w2_parallel_to_equality_path_not_symmetrizable(self):
        # 0 -> 1 w2 plus 0 -> 2 -> ... unit edges closing to 1 force d0 = d1.
        d = make_diagram(3, [(0, 1, 2), (0, 2, 1), (2, 1, 1)], S_DIAGRAM)
        with pytest.raises(NotSkewSymmetrizable):
            to_matrix(d)

    def test_symmetrizer_validates_everywhere(self):
        d = make_diagram(3, [(0, 1, 2), (1, 2, 2)], S_DIAGRAM)
        m = to_matrix(d)
        dvec = symmetrizer(d)
        for i in range(3):
            for j in range(3):
                assert dvec[i] * m[i][j] == -dvec[j] * m[j][i]

    def test_disjoint_union_is_block_diagonal(self):
        # The chain 0 -> 1 -> 2 takes (2,-1) twice; the 4-cycle on 3..6 admits
        # no consistent (2,-1) splits and falls back to a coloring.  Each part
        # is solved on its own, so the cycle does not change the chain.
        chain = make_diagram(3, [(0, 1, 2), (1, 2, 2)], S_DIAGRAM)
        cycle = make_diagram(4, [(0, 1, 2), (1, 2, 2), (2, 3, 2), (0, 3, 2)], S_DIAGRAM)
        union = make_diagram(
            7,
            [(0, 1, 2), (1, 2, 2), (3, 4, 2), (4, 5, 2), (5, 6, 2), (3, 6, 2)],
            S_DIAGRAM,
        )
        expected = tuple(row + (0,) * 4 for row in to_matrix(chain)) + tuple(
            (0,) * 3 + row for row in to_matrix(cycle)
        )
        m = to_matrix(union)
        assert m == expected
        dvec = symmetrizer(union)
        for i in range(7):
            for j in range(7):
                assert dvec[i] * m[i][j] == -dvec[j] * m[j][i]


class TestFromMatrix:
    def test_round_trip_quiver(self):
        d = cycle3()
        assert from_matrix(to_matrix(d)) == d

    def test_round_trip_weight4(self):
        d = make_diagram(3, [(0, 1, 4), (2, 1, 1)], QUIVER)
        assert from_matrix(to_matrix(d)) == d

    def test_round_trip_s_mode_mixed_splits(self):
        d = make_diagram(3, [(0, 1, 2), (1, 2, 2), (2, 0, 4)], S_DIAGRAM)
        assert from_matrix(to_matrix(d)) == d

    def test_accepts_1_minus2_split(self):
        d = from_matrix([[0, 1], [-2, 0]])
        assert d.edges == ((0, 1, 2),)
        assert d.mode == S_DIAGRAM

    def test_rejects_same_sign_pair(self):
        with pytest.raises(ParseError):
            from_matrix([[0, 1], [1, 0]])


class TestCanonicalForm:
    def test_relabeling_invariance_cycle(self):
        d1 = cycle3()
        d2 = make_diagram(3, [(2, 0, 1), (0, 1, 1), (1, 2, 1)], QUIVER)
        assert canonical_key(d1) == canonical_key(d2)

    def test_arrow_direction_symmetry(self):
        d1 = make_diagram(2, [(0, 1, 1)], QUIVER)
        d2 = make_diagram(2, [(1, 0, 1)], QUIVER)
        assert canonical_key(d1) == canonical_key(d2)

    def test_graph16_mirror(self):
        d1 = make_diagram(3, [(0, 1, 2), (1, 2, 2)], S_DIAGRAM)
        d2 = make_diagram(3, [(2, 1, 2), (1, 0, 2)], S_DIAGRAM)
        assert canonical_key(d1) == canonical_key(d2)

    def test_relabeling_achieves_key(self):
        d = make_diagram(4, [(3, 0, 1), (0, 1, 1), (1, 3, 4), (3, 2, 1), (2, 1, 1)], QUIVER)
        key, relabel, _ = canonical_form(d)
        assert canonical_key(relabel_diagram(d, relabel)) == key

    def test_random_permutation_invariance(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 6)
            edges = []
            for i in range(n):
                for j in range(i + 1, n):
                    roll = rng.random()
                    if roll < 0.4:
                        continue
                    w = rng.choice([1, 1, 4])
                    if rng.random() < 0.5:
                        edges.append((i, j, w))
                    else:
                        edges.append((j, i, w))
            d = make_diagram(n, edges, QUIVER)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_key(d) == canonical_key(relabel_diagram(d, perm))

    def test_non_isomorphic_differ(self):
        # Exhaustive check on all 3-node unit-weight quivers: equal keys
        # iff related by a node permutation.
        diagrams = []
        pairs = [(0, 1), (0, 2), (1, 2)]
        for states in itertools.product([0, 1, 2], repeat=3):
            edges = []
            for (i, j), s in zip(pairs, states):
                if s == 1:
                    edges.append((i, j, 1))
                elif s == 2:
                    edges.append((j, i, 1))
            diagrams.append(make_diagram(3, edges, QUIVER))
        for a, b in itertools.combinations(diagrams, 2):
            iso = any(relabel_diagram(a, perm) == b
                      for perm in itertools.permutations(range(3)))
            assert (canonical_key(a) == canonical_key(b)) == iso

    def test_isolated_nodes(self):
        d1 = make_diagram(4, [(2, 3, 1)], QUIVER)
        d2 = make_diagram(4, [(0, 1, 1)], QUIVER)
        assert canonical_key(d1) == canonical_key(d2)

    def test_mode_distinguishes(self):
        d1 = make_diagram(2, [(0, 1, 1)], QUIVER)
        d2 = make_diagram(2, [(0, 1, 1)], S_DIAGRAM)
        assert canonical_key(d1) != canonical_key(d2)


class TestReversal:
    def test_reverse(self):
        d = make_diagram(3, [(0, 1, 1), (2, 1, 4)], QUIVER)
        assert reverse_diagram(d).edges == ((1, 0, 1), (1, 2, 4))

    def test_reversal_class_forks(self):
        infork = make_diagram(3, [(1, 0, 1), (2, 0, 1)], QUIVER)
        outfork = make_diagram(3, [(0, 1, 1), (0, 2, 1)], QUIVER)
        assert canonical_key(infork) != canonical_key(outfork)
        assert reversal_class_key(infork) == reversal_class_key(outfork)


def brute_automorphisms(d: Diagram) -> set[tuple[int, ...]]:
    """Reference: every permutation within the refinement cells that keeps
    the edge map, ``perm[v]`` the image of v."""
    n = d.node_count
    emap = d.edge_map()
    cells = _cells(_refine(n, emap, [0] * n), list(range(n)))
    result = set()
    for combo in itertools.product(*(itertools.permutations(c) for c in cells)):
        perm = [0] * n
        for cell, image in zip(cells, combo):
            for old, new in zip(cell, image):
                perm[old] = new
        if {(perm[s], perm[t]): w for (s, t), w in emap.items()} == emap:
            result.add(tuple(perm))
    return result


def random_symmetric_diagram(rng: random.Random, mode: str) -> Diagram:
    """At most seven nodes: one random component repeated up to three times,
    maybe a second random component, isolated nodes, all shuffled."""
    weights = [1, 1, 4] if mode == QUIVER else [1, 2, 4]

    def component(size):
        return [
            (i, j, rng.choice(weights)) if rng.random() < 0.5 else (j, i, rng.choice(weights))
            for i in range(size)
            for j in range(i + 1, size)
            if rng.random() < 0.6
        ]

    size = rng.randint(1, 3)
    shape = component(size)
    edges, n = [], 0
    for _ in range(rng.randint(1, 7 // size)):
        edges += [(a + n, b + n, w) for a, b, w in shape]
        n += size
    if n <= 4 and rng.random() < 0.5:
        extra = rng.randint(2, 7 - n)
        edges += [(a + n, b + n, w) for a, b, w in component(extra)]
        n += extra
    n += rng.randint(0, 7 - n)
    perm = list(range(n))
    rng.shuffle(perm)
    return make_diagram(n, [(perm[a], perm[b], w) for a, b, w in edges], mode)


class TestAutomorphisms:
    @pytest.mark.parametrize("mode", [QUIVER, S_DIAGRAM])
    def test_generated_group_is_the_brute_force_one(self, mode):
        """The group enumerated from canonical_form's generators equals the
        brute-force product over refinement cells, on diagrams with repeated
        equal components and isolated nodes."""
        rng = random.Random(13 if mode == QUIVER else 14)
        repeated = lonely = 0
        for _ in range(120):
            d = random_symmetric_diagram(rng, mode)
            group = automorphisms(d)
            assert len(group) == len(set(group))
            assert set(group) == brute_automorphisms(d), serialize_diagram(d)
            assert set(canonical_form(d).generators) <= set(group)
            sizes = [len(c) for c in d.components()]
            repeated += any(sizes.count(k) > 1 for k in sizes if k > 1)
            lonely += sizes.count(1) > 1
        assert repeated > 20 and lonely > 20

    def test_many_equal_components(self):
        """Twenty disjoint directed 3-cycles: each explored vertex's orbit is
        added once, not rebuilt for every later candidate, so the search takes
        well under a second; every generator it finds is an automorphism."""
        edges = [(j + i, j + (i + 1) % 3, 1) for j in range(0, 60, 3) for i in range(3)]
        d = make_diagram(60, edges)
        start = time.perf_counter()
        form = canonical_form(d)
        assert time.perf_counter() - start < 3.0
        assert len(form.generators) == 210
        assert all(relabel_diagram(d, g) == d for g in form.generators)

    def test_cycle3(self):
        auts = automorphisms(cycle3())
        assert len(auts) == 3  # C3

    def test_out_star(self):
        d = make_diagram(5, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)], QUIVER)
        assert len(automorphisms(d)) == 24  # S4 on the leaves

    def test_identity_always_present(self):
        d = make_diagram(2, [(0, 1, 1)], QUIVER)
        assert tuple(range(2)) in automorphisms(d)


class TestTextFormats:
    def test_parse_edge_list(self):
        d = parse_diagram("nodes 2\nedge 0 1 1\n")
        assert d == make_diagram(2, [(0, 1, 1)], QUIVER)

    def test_parse_matrix(self):
        d = parse_diagram("0 1 -1\n-1 0 1\n1 -1 0\n")
        assert d == cycle3()

    def test_mode_inference_weight2(self):
        d = parse_diagram("nodes 2\nedge 0 1 2\n")
        assert d.mode == S_DIAGRAM

    def test_mode_line_accepted(self):
        d = parse_diagram("mode s\nnodes 2\nedge 0 1 1\n")
        assert d.mode == S_DIAGRAM

    def test_mode_parameter_overrides(self):
        d = parse_diagram("nodes 2\nedge 0 1 1\n", mode=S_DIAGRAM)
        assert d.mode == S_DIAGRAM

    def test_round_trip(self):
        text = "nodes 3\nedge 0 1 1\nedge 1 2 1\nedge 2 0 1\n"
        assert serialize_diagram(parse_diagram(text)) == text

    def test_round_trip_normalizes(self):
        # Unsorted input and comments serialize to the normal form.
        messy = "# comment\nnodes 3\nedge 2 0 1\nedge 0 1 1\nedge 1 2 1\n"
        assert serialize_diagram(parse_diagram(messy)) == (
            "nodes 3\nedge 0 1 1\nedge 1 2 1\nedge 2 0 1\n")

    def test_parse_error_has_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_diagram("nodes 2\nedge 0 1\n")

    def test_repeated_nodes_line(self):
        with pytest.raises(ParseError, match="line 2: duplicate nodes line"):
            parse_diagram("nodes 2\nnodes 3\nedge 0 2 1\n")

    def test_repeated_mode_line(self):
        with pytest.raises(ParseError, match="line 3: duplicate mode line"):
            parse_diagram("mode s\nnodes 2\nmode quiver\nedge 0 1 1\n")

    def test_empty_text(self):
        with pytest.raises(ParseError):
            parse_diagram("   \n")

    def test_ragged_matrix(self):
        with pytest.raises(ParseError):
            parse_diagram("0 1\n-1 0 3\n")
