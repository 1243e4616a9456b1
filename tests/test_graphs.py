import random
import tracemalloc

import pytest

from eccmat.graphs import (
    MAX_INPUT_BYTES,
    MAX_ORDER,
    Graph,
    Tree,
    bfs_distances,
    diametrical_pairing,
    eccentricity_rows,
    read_graph,
    read_graph6,
    to_edge_list,
    tree_meta,
)
from eccmat.checks import min_radius_tree
from eccmat.families import (
    cocktail_party,
    cycle,
    enumerate_labeled_trees,
    hypercube,
    parse_family,
    path,
    pruefer_random,
    star,
)
from eccmat.matrices import eccentricity_matrix

from _oracles import (
    distance_matrix,
    distinguished_by_paths,
    eccentricity_matrix_all_pairs,
    floyd_warshall,
    graph6_order,
    to_graph6,
    tree_path_vertices,
)


class TestGraphValidation:
    def test_basic_construction(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.n == 3
        assert g.edge_count == 2
        assert sorted(g.neighbors(1)) == [0, 2]
        assert g.degree(1) == 2

    def test_rejects_loop(self):
        with pytest.raises(ValueError, match="loop"):
            Graph(2, [(0, 0), (0, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            Graph(4, [(0, 1), (2, 3)])

    def test_rejects_empty_vertex_set(self):
        with pytest.raises(ValueError):
            Graph(0, [])

    def test_tree_needs_exact_edge_count(self):
        with pytest.raises(ValueError):
            Tree(3, [(0, 1), (1, 2), (0, 2)])
        Tree(3, [(0, 1), (1, 2)])

    def test_edges_are_normalized(self):
        g = Graph(3, [(2, 1), (1, 0)])
        assert g.edges() == [(0, 1), (1, 2)]


class TestDistances:
    @pytest.mark.parametrize("maker,arg", [(cycle, 5), (cycle, 8), (hypercube, 3), (cocktail_party, 3)])
    def test_distance_matrix_matches_cubic_recurrence(self, maker, arg):
        g = maker(arg)
        want = floyd_warshall(g)
        got = distance_matrix(g)
        assert [list(r) for r in got.rows] == want

    def test_random_trees_match_cubic_recurrence(self):
        for i in range(25):
            t = pruefer_random(9, f"dist:{i}")
            assert [list(r) for r in distance_matrix(t).rows] == floyd_warshall(t)

    def test_bfs_single_source(self):
        g = cycle(6)
        assert bfs_distances(g, 0) == [0, 1, 2, 3, 2, 1]

    def test_single_vertex(self):
        assert [list(r) for r in distance_matrix(Graph(1, [])).rows] == [[0]]


class TestEccentricityRows:
    """The double sweep and the peripheral sources against the all-pairs
    route: every kept entry of a tree's eccentricity matrix has a
    peripheral endpoint, so the sources' rows build the whole matrix."""

    @staticmethod
    def check(g):
        dist = distance_matrix(g)
        ecc, rows = eccentricity_rows(g)
        assert ecc == tuple(max(row) for row in dist.rows)
        assert eccentricity_matrix(ecc, rows) == eccentricity_matrix_all_pairs(dist)
        for s, row in rows.items():
            assert tuple(row) == dist.rows[s]
        return ecc, rows

    def test_all_labeled_trees_up_to_order_seven(self):
        count = 0
        for n in range(2, 8):
            for t in enumerate_labeled_trees(n):
                self.check(t)
                count += 1
        assert count == 18248

    def test_random_trees(self):
        for n in range(8, 121):
            for i in range(30):
                self.check(pruefer_random(n, f"sweep:{n}:{i}"))

    def test_families(self):
        tokens = ["path:1", "path:2"]
        tokens += [f"star:{n}" for n in range(3, 31)]
        tokens += [f"spider:{k},{l}" for k in range(2, 7) for l in range(1, 5)]
        tokens += [f"tndab:{d + 1 + a + b},{d},{a},{b}" for d in (3, 5, 7) for a, b in ((0, 0), (0, 3), (1, 1), (2, 5))]
        for token in tokens:
            self.check(parse_family(token))
        for n in range(4, 31):
            self.check(min_radius_tree(n))

    def test_tree_sources_are_the_peripheral_vertices(self):
        for i in range(40):
            t = pruefer_random(15, f"sources:{i}")
            ecc, rows = self.check(t)
            assert sorted(rows) == [v for v in range(t.n) if ecc[v] == max(ecc)]

    @pytest.mark.parametrize("g", [cycle(5), cycle(8), hypercube(3), cocktail_party(3)])
    def test_other_graphs_use_every_vertex(self, g):
        _, rows = self.check(g)
        assert sorted(rows) == list(range(g.n))


class TestTreeMeta:
    def test_eccentricities_are_row_maxima(self):
        t = pruefer_random(12, "meta:ecc")
        meta = tree_meta(t, eccentricity_rows(t)[0])
        assert meta.ecc == tuple(max(row) for row in distance_matrix(t).rows)

    def test_path_odd_diameter_two_adjacent_centers(self):
        t = path(6)
        meta = tree_meta(t, eccentricity_rows(t)[0])
        assert meta.diameter == 5
        assert meta.centers == (2, 3)
        assert meta.distinguished == frozenset()

    def test_path_even_diameter_single_center(self):
        t = path(5)
        meta = tree_meta(t, eccentricity_rows(t)[0])
        assert meta.diameter == 4
        assert meta.centers == (2,)
        assert meta.distinguished == {1, 3}

    def test_star_center_and_no_distinguished(self):
        t = star(7)
        meta = tree_meta(t, eccentricity_rows(t)[0])
        assert meta.diameter == 2
        assert meta.centers == (0,)
        # with diameter 2 every leaf lies on a longest path
        assert meta.distinguished == frozenset(range(1, 7))

    def test_distinguished_equals_longest_path_neighbors(self):
        count = 0
        for t in enumerate_labeled_trees(7):
            meta = tree_meta(t, eccentricity_rows(t)[0])
            if meta.diameter % 2 == 0 and meta.diameter >= 4:
                assert meta.distinguished == distinguished_by_paths(t)
                count += 1
        assert count > 0

    def test_sampled_distinguished_matches_oracle(self):
        hits = 0
        for i in range(60):
            t = pruefer_random(11, f"disting:{i}")
            meta = tree_meta(t, eccentricity_rows(t)[0])
            if meta.diameter % 2 == 0:
                assert meta.distinguished == distinguished_by_paths(t)
                hits += 1
        assert hits > 0


class TestBranch:
    def test_odd_branch_shape(self):
        # each half of the path is keyed by its nearer center
        t = path(6)
        assert tree_meta(t, eccentricity_rows(t)[0]).branch == (2, 2, 2, 3, 3, 3)

    def test_even_branch_shape(self):
        # the center keys itself, the rest by the center's neighbor
        t = path(5)
        assert tree_meta(t, eccentricity_rows(t)[0]).branch == (1, 1, 2, 3, 3)

    def test_key_is_center_or_on_path_from_center(self):
        parities = set()
        for i in range(40):
            t = pruefer_random(10, f"branch:{i}")
            meta = tree_meta(t, eccentricity_rows(t)[0])
            parities.add(meta.diameter % 2)
            for v in range(t.n):
                if len(meta.centers) == 1:
                    walk = tree_path_vertices(t, meta.centers[0], v)
                    assert meta.branch[v] == walk[min(1, len(walk) - 1)]
                else:
                    c0, c1 = meta.centers
                    near = c1 if c1 in tree_path_vertices(t, c0, v) else c0
                    assert meta.branch[v] == near
        assert parities == {0, 1}

    def test_distinguished_are_branches_of_deep_vertices(self):
        hits = 0
        for i in range(40):
            t = pruefer_random(10, f"branch-deep:{i}")
            meta = tree_meta(t, eccentricity_rows(t)[0])
            if meta.diameter % 2 == 1:
                continue
            deep = {meta.branch[w] for w in range(t.n) if meta.ecc[w] == meta.diameter}
            assert meta.distinguished == deep
            # each distinguished vertex keys its own branch
            assert all(meta.branch[v] == v for v in meta.distinguished)
            hits += 1
        assert hits > 0


class TestDiametricalPairing:
    @pytest.mark.parametrize("g,expect_diam", [(cycle(4), 2), (cycle(6), 3), (hypercube(3), 3), (cocktail_party(3), 2)])
    def test_examples_have_involutive_pairing(self, g, expect_diam):
        dist = distance_matrix(g)
        pairing = diametrical_pairing(*eccentricity_rows(g))
        assert pairing is not None
        assert max(max(r) for r in dist.rows) == expect_diam
        for v, w in pairing.items():
            assert pairing[w] == v
            assert dist.rows[v][w] == expect_diam

    def test_path_has_no_pairing(self):
        t = path(4)
        assert diametrical_pairing(*eccentricity_rows(t)) is None

    def test_odd_cycle_has_no_pairing(self):
        g = cycle(5)
        assert diametrical_pairing(*eccentricity_rows(g)) is None


class TestEdgeListFormat:
    def test_round_trip(self):
        g = cycle(5)
        again = read_graph(to_edge_list(g))
        assert again.edges() == g.edges()
        assert again.n == g.n

    def test_comments_and_blank_lines_skipped(self):
        text = "# sample\n3 2\n\n0 1\n# middle\n1 2\n"
        g = read_graph(text)
        assert g.edges() == [(0, 1), (1, 2)]

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(ValueError):
            read_graph("3 2\n0 1\n")

    def test_bad_header_rejected(self):
        # a first line that is not "n m" makes the input graph6
        with pytest.raises(ValueError, match="graph6 input must hold one graph; found 2 data lines"):
            read_graph("three two\n0 1\n")

    def test_bad_edge_line_rejected(self):
        with pytest.raises(ValueError):
            read_graph("2 1\n0 x\n")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            read_graph("  \n# nothing\n")

    def test_order_cap_from_header(self):
        # rejected from the header alone, before any adjacency is allocated
        with pytest.raises(ValueError, match="exceeds the limit"):
            read_graph("1000000000 0\n")
        with pytest.raises(ValueError, match="exceeds the limit"):
            read_graph(f"{MAX_ORDER + 1} 1\n0 1\n")
        assert read_graph(f"{MAX_ORDER} {MAX_ORDER - 1}\n" + "".join(
            f"0 {v}\n" for v in range(1, MAX_ORDER))).n == MAX_ORDER

    def test_order_and_edge_count_checked_from_header(self):
        # rejected from the header alone: the lines after it are not edges
        for head in ("-3 7", "0 0", "5 -1"):
            with pytest.raises(ValueError, match=f"header '{head}' needs an order n >= 1"):
                read_graph(f"{head}\nx y\n")

    def test_sniffing_shares_the_comment_rule(self):
        assert read_graph("  # indented comment\n\t# tab\n2 1\n  0 1\n").edges() == [(0, 1)]
        assert read_graph("  # indented comment\nCh\n").n == 4
        with pytest.raises(ValueError, match="empty input"):
            read_graph("   # only a comment\n")

    def test_large_input_is_streamed(self):
        # Each text is near MAX_INPUT_BYTES. read_graph holds neither a whole
        # copy of it nor a list of all its lines, and keeps at most m of them.
        cases = (
            ("2 1\n" + "0 1\n" * 2_097_150, "expected 1 edge lines, found 2097150"),
            ("\n" * MAX_INPUT_BYTES, "empty input"),
            ("2 1\n" + "#\n" * 2_097_150, "expected 1 edge lines, found 0"),
        )
        for text, message in cases:
            assert len(text) <= MAX_INPUT_BYTES
            tracemalloc.start()
            try:
                with pytest.raises(ValueError) as err:
                    read_graph(text)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert str(err.value) == message
            assert peak < 16 << 20


class TestGraph6Format:
    def test_single_vertex(self):
        g = read_graph6("@")
        assert g.n == 1 and g.edge_count == 0

    def test_single_edge(self):
        g = read_graph6("A_")
        assert g.n == 2 and g.edges() == [(0, 1)]

    def test_complete_graph_on_four(self):
        g = read_graph6("C~")
        assert g.n == 4 and g.edge_count == 6

    def test_path_on_three(self):
        g = read_graph6("Bg")
        assert g.edges() == [(0, 1), (1, 2)]

    def test_cycle_on_four(self):
        g = read_graph6("Cl")
        assert g.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_header_prefix_accepted(self):
        g = read_graph6(">>graph6<<A_")
        assert g.n == 2

    def test_reject_oversized(self):
        with pytest.raises(ValueError):
            read_graph6("~??")

    def test_long_header_round_trip(self):
        for g in (path(62), path(63), star(100)):
            line = to_graph6(g)
            assert line.startswith("~") == (g.n > 62)
            h = read_graph6(line)
            assert h.n == g.n and h.edges() == g.edges()

    def test_long_header_order_cap(self):
        g = path(MAX_ORDER)
        assert read_graph6(to_graph6(g)).edges() == g.edges()
        # rejected from the header alone, before any edge bit is read
        with pytest.raises(ValueError, match="exceeds the limit"):
            read_graph6(graph6_order(MAX_ORDER + 1))
        with pytest.raises(ValueError, match="exceeds the limit"):
            read_graph6("~~" + "".join(chr(63 + ((10**9 >> s) & 63)) for s in range(30, -1, -6)))

    def test_reject_bad_character(self):
        with pytest.raises(ValueError):
            read_graph6("B\x01")

    def test_reject_truncated(self):
        with pytest.raises(ValueError):
            read_graph6("C")

    def test_reject_trailing_characters(self):
        with pytest.raises(ValueError, match="has 4 characters; expected 1"):
            read_graph6("A_xyz")
        with pytest.raises(ValueError, match="has 2 characters; expected 1"):
            read_graph6("Bw?")

    def test_reject_nonzero_padding(self):
        # "A_" is K2; its five padding bits must be zero
        for line in ("Ao", "A~", "Bx"):
            with pytest.raises(ValueError, match="padding bits"):
                read_graph6(line)
        for n in range(1, 12):
            line = to_graph6(path(n))
            assert read_graph6(line).edges() == path(n).edges()
            if n * (n - 1) // 2 % 6:
                with pytest.raises(ValueError, match="padding bits"):
                    read_graph6(line[:-1] + chr(((ord(line[-1]) - 63) | 1) + 63))

    def test_one_graph6_line_per_input(self):
        with pytest.raises(ValueError, match="found 2 data lines"):
            read_graph("Bw\nCx\n")


def test_distance_matrix_randomized_against_shuffled_labels():
    # Relabeling commutes with distance computation.
    rng = random.Random(7)
    t = pruefer_random(10, "relabel")
    perm = list(range(10))
    rng.shuffle(perm)
    relabeled = Tree(10, [(perm[u], perm[v]) for u, v in t.edges()])
    d1 = distance_matrix(t)
    d2 = distance_matrix(relabeled)
    for u in range(10):
        for v in range(10):
            assert d1.rows[u][v] == d2.rows[perm[u]][perm[v]]
