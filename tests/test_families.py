import itertools
import random

import pytest

from eccmat.graphs import Graph, Tree, diametrical_pairing, eccentricity_rows, tree_meta
from eccmat.families import (
    ENUMERATION_LIMIT,
    canonical_key,
    center_pendant_tree,
    cocktail_party,
    cycle,
    diametrical_examples,
    enumerate_labeled_trees,
    hypercube,
    parse_family,
    path,
    pruefer_decode,
    pruefer_random,
    spider,
    star,
)

from _oracles import floyd_warshall, pruefer_encode

# nonisomorphic trees on 1..9 vertices
FREE_TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}


def relabel(t: Tree, perm) -> Tree:
    return Tree(t.n, [(perm[u], perm[v]) for u, v in t.edges()])


class TestBasicFamilies:
    def test_path_shape(self):
        t = path(4)
        assert t.n == 4 and t.edges() == [(0, 1), (1, 2), (2, 3)]
        assert path(1).n == 1 and path(1).edges() == []

    def test_star_shape(self):
        t = star(5)
        assert t.degree(0) == 4
        assert all(t.degree(v) == 1 for v in range(1, 5))

    def test_bounds(self):
        with pytest.raises(ValueError):
            path(0)
        with pytest.raises(ValueError):
            star(1)


class TestCenterPendantTree:
    def test_layout(self):
        t = center_pendant_tree(9, 3, 2, 3)
        assert set(t.edges()) == {
            (0, 1), (1, 2), (2, 3),
            (1, 4), (1, 5),
            (2, 6), (2, 7), (2, 8),
        }

    def test_degenerate_is_path(self):
        assert center_pendant_tree(4, 3, 0, 0).edges() == path(4).edges()

    def test_diameter_is_d(self):
        for d in (3, 5, 7):
            for a, b in ((0, 2), (1, 1), (2, 5)):
                n = d + 1 + a + b
                t = center_pendant_tree(n, d, a, b)
                meta = tree_meta(t, eccentricity_rows(t)[0])
                assert meta.diameter == d

    @pytest.mark.parametrize(
        "n,d,a,b",
        [
            (6, 2, 1, 2),   # even d
            (5, 1, 1, 2),   # d too small
            (9, 3, 3, 2),   # a > b
            (9, 3, -1, 6),  # negative
            (9, 3, 1, 3),   # a + b mismatch
        ],
    )
    def test_rejects_bad_parameters(self, n, d, a, b):
        with pytest.raises(ValueError):
            center_pendant_tree(n, d, a, b)


class TestSpider:
    def test_shape(self):
        t = spider(3, 2)
        assert t.n == 7
        assert t.degree(0) == 3
        meta = tree_meta(t, eccentricity_rows(t)[0])
        assert meta.diameter == 4
        assert len(meta.distinguished) == 3

    def test_two_legs_is_a_path(self):
        assert canonical_key(spider(2, 2)) == canonical_key(path(5))

    def test_bounds(self):
        with pytest.raises(ValueError):
            spider(1, 2)
        with pytest.raises(ValueError):
            spider(2, 0)


class TestPruefer:
    def test_known_decodes(self):
        assert pruefer_decode(()).edges() == [(0, 1)]
        t = pruefer_decode((0, 0))
        assert t.n == 4 and t.degree(0) == 3

    def test_entry_range_checked(self):
        with pytest.raises(ValueError):
            pruefer_decode((4,))

    def test_decode_yields_valid_trees(self):
        for i in range(50):
            t = pruefer_random(10, f"valid:{i}")
            assert t.n == 10 and len(t.edges()) == 9
            # connected by the cubic recurrence, not by Graph's own check
            assert max(map(max, floyd_warshall(t))) < float("inf")

    def test_round_trip_identity_small_n(self):
        for n in range(3, 8):
            for seq in itertools.product(range(n), repeat=n - 2):
                assert pruefer_encode(pruefer_decode(seq)) == seq

    def test_random_is_seed_deterministic(self):
        a = pruefer_random(12, "s")
        b = pruefer_random(12, "s")
        assert a.edges() == b.edges()
        assert pruefer_random(12, "t").edges() != a.edges()

    def test_random_bounds(self):
        with pytest.raises(ValueError):
            pruefer_random(1, 0)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 16), (5, 125)])
    def test_cayley_counts(self, n, count):
        trees = list(enumerate_labeled_trees(n))
        assert len(trees) == count
        assert len({tuple(t.edges()) for t in trees}) == count

    def test_bounds(self):
        with pytest.raises(ValueError):
            list(enumerate_labeled_trees(1))
        with pytest.raises(ValueError):
            list(enumerate_labeled_trees(ENUMERATION_LIMIT + 1))


class TestCanonicalKey:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_free_tree_counts(self, n):
        keys = {canonical_key(t) for t in enumerate_labeled_trees(n)}
        assert len(keys) == FREE_TREE_COUNTS[n]

    def test_free_tree_count_eight(self):
        keys = {canonical_key(t) for t in enumerate_labeled_trees(8)}
        assert len(keys) == FREE_TREE_COUNTS[8]

    def test_single_vertex(self):
        assert canonical_key(path(1)) == "()"

    def test_invariant_under_relabeling(self):
        rng = random.Random(71)
        for i in range(20):
            t = pruefer_random(9, f"rel:{i}")
            perm = list(range(9))
            rng.shuffle(perm)
            assert canonical_key(relabel(t, perm)) == canonical_key(t)

    def test_separates_star_and_path(self):
        assert canonical_key(star(5)) != canonical_key(path(5))

    def test_sampled_keys_stay_within_census(self):
        keys = {canonical_key(pruefer_random(9, f"k9:{i}")) for i in range(3000)}
        keys.add(canonical_key(star(9)))
        keys.add(canonical_key(path(9)))
        assert 40 <= len(keys) <= FREE_TREE_COUNTS[9]


class TestFixedGraphs:
    def test_cycle(self):
        g = cycle(4)
        assert g.n == 4 and len(g.edges()) == 4
        with pytest.raises(ValueError):
            cycle(2)

    def test_hypercube(self):
        g = hypercube(3)
        assert g.n == 8 and len(g.edges()) == 12
        assert all(g.degree(v) == 3 for v in range(8))
        with pytest.raises(ValueError):
            hypercube(0)

    def test_cocktail_party(self):
        g = cocktail_party(3)
        assert g.n == 6 and len(g.edges()) == 12
        assert all(g.degree(v) == 4 for v in range(6))
        assert (0, 1) not in g.edges() and (4, 5) not in g.edges()
        with pytest.raises(ValueError):
            cocktail_party(1)

    def test_diametrical_examples_all_qualify(self):
        gs = diametrical_examples()
        assert len(gs) == 4
        for g in gs:
            assert diametrical_pairing(*eccentricity_rows(g)) is not None


class TestParseFamily:
    @pytest.mark.parametrize(
        "token,n",
        [
            ("path:6", 6),
            ("star:4", 4),
            ("tndab:9,3,2,3", 9),
            ("spider:3,2", 7),
            ("cycle:5", 5),
            ("hypercube:3", 8),
            ("cocktail:3", 6),
        ],
    )
    def test_grammar(self, token, n):
        g = parse_family(token)
        assert g.n == n

    def test_trees_come_back_as_trees(self):
        assert isinstance(parse_family("path:5"), Tree)
        assert isinstance(parse_family("cycle:5"), Graph)
        assert not isinstance(parse_family("cycle:5"), Tree)

    def test_case_and_space_insensitive_name(self):
        assert parse_family(" Star:5").n == 5

    def test_unknown_family_lists_known(self):
        with pytest.raises(ValueError, match="unknown family"):
            parse_family("wheel:5")

    def test_missing_arguments(self):
        with pytest.raises(ValueError, match="needs arguments"):
            parse_family("path")

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="takes 2 argument"):
            parse_family("spider:3")
        with pytest.raises(ValueError, match="takes 4 argument"):
            parse_family("tndab:10,3,0")
        with pytest.raises(ValueError, match="takes 1 argument"):
            parse_family("star:5,1")

    def test_non_integer_argument(self):
        with pytest.raises(ValueError, match="integers"):
            parse_family("path:x")

    def test_order_cap(self):
        from eccmat.graphs import MAX_ORDER

        assert parse_family("hypercube:6").n == 64
        for token in ("hypercube:20", "hypercube:1000000", f"path:{MAX_ORDER + 1}",
                      "spider:1000,2", f"cocktail:{MAX_ORDER}"):
            with pytest.raises(ValueError, match="more than"):
                parse_family(token)

    def test_constructor_errors_pass_through(self):
        with pytest.raises(ValueError, match="odd d"):
            parse_family("tndab:7,4,1,1")
