import itertools
import json
import random
import sys

import pytest

from eccmat import checks, exact, graphs
from eccmat.checks import (
    FLOAT_TOL,
    TreeFacts,
    Verdict,
    check_block_structure,
    check_core_minor_sums,
    check_diametrical,
    check_distinct_counts,
    check_inertia,
    check_inertia_float_agreement,
    check_least_eigenvalue_bound,
    check_odd_core_eigenvalues,
    check_pair_block_inertia,
    check_radius_bound,
    check_rank,
    check_star_spectrum,
    check_symmetry,
    min_radius_bound,
    min_radius_tree,
    tree_checks,
)
from eccmat.exact import CharPoly, Inertia
from eccmat.families import (
    center_pendant_tree,
    cycle,
    diametrical_examples,
    enumerate_labeled_trees,
    path,
    pruefer_random,
    spider,
    star,
)
from eccmat.cli import main
from eccmat.graphs import Tree
from eccmat.matrices import SymMatrix

from _oracles import floyd_warshall, pair_block_inertias_by_descartes


class TestVerdictType:
    def test_json_shape(self):
        v = Verdict("tree-rank", "path:4", 4, 4, True)
        data = json.loads(v.to_json())
        assert list(data) == [
            "theorem_id",
            "instance",
            "expected",
            "computed",
            "pass",
            "detail",
        ]
        assert data["pass"] is True

    def test_failure_gets_default_detail(self):
        v = check_inertia(TreeFacts(path(4), corrupt=True))
        if not v.passed:
            assert v.detail


class TestInertiaCheck:
    @pytest.mark.parametrize(
        "tree,label",
        [
            (path(2), "p2"),
            (path(4), "p4"),
            (path(5), "p5"),
            (star(6), "star6"),
            (spider(3, 2), "spider"),
        ],
    )
    def test_passes(self, tree, label):
        v = check_inertia(TreeFacts(tree))
        assert v.passed, v.detail

    def test_expected_triples(self):
        assert tuple(check_inertia(TreeFacts(star(6))).expected) == (1, 5, 0)
        assert tuple(check_inertia(TreeFacts(path(4))).expected) == (2, 2, 0)
        assert tuple(check_inertia(TreeFacts(spider(3, 2))).expected) == (3, 3, 1)
        assert tuple(check_inertia(TreeFacts(path(7))).expected) == (2, 2, 3)

    def test_theorem_id(self):
        assert check_inertia(TreeFacts(path(4))).theorem_id == "tree-inertia"

    def test_minor_signs_must_agree(self, monkeypatch):
        # negative control: the prediction and Descartes still agree, only
        # the minor-sign route is made wrong
        real = checks.inertia_of_matrix

        def swapped(m):
            plus, minus, zero = real(m)
            return Inertia(minus, plus, zero)

        def shifted(m):
            plus, minus, zero = real(m)
            return Inertia(plus + 1, minus - 1, zero)

        monkeypatch.setattr(checks, "inertia_of_matrix", swapped)
        v = check_inertia(TreeFacts(star(5)))
        assert not v.passed
        assert tuple(v.expected) == tuple(v.computed) == (1, 4, 0)
        assert v.detail.endswith("minor signs Inertia(n_plus=4, n_minus=1, n_zero=0)")
        # a tree's nonstar inertia (l, l, n - 2l) is unchanged by the swap
        assert check_inertia(TreeFacts(path(6))).passed
        monkeypatch.setattr(checks, "inertia_of_matrix", shifted)
        v = check_inertia(TreeFacts(path(6)))
        assert not v.passed and tuple(v.computed) == (2, 2, 2)


class TestRankCheck:
    def test_known_ranks(self):
        assert check_rank(TreeFacts(path(6))).expected == 4
        assert check_rank(TreeFacts(path(5))).expected == 4
        assert check_rank(TreeFacts(star(7))).expected == 7
        assert check_rank(TreeFacts(spider(3, 2))).expected == 6
        for t in (path(6), path(5), star(7), spider(3, 2)):
            assert check_rank(TreeFacts(t)).passed

    def test_random_trees(self):
        for i in range(15):
            t = pruefer_random(9, f"rank:{i}")
            v = check_rank(TreeFacts(t))
            assert v.passed, v.detail

    def test_planted_minors_fail_rank_and_inertia(self):
        # path:6 has inertia (2, 2, 2); minor signs of rank 5 fail both checks
        facts = TreeFacts(path(6))
        facts.__dict__["minors"] = Inertia(3, 2, 1)
        v = check_rank(facts)
        assert v.passed is False and (v.expected, v.computed) == (4, 5)
        assert v.detail == "expected 4, computed 5"
        v = check_inertia(facts)
        assert v.passed is False and tuple(v.expected) == tuple(v.computed) == (2, 2, 2)
        assert v.detail == (
            "expected Inertia(n_plus=2, n_minus=2, n_zero=2), computed Inertia(n_plus=2, n_minus=2, "
            "n_zero=2), minor signs Inertia(n_plus=3, n_minus=2, n_zero=1)"
        )

    def test_rank_reads_the_elimination_not_the_polynomial(self):
        # one zero root instead of two fails the inertia, not the rank
        facts = TreeFacts(path(6))
        facts.__dict__["poly"] = CharPoly(facts.poly.coeffs[:-2] + (1, 0))
        assert check_rank(facts).passed
        v = check_inertia(facts)
        assert v.passed is False and v.computed.n_zero == 1


class TestSymmetryCheck:
    def test_odd_diameter_symmetric(self):
        for t in (path(4), path(6), center_pendant_tree(8, 3, 1, 3)):
            v = check_symmetry(TreeFacts(t))
            assert v.passed and v.computed["symmetric"]

    def test_even_diameter_not_symmetric(self):
        for t in (star(5), spider(3, 2), path(5)):
            v = check_symmetry(TreeFacts(t))
            assert v.passed, v.detail
            assert not v.computed["symmetric"]

    def test_theorem_id(self):
        assert check_symmetry(TreeFacts(path(4))).theorem_id == "spectrum-symmetry"

    def test_even_diameter_without_witness_fails(self):
        # x^3 + 1 is not symmetric, and no two consecutive coefficients are
        # nonzero; path:3 has diameter 2
        facts = TreeFacts(path(3))
        facts.__dict__["poly"] = CharPoly((1, 0, 0, 1))
        v = check_symmetry(facts)
        assert v.passed is False
        assert v.computed == {"symmetric": False, "witness": "absent"}
        assert v.detail == f"expected {v.expected}, computed {v.computed}"


class TestDistinctCountCheck:
    def test_star_has_three(self):
        v = check_distinct_counts(TreeFacts(star(9)))
        assert v.passed and v.computed == 3

    def test_p4_has_four(self):
        v = check_distinct_counts(TreeFacts(path(4)))
        assert v.passed and v.computed == 4

    def test_longer_odd_diameter_has_five(self):
        for t in (path(6), path(10), center_pendant_tree(9, 5, 1, 2)):
            v = check_distinct_counts(TreeFacts(t))
            assert v.passed, v.detail
            assert v.computed == 5

    def test_even_diameter_at_least_four(self):
        v = check_distinct_counts(TreeFacts(spider(3, 2)))
        assert v.passed and v.computed >= 4

    def test_small_orders_rejected(self):
        with pytest.raises(ValueError):
            check_distinct_counts(TreeFacts(path(3)))

    def test_three_on_even_diameter_fails(self):
        # x (x^2 - 1)^2 has the three roots 0, 1, -1; path:5 has diameter 4
        facts = TreeFacts(path(5))
        facts.__dict__["poly"] = CharPoly((1, 0, -2, 0, 1, 0))
        v = check_distinct_counts(facts)
        assert not v.passed
        assert (v.expected, v.computed) == (">=4", 3)
        assert v.detail == "expected >=4, computed 3"


class TestStarSpectrumCheck:
    @pytest.mark.parametrize("n", [3, 4, 5, 11, 30])
    def test_passes(self, n):
        v = check_star_spectrum(n)
        assert v.passed, v.detail
        assert "max abs error" in v.detail

    def test_small_orders_rejected(self):
        with pytest.raises(ValueError):
            check_star_spectrum(2)


class TestRadiusBound:
    def test_small_case_closed_value(self):
        assert abs(min_radius_bound(4) - 4.0) < 1e-12

    def test_monotone_in_n(self):
        vals = [min_radius_bound(n) for n in range(4, 40)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_extremal_tree_order(self):
        for n in range(4, 30):
            assert min_radius_tree(n).n == n

    def test_bounds_reject_small_n(self):
        with pytest.raises(ValueError):
            min_radius_bound(3)
        with pytest.raises(ValueError):
            min_radius_tree(3)

    @pytest.mark.parametrize("n", [4, 7, 10, 15, 16, 17, 20])
    def test_extremal_equality(self, n):
        t = min_radius_tree(n)
        v = check_radius_bound(TreeFacts(t))
        assert v.passed, v.detail
        assert "equality required" in v.detail

    def test_equality_detected_up_to_isomorphism(self):
        t = min_radius_tree(10)
        perm = list(range(10))
        random.Random(3).shuffle(perm)
        relabeled = Tree(10, [(perm[u], perm[v]) for u, v in t.edges()])
        v = check_radius_bound(TreeFacts(relabeled))
        assert v.passed and "equality required" in v.detail

    def test_generic_tree_strictly_above(self):
        for i in range(10):
            t = pruefer_random(12, f"rb:{i}")
            v = check_radius_bound(TreeFacts(t))
            assert v.passed, v.detail

    def test_small_orders_rejected(self):
        with pytest.raises(ValueError):
            check_radius_bound(TreeFacts(path(3)))

    def test_just_below_the_bound_fails(self):
        # 1e-6 below the bound is beyond FLOAT_TOL on a non-extremal tree
        facts = TreeFacts(path(8))
        assert not facts.extremal
        bound = min_radius_bound(8)
        facts.__dict__["eigenvalues"] = [bound - 1e-6] + facts.eigenvalues[1:]
        v = check_radius_bound(facts)
        assert v.passed is False
        assert v.detail == f"bound {bound!r} violated by {bound - 1e-6!r}"

    def test_extremal_just_above_the_bound_fails(self):
        # equality is required on the extremal tree, so 1e-6 above the
        # bound, beyond FLOAT_TOL, fails although it satisfies the bound
        facts = TreeFacts(min_radius_tree(10))
        assert facts.extremal and facts.meta.diameter == 3
        bound = min_radius_bound(10)
        facts.__dict__["eigenvalues"] = [bound + 1e-6] + facts.eigenvalues[1:]
        v = check_radius_bound(facts)
        assert v.passed is False
        assert v.detail == f"bound {bound!r} violated by {bound + 1e-6!r}"


class TestLeastEigenvalueBound:
    def test_extremal_equality(self):
        for n in (9, 18):
            v = check_least_eigenvalue_bound(TreeFacts(min_radius_tree(n)))
            assert v.passed, v.detail
            assert "equality required" in v.detail

    def test_generic_odd_tree(self):
        v = check_least_eigenvalue_bound(TreeFacts(path(8)))
        assert v.passed, v.detail

    def test_just_above_the_negated_bound_fails(self):
        facts = TreeFacts(path(8))
        assert not facts.extremal
        bound = min_radius_bound(8)
        facts.__dict__["eigenvalues"] = facts.eigenvalues[:-1] + [-bound + 1e-6]
        v = check_least_eigenvalue_bound(facts)
        assert v.passed is False
        assert v.detail == f"bound {-bound!r} violated by {-bound + 1e-6!r}"

    def test_extremal_just_above_the_negated_bound_fails(self):
        facts = TreeFacts(min_radius_tree(10))
        assert facts.extremal and facts.meta.diameter == 3
        bound = min_radius_bound(10)
        facts.__dict__["eigenvalues"] = facts.eigenvalues[:-1] + [-bound + 1e-6]
        v = check_least_eigenvalue_bound(facts)
        assert v.passed is False
        assert v.detail == f"bound {-bound!r} violated by {-bound + 1e-6!r}"

    def test_even_diameter_rejected(self):
        with pytest.raises(ValueError, match="odd diameter"):
            check_least_eigenvalue_bound(TreeFacts(spider(3, 2)))
        with pytest.raises(ValueError, match="odd diameter"):
            check_least_eigenvalue_bound(TreeFacts(star(5)))


class TestPairBlockInertia:
    @pytest.mark.parametrize("d,n", [(1, 2), (1, 4), (2, 3), (3, 5)])
    def test_passes(self, d, n):
        v = check_pair_block_inertia(d, n)
        assert v.passed, v.detail
        assert tuple(v.computed["inertia"]) == (n, n, 0)
        assert v.computed["additive"]

    def test_minor_signs_agree_with_descartes(self):
        for d in range(1, 5):
            for n in range(2, 7):
                v = check_pair_block_inertia(d, n)
                total, top, comp = pair_block_inertias_by_descartes(d, n)
                assert v.computed["inertia"] == total
                assert v.computed["pivot_inertia"] == top
                assert v.computed["complement_inertia"] == comp

    @pytest.mark.parametrize("wrong", [0, 1, 2], ids=["total", "pivot", "complement"])
    def test_each_inertia_must_match(self, monkeypatch, wrong):
        # the verdict reads three inertias in turn: the whole block, the
        # pivot block and the Schur complement; each one wrong must fail it
        real = checks.inertia_of_matrix
        orders = []

        def faulty(m):
            got = real(m)
            orders.append(m.n)
            if len(orders) - 1 == wrong:
                return Inertia(got.n_plus + 1, got.n_minus - 1, got.n_zero)
            return got

        monkeypatch.setattr(checks, "inertia_of_matrix", faulty)
        v = check_pair_block_inertia(2, 3)
        assert orders == [6, 3, 3]
        assert v.passed is False
        key = ("inertia", "pivot_inertia", "complement_inertia")[wrong]
        assert v.computed[key] != v.expected[key]

    def test_arguments_validated(self):
        with pytest.raises(ValueError):
            check_pair_block_inertia(0, 2)
        with pytest.raises(ValueError):
            check_pair_block_inertia(1, 1)


class TestCoreMinorSums:
    def test_frozen_reference_values(self):
        v = check_core_minor_sums(2, 3)
        assert v.passed, v.detail
        # 3 deletions at -648 each plus 3 at -288 each
        assert v.expected["minor_sum"] == -2808
        assert v.computed["minor_sum"] == -2808

    def test_two_distinguished_case(self):
        v = check_core_minor_sums(2, 2)
        assert v.passed, v.detail
        assert v.computed["minor_sum"] == 32
        v = check_core_minor_sums(3, 2)
        assert v.passed and v.computed["minor_sum"] == 108

    @pytest.mark.parametrize("d,l", [(2, 4), (3, 3), (4, 2), (5, 5)])
    def test_passes(self, d, l):
        v = check_core_minor_sums(d, l)
        assert v.passed, v.detail
        assert v.computed["single_sign"] and v.computed["nonzero"]

    def test_one_minor_off_by_one_fails(self, monkeypatch):
        # one minor off its closed form fails the verdict through
        # closed_forms and names the deletion pair, whatever the sum does
        d, l = 2, 3
        size = 2 * l + 1
        pairs = list(itertools.combinations(range(size), 2))
        target = pairs.index((l, size - 1))  # a middle vertex and the center
        real = checks.bareiss_det
        calls = []

        def off_by_one(m):
            calls.append(m.n)
            return real(m) + (len(calls) - 1 == target)

        monkeypatch.setattr(checks, "bareiss_det", off_by_one)
        v = check_core_minor_sums(d, l)
        assert len(calls) == len(pairs)
        assert v.passed is False
        assert v.computed["closed_forms"] is False
        assert v.detail.startswith(f"deletion pair ({l},{size - 1}): minor ")

    def test_arguments_validated(self):
        with pytest.raises(ValueError):
            check_core_minor_sums(1, 2)
        with pytest.raises(ValueError):
            check_core_minor_sums(2, 1)


class TestBlockStructure:
    @pytest.mark.parametrize(
        "tree", [path(4), path(6), path(5), spider(3, 2), center_pendant_tree(9, 3, 2, 3)]
    )
    def test_passes(self, tree):
        v = check_block_structure(TreeFacts(tree))
        assert v.passed, v.detail

    def test_random_trees_both_parities(self):
        seen = set()
        for i in range(25):
            t = pruefer_random(9, f"bs:{i}")
            facts = TreeFacts(t)
            if facts.meta.diameter < 3:
                continue
            seen.add(facts.meta.diameter % 2)
            v = check_block_structure(facts)
            assert v.passed, v.detail
        assert seen == {0, 1}

    def test_small_diameter_rejected(self):
        with pytest.raises(ValueError):
            check_block_structure(TreeFacts(star(5)))

    def test_corruption_caught(self):
        v = check_block_structure(TreeFacts(path(4), corrupt=True))
        assert not v.passed
        assert v.detail

    def test_same_side_entry_counted_once(self):
        # 0 and 1 lie on the same side of path(6)'s central edge
        facts = TreeFacts(path(6))
        rows = [list(r) for r in facts.matrix.rows]
        rows[0][1] += 1
        rows[1][0] += 1
        facts.matrix = SymMatrix(rows)
        v = check_block_structure(facts)
        assert v.computed == {"mismatches": 1}
        assert v.detail == "entry (0,1) = 1, predicted 0"


class TestClosedFormVerdict:
    SWAP = SymMatrix([[0, 1], [1, 0]])  # eigenvalues 1, -1

    def test_match_passes(self):
        v = checks._closed_form_verdict("t", "swap", self.SWAP, [1.0, -1.0])
        assert v.passed
        assert v.expected == [1.0, -1.0] and v.detail.startswith("max abs error")

    def test_off_by_twice_the_tolerance_fails(self):
        v = checks._closed_form_verdict("t", "swap", self.SWAP, [1.0 + 2 * FLOAT_TOL, -1.0])
        assert not v.passed
        assert v.detail == f"max abs error {2 * FLOAT_TOL:.3e}"

    def test_not_ok_fails_on_a_matching_spectrum(self):
        v = checks._closed_form_verdict("t", "swap", self.SWAP, [1.0, -1.0], ok=False)
        assert not v.passed
        assert v.detail.startswith("max abs error")

    def test_diametrical_pairing_mismatch_fails(self, monkeypatch):
        # pair each vertex of cycle:6 with its neighbor instead of its antipode
        monkeypatch.setattr(checks, "diametrical_pairing", lambda ecc, rows: {v: v ^ 1 for v in range(len(ecc))})
        v = check_diametrical(cycle(6))
        assert not v.passed
        assert v.expected["paired_form"] is True and v.computed["paired_form"] is False
        assert v.computed["spectrum"] == pytest.approx(v.expected["spectrum"])

    def test_diametrical_pairing_three_cycle_fails(self, monkeypatch):
        # antipodes on cycle:6, except that 0, 1 and 2 map around a 3-cycle:
        # not an involution, which the entry test sees in row 0
        pairing = {0: 1, 1: 2, 2: 0, 3: 0, 4: 1, 5: 2}
        monkeypatch.setattr(checks, "diametrical_pairing", lambda ecc, rows: pairing)
        v = check_diametrical(cycle(6))
        assert not v.passed
        assert v.computed["paired_form"] is False
        assert v.computed["spectrum"] == pytest.approx(v.expected["spectrum"])

    def test_entry_off_the_pairing_fails(self, monkeypatch):
        # cycle:6 with a 1 at (0, 1) and (1, 0): every diametral pair keeps
        # its entry, but the form is no longer a scaled permutation
        build = checks.eccentricity_matrix

        def planted(ecc, rows):
            m = [list(r) for r in build(ecc, rows).rows]
            m[0][1] = m[1][0] = 1
            return SymMatrix(m)

        monkeypatch.setattr(checks, "eccentricity_matrix", planted)
        v = check_diametrical(cycle(6))
        assert not v.passed
        assert v.computed["paired_form"] is False


class TestDiametrical:
    def test_examples_pass(self):
        for g in diametrical_examples():
            v = check_diametrical(g)
            assert v.passed, v.detail

    def test_ids_and_labels(self):
        v = check_diametrical(cycle(4), "box")
        assert v.theorem_id == "diametrical-spectrum"
        assert v.instance == "box"

    def test_non_diametrical_rejected(self):
        with pytest.raises(ValueError):
            check_diametrical(cycle(5))


class TestFloatAgreement:
    def test_examples(self):
        for t in (path(2), path(6), star(6), spider(3, 2)):
            v = check_inertia_float_agreement(TreeFacts(t))
            assert v.passed, v.detail

    def test_random_trees(self):
        for i in range(10):
            t = pruefer_random(10, f"fa:{i}")
            assert check_inertia_float_agreement(TreeFacts(t)).passed

    @pytest.mark.parametrize("scale,inertia", [(0.5, Inertia(2, 2, 1)), (2.0, Inertia(3, 2, 0))])
    def test_zero_band_is_the_default_width(self, scale, inertia):
        # path:5 has inertia (2, 2, 1); its one zero eigenvalue is planted at
        # a multiple of 1e-8 times the largest entry, 4
        facts = TreeFacts(path(5))
        values = sorted(facts.eigenvalues, key=abs)
        values[0] = scale * 4e-8
        facts.__dict__["eigenvalues"] = sorted(values, reverse=True)
        v = check_inertia_float_agreement(facts)
        assert v.computed == inertia
        assert v.passed is (scale < 1)


class TestOddCoreEigenvalues:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_passes(self, d):
        v = check_odd_core_eigenvalues(d)
        assert v.passed, v.detail

    def test_closed_form_values(self):
        v = check_odd_core_eigenvalues(1)
        # (sqrt(9 + 16) +- 3) / 2 = 4, 1
        want = [4.0, 1.0, -1.0, -4.0]
        assert max(abs(a - b) for a, b in zip(v.expected, want)) < 1e-12

    def test_arguments_validated(self):
        with pytest.raises(ValueError):
            check_odd_core_eigenvalues(0)


class TestTreeChecks:
    def test_battery_order_odd_diameter(self):
        facts = TreeFacts(path(6))
        ids = [v.theorem_id for v in tree_checks(facts)]
        assert ids == [
            "tree-inertia",
            "tree-rank",
            "spectrum-symmetry",
            "distinct-count",
            "block-structure",
            "radius-lower-bound",
            "least-eigenvalue-bound",
            "inertia-float-agreement",
        ]

    def test_battery_even_diameter_drops_least_bound(self):
        ids = [v.theorem_id for v in tree_checks(TreeFacts(spider(3, 2)))]
        assert "least-eigenvalue-bound" not in ids
        assert "block-structure" in ids

    def test_battery_small_tree(self):
        ids = [v.theorem_id for v in tree_checks(TreeFacts(path(3)))]
        assert ids == ["tree-inertia", "tree-rank", "spectrum-symmetry",
                       "inertia-float-agreement"]

    def test_all_pass_on_clean_samples(self):
        for n, i in [(5, 0), (8, 1), (11, 2)]:
            facts = TreeFacts(pruefer_random(n, f"tc:{i}"))
            for v in tree_checks(facts):
                assert v.passed, f"{v.theorem_id}: {v.detail}"

    def test_corruption_fails_somewhere(self):
        facts = TreeFacts(path(4), corrupt=True)
        outcomes = [v.passed for v in tree_checks(facts)]
        assert not all(outcomes)

    def test_merged_twin_classes_fail(self, monkeypatch):
        # both exact inertias read exact._twin_classes, so a fault there
        # reaches both alike; merging two classes that are not twins must
        # still fail whenever it changes an inertia: tree-inertia against
        # the prediction, and the float inertia of the whole matrix
        real = exact._twin_classes
        trees = [t for n in (4, 5, 6) for t in list(enumerate_labeled_trees(n))[:40]]
        trees += [pruefer_random(n, f"merge:{n}") for n in range(7, 25)]
        changed = shared = 0
        for t in trees:
            clean = TreeFacts(t)
            truth, count = clean.minors, len(real(clean.matrix.rows))
            for x, y in itertools.combinations(range(count), 2):
                def merged(a, x=x, y=y):
                    c = real(a)
                    return [c[x] + c[y]] + [k for i, k in enumerate(c) if i not in (x, y)]

                monkeypatch.setattr(exact, "_twin_classes", merged)
                f = TreeFacts(t)
                failed = {v.theorem_id for v in tree_checks(f) if not v.passed}
                monkeypatch.setattr(exact, "_twin_classes", real)
                if f.minors == f.inertia == truth:
                    continue
                changed += 1
                shared += f.minors == f.inertia
                assert "tree-inertia" in failed, (t.edges(), x, y)
                if f.inertia != truth:
                    assert "inertia-float-agreement" in failed, (t.edges(), x, y)
        assert changed >= 500 and shared >= 500


class TestBfsBudget:
    """A tree's matrix and metadata come from the BFS rows of its peripheral
    vertices, at most 3 + |P| bfs_distances calls per tree, P the peripheral
    vertices; a diametrical graph's check runs one per vertex."""

    @pytest.fixture
    def bfs_sources(self, monkeypatch):
        """Count bfs_distances calls per graph, at every eccmat module that
        binds it."""
        real = graphs.bfs_distances
        sources = {}

        def counted(g, source):
            sources.setdefault(g, []).append(source)
            return real(g, source)

        for name, module in list(sys.modules.items()):
            if (name == "eccmat" or name.startswith("eccmat.")) and getattr(module, "bfs_distances", None) is real:
                monkeypatch.setattr(module, "bfs_distances", counted)
        return sources

    @staticmethod
    def budget(t):
        d = floyd_warshall(t)
        diameter = max(map(max, d))
        return 3 + sum(1 for row in d if max(row) == diameter)

    def test_diametrical_graphs_run_bfs_once_per_vertex(self, bfs_sources):
        battery = diametrical_examples()
        assert all(check_diametrical(g).passed for g in battery)
        assert list(bfs_sources) == battery
        for g, calls in bfs_sources.items():
            assert sorted(calls) == list(range(g.n)), (g.n, calls)

    def test_tree_checks(self, bfs_sources):
        trees = [path(2), path(9), star(12), spider(4, 3), min_radius_tree(20)]
        trees += [pruefer_random(n, f"budget:{n}") for n in range(20, 61, 5)]
        for t in trees:
            assert all(v.passed for v in tree_checks(TreeFacts(t)))
        assert list(bfs_sources) == trees
        for t, calls in bfs_sources.items():
            assert len(calls) <= self.budget(t), (t, calls)

    def test_sweep(self, bfs_sources, capsys):
        assert main(["sweep", "--n-from", "40", "--n-to", "45", "--samples", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["rows"]
        assert [t.n for t in bfs_sources] == list(range(40, 46))
        for t, calls in bfs_sources.items():
            assert len(calls) <= self.budget(t), (t, calls)


class TestTreeFacts:
    @pytest.mark.parametrize(
        "check",
        [
            check_inertia,
            check_rank,
            check_symmetry,
            check_distinct_counts,
            check_block_structure,
            check_radius_bound,
            check_least_eigenvalue_bound,
            check_inertia_float_agreement,
            tree_checks,
        ],
    )
    def test_single_vertex_rejected(self, check):
        with pytest.raises(ValueError, match="n >= 2"):
            check(TreeFacts(path(1)))


class TestExtremalBoundConsistency:
    def test_bound_equals_extremal_radius(self):
        for n in range(4, 25):
            facts = TreeFacts(min_radius_tree(n))
            assert abs(facts.eigenvalues[0] - min_radius_bound(n)) <= FLOAT_TOL

    def test_negated_bound_equals_extremal_least(self):
        for n in range(4, 25):
            facts = TreeFacts(min_radius_tree(n))
            assert abs(facts.eigenvalues[-1] + min_radius_bound(n)) <= FLOAT_TOL
