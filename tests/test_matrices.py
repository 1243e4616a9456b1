import random
from fractions import Fraction

import pytest

from eccmat import (
    SymMatrix,
    bareiss_det,
    deep_mid_block,
    distance_matrix,
    eccentricity_matrix,
    even_diameter_core,
    odd_diameter_core,
    schur_complement,
)
from eccmat.families import cycle, path, pruefer_random, star

from _oracles import (
    ecc_entries_by_definition,
    is_irreducible,
    leibniz_det,
    mixed_symmetric,
    principal_minor_sum,
    random_symmetric,
    schur_by_solve,
)


class TestIntSymMatrix:
    """SymMatrix, which holds int entries and Fractions only where needed."""

    def test_requires_square_symmetric(self):
        with pytest.raises(ValueError):
            SymMatrix([[0, 1], [2, 0]])
        with pytest.raises(ValueError):
            SymMatrix([[0, 1, 0], [1, 0, 0]])

    def test_submatrix_and_max_abs(self):
        m = SymMatrix([[0, 2, -5], [2, 1, 3], [-5, 3, 0]])
        sub = m.submatrix([0, 2])
        assert sub.rows == ((0, -5), (-5, 0))
        assert m.max_abs() == 5

    def test_equality_and_hash(self):
        a = SymMatrix([[0, 1], [1, 0]])
        b = SymMatrix([[0, 1], [1, 0]])
        assert a == b
        assert hash(a) == hash(b)

    def test_rational_from_int(self):
        ints = [[2, 1], [1, 2]]
        m = SymMatrix([[Fraction(x) for x in row] for row in ints])
        assert m.rows[0][0] == Fraction(2)
        assert m == SymMatrix(ints)
        half = SymMatrix([[Fraction(1, 2), 1], [1, 0]])
        assert half.rows[0][0] == Fraction(1, 2) and half.to_text() == "2\n1/2 1\n1 0"


class TestEccentricityMatrix:
    @pytest.mark.parametrize("g", [path(5), path(6), star(6), cycle(7)])
    def test_matches_definition(self, g):
        m = eccentricity_matrix(distance_matrix(g))
        assert [list(r) for r in m.rows] == ecc_entries_by_definition(g)

    def test_random_trees_match_definition(self):
        for i in range(30):
            t = pruefer_random(9, f"eccdef:{i}")
            m = eccentricity_matrix(distance_matrix(t))
            assert [list(r) for r in m.rows] == ecc_entries_by_definition(t)

    def test_zero_diagonal(self):
        m = eccentricity_matrix(distance_matrix(star(8)))
        assert all(m.rows[i][i] == 0 for i in range(8))


class TestIrreducibility:
    def test_tree_matrices_are_irreducible(self):
        for i in range(20):
            t = pruefer_random(8, f"irr:{i}")
            assert is_irreducible(eccentricity_matrix(distance_matrix(t)))

    def test_block_diagonal_is_reducible(self):
        m = SymMatrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]])
        assert not is_irreducible(m)

    def test_trivial_cases(self):
        assert is_irreducible(SymMatrix([[5]]))
        assert not is_irreducible(SymMatrix([[0, 0], [0, 0]]))


class TestBuilders:
    def test_deep_mid_block_layout(self):
        m = deep_mid_block(2, 2)
        assert [list(r) for r in m.rows] == [
            [0, 4, 0, 3],
            [4, 0, 3, 0],
            [0, 3, 0, 0],
            [3, 0, 0, 0],
        ]

    def test_deep_mid_block_bigger(self):
        m = deep_mid_block(1, 3)
        top = [[0, 2, 2], [2, 0, 2], [2, 2, 0]]
        cross = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        for i in range(3):
            for j in range(3):
                assert m.rows[i][j] == top[i][j]
                assert m.rows[i][3 + j] == cross[i][j]
                assert m.rows[3 + i][3 + j] == 0

    def test_odd_core_layout(self):
        assert [list(r) for r in odd_diameter_core(3).rows] == [
            [0, 7, 0, 6],
            [7, 0, 6, 0],
            [0, 6, 0, 0],
            [6, 0, 0, 0],
        ]

    def test_even_core_layout(self):
        m = even_diameter_core(2, 2)
        assert [list(r) for r in m.rows] == [
            [0, 4, 0, 3, 2],
            [4, 0, 3, 0, 2],
            [0, 3, 0, 0, 0],
            [3, 0, 0, 0, 0],
            [2, 2, 0, 0, 0],
        ]

    def test_even_core_is_a_real_submatrix(self):
        # one deep vertex, one distinguished vertex per leg, plus the center
        from eccmat.families import spider

        d, l = 3, 3
        t = spider(l, d)
        m = eccentricity_matrix(distance_matrix(t))
        deep = [leg * d + d for leg in range(l)]
        mids = [leg * d + 1 for leg in range(l)]
        idx = deep + mids + [0]
        sub = [[m.rows[i][j] for j in idx] for i in idx]
        assert sub == [list(r) for r in even_diameter_core(d, l).rows]

    def test_builders_reject_bad_arguments(self):
        with pytest.raises(ValueError):
            deep_mid_block(0, 2)
        with pytest.raises(ValueError):
            odd_diameter_core(0)
        with pytest.raises(ValueError):
            even_diameter_core(1, 2)
        with pytest.raises(ValueError):
            even_diameter_core(2, 1)


class TestDeterminant:
    def test_matches_permutation_expansion(self):
        rng = random.Random(11)
        for n in (1, 2, 3, 4, 5):
            for _ in range(8):
                rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
                assert bareiss_det(rows) == leibniz_det(rows)

    def test_singular(self):
        assert bareiss_det([[1, 2], [2, 4]]) == 0

    def test_empty_matrix(self):
        assert bareiss_det([]) == 1

    def test_big_integer_growth(self):
        n = 9
        rows = [[(i * j * j + i + 7 * j) % 23 - 11 for j in range(n)] for i in range(n)]
        sym = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
        assert bareiss_det(sym) == leibniz_det(sym)


class TestEliminationKernel:
    def test_pivot_columns_give_a_nonsingular_principal_block(self):
        # for a symmetric matrix of rank r, the pivot columns R make A_RR
        # nonsingular: the block a low-rank route would work from
        from eccmat.matrices import _bareiss

        for i in range(40):
            m = eccentricity_matrix(distance_matrix(pruefer_random(9, f"kernel:{i}")))
            rank, cols, _, _ = _bareiss([list(r) for r in m.rows])
            assert len(cols) == rank < m.n
            assert bareiss_det([[m.rows[a][b] for b in cols] for a in cols]) != 0


class TestPrincipalMinorSums:
    def test_matches_direct_enumeration(self):
        rng = random.Random(19)
        m = random_symmetric(6, rng)
        from itertools import combinations

        for k in range(7):
            if k == 0:
                assert principal_minor_sum(m, 0) == 1
                continue
            want = sum(
                leibniz_det([[m.rows[i][j] for j in sub] for i in sub])
                for sub in combinations(range(6), k)
            )
            assert principal_minor_sum(m, k) == want

    def test_large_order_raises(self):
        # no fallback above the enumeration cutoff: the coefficient route
        # would check the characteristic polynomial against itself
        m = SymMatrix([[0] * 25 for _ in range(25)])
        with pytest.raises(ValueError, match="capped"):
            principal_minor_sum(m, 1)

    def test_rejects_bad_size(self):
        m = SymMatrix([[0]])
        with pytest.raises(ValueError):
            principal_minor_sum(m, 2)
        with pytest.raises(ValueError):
            principal_minor_sum(m, -1)


class TestSchurComplement:
    def test_two_by_two_block_example(self):
        m = SymMatrix([[2, 1], [1, 3]])
        comp = schur_complement(m, [0])
        assert comp.rows == ((Fraction(5, 2),),)

    def test_identity_pivot_leaves_rest(self):
        m = SymMatrix([[1, 0, 0], [0, 4, 2], [0, 2, 7]])
        comp = schur_complement(m, [0])
        assert comp.rows == ((Fraction(4), Fraction(2)), (Fraction(2), Fraction(7)))

    def test_singular_pivot_rejected(self):
        m = SymMatrix([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="singular pivot"):
            schur_complement(m, [0])

    def test_determinant_factorization(self):
        # det(M) = det(pivot block) * det(complement)
        rng = random.Random(3)
        for _ in range(10):
            m = random_symmetric(5, rng)
            piv = [0, 1]
            block = [[m.rows[i][j] for j in piv] for i in piv]
            if bareiss_det(block) == 0:
                continue
            comp = schur_complement(m, piv)
            det_m = Fraction(bareiss_det([list(r) for r in m.rows]))
            det_b = Fraction(bareiss_det(block))
            det_c = 1
            rows = [list(r) for r in comp.rows]
            # fraction-free elimination on rationals via nested fractions
            size = len(rows)
            det_c = Fraction(1)
            for k in range(size):
                piv_i = next((i for i in range(k, size) if rows[i][k] != 0), None)
                if piv_i is None:
                    det_c = Fraction(0)
                    break
                if piv_i != k:
                    rows[piv_i], rows[k] = rows[k], rows[piv_i]
                    det_c = -det_c
                det_c *= rows[k][k]
                for i in range(k + 1, size):
                    f = rows[i][k] / rows[k][k]
                    for j in range(k, size):
                        rows[i][j] -= f * rows[k][j]
            assert det_b * det_c == det_m

    def test_matches_gauss_jordan(self):
        # random pivot sets on zero-rich matrices, singular blocks included;
        # every other matrix mixes int and Fraction entries
        rng = random.Random(71)
        singular = 0
        for trial in range(400):
            n = rng.randint(1, 7)
            build = mixed_symmetric if trial % 2 else random_symmetric
            m = build(n, rng, -2, 2)
            piv = sorted(rng.sample(range(n), rng.randint(0, n)))
            want = schur_by_solve([list(r) for r in m.rows], piv)
            if want is None:
                singular += 1
                with pytest.raises(ValueError, match="singular pivot"):
                    schur_complement(m, piv)
            else:
                assert [list(r) for r in schur_complement(m, piv).rows] == want
        assert singular > 10

    def test_rational_input(self):
        m = SymMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), 2]])
        assert schur_complement(m, [0]).rows == ((Fraction(2) - Fraction(2, 9),),)

    def test_integer_pivot_with_fraction_elsewhere(self):
        # the int-only update steps must not fall back to float division
        m = SymMatrix([[2, 1, 0], [1, 1, 0], [0, 0, Fraction(1, 2)]])
        s = schur_complement(m, [0])
        assert s.rows == ((Fraction(1, 2), 0), (0, Fraction(1, 2)))
        assert all(type(x) in (int, Fraction) for row in s.rows for x in row)

    def test_pivot_indices_validated(self):
        m = SymMatrix([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            schur_complement(m, [0, 5])
