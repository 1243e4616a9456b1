import random
from fractions import Fraction

import pytest

from eccmat.families import cycle, path, pruefer_random, star
from eccmat.graphs import eccentricity_rows
from eccmat.matrices import (
    SymMatrix,
    bareiss_det,
    deep_mid_block,
    eccentricity_matrix,
    even_diameter_core,
    odd_diameter_core,
    schur_complement,
)

from _oracles import (
    ecc_entries_by_definition,
    fraction_det,
    is_irreducible,
    leibniz_det,
    principal_minor_sum,
    random_symmetric,
    rational_inertia_by_congruence,
    schur_by_solve,
)


class TestIntSymMatrix:
    """SymMatrix, which holds int entries only."""

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
        assert sub.to_text() == "2\n0 -5\n-5 0"

    def test_equality_and_hash(self):
        a = SymMatrix([[0, 1], [1, 0]])
        b = SymMatrix([[0, 1], [1, 0]])
        assert a == b
        assert hash(a) == hash(b)

    def test_rejects_non_int_entries(self):
        for bad in (Fraction(1, 2), Fraction(2), 2.0, True):
            with pytest.raises(ValueError, match="must be int"):
                SymMatrix([[bad, 1], [1, 0]])


class TestEccentricityMatrix:
    @pytest.mark.parametrize("g", [path(5), path(6), star(6), cycle(7)])
    def test_matches_definition(self, g):
        m = eccentricity_matrix(*eccentricity_rows(g))
        assert [list(r) for r in m.rows] == ecc_entries_by_definition(g)

    def test_random_trees_match_definition(self):
        for i in range(30):
            t = pruefer_random(9, f"eccdef:{i}")
            m = eccentricity_matrix(*eccentricity_rows(t))
            assert [list(r) for r in m.rows] == ecc_entries_by_definition(t)

    def test_kept_entries_written_from_the_source_rows(self):
        # path 0-1-2-3, e = (3, 2, 2, 3): the ends hold every kept entry,
        # and an entry with no source endpoint stays 0
        ecc = (3, 2, 2, 3)
        ends = {0: [0, 1, 2, 3], 3: [3, 2, 1, 0]}
        m = eccentricity_matrix(ecc, ends)
        assert [list(r) for r in m.rows] == [[0, 0, 2, 3], [0, 0, 0, 2], [2, 0, 0, 0], [3, 2, 0, 0]]
        m = eccentricity_matrix(ecc, {0: ends[0]})
        assert [list(r) for r in m.rows] == [[0, 0, 2, 3], [0, 0, 0, 0], [2, 0, 0, 0], [3, 0, 0, 0]]

    def test_zero_diagonal(self):
        m = eccentricity_matrix(*eccentricity_rows(star(8)))
        assert all(m.rows[i][i] == 0 for i in range(8))


class TestIrreducibility:
    def test_tree_matrices_are_irreducible(self):
        for i in range(20):
            t = pruefer_random(8, f"irr:{i}")
            assert is_irreducible(eccentricity_matrix(*eccentricity_rows(t)))

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
        m = eccentricity_matrix(*eccentricity_rows(t))
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
        # half of the inputs have a zero diagonal, so their elimination
        # takes 2 x 2 steps
        rng = random.Random(11)
        for n in (1, 2, 3, 4, 5):
            for k in range(16):
                rows = [list(r) for r in random_symmetric(n, rng, -5, 5).rows]
                if k % 2:
                    for i in range(n):
                        rows[i][i] = 0
                assert bareiss_det(SymMatrix(rows)) == leibniz_det(rows)

    def test_singular(self):
        assert bareiss_det(SymMatrix([[1, 2], [2, 4]])) == 0
        assert bareiss_det(SymMatrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])) == 0

    def test_empty_matrix(self):
        assert bareiss_det(SymMatrix([])) == 1

    def test_big_integer_growth(self):
        n = 9
        rows = [[(i * j * j + i + 7 * j) % 23 - 11 for j in range(n)] for i in range(n)]
        sym = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
        assert bareiss_det(SymMatrix(sym)) == leibniz_det(sym)


def kernel_case(rng):
    """A random symmetric integer matrix of order 1..14. Half of them are
    L (D + H) L^T, D a nonzero diagonal on the leading indices, H a hollow
    block on the rest and L unit lower triangular with an identity block on
    H, so 1 x 1 steps come before the 2 x 2 steps of the hollow H. The
    other half are a random core, spread by twin rows (which keep a zero
    diagonal and the rank) and zero rows, in a random order. The core is
    hollow in two of three cases, and in one of those bipartite: a 2 x 2
    step keeps a hollow bipartite block hollow and bipartite, so all its
    steps are 2 x 2."""
    n = rng.randint(1, 14)
    if rng.random() < 0.5:
        s = rng.randint(0, n)
        b = [list(r) for r in random_symmetric(n, rng, -3, 3).rows]
        for i in range(n):
            for j in range(n):
                if i != j and min(i, j) < s or i == j >= s:
                    b[i][j] = 0
            if i < s and not b[i][i]:
                b[i][i] = rng.choice((-2, -1, 1, 3))
        low = [[int(i == j) if j >= s or i <= j else rng.randint(-2, 2) for j in range(n)]
               for i in range(n)]
        lb = [[sum(low[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        return SymMatrix([[sum(lb[i][k] * low[j][k] for k in range(n)) for j in range(n)]
                          for i in range(n)])
    r = rng.randint(1, n)
    core = [list(row) for row in random_symmetric(r, rng, -3, 3).rows]
    kind = rng.randrange(3)
    side = [rng.random() < 0.5 for _ in range(r)]
    for i in range(r):
        for j in range(r):
            if i == j and kind or kind == 2 and side[i] == side[j]:
                core[i][j] = 0
    origin = list(range(r)) + [rng.randrange(r) if rng.random() < 0.7 else None for _ in range(n - r)]
    rng.shuffle(origin)
    return SymMatrix([[0 if None in (u, v) else core[u][v] for v in origin] for u in origin])


class TestEliminationKernel:
    def test_random_matrices_against_fraction_oracles(self):
        # rank and negative count from a congruence over the rationals,
        # sign * last pivot = det A_QQ, Q in pivot order, and the Schur
        # complement on a random pivot set by a Fraction solve
        from eccmat.matrices import _bareiss

        rng = random.Random(131)
        seen = {"2 x 2 first": 0, "2 x 2 after 1 x 1": 0, "2 x 2 twice in a row": 0, "schur": 0}
        for _ in range(600):
            m = kernel_case(rng)
            n, rows = m.n, [list(r) for r in m.rows]
            steps, sign, last, negative = _bareiss([list(r) for r in rows])
            plus, minus, _ = rational_inertia_by_congruence(rows)
            assert (len(steps), negative, m.n_minus) == (plus + minus, minus, minus)
            q = [c for _, c in steps]
            assert m.pivots == tuple(q)
            assert sign * last == fraction_det([[rows[a][b] for b in q] for a in q]) != 0
            kinds = "".join("2" if p != c else "1" for p, c in steps)  # "22" a 2 x 2 step
            seen["2 x 2 first"] += kinds.startswith("2")
            seen["2 x 2 after 1 x 1"] += "12" in kinds
            seen["2 x 2 twice in a row"] += "2222" in kinds
            piv = sorted(rng.sample(range(n), rng.randint(1, n)))
            want = schur_by_solve(rows, piv)
            if want is not None and len(piv) < n:
                b = fraction_det([[rows[a][c] for c in piv] for a in piv])
                assert [list(r) for r in schur_complement(m, piv).rows] == [
                    [abs(b) * v for v in row] for row in want]
                seen["schur"] += 1
        assert min(seen.values()) >= 30, seen

    def test_pivot_columns_give_a_nonsingular_principal_block(self):
        # for a symmetric matrix of rank r, the pivot indices Q make A_QQ
        # nonsingular
        from eccmat.matrices import _bareiss

        for i in range(40):
            m = eccentricity_matrix(*eccentricity_rows(pruefer_random(9, f"kernel:{i}")))
            steps = _bareiss([list(r) for r in m.rows])[0]
            cols = [q for _, q in steps]
            assert sorted(p for p, _ in steps) == sorted(cols)
            assert len(cols) < m.n
            assert bareiss_det(m.submatrix(cols)) != 0

    def test_symmetric_rule(self):
        # rank and negative count as a congruence over the rationals gives
        # them; sign * last pivot is the determinant of the pivot block,
        # taken in pivot order
        from eccmat.matrices import _bareiss

        rng = random.Random(29)
        for n in range(1, 9):
            for _ in range(30):
                rows = [list(r) for r in random_symmetric(n, rng, -2, 2).rows]
                if rng.random() < 0.5:
                    for i in range(n):
                        rows[i][i] = 0
                steps, sign, last, negative = _bareiss([list(r) for r in rows])
                plus, minus, _ = rational_inertia_by_congruence(rows)
                assert (len(steps), negative) == (plus + minus, minus)
                cols = [q for _, q in steps]
                block = [[rows[a][b] for b in cols] for a in cols]
                assert sign * last == leibniz_det(block) != 0

    def test_pinned_results_unchanged(self):
        # values pinned under the column rule of an earlier kernel
        assert bareiss_det(deep_mid_block(2, 3)) == -2916
        assert bareiss_det(odd_diameter_core(2)) == 256
        assert schur_complement(deep_mid_block(2, 3), [0, 1, 2]).rows == (
            (0, -288, -288), (-288, 0, -288), (-288, -288, 0))
        assert schur_complement(even_diameter_core(3, 2), [0, 1]).rows == (
            (0, -96, -72), (-96, 0, -72), (-72, -72, -108))


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
        # |det A11| (A22 - A21 A11^-1 A12) = 2 * (3 - 1/2)
        m = SymMatrix([[2, 1], [1, 3]])
        comp = schur_complement(m, [0])
        assert comp.rows == ((5,),)

    def test_identity_pivot_leaves_rest(self):
        m = SymMatrix([[1, 0, 0], [0, 4, 2], [0, 2, 7]])
        comp = schur_complement(m, [0])
        assert comp.rows == ((4, 2), (2, 7))

    def test_singular_pivot_rejected(self):
        m = SymMatrix([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="singular pivot"):
            schur_complement(m, [0])

    def test_determinant_factorization(self):
        # comp = |b| S with b = det(pivot block) and det M = b det S,
        # so b det(comp) = |b|^(n-k) det M
        rng = random.Random(3)
        done = 0
        for _ in range(40):
            m = random_symmetric(5, rng)
            piv = [0, 1]
            b = bareiss_det(m.submatrix(piv))
            if b == 0:
                continue
            comp = schur_complement(m, piv)
            assert b * leibniz_det(comp.rows) == abs(b) ** 3 * leibniz_det(m.rows)
            done += 1
        assert done >= 10

    def test_matches_gauss_jordan(self):
        # |det A11| times the rational Schur complement, on random pivot sets
        # of zero-rich matrices, singular blocks included
        rng = random.Random(71)
        singular = negative = 0
        for _ in range(400):
            n = rng.randint(1, 7)
            m = random_symmetric(n, rng, -2, 2)
            piv = sorted(rng.sample(range(n), rng.randint(0, n)))
            want = schur_by_solve([list(r) for r in m.rows], piv)
            if want is None:
                singular += 1
                with pytest.raises(ValueError, match="singular pivot"):
                    schur_complement(m, piv)
                continue
            b = bareiss_det(m.submatrix(piv))
            negative += b < 0
            assert [list(r) for r in schur_complement(m, piv).rows] == [
                [abs(b) * x for x in row] for row in want
            ]
        assert singular > 10 and negative > 10

    def test_pivot_indices_validated(self):
        m = SymMatrix([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            schur_complement(m, [0, 5])
