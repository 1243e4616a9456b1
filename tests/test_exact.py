import random

import pytest

from eccmat import exact
from eccmat.checks import TreeFacts
from eccmat.exact import (
    CharPoly,
    Inertia,
    char_poly,
    consecutive_nonzero_witness,
    distinct_count_exact,
    inertia_exact,
    poly_gcd,
    rank_exact,
    spectrum_symmetric_exact,
)
from eccmat.families import path, pruefer_random, star
from eccmat.graphs import distance_matrix
from eccmat.matrices import SymMatrix, bareiss_det, eccentricity_matrix

from _oracles import (
    char_poly_by_minors,
    char_poly_leverrier,
    haynsworth_check,
    leibniz_det,
    random_symmetric,
    rational_inertia_by_congruence,
)


def horner(coeffs, x):
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


class TestCharPolyType:
    def test_must_be_monic(self):
        with pytest.raises(ValueError):
            CharPoly((2, 1))

    def test_degree_and_json(self):
        p = CharPoly((1, 0, -17, 0, 16))
        assert p.degree == 4
        assert p.to_json() == ["1", "0", "-17", "0", "16"]

    def test_stripped(self):
        p = CharPoly((1, 2, 0, 0))
        coeffs, zeros = p.stripped()
        assert coeffs == (1, 2)
        assert zeros == 2

    def test_stripped_no_zeros(self):
        coeffs, zeros = CharPoly((1, -1)).stripped()
        assert coeffs == (1, -1)
        assert zeros == 0


class TestCharPoly:
    def test_known_two_by_two(self):
        m = SymMatrix([[2, 1], [1, 3]])
        assert char_poly(m).coeffs == (1, -5, 5)

    def test_known_path_matrix(self):
        facts = TreeFacts(path(4))
        assert facts.poly.coeffs == (1, 0, -17, 0, 16)

    def test_known_star_matrix(self):
        facts = TreeFacts(star(5))
        assert facts.poly.coeffs == (1, 0, -28, -88, -96, -32)

    def test_zero_and_single(self):
        assert char_poly(SymMatrix([[0]])).coeffs == (1, 0)
        assert char_poly(SymMatrix([[7]])).coeffs == (1, -7)

    def test_agrees_with_leverrier(self):
        rng = random.Random(23)
        for n in range(1, 9):
            for _ in range(6):
                m = random_symmetric(n, rng)
                assert char_poly(m).coeffs == char_poly_leverrier(m).coeffs

    def test_agrees_with_minor_sums(self):
        rng = random.Random(29)
        for n in range(1, 7):
            for _ in range(5):
                m = random_symmetric(n, rng)
                assert char_poly(m).coeffs == char_poly_by_minors(m)

    def test_evaluation_matches_shifted_determinant(self):
        rng = random.Random(31)
        for _ in range(10):
            m = random_symmetric(5, rng)
            p = char_poly(m).coeffs
            for x in (-3, 0, 2, 10):
                shifted = [
                    [x - m.rows[i][j] if i == j else -m.rows[i][j] for j in range(5)]
                    for i in range(5)
                ]
                assert horner(p, x) == leibniz_det(shifted)

    def test_large_entries_stay_exact(self):
        base = random_symmetric(6, random.Random(5))
        rows = [[x * 10**12 for x in row] for row in base.rows]
        m = SymMatrix(rows)
        p = char_poly(m).coeffs
        q = char_poly_leverrier(m).coeffs
        assert p == q
        assert p[0] == 1


def low_rank_symmetric(n, r, rng, lead=0):
    """A random integer U D U^T of rank r, U n x r and D a nonzero diagonal.
    The first `lead` rows of U are zero or copies of one row, so the pivot
    columns do not lead."""
    while True:
        u = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        same = [rng.randint(-3, 3) for _ in range(r)]
        for i in range(lead):
            u[i] = list(same) if rng.random() < 0.5 else [0] * r
        d = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(r)]
        rows = [[sum(u[i][k] * d[k] * u[j][k] for k in range(r)) for j in range(n)]
                for i in range(n)]
        m = SymMatrix(rows)
        if rank_exact(m) == r:
            return m


class TestLowRankRoute:
    """With 2 rank <= n, char_poly works on the pivot block; it must equal
    full-matrix Berkowitz and Faddeev-LeVerrier."""

    @staticmethod
    def agree(m):
        p = char_poly(m).coeffs
        assert p == tuple(exact._berkowitz(m.rows))
        assert p == char_poly_leverrier(m).coeffs
        return p

    def test_random_low_rank_with_late_pivots(self):
        rng = random.Random(61)
        late = 0
        for n in range(2, 13):
            for r in range(1, n // 2 + 1):
                for lead in (0, 1, 2):
                    m = low_rank_symmetric(n, r, rng, lead=min(lead, n - r))
                    assert 2 * rank_exact(m) <= n
                    late += m.pivots != tuple(range(r))
                    self.agree(m)
        assert late >= 50

    def test_zero_rank(self):
        for n in (1, 2, 5):
            m = SymMatrix([[0] * n for _ in range(n)])
            assert self.agree(m) == (1,) + (0,) * n

    def test_at_the_switch(self):
        rng = random.Random(67)
        for n, r in ((4, 2), (6, 3), (8, 4), (3, 2), (5, 3), (7, 4)):
            for _ in range(5):
                m = low_rank_symmetric(n, r, rng, lead=1)
                assert (2 * rank_exact(m) <= n) == (n % 2 == 0)
                self.agree(m)

    def test_negative_pivot_block_determinant(self):
        # pivot block [[0, 2], [2, 0]] (det -4), bordered by combinations of it
        u = [[1, 0], [0, 1], [1, 1], [2, -1], [0, 3]]
        block = [[0, 2], [2, 0]]
        rows = [
            [sum(u[i][a] * block[a][b] * u[j][b] for a in range(2) for b in range(2))
             for j in range(5)]
            for i in range(5)
        ]
        m = SymMatrix(rows)
        assert m.pivots == (0, 1)
        assert bareiss_det(m.submatrix(m.pivots).rows) == -4
        self.agree(m)

    def test_trees(self):
        for n in list(range(13, 61)) + [100]:
            m = eccentricity_matrix(distance_matrix(pruefer_random(n, f"route:{n}")))
            assert 2 * rank_exact(m) <= n
            self.agree(m)

    def test_berkowitz_runs_on_the_pivot_block(self, monkeypatch):
        sizes = []
        real = exact._berkowitz
        monkeypatch.setattr(exact, "_berkowitz", lambda a: sizes.append(len(a)) or real(a))
        char_poly(TreeFacts(path(9)).matrix)
        char_poly(TreeFacts(star(9)).matrix)
        assert sizes == [4, 9]


class TestInertiaExact:
    def test_known_values(self):
        assert inertia_exact(TreeFacts(star(6)).poly) == Inertia(1, 5, 0)
        assert inertia_exact(TreeFacts(path(4)).poly) == Inertia(2, 2, 0)
        assert inertia_exact(TreeFacts(path(5)).poly) == Inertia(2, 2, 1)

    def test_pure_zero_spectrum(self):
        assert inertia_exact(CharPoly((1, 0, 0, 0))) == Inertia(0, 0, 3)

    def test_diagonal_example(self):
        m = SymMatrix([[3, 0, 0], [0, -2, 0], [0, 0, 0]])
        assert inertia_exact(char_poly(m)) == Inertia(1, 1, 1)

    def test_matches_congruence_oracle(self):
        rng = random.Random(37)
        for n in range(2, 8):
            for _ in range(8):
                m = random_symmetric(n, rng)
                want = rational_inertia_by_congruence([list(r) for r in m.rows])
                assert tuple(inertia_exact(char_poly(m))) == want

    def test_sums_to_order(self):
        rng = random.Random(41)
        for _ in range(10):
            m = random_symmetric(6, rng)
            inn = inertia_exact(char_poly(m))
            assert inn.n_plus + inn.n_minus + inn.n_zero == 6


class TestRankExact:
    def test_agrees_with_zero_count(self):
        rng = random.Random(43)
        for n in range(1, 9):
            for _ in range(6):
                m = random_symmetric(n, rng)
                assert rank_exact(m) == n - inertia_exact(char_poly(m)).n_zero

    def test_structured_singular(self):
        # rank-1 outer product pattern
        rows = [[(i + 1) * (j + 1) for j in range(5)] for i in range(5)]
        assert rank_exact(SymMatrix(rows)) == 1

    def test_zero_matrix(self):
        assert rank_exact(SymMatrix([[0, 0], [0, 0]])) == 0


class TestPolyGcd:
    def test_common_linear_factor(self):
        # (x^2 - 1, x - 1)
        assert tuple(poly_gcd((1, 0, -1), (1, -1))) == (1, -1)

    def test_coprime(self):
        g = poly_gcd((1, 0, -2), (1, 1))
        assert len(g) == 1

    def test_repeated_root_with_derivative(self):
        # (x - 1)^2 (x + 2) = x^3 - 3x + 2
        p = (1, 0, -3, 2)
        dp = (3, 0, -3)
        g = tuple(poly_gcd(p, dp))
        assert g in ((1, -1), (-1, 1))


class TestDistinctCount:
    def test_known_counts(self):
        assert distinct_count_exact(TreeFacts(star(9)).poly) == 3
        assert distinct_count_exact(TreeFacts(path(4)).poly) == 4
        assert distinct_count_exact(TreeFacts(path(7)).poly) == 5

    def test_repeated_block_eigenvalues(self):
        m = SymMatrix(
            [[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]]
        )
        assert distinct_count_exact(char_poly(m)) == 2

    def test_zero_matrix(self):
        assert distinct_count_exact(char_poly(SymMatrix([[0, 0], [0, 0]]))) == 1

    def test_matches_float_clusters_when_separated(self):
        import math

        rng = random.Random(47)
        from eccmat.spectra import eigenvalues_sym

        checked = 0
        for _ in range(25):
            m = random_symmetric(6, rng)
            vals = eigenvalues_sym(m)
            gaps = [a - b for a, b in zip(vals, vals[1:])]
            # only trust the float clustering when gaps are unambiguous
            if any(1e-7 < g < 1e-4 for g in gaps):
                continue
            clusters = 1 + sum(1 for g in gaps if g > 1e-4)
            assert distinct_count_exact(char_poly(m)) == clusters
            checked += 1
        assert checked >= 15


class TestSymmetryFlag:
    def test_odd_diameter_symmetric(self):
        assert spectrum_symmetric_exact(TreeFacts(path(4)).poly)
        assert spectrum_symmetric_exact(TreeFacts(path(8)).poly)

    def test_star_not_symmetric(self):
        assert not spectrum_symmetric_exact(TreeFacts(star(5)).poly)

    def test_handmade_even_polynomial(self):
        assert spectrum_symmetric_exact(CharPoly((1, 0, -4, 0)))
        assert not spectrum_symmetric_exact(CharPoly((1, 1, -4, 0)))


class TestConsecutiveWitness:
    def test_star_witness_position(self):
        assert consecutive_nonzero_witness(TreeFacts(star(5)).poly) == 2

    def test_symmetric_poly_has_none(self):
        assert consecutive_nonzero_witness(TreeFacts(path(4)).poly) is None

    def test_scan_matches_brute_force(self):
        for i in range(30):
            t = pruefer_random(8, f"witness:{i}")
            p = TreeFacts(t).poly
            coeffs, _ = p.stripped()
            want = None
            for j in range(len(coeffs) - 1):
                if coeffs[j] != 0 and coeffs[j + 1] != 0:
                    want = j
                    break
            assert consecutive_nonzero_witness(p) == want


class TestHaynsworth:
    def test_holds_for_random_nonsingular_pivots(self):
        rng = random.Random(53)
        done = 0
        while done < 12:
            m = random_symmetric(6, rng)
            block = [[m.rows[i][j] for j in (0, 1, 2)] for i in (0, 1, 2)]
            if bareiss_det(block) == 0:
                continue
            assert haynsworth_check(m, [0, 1, 2])
            done += 1

    def test_singular_pivot_raises(self):
        m = SymMatrix([[0, 0, 1], [0, 0, 0], [1, 0, 2]])
        with pytest.raises(ValueError):
            haynsworth_check(m, [0, 1])
