import random
from math import comb

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
    inertia_of_matrix,
    poly_gcd,
    rank_exact,
    spectrum_symmetric_exact,
)
from eccmat.checks import min_radius_tree
from eccmat.families import diametrical_examples, parse_family, path, pruefer_random, star
from eccmat.graphs import eccentricity_rows
from eccmat.matrices import (
    SymMatrix,
    _bareiss,
    _gauss_jordan,
    bareiss_det,
    deep_mid_block,
    eccentricity_matrix,
    even_diameter_core,
    odd_diameter_core,
    schur_complement,
)

from _oracles import (
    char_poly_by_minors,
    char_poly_leverrier,
    haynsworth_check,
    leibniz_det,
    random_symmetric,
    rational_inertia_by_congruence,
    solve_pivot_block,
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


def two_by_two_after_one_by_ones():
    """L B L^T with L unit lower triangular keeps B's leading principal
    minors 3, -15, 0, 735: two 1 x 1 steps, then a 2 x 2 step on the scaled
    entry c = -15 * 7, whose second pivot c^2 / -15 divides by a minor other
    than +-1."""
    b = [[3, 0, 0, 0, 0], [0, -5, 0, 0, 0], [0, 0, 0, 7, 0], [0, 0, 7, 0, 0], [0, 0, 0, 0, 0]]
    low = [[1, 0, 0, 0, 0], [2, 1, 0, 0, 0], [-1, 3, 1, 0, 0], [4, -2, 0, 1, 0], [1, 1, 0, 0, 1]]
    lb = [[sum(low[i][k] * b[k][j] for k in range(5)) for j in range(5)] for i in range(5)]
    return SymMatrix([[sum(lb[i][k] * low[j][k] for k in range(5)) for j in range(5)] for i in range(5)])


class TestGaussJordanRows:
    """The pivot rows in fraction-free Gauss-Jordan form must be d M^-1 A_QU,
    a Fraction solve on the pivot block M = A_QQ, with |d| = |det M|."""

    @staticmethod
    def agree(rows, x, d, pivots):
        rest = [c for c in range(len(rows)) if c not in pivots]
        solved = solve_pivot_block(rows, list(pivots))
        assert abs(d) == abs(leibniz_det([[rows[a][b] for b in pivots] for a in pivots]))
        assert x == [[d * row[c] for c in rest] for row in solved]

    def check(self, m):
        x, d = m.jordan
        self.agree([list(r) for r in m.rows], x, d, m.pivots)

    def test_random_low_rank(self):
        rng = random.Random(79)
        for n in range(2, 11):
            for r in range(0, n // 2 + 1):
                self.check(low_rank_symmetric(n, r, rng, lead=rng.randint(0, n - r)))

    def test_trees(self):
        for n in range(13, 61):
            self.check(eccentricity_matrix(*eccentricity_rows(pruefer_random(n, f"jordan:{n}"))))

    def test_two_by_two_step_after_one_by_one_steps(self):
        # rank 4 of order 5 keeps no Jordan rows; the replay still applies
        m = two_by_two_after_one_by_ones()
        assert m.jordan is None
        a = [list(r) for r in m.rows]
        steps, _, last, _ = _bareiss(a)
        self.agree([list(r) for r in m.rows], _gauss_jordan(a, steps), last, m.pivots)
        # padded with zeros to order 10 it has 2r <= n
        padded = SymMatrix([list(r) + [0] * 5 for r in m.rows] + [[0] * 10] * 5)
        assert padded.pivots == m.pivots
        self.check(padded)

    def test_full_rank_keeps_nothing(self):
        assert TreeFacts(star(9)).matrix.jordan is None


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
        # [[0, 2], [2, 0]] (det -4), bordered by combinations of it; the
        # symmetric elimination pivots on entry (2, 2) = 4, then on 0, and
        # its pivot block [[4, 2], [2, 0]] has det -4 too
        u = [[1, 0], [0, 1], [1, 1], [2, -1], [0, 3]]
        block = [[0, 2], [2, 0]]
        rows = [
            [sum(u[i][a] * block[a][b] * u[j][b] for a in range(2) for b in range(2))
             for j in range(5)]
            for i in range(5)
        ]
        m = SymMatrix(rows)
        assert m.pivots == (2, 0)
        assert bareiss_det(m.submatrix(m.pivots)) == -4
        self.agree(m)

    def test_trees(self):
        for n in list(range(13, 61)) + [100]:
            m = eccentricity_matrix(*eccentricity_rows(pruefer_random(n, f"route:{n}")))
            assert 2 * rank_exact(m) <= n
            self.agree(m)

    def test_indivisible_coefficient_raises(self, monkeypatch):
        # a pivot power one off from +-det M leaves a remainder
        jordan = SymMatrix.jordan.fget
        monkeypatch.setattr(SymMatrix, "jordan", property(lambda m: (jordan(m)[0], jordan(m)[1] + 1)))
        with pytest.raises(ArithmeticError, match="not divisible by the pivot power"):
            char_poly(TreeFacts(path(9)).matrix)

    def test_berkowitz_runs_on_the_pivot_block(self, monkeypatch):
        # path:9 has rank 4; star:9 has two twin classes, its leaves and its
        # center; spider:3,2 (rank 6 of order 7) has no twins and runs on
        # the whole matrix
        sizes = berkowitz_sizes(monkeypatch)
        char_poly(TreeFacts(path(9)).matrix)
        char_poly(TreeFacts(star(9)).matrix)
        char_poly(TreeFacts(parse_family("spider:3,2")).matrix)
        assert sizes == [4, 2, 7]


def poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def berkowitz_sizes(monkeypatch):
    """The orders of the matrices exact._berkowitz runs on from now on."""
    sizes = []
    real = exact._berkowitz
    monkeypatch.setattr(exact, "_berkowitz", lambda a: sizes.append(len(a)) or real(a))
    return sizes


def planted_twins(n, classes, rng):
    """A random symmetric n x n matrix with a twin class planted on disjoint
    random index sets for each (s, D, b) in classes: s rows that hold D on
    the diagonal and b between each other, and agree off the class. Every
    entry between two classes (or singletons) is one random value."""
    label = list(range(n))
    order = rng.sample(range(n), sum(s for s, _, _ in classes))
    value = {}
    for s, d, b in classes:
        members, order = order[:s], order[s:]
        for u in members:
            label[u] = members[0]
        value[members[0], members[0], True], value[members[0], members[0], False] = d, b
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            key = (*sorted((label[i], label[j])), i == j)
            rows[i][j] = rows[j][i] = value.setdefault(key, rng.randint(-4, 4))
    return SymMatrix(rows)


class TestQuotientRoute:
    """With 2 rank > n, char_poly runs Berkowitz on the quotient over the
    twin classes and multiplies in the structural eigenvalues; it must equal
    full-matrix Berkowitz and Faddeev-LeVerrier."""

    @staticmethod
    def agree(m):
        p = char_poly(m).coeffs
        assert p == tuple(exact._berkowitz(m.rows))
        assert p == char_poly_leverrier(m).coeffs
        return p

    @pytest.mark.parametrize(
        "tokens",
        [
            [f"cycle:{n}" for n in range(4, 41, 2)],
            [f"cocktail:{k}" for k in range(2, 25)],
            [f"hypercube:{d}" for d in range(1, 7)],
        ],
        ids=["even-cycles", "cocktails", "hypercubes"],
    )
    def test_diametrical_graphs(self, monkeypatch, tokens):
        # the classes are the diametral pairs: cycle:2k and cocktail:k have
        # k of them, hypercube:d 2^(d-1)
        for token in tokens:
            m = eccentricity_matrix(*eccentricity_rows(parse_family(token)))
            assert 2 * rank_exact(m) > m.n
            sizes = berkowitz_sizes(monkeypatch)
            self.agree(m)
            assert sizes[0] == m.n // 2, token

    def test_stars(self, monkeypatch):
        # Faddeev-LeVerrier grows as n^5 in Python; past n = 40 the closed
        # form (x^2 - 2(n-2)x - (n-1)) (x+2)^(n-2) is the second route
        for n in range(2, 61):
            m = TreeFacts(star(n)).matrix
            sizes = berkowitz_sizes(monkeypatch)
            p = char_poly(m).coeffs
            assert p == tuple(exact._berkowitz(m.rows)), n
            binomial = [comb(n - 2, i) * 2**i for i in range(n - 1)]
            assert p == tuple(poly_mul([1, -2 * (n - 2), -(n - 1)], binomial)), n
            if n <= 40:
                assert p == char_poly_leverrier(m).coeffs, n
            # star:2 is K2, one class; from star:3 (path:3) on, the leaves
            # and the center
            assert sizes[0] == (1 if n == 2 else 2), n

    def test_planted_twins(self, monkeypatch):
        rng = random.Random(97)
        quotients = 0
        for n in range(2, 13):
            for _ in range(40):
                sizes = []
                while sum(sizes) < n and rng.random() < 0.8:
                    sizes.append(rng.randint(2, max(2, (n - sum(sizes)) // 2 + 1)))
                while sum(sizes) > n:
                    sizes.pop()
                classes = [(s, rng.randint(-4, 4), rng.randint(-4, 4)) for s in sizes]
                m = planted_twins(n, classes, rng)
                found = exact._twin_classes(m.rows)
                assert sorted(u for c in found for u in c) == list(range(n))
                for c in found:
                    assert all(m.rows[c[0]][u] == m.rows[c[-1]][u] for u in range(n) if u not in c)
                planted = n - sum(s - 1 for s in sizes)
                assert len(found) <= planted
                berkowitz = berkowitz_sizes(monkeypatch)
                self.agree(m)
                if 2 * rank_exact(m) > n:
                    assert berkowitz[0] == len(found)
                    quotients += len(sizes) >= 2
        assert quotients >= 100

    def test_one_by_one(self, monkeypatch):
        sizes = berkowitz_sizes(monkeypatch)
        assert char_poly(SymMatrix([[7]])).coeffs == (1, -7)
        assert sizes == [1]

    def test_two_by_two(self, monkeypatch):
        # equal diagonal: one class, D - b = 3 - 5 and Q = [3 + 5]
        sizes = berkowitz_sizes(monkeypatch)
        assert self.agree(SymMatrix([[3, 5], [5, 3]])) == (1, -6, -16)
        assert sizes[0] == 1
        # unequal diagonal: no twins, Q is A
        sizes = berkowitz_sizes(monkeypatch)
        assert self.agree(SymMatrix([[3, 5], [5, 4]])) == (1, -7, -13)
        assert sizes[0] == 2

    @pytest.mark.parametrize("n", [8, 9, 10, 11])
    def test_one_class_of_every_size(self, monkeypatch, n):
        # no size threshold: a class of any size k leaves a quotient of
        # order at most n - k + 1 (random singletons may be twins too)
        rng = random.Random(n)
        for k in range(2, n + 1):
            for d, b in ((0, 3), (2, -1)):
                m = planted_twins(n, [(k, d, b)], rng)
                assert 2 * rank_exact(m) > n
                found = exact._twin_classes(m.rows)
                assert max(map(len, found)) >= k and len(found) <= n - k + 1
                sizes = berkowitz_sizes(monkeypatch)
                self.agree(m)
                assert sizes[0] == len(found), (k, d, b)

    def test_equal_rows_are_twins(self, monkeypatch):
        # five equal rows of A among nine: one class with D = b, whose four
        # structural eigenvalues are zero
        rng = random.Random(3)
        m = planted_twins(9, [(5, 2, 2)], rng)
        assert rank_exact(m) == 5
        sizes = berkowitz_sizes(monkeypatch)
        assert self.agree(m)[-4:] == (0, 0, 0, 0)
        assert sizes[0] == 5

    def test_spiders_and_odd_cycles_have_no_twins(self, monkeypatch):
        for token in ["spider:3,2", "spider:8,2", "cycle:5", "cycle:9", "cycle:15"]:
            m = eccentricity_matrix(*eccentricity_rows(parse_family(token)))
            assert 2 * rank_exact(m) > m.n
            sizes = berkowitz_sizes(monkeypatch)
            self.agree(m)
            assert sizes[0] == m.n, token


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


def ecc(g):
    return eccentricity_matrix(*eccentricity_rows(g))


class TestInertiaOfMatrix:
    """The signs of the leading principal minors along the symmetric
    elimination must give the inertia Descartes' rule gives."""

    @staticmethod
    def agree(m):
        got = inertia_of_matrix(m)
        assert got == inertia_exact(char_poly(m))
        return got

    def test_one_by_one(self):
        assert self.agree(SymMatrix([[5]])) == Inertia(1, 0, 0)
        assert self.agree(SymMatrix([[-3]])) == Inertia(0, 1, 0)
        assert self.agree(SymMatrix([[0]])) == Inertia(0, 0, 1)

    def test_zero_matrix(self):
        for n in (2, 3, 7):
            assert self.agree(SymMatrix([[0] * n for _ in range(n)])) == Inertia(0, 0, n)

    def test_two_by_two_step_after_one_by_one_steps(self):
        m = two_by_two_after_one_by_ones()
        assert all(m.rows[i][i] for i in range(5))
        steps, sign, last, negative = _bareiss([list(r) for r in m.rows])
        assert (steps, negative) == ([(0, 0), (1, 1), (3, 2), (2, 3)], 2)
        assert sign * last == bareiss_det(m.submatrix(m.pivots)) == 3 * -5 * -49
        assert self.agree(m) == Inertia(2, 2, 1)
        assert self.agree(SymMatrix([[2, 2, 2], [2, 2, 5], [2, 5, 2]])) == Inertia(2, 1, 0)

    def test_random_symmetric(self):
        rng = random.Random(71)
        for n in range(1, 10):
            for _ in range(25):
                rows = [list(r) for r in random_symmetric(n, rng, -3, 3).rows]
                density, hollow = rng.random(), rng.random() < 0.5
                for i in range(n):
                    for j in range(i, n):
                        if (hollow and i == j) or rng.random() > density:
                            rows[i][j] = rows[j][i] = 0
                m = SymMatrix(rows)
                got = self.agree(m)
                assert tuple(got) == rational_inertia_by_congruence(rows)

    def test_random_low_rank(self):
        rng = random.Random(73)
        for n in range(2, 11):
            for r in range(1, n):
                m = low_rank_symmetric(n, r, rng, lead=rng.randint(0, n - r))
                assert self.agree(m).n_zero == n - r

    def test_explicit_matrices(self):
        # the matrices of the fixed battery and acceptance criteria 3 to 5
        for d in range(1, 7):
            assert self.agree(odd_diameter_core(d)) == Inertia(2, 2, 0)
        for d in range(1, 6):
            for n in range(2, 7):
                m = deep_mid_block(d, n)
                pivot = list(range(n))
                assert self.agree(m) == Inertia(n, n, 0)
                self.agree(m.submatrix(pivot))
                self.agree(schur_complement(m, pivot))
        for d in range(2, 6):
            for l in range(2, 6):
                self.agree(even_diameter_core(d, l))
        for g in diametrical_examples():
            self.agree(ecc(g))
        for n in range(3, 51):
            assert self.agree(ecc(star(n))) == Inertia(1, n - 1, 0)

    def test_trees(self):
        for n in range(4, 25):
            self.agree(ecc(min_radius_tree(n)))
        for n in range(2, 61):
            for i in range(3):
                self.agree(ecc(pruefer_random(n, f"minors:{n}:{i}")))

    def test_dense_graphs(self):
        # the 36 full-rank and rank n-1 graphs of the dense-rank benchmark
        tokens = (
            [f"star:{n}" for n in range(9, 41, 4)]
            + [f"spider:{k},2" for k in range(5, 20, 2)]
            + [f"cycle:{2 * k}" for k in range(5, 20, 2)]
            + [f"cocktail:{k}" for k in range(5, 20, 2)]
            + [f"hypercube:{d}" for d in (3, 4, 5, 6)]
        )
        assert len(tokens) == 36
        for token in tokens:
            m = ecc(parse_family(token))
            assert self.agree(m).n_zero == m.n - rank_exact(m)


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
            if bareiss_det(m.submatrix((0, 1, 2))) == 0:
                continue
            assert haynsworth_check(m, [0, 1, 2])
            done += 1

    def test_singular_pivot_raises(self):
        m = SymMatrix([[0, 0, 1], [0, 0, 0], [1, 0, 2]])
        with pytest.raises(ValueError):
            haynsworth_check(m, [0, 1])
