import random
from math import comb

import pytest

from eccmat import exact, matrices
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
    spectrum_symmetric_exact,
)
from eccmat.checks import min_radius_tree, tree_checks
from eccmat.cli import main
from eccmat.families import (
    diametrical_examples,
    enumerate_labeled_trees,
    parse_family,
    path,
    pruefer_random,
    star,
)
from eccmat.graphs import eccentricity_rows
from eccmat.matrices import (
    SymMatrix,
    _bareiss,
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
)


def rank(m):
    """The rank, read as n - n_zero of the minor-sign inertia."""
    return m.n - inertia_of_matrix(m).n_zero


def pivots(m):
    """The pivot columns of m's symmetric elimination, in pivot order."""
    return tuple(c for _, c in _bareiss([list(r) for r in m.rows])[0])


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
        if rank(m) == r:
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


@pytest.fixture(scope="module")
def random_trees():
    """Two random trees of each order 8..120, as (n, facts): the one sample
    the low-rank and the zero-block tests share."""
    return [(n, TreeFacts(pruefer_random(n, f"zero-block:{n}:{i}"))) for n in range(8, 121) for i in range(2)]


class TestLowRankInputs:
    """Low-rank inputs (2 rank <= n) take the one route, the twin quotient
    and its zero block, with no elimination; it must equal full-matrix
    Berkowitz and Faddeev-LeVerrier."""

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
                    assert 2 * rank(m) <= n
                    late += pivots(m) != tuple(range(r))
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
                assert (2 * rank(m) <= n) == (n % 2 == 0)
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
        assert pivots(m) == (2, 0)
        assert bareiss_det(m.submatrix(pivots(m))) == -4
        self.agree(m)

    def test_trees(self, random_trees):
        orders = set(range(13, 61)) | {100}
        for n, facts in random_trees[::2]:  # one tree of each order
            if n in orders:
                assert 2 * rank(facts.matrix) <= n
                self.agree(facts.matrix)

    def test_berkowitz_orders(self, berkowitz_sizes):
        # path:9 runs on its zero-block matrix L, whose order is its rank 4;
        # star:9 has two twin classes, its leaves and its center; spider:3,2
        # (rank 6 of order 7) has no twins, and its center and middle
        # vertices are a zero block of 4 against 3
        char_poly(TreeFacts(path(9)).matrix)
        char_poly(TreeFacts(star(9)).matrix)
        char_poly(TreeFacts(parse_family("spider:3,2")).matrix)
        assert berkowitz_sizes == [4, 2, 6]


def poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


@pytest.fixture
def berkowitz_sizes(monkeypatch):
    """The orders of the matrices exact._berkowitz runs on in this test, in
    one list that a test clears between inputs."""
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
    """char_poly runs Berkowitz on the quotient over the twin classes and
    multiplies in the structural eigenvalues; it must equal full-matrix
    Berkowitz and Faddeev-LeVerrier."""

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
    def test_diametrical_graphs(self, berkowitz_sizes, tokens):
        # the classes are the diametral pairs: cycle:2k and cocktail:k have
        # k of them, hypercube:d 2^(d-1)
        for token in tokens:
            m = eccentricity_matrix(*eccentricity_rows(parse_family(token)))
            assert 2 * rank(m) > m.n
            berkowitz_sizes.clear()
            self.agree(m)
            assert berkowitz_sizes[0] == m.n // 2, token

    def test_stars(self, berkowitz_sizes):
        # Faddeev-LeVerrier grows as n^5 in Python; past n = 40 the closed
        # form (x^2 - 2(n-2)x - (n-1)) (x+2)^(n-2) is the second route
        for n in range(2, 61):
            m = TreeFacts(star(n)).matrix
            berkowitz_sizes.clear()
            p = char_poly(m).coeffs
            assert p == tuple(exact._berkowitz(m.rows)), n
            binomial = [comb(n - 2, i) * 2**i for i in range(n - 1)]
            assert p == tuple(poly_mul([1, -2 * (n - 2), -(n - 1)], binomial)), n
            if n <= 40:
                assert p == char_poly_leverrier(m).coeffs, n
            # star:2 is K2, one class; from star:3 (path:3) on, the leaves
            # and the center
            assert berkowitz_sizes[0] == (1 if n == 2 else 2), n

    def test_planted_twins(self, berkowitz_sizes):
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
                berkowitz_sizes.clear()
                self.agree(m)
                if 2 * rank(m) > n:
                    assert berkowitz_sizes[0] == len(found)
                    quotients += len(sizes) >= 2
        assert quotients >= 100

    def test_one_by_one(self, berkowitz_sizes):
        assert char_poly(SymMatrix([[7]])).coeffs == (1, -7)
        assert berkowitz_sizes == [1]

    def test_two_by_two(self, berkowitz_sizes):
        # equal diagonal: one class, D - b = 3 - 5 and Q = [3 + 5]
        assert self.agree(SymMatrix([[3, 5], [5, 3]])) == (1, -6, -16)
        assert berkowitz_sizes[0] == 1
        # unequal diagonal: no twins, Q is A
        berkowitz_sizes.clear()
        assert self.agree(SymMatrix([[3, 5], [5, 4]])) == (1, -7, -13)
        assert berkowitz_sizes[0] == 2

    @pytest.mark.parametrize("n", [8, 9, 10, 11])
    def test_one_class_of_every_size(self, berkowitz_sizes, n):
        # no size threshold: a class of any size k leaves a quotient of
        # order at most n - k + 1 (random singletons may be twins too)
        rng = random.Random(n)
        for k in range(2, n + 1):
            for d, b in ((0, 3), (2, -1)):
                m = planted_twins(n, [(k, d, b)], rng)
                assert 2 * rank(m) > n
                found = exact._twin_classes(m.rows)
                assert max(map(len, found)) >= k and len(found) <= n - k + 1
                berkowitz_sizes.clear()
                self.agree(m)
                assert berkowitz_sizes[0] == len(found), (k, d, b)

    def test_equal_rows_are_twins(self, berkowitz_sizes):
        # five equal rows of A among nine: one class with D = b, whose four
        # structural eigenvalues are zero
        rng = random.Random(3)
        m = planted_twins(9, [(5, 2, 2)], rng)
        assert rank(m) == 5
        berkowitz_sizes.clear()
        assert self.agree(m)[-4:] == (0, 0, 0, 0)
        assert berkowitz_sizes[0] == 5

    def test_spiders_and_odd_cycles_have_no_twins(self, berkowitz_sizes):
        # a spider's center and middle vertices are a zero block one larger
        # than its leaves, so it runs on order n - 1, its rank; an odd cycle
        # has no zero block and runs on the whole matrix
        for token in ["spider:3,2", "spider:8,2", "cycle:5", "cycle:9", "cycle:15"]:
            m = eccentricity_matrix(*eccentricity_rows(parse_family(token)))
            assert 2 * rank(m) > m.n
            assert len(exact._twin_classes(m.rows)) == m.n
            berkowitz_sizes.clear()
            self.agree(m)
            assert berkowitz_sizes[0] == (m.n - 1 if token.startswith("spider") else m.n), token


def planted_zero_block(rng, classes, zero, twins):
    """A random symmetric matrix on `classes` labels, the first `zero` of
    them a zero block of the quotient, rows shuffled. With twins a label
    takes 1 to 3 rows, with D and b drawn so that a label in the block has
    D + (s - 1) b = 0, which is not always D = b = 0; without twins every
    label is one row of random entries, and any two rows may still be
    twins by chance."""
    sizes = [rng.randint(1, 3) if twins else 1 for _ in range(classes)]
    inner = {}
    for t, s in enumerate(sizes):
        if t >= zero:
            inner[t] = (rng.randint(-3, 3), rng.randint(-3, 3))
        else:
            b = rng.randint(-2, 2) if s > 1 else 0
            inner[t] = (-(s - 1) * b, b)
    between = {}
    for t in range(classes):
        for w in range(t):
            between[t, w] = between[w, t] = 0 if t < zero else rng.randint(-3, 3)
    label = [t for t, s in enumerate(sizes) for _ in range(s)]
    rng.shuffle(label)
    return SymMatrix([
        [inner[t][0] if u == v else inner[t][1] if t == w else between[t, w]
         for v, w in enumerate(label)]
        for u, t in enumerate(label)
    ])


class TestZeroBlock:
    """When the quotient Q has a zero principal block N larger than the rest
    S, Berkowitz runs on the order 2|S| matrix [[Q_SS, Q_SN Q_NS], [I, 0]]
    and the polynomial gains x^(|N| - |S|); Q need not be symmetric."""

    def test_planted_blocks(self, berkowitz_sizes):
        rng = random.Random(101)
        smaller = 0
        for twins in (False, True):
            for _ in range(300):
                classes = rng.randint(2, 9)
                m = planted_zero_block(rng, classes, rng.randint(classes // 2, classes), twins)
                berkowitz_sizes.clear()
                p = char_poly(m).coeffs
                assert p == char_poly_leverrier(m).coeffs
                assert p == tuple(exact._berkowitz(m.rows))
                smaller += berkowitz_sizes[0] < len(exact._twin_classes(m.rows))
        assert smaller >= 300

    def test_found_block_is_zero(self):
        rng = random.Random(103)
        for _ in range(200):
            m = planted_zero_block(rng, 8, rng.randint(0, 8), True)
            q = [list(r) for r in m.rows]
            block = exact._zero_block(q)
            assert all(q[i][j] == 0 for i in block for j in block)

    def test_order_is_the_rank_on_labeled_trees(self, berkowitz_sizes):
        checked = 0
        for n in range(4, 8):
            for t in enumerate_labeled_trees(n):
                facts = TreeFacts(t)
                if facts.meta.diameter < 3:
                    continue
                berkowitz_sizes.clear()
                char_poly(facts.matrix)
                assert berkowitz_sizes == [rank(facts.matrix)]
                checked += 1
        # every labeled tree of order 4..7 but the 22 stars
        assert checked == 16 + 125 + 1296 + 16807 - 22

    def test_order_is_the_rank_on_random_trees(self, berkowitz_sizes, random_trees):
        for n, facts in random_trees:
            if facts.meta.diameter < 3:
                continue
            berkowitz_sizes.clear()
            p = char_poly(facts.matrix).coeffs
            assert berkowitz_sizes == [rank(facts.matrix)], n
            if n <= 30:
                assert p == char_poly_leverrier(facts.matrix).coeffs


def test_polynomials_run_no_elimination(monkeypatch, capsys):
    # char_poly never eliminates, and sweep reads nothing else that does
    def eliminate(*args):
        raise AssertionError("the elimination ran")

    monkeypatch.setattr(matrices, "_bareiss", eliminate)
    assert char_poly(TreeFacts(path(9)).matrix).coeffs == (1, 0, -316, -256, 15620, 0, 0, 0, 0, 0)
    for token in ["star:9", "spider:5,2", "cycle:10", "cycle:7", "cocktail:5", "hypercube:4"]:
        char_poly(ecc(parse_family(token)))
    for n in range(20, 61, 10):
        char_poly(ecc(pruefer_random(n, f"no-elimination:{n}")))
    assert main(["sweep", "--n-from", "4", "--n-to", "7"]) == 0
    assert main(["sweep", "--n-from", "40", "--n-to", "42", "--samples", "2", "--seed", "1"]) == 0
    assert capsys.readouterr().err == ""


def test_one_elimination_per_tree_and_report(monkeypatch, capsys):
    # a tree's inertia and rank checks share one elimination, sweep runs
    # none, and a report one for both its inertia and its rank
    calls = []
    real = matrices._bareiss
    monkeypatch.setattr(matrices, "_bareiss", lambda *args: calls.append(args) or real(*args))

    def count(run):
        calls.clear()
        run()
        return len(calls)

    assert count(lambda: [tree_checks(TreeFacts(t)) for t in enumerate_labeled_trees(5)]) == 125
    # 16 trees, plus the fixed battery's 36 for the pair blocks (three
    # inertias and a Schur complement each) and 62 core minors
    assert count(lambda: main(["verify", "--n-from", "4", "--n-to", "4"])) == 16 + 36 + 62
    assert count(lambda: main(["sweep", "--n-from", "4", "--n-to", "6"])) == 0
    for command in ("spectrum", "inertia"):
        assert count(lambda: main([command, "--family", "star:9"])) == 1
    assert capsys.readouterr().err == ""


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
        assert sign * last == bareiss_det(m.submatrix([c for _, c in steps])) == 3 * -5 * -49
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
            assert self.agree(m).n_zero == m.n - len(pivots(m))


class TestRankExact:
    def test_agrees_with_zero_count(self):
        rng = random.Random(43)
        for n in range(1, 9):
            for _ in range(6):
                m = random_symmetric(n, rng)
                assert rank(m) == n - inertia_exact(char_poly(m)).n_zero

    def test_structured_singular(self):
        # rank-1 outer product pattern
        rows = [[(i + 1) * (j + 1) for j in range(5)] for i in range(5)]
        assert rank(SymMatrix(rows)) == 1

    def test_zero_matrix(self):
        assert rank(SymMatrix([[0, 0], [0, 0]])) == 0


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
