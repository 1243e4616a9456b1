"""Independent brute-force reference implementations used only by tests."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from operator import mul

from eccmat.exact import CharPoly, Inertia, char_poly, inertia_exact
from eccmat.graphs import Graph, Tree, bfs_distances
from eccmat.matrices import SymMatrix, _bareiss, bareiss_det, deep_mid_block, schur_complement


def pruefer_encode(t: Tree):
    """Inverse of the sequence decoder: strip smallest leaves repeatedly."""
    n = t.n
    if n < 2:
        raise ValueError("encoding needs n >= 2")
    adj = {v: set(t.neighbors(v)) for v in range(n)}
    seq = []
    for _ in range(n - 2):
        leaf = min(v for v in adj if len(adj[v]) == 1)
        parent = adj[leaf].pop()
        adj[parent].discard(leaf)
        del adj[leaf]
        seq.append(parent)
    return tuple(seq)


def graph6_order(n: int) -> str:
    """graph6 order header: one character up to 62, else "~" and three."""
    head = [n] if n <= 62 else [63, n >> 12, (n >> 6) & 63, n & 63]
    return "".join(chr(63 + x) for x in head)


def to_graph6(g: Graph) -> str:
    """graph6 line of g: the order header, then the upper triangle column
    by column, six bits to a character."""
    n = g.n
    edges = set(g.edges())
    bits = [(i, j) in edges for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    body = [
        sum(bit << (5 - k) for k, bit in enumerate(bits[at:at + 6]))
        for at in range(0, len(bits), 6)
    ]
    return graph6_order(n) + "".join(chr(63 + x) for x in body)


def distance_matrix(g: Graph) -> SymMatrix:
    """All-pairs distances by BFS from every vertex; symmetric with zero
    diagonal."""
    return SymMatrix([bfs_distances(g, s) for s in range(g.n)])


def floyd_warshall(g: Graph):
    """All-pairs distances by the cubic recurrence, no BFS involved."""
    n = g.n
    inf = float("inf")
    d = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v in g.edges():
        d[u][v] = d[v][u] = 1
    for k in range(n):
        dk = d[k]
        for i in range(n):
            di = d[i]
            dik = di[k]
            if dik == inf:
                continue
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return d


def ecc_entries_by_definition(g: Graph):
    """Eccentricity-matrix entries straight from the defining condition."""
    d = floyd_warshall(g)
    n = g.n
    ecc = [max(row) for row in d]
    rows = []
    for u in range(n):
        row = []
        for v in range(n):
            keep = d[u][v] == min(ecc[u], ecc[v]) and u != v
            row.append(d[u][v] if keep else 0)
        rows.append(row)
    return rows


def eccentricity_matrix_all_pairs(dist: SymMatrix) -> SymMatrix:
    """The kept-entry rule on every entry of the all-pairs distance matrix:
    keep d(u,v) iff it equals min(e(u), e(v)), with e the row maxima. It
    needs no lemma about which vertices can hold a kept entry."""
    n = dist.n
    ecc = [max(row) for row in dist.rows]
    out = []
    for u in range(n):
        du = dist.rows[u]
        eu = ecc[u]
        row = [0] * n
        for v in range(n):
            m = eu if eu < ecc[v] else ecc[v]
            if du[v] == m and u != v:
                row[v] = du[v]
        out.append(row)
    return SymMatrix(out)


def tree_path_vertices(t: Tree, u: int, v: int):
    """Vertex list of the unique u-v path."""
    parent = {u: None}
    frontier = [u]
    while v not in parent:
        nxt = []
        for x in frontier:
            for y in t.neighbors(x):
                if y not in parent:
                    parent[y] = x
                    nxt.append(y)
        frontier = nxt
    out = [v]
    while parent[out[-1]] is not None:
        out.append(parent[out[-1]])
    return out[::-1]


def distinguished_by_paths(t: Tree):
    """Center-neighbors lying on a longest path, found by enumerating all
    longest paths directly."""
    d = floyd_warshall(t)
    n = t.n
    ecc = [max(row) for row in d]
    diam = max(ecc)
    assert diam % 2 == 0
    (center,) = [v for v in range(n) if ecc[v] == min(ecc)]
    found = set()
    for u in range(n):
        for v in range(u + 1, n):
            if d[u][v] == diam:
                path = tree_path_vertices(t, u, v)
                for w in path:
                    if w != center and d[w][center] == 1:
                        found.add(w)
    return found


def leibniz_det(rows):
    """Determinant by permutation expansion; only for tiny matrices."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def char_poly_by_minors(m: SymMatrix):
    """Coefficients from signed principal-minor sums, via permanent-free
    Leibniz determinants."""
    n = m.n
    coeffs = [1]
    for k in range(1, n + 1):
        total = 0
        for sub in itertools.combinations(range(n), k):
            total += leibniz_det([[m.rows[i][j] for j in sub] for i in sub])
        coeffs.append(total if k % 2 == 0 else -total)
    return tuple(coeffs)


def char_poly_leverrier(m: SymMatrix) -> CharPoly:
    """Characteristic polynomial by Faddeev-LeVerrier with exact division:
    a second route, independent of the Berkowitz recurrence."""
    n = m.n
    a = m.rows
    coeffs = [1]
    work = [list(row) for row in a]
    for k in range(1, n + 1):
        if k > 1:
            prev_c = coeffs[-1]
            for i in range(n):
                work[i][i] += prev_c
            cols = list(zip(*work))
            work = [[sum(map(mul, a[i], col)) for col in cols] for i in range(n)]
        tr = sum(work[i][i] for i in range(n))
        if tr % k != 0:
            raise ArithmeticError("Faddeev-LeVerrier trace not divisible, input not integral")
        coeffs.append(-(tr // k))
    return CharPoly(tuple(coeffs))


# Subset enumeration grows as C(n, k); beyond this order it is refused.
MINOR_ENUM_LIMIT = 24


def principal_minor_sum(m: SymMatrix, k: int) -> int:
    """Exact sum of all k x k principal minors, by enumerating the subsets."""
    n = m.n
    if k < 0 or k > n:
        raise ValueError("k must lie in 0..n")
    if n > MINOR_ENUM_LIMIT:
        raise ValueError(f"minor enumeration is capped at order {MINOR_ENUM_LIMIT}")
    return sum(bareiss_det(m.submatrix(sub)) for sub in itertools.combinations(range(n), k))


def haynsworth_check(m: SymMatrix, pivot_set) -> bool:
    """Inertia additivity: In(m) = In(pivot block) + In(Schur complement)."""
    pivot = sorted(set(pivot_set))
    comp = inertia_exact(char_poly(schur_complement(m, pivot)))
    part = inertia_exact(char_poly(m.submatrix(pivot)))
    whole = inertia_exact(char_poly(m))
    return whole == tuple(x + y for x, y in zip(part, comp))


def pair_block_inertias_by_descartes(d: int, n: int):
    """The three inertias check_pair_block_inertia reports (deep_mid_block,
    its leading n x n block, that block's Schur complement), by Descartes'
    rule on their characteristic polynomials."""
    m = deep_mid_block(d, n)
    pivot = list(range(n))
    return tuple(
        inertia_exact(char_poly(x))
        for x in (m, m.submatrix(pivot), schur_complement(m, pivot))
    )


def solve_pivot_block(rows, pivot):
    """M^-1 A_P: over Fractions by Gauss-Jordan, for the principal block
    M = A_PP on the index list pivot: rows in pivot order, all columns.
    None when M is singular."""
    k = len(pivot)
    aug = [[Fraction(x) for x in rows[p]] for p in pivot]
    for t, c in enumerate(pivot):
        r = next((r for r in range(t, k) if aug[r][c]), None)
        if r is None:
            return None
        aug[t], aug[r] = aug[r], aug[t]
        aug[t] = [x / aug[t][c] for x in aug[t]]
        for r in range(k):
            if r != t:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[t])]
    return aug


def fraction_det(rows):
    """Determinant by Gaussian elimination over Fractions, with row swaps."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for t in range(len(a)):
        r = next((r for r in range(t, len(a)) if a[r][t]), None)
        if r is None:
            return 0
        if r != t:
            a[t], a[r] = a[r], a[t]
            det = -det
        det *= a[t][t]
        for r in range(t + 1, len(a)):
            f = a[r][t] / a[t][t]
            a[r] = [x - f * y for x, y in zip(a[r], a[t])]
    return int(det)


def schur_by_solve(rows, pivot):
    """A22 - A21 A11^{-1} A12 over Fractions, as lists of rows; None when
    the pivot block A11 is singular."""
    solved = solve_pivot_block(rows, pivot)
    if solved is None:
        return None
    rest = [i for i in range(len(rows)) if i not in pivot]
    return [
        [rows[i][j] - sum(rows[i][p] * solved[t][j] for t, p in enumerate(pivot)) for j in rest]
        for i in rest
    ]


def is_irreducible(m: SymMatrix) -> bool:
    """True iff the support graph of the matrix is connected, by the
    connectivity check Graph runs at construction."""
    support = [(i, j) for i in range(m.n) for j in range(i + 1, m.n) if m.rows[i][j]]
    try:
        Graph(m.n, support)
    except ValueError:
        return False
    return True


def random_symmetric(n: int, rng: random.Random, lo: int = -6, hi: int = 6) -> SymMatrix:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randint(lo, hi)
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randint(lo, hi)
    return SymMatrix(rows)


def inertia_by_elimination(m: SymMatrix) -> Inertia:
    """Inertia from the signs of the leading principal minors along the
    symmetric elimination of the whole matrix, with no twin reduction."""
    steps, _, _, minus = _bareiss([list(r) for r in m.rows])
    return Inertia(len(steps) - minus, minus, m.n - len(steps))


def rational_inertia_by_congruence(rows):
    """Inertia of a symmetric rational matrix by symmetric Gaussian steps."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    plus = minus = 0
    live = list(range(n))
    while live:
        pivot = None
        for i in live:
            if a[i][i] != 0:
                pivot = i
                break
        if pivot is None:
            off = None
            for i in live:
                for j in live:
                    if i < j and a[i][j] != 0:
                        off = (i, j)
                        break
                if off:
                    break
            if off is None:
                break
            i, j = off
            # a[i][j] != 0 with zero diagonal: congruence by adding row/col j to i
            for k in range(n):
                a[i][k] += a[j][k]
            for k in range(n):
                a[k][i] += a[k][j]
            continue
        p = a[pivot][pivot]
        if p > 0:
            plus += 1
        else:
            minus += 1
        live.remove(pivot)
        for i in live:
            factor = a[i][pivot] / p
            if factor:
                for k in range(n):
                    a[i][k] -= factor * a[pivot][k]
                for k in range(n):
                    a[k][i] -= factor * a[k][pivot]
    return plus, minus, n - plus - minus
