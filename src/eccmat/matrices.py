"""Dense symmetric integer matrices, plus the structured builders.

One matrix type lives here: an immutable symmetric matrix of Python ints,
the only number type of the exact layer. One fraction-free elimination
kernel serves the determinant and the Schur complement, which comes out as
a positive integer multiple so that it stays in the same type. A SymMatrix
runs it once, with a symmetric pivot rule (1 x 1 and 2 x 2 diagonal
steps): its pivots give the rank and the block the low-rank characteristic
polynomial works from, and the signs of its leading principal minors give
the inertia.
Everything downstream (characteristic polynomials, inertia, ranks) assumes
exact arithmetic, so there is no floating-point fallback anywhere in this
module.
"""

from __future__ import annotations

from operator import itemgetter


class SymMatrix:
    """Symmetric matrix of Python ints; any other entry type (bool, float,
    a rational) raises ValueError."""

    __slots__ = ("n", "rows", "_pivots", "_n_minus")

    def __init__(self, rows):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
            for x in row:
                if type(x) is not int:
                    raise ValueError(f"matrix entries must be int, not {type(x).__name__}")
        for i in range(n):
            ri = rows[i]
            for j in range(i):
                if ri[j] != rows[j][i]:
                    raise ValueError(f"matrix not symmetric at ({i},{j})")
        self.n = n
        self.rows = rows
        self._pivots = None
        self._n_minus = None

    def _eliminate(self):
        if self._pivots is None:
            _, cols, _, _, self._n_minus = _bareiss([list(r) for r in self.rows], symmetric=True)
            self._pivots = tuple(cols)

    @property
    def pivots(self) -> tuple:
        """Pivot indices of the one symmetric fraction-free elimination, in
        pivot order; it runs on first use.

        The principal block on them is nonsingular and its Schur complement
        is zero, so their number is the rank.
        """
        self._eliminate()
        return self._pivots

    @property
    def n_minus(self) -> int:
        """Number of negative eigenvalues, read from the signs of the leading
        principal minors along the same elimination."""
        self._eliminate()
        return self._n_minus

    def submatrix(self, indices) -> "SymMatrix":
        """Principal submatrix on the given index subset (kept in order)."""
        idx = tuple(indices)
        return SymMatrix(tuple(tuple(self.rows[i][j] for j in idx) for i in idx))

    def max_abs(self):
        return max((abs(x) for row in self.rows for x in row), default=0)

    def to_text(self) -> str:
        """Plain-text dump: first line the order, then one line per row of
        space-separated integers."""
        lines = [str(self.n)]
        lines.extend(" ".join(str(x) for x in row) for row in self.rows)
        return "\n".join(lines)

    def __eq__(self, other):
        return self.rows == getattr(other, "rows", None)

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"SymMatrix(n={self.n})"


def eccentricity_matrix(dist: SymMatrix) -> SymMatrix:
    """Keep distance entries attaining min(ecc[u], ecc[v]), zero the rest.

    The eccentricities are the row maxima of the distance matrix.
    """
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


def _hollow_ones(scale: int, size: int):
    """scale * (J - I) as a list of rows."""
    return [[0 if i == j else scale for j in range(size)] for i in range(size)]


def deep_mid_block(d: int, n: int) -> SymMatrix:
    """2n x 2n block matrix [[2d(J-I), (2d-1)(J-I)], [(2d-1)(J-I), 0]].

    Models the principal submatrix of an even-diameter tree eccentricity
    matrix on one deepest vertex and one adjacent mid vertex per branch.
    """
    if d < 1 or n < 1:
        raise ValueError("d and n must be positive")
    top = _hollow_ones(2 * d, n)
    cross = _hollow_ones(2 * d - 1, n)
    rows = []
    for i in range(n):
        rows.append(top[i] + cross[i])
    for i in range(n):
        rows.append(cross[i] + [0] * n)
    return SymMatrix(rows)


def odd_diameter_core(d: int) -> SymMatrix:
    """4x4 principal submatrix of an odd-diameter (2d+1) tree eccentricity
    matrix: a peripheral vertex on each side of the central edge, then a
    vertex of eccentricity 2d on the first side and one on the second."""
    if d < 1:
        raise ValueError("d must be positive")
    return SymMatrix([
        [0, 2 * d + 1, 0, 2 * d],
        [2 * d + 1, 0, 2 * d, 0],
        [0, 2 * d, 0, 0],
        [2 * d, 0, 0, 0],
    ])


def even_diameter_core(d: int, l: int) -> SymMatrix:
    """(2l+1) x (2l+1) core on l deepest vertices, the l distinguished
    center-neighbors, and the center of an even-diameter (2d) tree.

    Row order: deep vertices, then distinguished vertices, then center.
    Deep-deep entries are 2d, deep-distinguished entries d+1 except the
    matched pair (zero), deep-center entries d; all other entries zero.
    """
    if d < 2 or l < 2:
        raise ValueError("requires d >= 2 and l >= 2")
    size = 2 * l + 1
    rows = [[0] * size for _ in range(size)]
    for i in range(l):
        for j in range(l):
            if i != j:
                rows[i][j] = 2 * d
                rows[i][l + j] = d + 1
                rows[l + j][i] = d + 1
        rows[i][2 * l] = d
        rows[2 * l][i] = d
    return SymMatrix(rows)


def _bareiss(a, block=None, jordan=False, symmetric=False):
    """Integer-preserving (Bareiss) elimination of the row list a, in place.

    a has n rows and at least n columns. Columns are taken left to right
    up to column n - 1. Each gets as pivot the first nonzero entry among
    the rows not yet used, or is skipped when there is none. Every update
    divides exactly by the previous pivot, so by Sylvester's identity,
    after k pivots each trailing entry is a (k+1)-square bordered minor and
    the k-th pivot is the leading k-square minor of the row-swapped matrix.
    With block=k only the first k columns are eliminated, and their pivots
    are searched in the first k rows. With jordan=True the rows above each
    pivot are updated too (fraction-free Gauss-Jordan): when the leading
    n-square block M is nonsingular, the columns C beside it end as
    d * M^-1 C, where d, the last pivot, is +-det M. The block itself, which
    would end as d times the identity, is left stale.

    With symmetric=True (a square and symmetric; block and jordan unused)
    the pivots stay on the diagonal, in a fraction-free form of the Bunch
    and Kaufman rule. The indices not yet pivoted span the trailing block,
    the last pivot times the Schur complement of the pivot block, so it is
    symmetric:
    - its first nonzero diagonal entry is a 1 x 1 step, which adds an
      eigenvalue of the sign of that entry times the last pivot (Jacobi);
    - on a zero diagonal its first nonzero entry c = a_ij is a 2 x 2 step
      [[0, c], [c, 0]], which adds one eigenvalue of each sign (Frobenius).
      It runs as two ordinary steps with a row swap inside the block: row
      j pivots on column i, then row i on column j with the pivot
      c^2 / (last pivot);
    - a zero trailing block ends it. The pivot block is nonsingular and its
      Schur complement zero, so the rank is the number of pivots and the
      other eigenvalues are zero (Haynsworth).

    Returns (rank, pivot columns, sign of the row swaps, last pivot, number
    of negative eigenvalues). With symmetric=True the pivot columns are the
    pivot indices in pivot order, and sign * last pivot is the determinant
    of the pivot block; otherwise the negative count is 0.
    """
    n = len(a)
    width = len(a[0]) if a else 0
    stop = n if block is None else block
    rank, cols, sign, prev, negative = 0, [], 1, 1, 0
    rest = list(range(n))  # symmetric: the indices not yet pivoted
    second = None  # symmetric: the pivot (row, column) that ends a 2 x 2 step
    for c in range(stop):
        if second is not None:
            (p, q), second = second, None
            rows = right = rest
        elif symmetric:
            for p in rest:
                if a[p][p]:
                    q = p
                    negative += (a[p][p] > 0) != (prev > 0)
                    rest.remove(p)
                    rows = right = rest
                    break
            else:
                # a zero diagonal: a 2 x 2 step on its first nonzero entry,
                # or the end (a zero diagonal of order 1 is the whole block)
                if len(rest) < 2:
                    break
                trailing = itemgetter(*rest)
                for i in rest:
                    if any(trailing(a[i])):
                        break
                else:
                    break
                ai = a[i]
                for j in rest:
                    if ai[j]:
                        break
                p, q, second = j, i, (i, j)
                rest.remove(i)
                rest.remove(j)
                rows, right = rest + [i], rest + [j]
                sign = -sign
                negative += 1
        else:
            for p in range(rank, stop):
                if a[p][c]:
                    break
            else:
                continue
            if p != rank:
                a[p], a[rank] = a[rank], a[p]
                sign = -sign
            p, q = rank, c
            rows = range(n) if jordan else range(rank + 1, n)
            right = range(c + 1, width)
        pivot_row = a[p]
        pv = pivot_row[q]
        for i in rows:
            if i == p:
                continue
            ai = a[i]
            aiq = ai[q]
            for j in right:
                ai[j] = (ai[j] * pv - aiq * pivot_row[j]) // prev
        prev = pv
        cols.append(q)
        rank += 1
    return rank, cols, sign, prev, negative


def bareiss_det(rows):
    """Exact determinant of a square matrix by fraction-free elimination."""
    a = [list(r) for r in rows]
    rank, _, sign, last, _ = _bareiss(a)
    return sign * last if rank == len(a) else 0


def schur_complement(m: SymMatrix, pivot_set) -> SymMatrix:
    """|det A11| (A22 - A21 A11^{-1} A12), pivoting on pivot_set.

    A positive multiple of the Schur complement, so it has the Schur
    complement's inertia and rank, in integers. Eliminating the pivot
    block's columns leaves the trailing block equal to the last pivot,
    +-det A11, times the Schur complement (Sylvester's identity); the sign
    of that pivot makes the multiple positive. Raises ValueError naming the
    set if the pivot block is singular.
    """
    pivot = sorted(set(pivot_set))
    n = m.n
    if any(i < 0 or i >= n for i in pivot):
        raise ValueError("pivot indices out of range")
    order = pivot + sorted(set(range(n)) - set(pivot))
    k = len(pivot)
    a = [[m.rows[i][j] for j in order] for i in order]
    rank, _, _, last, _ = _bareiss(a, k)
    if rank < k:
        raise ValueError(f"singular pivot block {pivot}")
    sign = -1 if last < 0 else 1
    return SymMatrix([[sign * x for x in row[k:]] for row in a[k:]])
