"""Dense symmetric integer matrices, plus the structured builders.

One matrix type lives here: an immutable symmetric matrix of Python ints,
the only number type of the exact layer. One fraction-free elimination
kernel with one pivot rule (1 x 1 and 2 x 2 diagonal steps) serves the
determinant, the Schur complement (a positive integer multiple, so that it
stays in the same type) and each SymMatrix, which runs it once: its pivots
give the rank, the signs of its leading principal minors the inertia, and
at rank r with 2r <= n its pivot rows, brought to Gauss-Jordan form, the
block the low-rank characteristic polynomial works from. Everything is
exact, so there is no floating-point fallback anywhere in this module.
"""

from __future__ import annotations


class SymMatrix:
    """Symmetric matrix of Python ints; any other entry type (bool, float,
    a rational) raises ValueError."""

    __slots__ = ("n", "rows", "_pivots", "_n_minus", "_jordan")

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
        self._jordan = None

    def _eliminate(self):
        if self._pivots is None:
            a = [list(r) for r in self.rows]
            steps, _, last, self._n_minus = _bareiss(a)
            self._pivots = tuple(q for _, q in steps)
            if 2 * len(steps) <= self.n:
                self._jordan = (_gauss_jordan(a, steps), last)

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

    @property
    def jordan(self):
        """(X, d) when the rank r has 2r <= n, else None: d is the last
        pivot of the same elimination (+-det M for the pivot block M), and
        X the r x (n - r) matrix d * M^-1 A_QU, rows in pivot order and
        columns the unpivoted indices U in ascending order."""
        self._eliminate()
        return self._jordan

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


def _step(a, rows, right, p, q, prev):
    """One Bareiss step on pivot a[p][q]: each of rows on the columns right
    becomes (a_ij * a_pq - a_iq * a_pj) / prev, an exact division."""
    pivot_row = a[p]
    pv = pivot_row[q]
    for i in rows:
        ai = a[i]
        aiq = ai[q]
        for j in right:
            ai[j] = (ai[j] * pv - aiq * pivot_row[j]) // prev


def _bareiss(a, block=None):
    """Fraction-free (Bareiss) elimination of the symmetric row list a, in
    place, with its pivots on the diagonal (a fraction-free form of the
    Bunch and Kaufman rule).

    The indices not yet pivoted span the trailing block, the last pivot
    times the Schur complement of the pivot block, so it is symmetric:
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
    Each step updates the trailing block and divides exactly by the last
    pivot, so by Sylvester's identity the k-th pivot is the leading k-square
    minor with the rows in pivot-row and the columns in pivot-column order.
    With block=k only the first k indices are pivot candidates.

    Returns (steps, sign, last pivot, number of negative eigenvalues):
    steps lists the (pivot row, pivot column) pairs in pivot order, and
    sign * last pivot is the determinant of the pivot block.
    """
    steps, sign, prev, negative = [], 1, 1, 0
    rest = list(range(len(a)))  # the indices not yet pivoted, ascending
    while True:
        cand = rest if block is None else [i for i in rest if i < block]
        for p in cand:
            if a[p][p]:
                negative += (a[p][p] > 0) != (prev > 0)
                rest.remove(p)
                _step(a, rest, rest, p, p, prev)
                prev = a[p][p]
                steps.append((p, p))
                break
        else:
            # a zero diagonal: a 2 x 2 step on its first nonzero entry, or
            # the end
            for i in cand:
                if any(map(a[i].__getitem__, cand)):
                    break
            else:
                break
            j = next(j for j in cand if a[i][j])
            rest.remove(i)
            rest.remove(j)
            _step(a, rest + [i], rest + [j], j, i, prev)
            prev = a[j][i]
            _step(a, rest, rest, i, j, prev)
            prev = a[i][j]
            steps += [(j, i), (i, j)]
            sign = -sign
            negative += 1
    return steps, sign, prev, negative


def _gauss_jordan(a, steps):
    """Bring the pivot rows of a finished elimination (a, steps) to
    fraction-free Gauss-Jordan form by replaying each step, on the columns
    it updated, on the rows pivoted before it.

    Returns the pivot rows on the unpivoted columns U (ascending), in pivot
    order. The row of pivot (p, q) holds d (A_PQ^-1 A_PU)_q, d the last
    pivot; the order of the rows P does not change the solve, so this is
    d M^-1 A_QU for the pivot block M = A_QQ.
    """
    pivoted = {q for _, q in steps}
    rest = [c for c in range(len(a)) if c not in pivoted]
    for t, (p, q) in enumerate(steps[1:], 1):
        b, c = steps[t - 1]
        _step(a, [s for s, _ in steps[:t]], [j for _, j in steps[t + 1:]] + rest, p, q, a[b][c])
    return [[a[p][c] for c in rest] for p, _ in steps]


def bareiss_det(m: SymMatrix) -> int:
    """Exact determinant by the symmetric fraction-free elimination."""
    steps, sign, last, _ = _bareiss([list(r) for r in m.rows])
    return sign * last if len(steps) == m.n else 0


def schur_complement(m: SymMatrix, pivot_set) -> SymMatrix:
    """|det A11| (A22 - A21 A11^{-1} A12), pivoting on pivot_set.

    A positive multiple of the Schur complement, so it has the Schur
    complement's inertia and rank, in integers. Eliminating with the pivots
    restricted to the pivot block leaves the trailing block equal to the
    last pivot, +-det A11, times the Schur complement (Sylvester's
    identity); the sign of that pivot makes the multiple positive. Raises
    ValueError naming the set if the pivot block is singular.
    """
    pivot = sorted(set(pivot_set))
    n = m.n
    if any(i < 0 or i >= n for i in pivot):
        raise ValueError("pivot indices out of range")
    order = pivot + sorted(set(range(n)) - set(pivot))
    k = len(pivot)
    a = [[m.rows[i][j] for j in order] for i in order]
    steps, _, last, _ = _bareiss(a, k)
    if len(steps) < k:
        raise ValueError(f"singular pivot block {pivot}")
    sign = -1 if last < 0 else 1
    return SymMatrix([[sign * x for x in row[k:]] for row in a[k:]])
