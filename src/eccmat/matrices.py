"""Dense symmetric integer matrices, plus the structured builders.

One matrix type lives here: an immutable symmetric matrix of Python ints,
the only number type of the exact layer. One fraction-free elimination
kernel with one pivot rule (1 x 1 and 2 x 2 diagonal steps) serves the
determinant, the Schur complement (a positive integer multiple, so that it
stays in the same type) and each SymMatrix, which runs it once, on first
use: its pivots give the rank and the signs of its leading principal
minors the inertia. The characteristic polynomial does not read it.
Everything is exact, so there is no floating-point fallback anywhere in
this module.
"""

from __future__ import annotations


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
            steps, _, _, self._n_minus = _bareiss([list(r) for r in self.rows])
            self._pivots = tuple(q for _, q in steps)

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


def eccentricity_matrix(ecc, rows) -> SymMatrix:
    """Keep distance entries attaining min(ecc[u], ecc[v]), zero the rest.

    ecc holds the eccentricities, and rows maps each source vertex u to its
    distance row; every kept entry must have a source endpoint
    (graphs.eccentricity_rows chooses the sources). Each kept entry is
    written at (u, v) and (v, u), so any entry between two non-sources
    stays 0.
    """
    n = len(ecc)
    out = [[0] * n for _ in range(n)]
    for u, du in rows.items():
        eu = ecc[u]
        ru = out[u]
        for v in range(n):
            d = du[v]
            if d == (eu if eu < ecc[v] else ecc[v]):
                ru[v] = d
                out[v][u] = d
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


def _bareiss(a, block=None):
    """Fraction-free (Bareiss) elimination of the symmetric row list a, in
    place, with its pivots on the diagonal (a fraction-free form of the
    Bunch and Kaufman rule).

    The indices not yet pivoted span the trailing block, the last pivot D
    times the Schur complement of the pivot block, so it is symmetric, and
    only its upper triangle (a_xb with x <= b) is kept current:
    - its first nonzero diagonal entry p is a 1 x 1 step, which adds an
      eigenvalue of the sign of a_pp times D (Jacobi), and updates
      a_xb <- (a_pp a_xb - a_xp a_pb) / D;
    - on a zero diagonal its first nonzero entry c = a_ij is a 2 x 2 step
      [[0, c], [c, 0]], which adds one eigenvalue of each sign (Frobenius).
      The rows above row i are zero, so i < j. Its one pass
      a_xb <- (c^2 a_xb - c (a_xi a_jb + a_xj a_ib)) / D^2
      is two ordinary steps composed (row j on column i, then row i on
      column j with the pivot c^2 / D), because a_ii = a_jj = 0; each of
      them divides exactly, so the composition does too;
    - a zero trailing block ends it. The pivot block is nonsingular and its
      Schur complement zero, so the rank is the number of pivots and the
      other eigenvalues are zero (Haynsworth).
    A pivot row is completed from the upper triangle when it is pivoted, so
    that its multipliers are current, and the new last pivot is a_pp after
    a 1 x 1 step and c^2 / D after a 2 x 2 step.
    A row whose multipliers a_xp (or a_xi and a_xj) are zero is only scaled,
    and skipped when the scale is 1. By Sylvester's identity the k-th pivot
    is the leading k-square minor with the rows in pivot-row and the columns
    in pivot-column order. With block=k only the first k indices are pivot
    candidates.

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
                i = j = p
                w, w2, scale, div = 1, 0, a[p][p], prev
                negative += (scale > 0) != (prev > 0)
                steps.append((p, p))
                break
        else:
            # a zero diagonal: a 2 x 2 step on its first nonzero entry, or
            # the end
            for k, i in enumerate(cand):
                right = cand[k + 1:]
                if any(map(a[i].__getitem__, right)):
                    break
            else:
                break
            j = next(j for j in right if a[i][j])
            w = w2 = a[i][j]
            scale, div = w * w, prev * prev
            sign = -sign
            negative += 1
            steps += [(j, i), (i, j)]
        ri, rj = a[i], a[j]
        for q in {i, j}:  # complete the pivot rows from the upper triangle
            for b in rest[:rest.index(q)]:
                a[q][b] = a[b][q]
        for q in {i, j}:
            rest.remove(q)
        # row x takes u = w a_xi times row j and v = w2 a_xj times row i: w =
        # w2 = c in a 2 x 2 step, and w = 1, w2 = 0 (i = j = p) in a 1 x 1 step
        for k, x in enumerate(rest):
            ax, u, v = a[x], w * ri[x], w2 * rj[x]
            if u and v:
                for b in rest[k:]:
                    ax[b] = (ax[b] * scale - u * rj[b] - v * ri[b]) // div
            elif u or v:
                u, s = (u, rj) if u else (v, ri)
                for b in rest[k:]:
                    ax[b] = (ax[b] * scale - u * s[b]) // div
            elif scale != div:
                for b in rest[k:]:
                    ax[b] = ax[b] * scale // div
        prev = scale if i == j else scale // prev
    return steps, sign, prev, negative


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
    return SymMatrix([[sign * a[min(x, y)][max(x, y)] for y in range(k, n)] for x in range(k, n)])
