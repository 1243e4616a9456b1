"""Exact algebra: characteristic polynomials, inertia, ranks, symmetry tests.

char_poly takes a symmetric integer matrix (SymMatrix holds ints only; a
Schur complement comes as a positive integer multiple with the same
inertia). It has two routes, both in Python big integers, and picks one
from the rank r that the matrix's fraction-free elimination gives
(SymMatrix.pivots):

- 2r <= n, the low-rank route (a tree's eccentricity matrix has rank 4 or
  2l). The pivot indices Q give a nonsingular principal block M = A_QQ,
  and p_A(x) = x^(n-r) det(xM - G) / det M with G = A_Q: A_:Q. The
  elimination's own pivot rows, in Gauss-Jordan form, hold X = d M^-1 A_QU
  on the unpivoted indices U, d = +-det M (SymMatrix.jordan), so
  B = d M^-1 G = d A_QQ + X A_UQ needs no second elimination. Berkowitz
  runs on the r x r matrix B and its k-th coefficient is divided by d^k,
  a nonzero remainder raising ArithmeticError.
- otherwise, the twin-class quotient. Rows u and v are twins when
  a_uu = a_vv and they agree off {u, v}; this is an equivalence, and within
  a class of size s the entry a_uv is one value b. The vectors on a class
  that sum to zero are eigenvectors for D - b, D the class's diagonal, and
  the vectors constant on each class span an invariant subspace on which A
  acts as the k x k quotient Q, Q_ij = a_(rep i, rep j) s_j and
  Q_ii = D_i + (s_i - 1) b_i (Godsil & Royle, Algebraic Graph Theory, 9.3).
  So p_A = det(xI - Q) prod (x - (D_i - b_i))^(s_i - 1), and Berkowitz runs
  on Q, its matrix-vector products running over each row's nonzero
  entries. Stars have k = 2 and diametrical graphs k = n/2; with no twins
  (spiders, odd cycles) k = n, Q is A, and the route is plain Berkowitz on
  the whole matrix.

The tests hold a Faddeev-LeVerrier implementation as an independent second
route, and check both routes against it and against Berkowitz on the whole
matrix.

Inertia has two exact routes. inertia_of_matrix reads the signs of the
leading principal minors along the matrix's symmetric elimination
(SymMatrix.n_minus), with no polynomial. inertia_exact applies Descartes'
rule of signs to the characteristic polynomial; it counts positive roots
exactly for polynomials whose roots are all real, which holds for
characteristic polynomials of symmetric matrices, the only inputs this
module sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd as _int_gcd
from typing import NamedTuple, Optional

from .matrices import SymMatrix


@dataclass(frozen=True)
class CharPoly:
    """Monic polynomial with exact coefficients, highest degree first."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs or self.coeffs[0] != 1:
            raise ValueError("characteristic polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def to_json(self):
        """Coefficients as decimal strings, highest degree first."""
        return [str(c) for c in self.coeffs]

    def stripped(self):
        """(coefficients with trailing zeros removed, number of zeros removed)."""
        coeffs = self.coeffs
        nz = 0
        while nz < len(coeffs) - 1 and coeffs[-1 - nz] == 0:
            nz += 1
        return coeffs[: len(coeffs) - nz], nz


class Inertia(NamedTuple):
    n_plus: int
    n_minus: int
    n_zero: int


def _berkowitz(a):
    """Coefficients of det(xI - a), highest degree first, for a square row
    list a of ints (symmetric or not), by the division-free Berkowitz
    recurrence. Its matrix-vector products run over the nonzero (j, a_ij)
    pairs of each row of the leading block."""
    poly = [1]
    lead = []  # lead[i]: the nonzero (j, a_ij) of row i with j < r
    for r, row in enumerate(a):
        left = [(j, x) for j, x in enumerate(row[:r]) if x]
        col = [a[i][r] for i in range(r)]
        q = [1, -row[r]]
        if r:
            v = col
            q.append(-sum(x * v[j] for j, x in left))
            for _ in range(r - 1):
                v = [sum(x * v[j] for j, x in pairs) for pairs in lead]
                q.append(-sum(x * v[j] for j, x in left))
        new = [0] * (r + 2)
        for j, pj in enumerate(poly):
            if pj:
                for i in range(r + 2 - j):
                    new[i + j] += q[i] * pj
        poly = new
        for i, x in enumerate(col):
            if x:
                lead[i].append((r, x))
        lead.append(left + [(r, row[r])] if row[r] else left)
    return poly


def _low_rank(m: SymMatrix):
    """Coefficients of p_A for a matrix of rank r with 2r <= n, from
    x^(n-r) det(xI - M^-1 G), M = A_QQ the pivot block and G = A_Q: A_:Q."""
    a, pivots = m.rows, m.pivots
    # M^-1 G = M + M^-1 A_QU A_UQ, so B = d M^-1 G = d A_QQ + X A_UQ
    x, d = m.jordan
    pivoted = set(pivots)
    rest = [c for c in range(m.n) if c not in pivoted]
    border = [[a[s][c] for c in rest] for s in pivots]  # A_QU, whose columns are A_UQ's
    b = [
        [d * a[q][s] + sum(u * v for u, v in zip(xq, cs)) for s, cs in zip(pivots, border)]
        for q, xq in zip(pivots, x)
    ]
    coeffs, scale = [], 1
    for c in _berkowitz(b):
        q, rem = divmod(c, scale)
        if rem:
            raise ArithmeticError("low-rank coefficient is not divisible by the pivot power")
        coeffs.append(q)
        scale *= d
    return coeffs + [0] * (m.n - len(pivots))


def _twin_classes(a):
    """The twin classes of a symmetric row list a, as lists of indices.

    Putting a class's inner value b on the diagonal makes its rows equal,
    and a row u shares the key (a_uu, row u with b at u) with another row v
    only when v is u's twin with a_uv = b. So each b in row u files u under
    one key, and u joins the class of the first row that filed a key it
    shares."""
    first, classes = {}, {}
    for u, row in enumerate(a):
        head, tail = row[:u], row[u + 1:]
        rep = u
        for b in set(row):
            v = first.setdefault((row[u], head + (b,) + tail), u)
            if v < rep:
                rep = v
        classes.setdefault(rep, []).append(u)
    return list(classes.values())


def _quotient(a):
    """Coefficients of p_A, highest degree first, as det(xI - Q) times
    (x - (D_i - b_i))^(s_i - 1) over the twin classes of A."""
    classes = _twin_classes(a)
    # (rep, s, D, b); a singleton reads its diagonal as b and has no twin
    cls = [(c[0], len(c), a[c[0]][c[0]], a[c[0]][c[-1]]) for c in classes]
    q = [[a[r][t] * s for t, s, _, _ in cls] for r, _, _, _ in cls]
    for i, (_, s, d, b) in enumerate(cls):
        q[i][i] = d + (s - 1) * b
    poly = _berkowitz(q)
    for _, s, d, b in cls:
        for _twin in range(s - 1):
            # poly <- poly (x - (D - b))
            poly = [p - (d - b) * t for p, t in zip(poly + [0], [0] + poly)]
    return poly


def char_poly(m: SymMatrix) -> CharPoly:
    """Exact characteristic polynomial of a symmetric integer matrix.

    With rank r and 2r <= n it is x^(n-r) det(xI - M^-1 G) from the pivot
    block M = A_QQ, G = A_Q: A_:Q; otherwise it is det(xI - Q) for the
    quotient Q on the k twin classes, times one linear factor per twin
    beyond each class's first. With no twins, k = n and Q is A itself.
    """
    if 2 * len(m.pivots) <= m.n:
        return CharPoly(tuple(_low_rank(m)))
    return CharPoly(tuple(_quotient(m.rows)))


def inertia_exact(p: CharPoly) -> Inertia:
    """Inertia by Descartes' rule; exact when all roots of p are real."""
    stripped, n_zero = p.stripped()
    signs = [c for c in stripped if c != 0]
    n_plus = sum(1 for x, y in zip(signs, signs[1:]) if (x > 0) != (y > 0))
    n_minus = (len(stripped) - 1) - n_plus
    return Inertia(n_plus, n_minus, n_zero)


def inertia_of_matrix(m: SymMatrix) -> Inertia:
    """Inertia from the signs of the leading principal minors along the
    matrix's symmetric elimination (SymMatrix.pivots, SymMatrix.n_minus):
    the pivot block holds every nonzero eigenvalue, the rest are zero."""
    rank = len(m.pivots)
    return Inertia(rank - m.n_minus, m.n_minus, m.n - rank)


def rank_exact(m: SymMatrix) -> int:
    """Rank over the rationals: the number of the matrix's pivot columns."""
    return len(m.pivots)


def _poly_derivative(coeffs):
    n = len(coeffs) - 1
    return [c * (n - i) for i, c in enumerate(coeffs[:-1])]


def _poly_content(coeffs) -> int:
    g = 0
    for c in coeffs:
        g = _int_gcd(g, abs(c))
    return g or 1


def _poly_primitive(coeffs):
    """Strip leading zeros, divide by the content, make the lead positive."""
    i = 0
    while i < len(coeffs) and coeffs[i] == 0:
        i += 1
    coeffs = list(coeffs[i:])
    if not coeffs:
        return []
    g = _poly_content(coeffs)
    if coeffs[0] < 0:
        g = -g
    return [c // g for c in coeffs]


def _poly_pseudo_rem(f, g):
    """Pseudo-remainder of f by g (both descending, g nonzero)."""
    f = list(f)
    dg = len(g) - 1
    lg = g[0]
    while f and len(f) - 1 >= dg:
        if f[0] == 0:
            f.pop(0)
            continue
        lf = f[0]
        f = [c * lg for c in f]
        for i in range(dg + 1):
            f[i] -= lf * g[i]
        f.pop(0)
    return f


def poly_gcd(f, g):
    """Gcd of integer polynomials by primitive pseudo-remainder sequences."""
    f = _poly_primitive(f)
    g = _poly_primitive(g)
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = _poly_primitive(_poly_pseudo_rem(f, g))
        f, g = g, r
    return f


def distinct_count_exact(p: CharPoly) -> int:
    """Number of distinct roots: deg p minus deg gcd(p, p')."""
    g = poly_gcd(list(p.coeffs), _poly_derivative(p.coeffs))
    return p.degree - (len(g) - 1)


def spectrum_symmetric_exact(p: CharPoly) -> bool:
    """True iff p(x) = (-1)^deg p(-x), i.e. all odd-index coefficients vanish."""
    return all(c == 0 for c in p.coeffs[1::2])


def consecutive_nonzero_witness(p: CharPoly) -> Optional[int]:
    """Least index i with both c_i and c_{i+1} nonzero in the zero-root-stripped
    polynomial, or None when no such pair exists."""
    stripped, _ = p.stripped()
    for i in range(len(stripped) - 1):
        if stripped[i] != 0 and stripped[i + 1] != 0:
            return i
    return None
