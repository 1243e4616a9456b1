"""Exact algebra: characteristic polynomials, inertia, root counts, symmetry tests.

char_poly takes a symmetric integer matrix (SymMatrix holds ints only; a
Schur complement comes as a positive integer multiple with the same
inertia). It has one route, in Python big integers and with no division
and no elimination:

- the twin-class quotient. Rows u and v are twins when a_uu = a_vv and
  they agree off {u, v}; this is an equivalence, and within a class of size
  s the entry a_uv is one value b. The vectors on a class that sum to zero
  are eigenvectors for D - b, D the class's diagonal, and the vectors
  constant on each class span an invariant subspace on which A acts as the
  k x k quotient Q, Q_ij = a_(rep i, rep j) s_j and
  Q_ii = D_i + (s_i - 1) b_i (Godsil & Royle, Algebraic Graph Theory, 9.3).
  So p_A = det(xI - Q) prod (x - (D_i - b_i))^(s_i - 1).
- then Q's zero block. Take a zero principal block N of Q (Q_ii = 0, and
  Q_ij = 0 for i, j in N) and let S be the other classes, so that
  Q = [[A, B], [C, 0]] on (S, N). When |N| > |S|, det(xI - Q) =
  x^(|N| - |S|) det(xI - L) for the 2|S| x 2|S| matrix L = [[A, BC], [I, 0]],
  both sides being x^(|N| - 2|S|) det(x^2 I - xA - BC) (the saddle-point
  form; Benzi, Golub & Liesen, Acta Numerica 14, 2005). This holds for any
  zero block and does not need Q symmetric. Berkowitz runs on L, or else
  on Q, its matrix-vector products running over each row's nonzero entries.

On a tree with diameter >= 3 this order is the rank, 4 or 2l. A peripheral
vertex's row depends only on its branch, and any other vertex's row only
on (branch, eccentricity) (checks.check_block_structure), so both kinds
come in twin classes, and the non-peripheral classes are a zero block of Q.
The peripheral classes number 2 for odd diameter and l for even diameter;
a non-peripheral class row has at most l nonzeros and a peripheral one at
least 2l - 1 (odd diameter: 1 against 2 or more), so the block that
_zero_block finds by ascending nonzero count is exactly the
non-peripheral classes. Stars have k = 2 and diametrical graphs k = n/2;
a spider has no twins, but its center and middle vertices are a zero
block, so Berkowitz runs on order n - 1. Odd cycles have neither, so the
route is plain Berkowitz on the whole matrix.

The tests hold a Faddeev-LeVerrier implementation as an independent second
route, and check the route against it and against Berkowitz on the whole
matrix.

Inertia has two exact routes that share no computation. inertia_of_matrix
reads the signs of the leading principal minors along the matrix's
symmetric elimination (matrices._bareiss), with no polynomial; it is the
elimination's one reader here, and a rank is n minus its zero count.
inertia_exact applies Descartes' rule of signs to the characteristic
polynomial; it counts positive roots exactly for polynomials whose roots
are all real, which holds for characteristic polynomials of symmetric
matrices, the only inputs this module sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd as _int_gcd
from typing import NamedTuple, Optional

from . import matrices
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
    pairs of each row of the leading block, and stop once the vector is
    zero, since every later term is zero too."""
    poly = [1]
    lead = []  # lead[i]: the nonzero (j, a_ij) of row i with j < r
    for r, row in enumerate(a):
        left = [(j, x) for j, x in enumerate(row[:r]) if x]
        col = [a[i][r] for i in range(r)]
        q, v = [1, -row[r]], col
        while left and any(v):
            q.append(-sum(x * v[j] for j, x in left))
            if len(q) == r + 2:
                break
            v = [sum(x * v[j] for j, x in pairs) for pairs in lead]
        new = [0] * (r + 2)
        for j, pj in enumerate(poly):
            if pj:
                for i, qi in enumerate(q[:r + 2 - j]):
                    new[i + j] += qi * pj
        poly = new
        for i, x in enumerate(col):
            if x:
                lead[i].append((r, x))
        lead.append(left + [(r, row[r])] if row[r] else left)
    return poly


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


def _zero_block(q):
    """A zero principal block N of the square row list q, whose zero
    pattern is symmetric: q_ii = 0 and q_ij = 0 for i, j in N. Rows are
    taken by ascending nonzero count, each one that is zero on N so far."""
    block = []
    for i in sorted(range(len(q)), key=lambda i: len(q) - q[i].count(0)):
        row = q[i]
        if not row[i] and not any(row[j] for j in block):
            block.append(i)
    return block


def _quotient(a):
    """Coefficients of p_A, highest degree first, as det(xI - Q) times
    (x - (D_i - b_i))^(s_i - 1) over the twin classes of A, with det(xI - Q)
    from Q's zero block when that block is the larger part."""
    classes = _twin_classes(a)
    # (rep, s, D, b); a singleton reads its diagonal as b and has no twin
    cls = [(c[0], len(c), a[c[0]][c[0]], a[c[0]][c[-1]]) for c in classes]
    q = [[a[r][t] * s for t, s, _, _ in cls] for r, _, _, _ in cls]
    for i, (_, s, d, b) in enumerate(cls):
        q[i][i] = d + (s - 1) * b
    block = _zero_block(q)
    if 2 * len(block) > len(q):
        # Q = [[A, B], [C, 0]] on (S, N): det(xI - Q) = x^(|N| - 2|S|)
        # det(x^2 I - xA - BC), which is x^(|N| - |S|) det(xI - L) for
        # L = [[A, BC], [I, 0]]
        zero = set(block)
        rest = [i for i in range(len(q)) if i not in zero]
        top = [
            [q[i][j] for j in rest] + [sum(q[i][w] * q[w][j] for w in block) for j in rest]
            for i in rest
        ]
        bottom = [[int(i == j) for j in rest] + [0] * len(rest) for i in rest]
        poly = _berkowitz(top + bottom) + [0] * (len(block) - len(rest))
    else:
        poly = _berkowitz(q)
    for _, s, d, b in cls:
        for _twin in range(s - 1):
            # poly <- poly (x - (D - b)); most of a tree's twins have
            # D = b = 0, where appending the zero root skips the multiply:
            # with the multiply alone, char_poly takes about 30% longer on
            # random trees of order 40..60
            poly = poly + [0] if d == b else [p - (d - b) * t for p, t in zip(poly + [0], [0] + poly)]
    return poly


def char_poly(m: SymMatrix) -> CharPoly:
    """Exact characteristic polynomial of a symmetric integer matrix.

    It is det(xI - Q) for the quotient Q on the k twin classes, times one
    linear factor per twin beyond each class's first. When Q has a zero
    principal block N larger than the rest S, Berkowitz runs on an order
    2|S| matrix instead of Q. With no twins, k = n and Q is A itself.
    """
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
    matrix's symmetric elimination: the pivot block holds every nonzero
    eigenvalue, so the rank is the number of pivots and the rest are zero."""
    steps, _, _, minus = matrices._bareiss([list(r) for r in m.rows])
    return Inertia(len(steps) - minus, minus, m.n - len(steps))


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
