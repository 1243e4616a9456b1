"""Exact algebra: characteristic polynomials, inertia, ranks, symmetry tests.

char_poly takes a symmetric integer matrix (SymMatrix holds ints only; a
Schur complement comes as a positive integer multiple with the same
inertia). It has two routes, both in Python big integers, and picks one
from the rank r that the matrix's fraction-free elimination gives
(SymMatrix.pivots):

- 2r <= n, the low-rank route (a tree's eccentricity matrix has rank 4 or
  2l). The pivot columns C index a nonsingular principal block M = A_CC,
  and p_A(x) = x^(n-r) det(xM - G) / det M with G = A_C: A_:C. A
  fraction-free Gauss-Jordan on [M | G] gives B = d M^-1 G, d = +-det M;
  Berkowitz runs on the r x r matrix B and its k-th coefficient is divided
  by d^k, a nonzero remainder raising ArithmeticError.
- 2r > n (stars, spiders, diametrical graphs): the division-free Berkowitz
  recurrence on the whole matrix, its matrix-vector products running over
  each row's nonzero entries.

The tests hold a Faddeev-LeVerrier implementation as an independent second
route, and check both routes against it and against each other.

Inertia comes from Descartes' rule of signs, which counts positive roots
exactly for polynomials whose roots are all real. That precondition holds for
characteristic polynomials of symmetric matrices, the only inputs this module
sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd as _int_gcd
from operator import mul
from typing import NamedTuple, Optional

from .matrices import SymMatrix, _bareiss


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


def _low_rank(a, cols):
    """Coefficients of det(xI - M^-1 G), M = a_CC, G = a_C: a_:C, for the
    pivot columns C of a symmetric integer row list a.

    Gauss-Jordan on [M | G] gives B = d M^-1 G with d = +-det M, so the
    k-th coefficient is that of det(xI - B) divided by d^k. A nonzero
    remainder raises ArithmeticError instead of returning a wrong result.
    """
    rows = [a[i] for i in cols]
    aug = [[row[j] for j in cols] + [sum(map(mul, row, other)) for other in rows] for row in rows]
    rank, _, _, d = _bareiss(aug, jordan=True)
    if rank < len(cols):
        raise ArithmeticError("pivot block is singular")
    coeffs = []
    scale = 1
    for c in _berkowitz([row[rank:] for row in aug]):
        q, rem = divmod(c, scale)
        if rem:
            raise ArithmeticError("low-rank coefficient is not divisible by the pivot power")
        coeffs.append(q)
        scale *= d
    return coeffs


def char_poly(m: SymMatrix) -> CharPoly:
    """Exact characteristic polynomial of a symmetric integer matrix.

    With rank r and 2r <= n it is x^(n-r) det(xI - M^-1 G) from the pivot
    block; otherwise Berkowitz runs on the whole matrix.
    """
    a = m.rows
    cols = m.pivots
    if 2 * len(cols) > m.n:
        return CharPoly(tuple(_berkowitz(a)))
    return CharPoly(tuple(_low_rank(a, cols)) + (0,) * (m.n - len(cols)))


def inertia_exact(p: CharPoly) -> Inertia:
    """Inertia by Descartes' rule; exact when all roots of p are real."""
    stripped, n_zero = p.stripped()
    signs = [c for c in stripped if c != 0]
    n_plus = sum(1 for x, y in zip(signs, signs[1:]) if (x > 0) != (y > 0))
    n_minus = (len(stripped) - 1) - n_plus
    return Inertia(n_plus, n_minus, n_zero)


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
