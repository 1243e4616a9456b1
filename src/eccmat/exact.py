"""Exact algebra: characteristic polynomials, inertia, ranks, symmetry tests.

Characteristic polynomials are computed by a division-free Berkowitz-style
recurrence over Python big integers. A matrix with Fraction entries gets its
inertia from a positive integer multiple of itself. The tests hold a
Faddeev-LeVerrier implementation as an independent second route; the two
must agree.

Inertia comes from Descartes' rule of signs, which counts positive roots
exactly for polynomials whose roots are all real. That precondition holds for
characteristic polynomials of symmetric matrices, the only inputs this module
sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd as _int_gcd, lcm
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


def char_poly(m: SymMatrix) -> CharPoly:
    """Exact characteristic polynomial of an integer matrix (Berkowitz)."""
    a = m.rows
    n = len(a)
    poly = [1]
    for r in range(1, n + 1):
        rm1 = r - 1
        q = [1, -a[rm1][rm1]]
        if rm1:
            rrow = a[rm1][:rm1]
            v = [a[i][rm1] for i in range(rm1)]
            sub = [a[i][:rm1] for i in range(rm1)]
            q.append(-sum(x * y for x, y in zip(rrow, v)))
            for _ in range(rm1 - 1):
                v = [sum(x * y for x, y in zip(row, v)) for row in sub]
                q.append(-sum(x * y for x, y in zip(rrow, v)))
        new = [0] * (r + 1)
        for j, pj in enumerate(poly):
            if pj:
                for i in range(min(len(q), r + 1 - j)):
                    new[i + j] += q[i] * pj
        poly = new
    return CharPoly(tuple(poly))


def inertia_exact(p: CharPoly) -> Inertia:
    """Inertia by Descartes' rule; exact when all roots of p are real."""
    stripped, n_zero = p.stripped()
    signs = [c for c in stripped if c != 0]
    n_plus = sum(1 for x, y in zip(signs, signs[1:]) if (x > 0) != (y > 0))
    n_minus = (len(stripped) - 1) - n_plus
    return Inertia(n_plus, n_minus, n_zero)


def rank_exact(m: SymMatrix) -> int:
    """Rank over the rationals via fraction-free elimination."""
    return _bareiss([list(r) for r in m.rows])[0]


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


def inertia_of_matrix(m: SymMatrix) -> Inertia:
    """Exact inertia of a symmetric matrix with int or Fraction entries.

    A positive multiple has the same inertia, so Fraction entries are first
    scaled to integers by the lcm of their denominators.
    """
    scale = lcm(*(x.denominator for row in m.rows for x in row))
    if scale > 1:
        m = SymMatrix([[x * scale for x in row] for row in m.rows])
    return inertia_exact(char_poly(m))
