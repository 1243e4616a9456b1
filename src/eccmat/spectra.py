"""Floating-point symmetric eigensolver and spectrum utilities.

The eigensolver is a cyclic-by-row Jacobi iteration. Its two constants
are the program's, not the caller's: `EIGEN_TOL`, the off-diagonal norm
it stops at relative to the matrix norm, and `MAX_SWEEPS`, the sweep
budget. It is deterministic for a fixed input, needs no external library,
and at the matrix orders used here (well under a few hundred) it reaches
off-diagonal norms near machine precision in a handful of sweeps.
"""

from __future__ import annotations

import math

from .exact import Inertia
from .matrices import SymMatrix

EIGEN_TOL = 1e-12
MAX_SWEEPS = 30


class JacobiConvergenceError(RuntimeError):
    """Raised when the sweep budget is exhausted; carries the off-diagonal norm."""

    def __init__(self, off_norm: float, sweeps: int):
        super().__init__(
            f"Jacobi iteration did not converge in {sweeps} sweeps; "
            f"off-diagonal norm {off_norm:.3e}"
        )
        self.off_norm = off_norm


def eigenvalues_sym(m: SymMatrix):
    """All eigenvalues of a SymMatrix, descending, by cyclic Jacobi."""
    a = [[float(x) for x in row] for row in m.rows]
    n = len(a)
    norm = math.sqrt(sum(x * x for row in a for x in row))
    target = EIGEN_TOL * norm
    # Rotations on entries this small only churn roundoff.
    skip = 1e-18 * norm
    rng = range(n)
    for sweep in range(MAX_SWEEPS + 1):
        off2 = 0.0
        for i in rng:
            ai = a[i]
            for j in range(i + 1, n):
                off2 += ai[j] * ai[j]
        off = math.sqrt(2.0 * off2)
        if off <= target:
            return sorted((a[i][i] for i in rng), reverse=True)
        if sweep == MAX_SWEEPS:
            raise JacobiConvergenceError(off, MAX_SWEEPS)
        for p in range(n - 1):
            ap = a[p]
            for q in range(p + 1, n):
                apq = ap[q]
                if abs(apq) <= skip:
                    continue
                aq = a[q]
                theta = (aq[q] - ap[p]) / (2.0 * apq)
                if abs(theta) > 1e150:
                    t = 0.5 / theta
                else:
                    t = (1.0 if theta >= 0 else -1.0) / (
                        abs(theta) + math.sqrt(theta * theta + 1.0)
                    )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for k in rng:
                    ak = a[k]
                    akp = ak[p]
                    akq = ak[q]
                    ak[p] = c * akp - s * akq
                    ak[q] = s * akp + c * akq
                for k in rng:
                    akp = ap[k]
                    akq = aq[k]
                    ap[k] = c * akp - s * akq
                    aq[k] = s * akp + c * akq


def group_spectrum(values, count: int):
    """Split a descending eigenvalue list into count runs at its count - 1
    largest consecutive gaps, ties going to the earlier gap: (run means,
    run sizes), in descending order. An empty list has count 0 and no runs."""
    vals = list(values)
    if not vals:
        if count != 0:
            raise ValueError(f"count must be 0 for an empty list, got {count}")
        return (), ()
    if not 1 <= count <= len(vals):
        raise ValueError(f"count must be between 1 and {len(vals)}, got {count}")
    if any(a < b for a, b in zip(vals, vals[1:])):
        raise ValueError("values must be sorted descending")
    # a stable sort on the negated gap puts the earlier of equal gaps first
    widest = sorted(range(1, len(vals)), key=lambda i: vals[i] - vals[i - 1])
    cuts = [0, *sorted(widest[:count - 1]), len(vals)]
    runs = [vals[i:j] for i, j in zip(cuts, cuts[1:])]
    return tuple(sum(run) / len(run) for run in runs), tuple(len(run) for run in runs)


def inertia_float(values, zero_tol: float) -> Inertia:
    """Sign counts of a float eigenvalue list with a zero band of width zero_tol."""
    if zero_tol < 0:
        raise ValueError("zero_tol must be nonnegative")
    n_plus = sum(1 for v in values if v > zero_tol)
    n_minus = sum(1 for v in values if v < -zero_tol)
    return Inertia(n_plus, n_minus, len(values) - n_plus - n_minus)


def default_zero_tol(m: SymMatrix) -> float:
    return 1e-8 * float(m.max_abs())
