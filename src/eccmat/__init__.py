"""Eccentricity-matrix spectra of trees and graphs.

Exact big-integer linear algebra (characteristic polynomials, inertia,
ranks, Schur complements) next to a floating-point symmetric
eigensolver, plus family constructors and the verification predicates that
compare both routes against closed forms. The top level exports the
per-tree entry points; everything else is imported from its submodule.
"""

__version__ = "0.1.0"

from .checks import TreeFacts, tree_checks
