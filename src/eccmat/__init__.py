"""Eccentricity-matrix spectra of trees and graphs.

Exact big-integer linear algebra (characteristic polynomials, inertia,
ranks, Schur complements) next to a floating-point symmetric
eigensolver, plus family constructors and the verification predicates that
compare both routes against closed forms.
"""

__version__ = "0.1.0"

from .checks import (
    FLOAT_TOL,
    TreeFacts,
    Verdict,
    check_block_structure,
    check_core_minor_sums,
    check_diametrical,
    check_distinct_counts,
    check_inertia,
    check_inertia_float_agreement,
    check_least_eigenvalue_bound,
    check_odd_core_eigenvalues,
    check_pair_block_inertia,
    check_radius_bound,
    check_rank,
    check_star_spectrum,
    check_symmetry,
    min_radius_bound,
    min_radius_tree,
    tree_checks,
)
from .exact import (
    CharPoly,
    Inertia,
    char_poly,
    consecutive_nonzero_witness,
    distinct_count_exact,
    inertia_exact,
    poly_gcd,
    rank_exact,
    spectrum_symmetric_exact,
)
from .families import (
    canonical_key,
    center_pendant_tree,
    cocktail_party,
    cycle,
    diametrical_examples,
    enumerate_labeled_trees,
    hypercube,
    parse_family,
    path,
    pruefer_decode,
    pruefer_random,
    spider,
    star,
)
from .graphs import (
    MAX_ORDER,
    Graph,
    Tree,
    TreeMeta,
    bfs_distances,
    diametrical_pairing,
    distance_matrix,
    read_edge_list,
    read_graph,
    read_graph6,
    to_edge_list,
    tree_meta,
)
from .matrices import (
    SymMatrix,
    bareiss_det,
    deep_mid_block,
    eccentricity_matrix,
    even_diameter_core,
    odd_diameter_core,
    schur_complement,
)
from .spectra import (
    JacobiConvergenceError,
    Spectrum,
    default_group_tol,
    default_zero_tol,
    eigenvalues_sym,
    group_spectrum,
    inertia_float,
)
