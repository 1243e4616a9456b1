"""Verification predicates comparing computed spectra against closed forms.

Each check returns a Verdict pairing the predicted value with the computed
one. Integer claims use exact equality; float claims use FLOAT_TOL.
A per-tree check takes one TreeFacts, which only exists for trees with
n >= 2; checks that need more (n >= 4, diameter >= 3, odd diameter) raise
ValueError on a tree outside their hypothesis.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from functools import cache, cached_property

from .exact import (
    Inertia,
    char_poly,
    consecutive_nonzero_witness,
    distinct_count_exact,
    inertia_exact,
    inertia_of_matrix,
    spectrum_symmetric_exact,
)
from .families import canonical_key, center_pendant_tree, star
from .graphs import (
    Graph,
    Tree,
    diametrical_pairing,
    eccentricity_rows,
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
from .spectra import default_zero_tol, eigenvalues_sym, inertia_float

FLOAT_TOL = 1e-9


@dataclass(frozen=True)
class Verdict:
    """Outcome of one predicate on one instance.

    The serialized field name for `passed` is "pass"; the dataclass field
    avoids the keyword.
    """

    theorem_id: str
    instance: str
    expected: object
    computed: object
    passed: bool
    detail: str = ""

    def to_json(self) -> str:
        return json.dumps(
            {
                "theorem_id": self.theorem_id,
                "instance": self.instance,
                "expected": self.expected,
                "computed": self.computed,
                "pass": self.passed,
                "detail": self.detail,
            }
        )


def _verdict(theorem_id, instance, expected, computed, passed, detail=""):
    if not passed and not detail:
        detail = f"expected {expected}, computed {computed}"
    return Verdict(theorem_id, instance, expected, computed, passed, detail)


class TreeFacts:
    """Lazily computed quantities for one tree, shared across checks.

    The tree must have n >= 2 vertices (ValueError otherwise): the paper's
    results are about trees with at least one edge. The eccentricities and
    the peripheral vertices' BFS rows (graphs.eccentricity_rows) are
    computed once and feed both meta and matrix. The characteristic
    polynomial comes from the matrix's twin quotient and zero block, with
    no elimination; minors, the inertia from the one fraction-free
    elimination of the twin quotient's symmetric form, runs it only when
    the inertia or the rank check reads it. The two exact inertias share
    the twin classes and nothing else; the float inertia from the whole
    matrix's eigenvalues (check_inertia_float_agreement) is the check that
    shares nothing with them.
    corrupt=True bumps one off-diagonal entry pair of the eccentricity
    matrix by 1; it exists solely as a negative-control hook.
    """

    def __init__(self, tree: Tree, label: str | None = None, corrupt: bool = False):
        if tree.n < 2:
            raise ValueError(f"TreeFacts requires n >= 2, got n = {tree.n}")
        self.tree = tree
        self.label = label if label is not None else f"tree:n={tree.n}"
        self.corrupt = corrupt

    @cached_property
    def _ecc_rows(self):
        return eccentricity_rows(self.tree)

    @cached_property
    def meta(self):
        return tree_meta(self.tree, self._ecc_rows[0])

    @cached_property
    def matrix(self) -> SymMatrix:
        m = eccentricity_matrix(*self._ecc_rows)
        if self.corrupt and m.n >= 2:
            rows = [list(r) for r in m.rows]
            rows[0][m.n - 1] += 1
            rows[m.n - 1][0] += 1
            m = SymMatrix(rows)
        return m

    @cached_property
    def poly(self):
        return char_poly(self.matrix)

    @cached_property
    def inertia(self) -> Inertia:
        return inertia_exact(self.poly)

    @cached_property
    def minors(self) -> Inertia:
        """The inertia from the signs of the leading principal minors; its
        rank is n - n_zero."""
        return inertia_of_matrix(self.matrix)

    @cached_property
    def eigenvalues(self):
        return eigenvalues_sym(self.matrix)

    @cached_property
    def extremal(self) -> bool:
        """Whether the tree is isomorphic to min_radius_tree(n)."""
        return canonical_key(self.tree) == _extremal_key(self.tree.n)


def _predicted_inertia(f: TreeFacts) -> Inertia:
    """The inertia the paper proves for a tree's eccentricity matrix."""
    n = f.tree.n
    diam = f.meta.diameter
    if diam <= 2:
        return Inertia(1, n - 1, 0)
    if diam % 2 == 1:
        return Inertia(2, 2, n - 4)
    l = len(f.meta.distinguished)
    return Inertia(l, l, n - 2 * l)


def check_inertia(f: TreeFacts) -> Verdict:
    """Inertia is (1,n-1,0) for stars, (2,2,n-4) for odd diameter >= 3,
    (l,l,n-2l) for even diameter >= 4.

    The computed inertia is Descartes' rule on the characteristic
    polynomial; the verdict passes only if the signs of the leading
    principal minors give it too."""
    expected = _predicted_inertia(f)
    computed = f.inertia
    minors = f.minors
    detail = "" if minors == computed else f"expected {expected}, computed {computed}, minor signs {minors}"
    return _verdict("tree-inertia", f.label, expected, computed, expected == computed == minors, detail)


def check_rank(f: TreeFacts) -> Verdict:
    """Rank is n minus the predicted nullity: n for stars, 4 for odd
    diameter >= 3, 2l for even diameter >= 4."""
    expected = f.tree.n - _predicted_inertia(f).n_zero
    # the elimination's rank, not n minus the polynomial's zero roots
    computed = f.tree.n - f.minors.n_zero
    return _verdict("tree-rank", f.label, expected, computed, expected == computed)


def check_symmetry(f: TreeFacts) -> Verdict:
    """The spectrum is symmetric about 0 exactly for odd diameter; even
    diameter must instead show a consecutive nonzero coefficient pair."""
    odd = f.meta.diameter % 2 == 1
    symmetric = spectrum_symmetric_exact(f.poly)
    if odd:
        expected = {"symmetric": True}
        computed = {"symmetric": symmetric}
    else:
        witness = consecutive_nonzero_witness(f.poly)
        expected = {"symmetric": False, "witness": "present"}
        computed = {
            "symmetric": symmetric,
            "witness": witness if witness is not None else "absent",
        }
    passed = symmetric == odd and (odd or computed["witness"] != "absent")
    return _verdict("spectrum-symmetry", f.label, expected, computed, passed)


def check_distinct_counts(f: TreeFacts) -> Verdict:
    """Distinct eigenvalue count: 3 for stars, 4 for the odd-diameter tree
    on 4 vertices, 5 for odd diameter with n >= 5, >= 4 otherwise."""
    n = f.tree.n
    if n < 4:
        raise ValueError("check_distinct_counts requires n >= 4")
    diam = f.meta.diameter
    computed = distinct_count_exact(f.poly)
    if diam <= 2:
        expected = 3
        passed = computed == 3
    elif diam % 2 == 1:
        expected = 4 if n == 4 else 5
        passed = computed == expected
    else:
        expected = ">=4"
        passed = computed >= 4
    return _verdict("distinct-count", f.label, expected, computed, passed)


def _closed_form_verdict(theorem_id, instance, m, closed_form, ok=True) -> Verdict:
    """The eigenvalues of m (computed) against the descending closed_form
    list (expected): passes when ok holds and no eigenvalue is off by more
    than FLOAT_TOL."""
    values = eigenvalues_sym(m)
    err = max(abs(a - b) for a, b in zip(closed_form, values))
    return _verdict(
        theorem_id, instance, closed_form, values, ok and err <= FLOAT_TOL,
        detail=f"max abs error {err:.3e}",
    )


def check_star_spectrum(n: int) -> Verdict:
    """Star spectrum is n-2+s, n-2-s (s = sqrt(n^2-3n+3)), and -2 with
    multiplicity n-2, within FLOAT_TOL per eigenvalue."""
    if n < 3:
        raise ValueError("check_star_spectrum requires n >= 3")
    s = math.sqrt(n * n - 3 * n + 3)
    closed_form = [n - 2 + s, n - 2 - s] + [-2.0] * (n - 2)
    m = eccentricity_matrix(*eccentricity_rows(star(n)))
    return _closed_form_verdict("star-spectrum", f"star:{n}", m, closed_form)


def min_radius_bound(n: int) -> float:
    """Lower bound for the largest eccentricity eigenvalue over trees of
    order n, with the three-way case split on n."""
    if n < 4:
        raise ValueError("min_radius_bound requires n >= 4")
    if n <= 15:
        q = 13 * n - 35
        return math.sqrt((q + math.sqrt(q * q - 64 * (n - 3))) / 2)
    if n % 2 == 1:
        return math.sqrt((16 * n - 21 + math.sqrt(800 * n - 1419)) / 2)
    return math.sqrt((16 * n - 21 + 5 * math.sqrt(32 * n - 67)) / 2)


def min_radius_tree(n: int) -> Tree:
    """The tree attaining min_radius_bound(n)."""
    if n < 4:
        raise ValueError("min_radius_tree requires n >= 4")
    if n <= 15:
        return center_pendant_tree(n, 3, 0, n - 4)
    a = (n - 6) // 2
    return center_pendant_tree(n, 5, a, n - 6 - a)


@cache
def _extremal_key(n: int) -> str:
    return canonical_key(min_radius_tree(n))


def _bound_verdict(f: TreeFacts, theorem_id: str, sign: int) -> Verdict:
    """sign * eigenvalue >= min_radius_bound(n) for the largest (sign 1) or
    least (sign -1) eigenvalue, with equality required on the extremal tree."""
    bound = min_radius_bound(f.tree.n)
    target = sign * bound
    value = f.eigenvalues[0 if sign > 0 else -1]
    if f.extremal:
        passed = abs(value - target) <= FLOAT_TOL
        expected = target
        detail = "extremal family member: equality required"
    else:
        passed = sign * value >= bound - FLOAT_TOL
        expected = f"{'>=' if sign > 0 else '<='} {target!r}"
        detail = ""
    if not passed:
        detail = f"bound {target!r} violated by {value!r}"
    return _verdict(theorem_id, f.label, expected, value, passed, detail)


def check_radius_bound(f: TreeFacts) -> Verdict:
    """Largest eigenvalue is >= min_radius_bound(n), with equality required
    when the tree is isomorphic to the extremal family member."""
    if f.tree.n < 4:
        raise ValueError("check_radius_bound requires n >= 4")
    return _bound_verdict(f, "radius-lower-bound", 1)


def check_least_eigenvalue_bound(f: TreeFacts) -> Verdict:
    """Least eigenvalue is <= -min_radius_bound(n) for odd diameter, with
    equality on the extremal family; even diameter is outside the hypothesis."""
    if f.tree.n < 4:
        raise ValueError("check_least_eigenvalue_bound requires n >= 4")
    if f.meta.diameter % 2 == 0:
        raise ValueError("check_least_eigenvalue_bound requires odd diameter")
    return _bound_verdict(f, "least-eigenvalue-bound", -1)


def check_pair_block_inertia(d: int, n: int) -> Verdict:
    """deep_mid_block(d,n) has inertia (n,n,0), splitting over the leading
    block as (1,n-1,0) plus (n-1,1,0) for its Schur complement."""
    if d < 1 or n < 2:
        raise ValueError("check_pair_block_inertia requires d >= 1 and n >= 2")
    m = deep_mid_block(d, n)
    instance = f"pair-block:d={d},n={n}"
    total = inertia_of_matrix(m)
    pivot = list(range(n))
    top = inertia_of_matrix(m.submatrix(pivot))
    comp = inertia_of_matrix(schur_complement(m, pivot))
    additive = total == tuple(x + y for x, y in zip(top, comp))
    expected = {
        "inertia": Inertia(n, n, 0),
        "pivot_inertia": Inertia(1, n - 1, 0),
        "complement_inertia": Inertia(n - 1, 1, 0),
        "additive": True,
    }
    computed = {
        "inertia": total,
        "pivot_inertia": top,
        "complement_inertia": comp,
        "additive": additive,
    }
    return _verdict(
        "pair-block-inertia", instance, expected, computed, expected == computed
    )


def check_core_minor_sums(d: int, l: int) -> Verdict:
    """Size-(2l-1) principal minors of even_diameter_core(d,l): deletions
    touching a deep row vanish, the others match two closed forms, all
    nonzero minors share one sign, and their sum is nonzero."""
    if d < 2 or l < 2:
        raise ValueError("check_core_minor_sums requires d >= 2 and l >= 2")
    m = even_diameter_core(d, l)
    instance = f"core:d={d},l={l}"
    size = 2 * l + 1
    sign = (-1) ** (l - 2)
    mid_center_form = sign * 2 * d * (l - 1) * (l - 2) * (d + 1) ** (2 * (l - 1))
    mid_pair_form = sign * 4 * d**3 * (d + 1) ** (2 * (l - 2))

    minors_ok = True
    bad = ""
    signs = set()
    total = 0
    for i, j in itertools.combinations(range(size), 2):
        keep = [r for r in range(size) if r != i and r != j]
        minor = bareiss_det(m.submatrix(keep))
        total += minor
        if minor:
            signs.add(1 if minor > 0 else -1)
        if i < l or j < l:
            form = 0
        elif j == size - 1:
            form = mid_center_form
        else:
            form = mid_pair_form
        if minor != form:
            minors_ok = False
            if not bad:
                bad = f"deletion pair ({i},{j}): minor {minor} != {form}"

    expected = {
        "minor_sum": l * mid_center_form + (l * (l - 1) // 2) * mid_pair_form,
        "nonzero": True,
        "single_sign": True,
        "closed_forms": True,
    }
    computed = {
        "minor_sum": total,
        "nonzero": total != 0,
        "single_sign": len(signs) == 1,
        "closed_forms": minors_ok,
    }
    return _verdict(
        "core-minor-sums", instance, expected, computed, expected == computed, detail=bad
    )


def check_block_structure(f: TreeFacts) -> Verdict:
    """Every entry of the eccentricity matrix has its block-form value, by
    one rule for both diameter parities: the entry of u and v is
    min(ecc u, ecc v) when they lie in different branches (TreeMeta.branch)
    and one of them is peripheral (ecc = diameter), else 0. The matrix is
    built from the peripheral vertices' rows only, so the zero entries
    between two non-peripheral vertices hold by construction; the branch
    rule and every other entry are still tested."""
    diam = f.meta.diameter
    if diam < 3:
        raise ValueError("check_block_structure requires diameter >= 3")
    ecc = f.meta.ecc
    branch = f.meta.branch
    rows = f.matrix.rows
    mismatches = 0
    first = ""
    n = f.tree.n
    for u in range(n):
        for v in range(u + 1, n):
            if branch[u] != branch[v] and diam in (ecc[u], ecc[v]):
                want = min(ecc[u], ecc[v])
            else:
                want = 0
            if rows[u][v] != want:
                mismatches += 1
                if not first:
                    first = f"entry ({u},{v}) = {rows[u][v]}, predicted {want}"
    expected = {"mismatches": 0}
    computed = {"mismatches": mismatches}
    return _verdict(
        "block-structure", f.label, expected, computed, mismatches == 0, detail=first
    )


def check_diametrical(g: Graph, label: str | None = None) -> Verdict:
    """A diametrical graph's eccentricity matrix is a scaled symmetric
    permutation with spectrum +diam and -diam, each of multiplicity n/2."""
    ecc, rows = eccentricity_rows(g)
    pairing = diametrical_pairing(ecc, rows)
    if pairing is None:
        raise ValueError("graph is not diametrical")
    instance = label if label is not None else f"diametrical:n={g.n}"
    m = eccentricity_matrix(ecc, rows)
    diam = max(ecc)
    # on a symmetric matrix this makes the pairing an involution: row p(u)
    # holds diam at u, and only at p(p(u))
    paired = all(
        m.rows[u][v] == (diam if pairing[u] == v else 0) for u in range(g.n) for v in range(g.n)
    )
    closed_form = [float(diam)] * (g.n // 2) + [float(-diam)] * (g.n // 2)
    verdict = _closed_form_verdict("diametrical-spectrum", instance, m, closed_form, ok=paired)
    return replace(
        verdict,
        expected={"paired_form": True, "spectrum": closed_form},
        computed={"paired_form": paired, "spectrum": verdict.computed},
    )


def check_inertia_float_agreement(f: TreeFacts) -> Verdict:
    """Float inertia under the default zero band equals the exact inertia."""
    exact = f.inertia
    approx = inertia_float(f.eigenvalues, default_zero_tol(f.matrix))
    return _verdict(
        "inertia-float-agreement", f.label, exact, approx, exact == approx
    )


def check_odd_core_eigenvalues(d: int) -> Verdict:
    """odd_diameter_core(d) has the four closed-form eigenvalues
    +-(sqrt((2d+1)^2 + 16 d^2) +- (2d+1)) / 2."""
    if d < 1:
        raise ValueError("check_odd_core_eigenvalues requires d >= 1")
    root = math.sqrt((2 * d + 1) ** 2 + 16 * d * d)
    plus, minus = (root + (2 * d + 1)) / 2, (root - (2 * d + 1)) / 2
    # root > 2d+1, so the list is descending
    closed_form = [plus, minus, -minus, -plus]
    return _closed_form_verdict("odd-core-eigenvalues", f"odd-core:d={d}", odd_diameter_core(d), closed_form)


def tree_checks(f: TreeFacts) -> list:
    """All predicates applicable to one tree, in a fixed order."""
    n = f.tree.n
    diam = f.meta.diameter
    verdicts = [check_inertia(f), check_rank(f), check_symmetry(f)]
    if n >= 4:
        verdicts.append(check_distinct_counts(f))
    if diam >= 3:
        verdicts.append(check_block_structure(f))
    if n >= 4:
        verdicts.append(check_radius_bound(f))
        if diam % 2 == 1:
            verdicts.append(check_least_eigenvalue_bound(f))
    verdicts.append(check_inertia_float_agreement(f))
    return verdicts
