"""End-to-end acceptance battery.

Each test covers one numbered criterion and prints a single pass/fail
line straight to the terminal (capture suspended) before asserting, so a
run always yields exactly one status line per criterion.
"""

import sys

import pytest

from eccmat import exact
from eccmat.checks import (
    TreeFacts,
    check_core_minor_sums,
    check_diametrical,
    check_odd_core_eigenvalues,
    check_pair_block_inertia,
    check_star_spectrum,
    min_radius_bound,
    min_radius_tree,
    tree_checks,
)
from eccmat.cli import main as cli_main
from eccmat.exact import char_poly
from eccmat.families import (
    canonical_key,
    diametrical_examples,
    enumerate_labeled_trees,
    path,
    pruefer_random,
    spider,
    star,
)
from eccmat.graphs import distance_matrix
from eccmat.matrices import (
    deep_mid_block,
    eccentricity_matrix,
    even_diameter_core,
    odd_diameter_core,
)
from eccmat.spectra import eigenvalues_sym

from _oracles import char_poly_leverrier, principal_minor_sum

CORE_PREDICATES = (
    "tree-inertia",
    "tree-rank",
    "spectrum-symmetry",
    "distinct-count",
    "block-structure",
)
BOUND_PREDICATES = ("radius-lower-bound", "least-eigenvalue-bound")

# nonisomorphic trees on n vertices, used to validate shape deduplication
FREE_TREE_COUNTS = {4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}


def _report(cap, number: int, ok: bool, desc: str) -> None:
    line = f"acceptance {number:>2}: {'PASS' if ok else 'FAIL'} - {desc}\n"
    with cap.disabled():
        sys.stdout.write(line)
        sys.stdout.flush()


def _run_battery(instances, check_leverrier_upto: int):
    """Shared single pass: run every per-tree predicate and collect the
    per-criterion evidence (failures, low-order coefficients, char-poly
    route agreement). Every 5th tree of order above 12 is also checked
    against full-matrix Berkowitz, the route char_poly leaves for the pivot
    block when 2 rank <= n."""
    out = {
        "total": 0,
        "failures": {},       # theorem_id -> first few (label, detail)
        "coeff_bad": [],      # even-diameter trees breaking the low-coeff claim
        "even_seen": 0,
        "fl_checked": 0,
        "fl_bad": [],
        "bk_checked": 0,
        "bk_bad": [],
    }
    big = 0
    for label, t in instances:
        facts = TreeFacts(t, label)
        out["total"] += 1
        for v in tree_checks(facts):
            if not v.passed:
                bucket = out["failures"].setdefault(v.theorem_id, [])
                if len(bucket) < 3:
                    bucket.append((label, v.detail))
        if facts.meta.diameter % 2 == 0:
            out["even_seen"] += 1
            coeffs, zeros = facts.poly.stripped()
            if facts.meta.diameter >= 4:
                low_ok = (
                    zeros == t.n - 2 * facts.meta.distinguished_count
                    and len(coeffs) >= 2
                    and coeffs[-2] != 0
                )
            else:
                # diameter 2: full rank, so both lowest coefficients live
                # at the constant end
                low_ok = zeros == 0 and len(coeffs) >= 2 and coeffs[-2] != 0
            if not low_ok and len(out["coeff_bad"]) < 3:
                out["coeff_bad"].append(label)
        if t.n <= check_leverrier_upto:
            out["fl_checked"] += 1
            if char_poly_leverrier(facts.matrix).coeffs != facts.poly.coeffs:
                if len(out["fl_bad"]) < 3:
                    out["fl_bad"].append(label)
        if t.n > 12:
            big += 1
            if big % 5 == 0:
                out["bk_checked"] += 1
                if tuple(exact._berkowitz(facts.matrix.rows)) != facts.poly.coeffs:
                    if len(out["bk_bad"]) < 3:
                        out["bk_bad"].append(label)
    return out


@pytest.fixture(scope="session")
def sweep_exhaustive():
    def instances():
        for n in range(2, 9):
            for i, t in enumerate(enumerate_labeled_trees(n)):
                yield f"pruefer:n={n},i={i}", t

    return _run_battery(instances(), check_leverrier_upto=12)


@pytest.fixture(scope="session")
def sweep_sampled():
    def instances():
        for n in range(9, 31):
            for i in range(500):
                yield f"random:n={n},i={i},seed=0", pruefer_random(n, f"0:{n}:{i}")

    return _run_battery(instances(), check_leverrier_upto=12)


def _core_failures(sweep):
    return {
        tid: bad for tid, bad in sweep["failures"].items() if tid in CORE_PREDICATES
    }


def test_criterion_1_exhaustive_sweep(capsys, sweep_exhaustive):
    bad = _core_failures(sweep_exhaustive)
    ok = sweep_exhaustive["total"] == 280392 and not bad
    _report(capsys, 1, ok, "inertia/rank/symmetry/distinct/block checks on all "
                   f"{sweep_exhaustive['total']} labeled trees, n = 2..8")
    assert sweep_exhaustive["total"] == 280392
    assert not bad, bad


def test_criterion_2_sampled_sweep(capsys, sweep_sampled):
    bad = _core_failures(sweep_sampled)
    float_bad = sweep_sampled["failures"].get("inertia-float-agreement", [])
    ok = sweep_sampled["total"] == 11000 and not bad and not float_bad
    _report(capsys, 2, ok, "same checks plus float/exact inertia agreement on "
                   "500 seeded trees per n, n = 9..30")
    assert sweep_sampled["total"] == 11000
    assert not bad, bad
    assert not float_bad, float_bad


def test_criterion_3_star_spectra(capsys):
    failed = []
    for n in range(3, 51):
        v = check_star_spectrum(n)
        if not v.passed:
            failed.append((n, v.detail))
    ok = not failed
    _report(capsys, 3, ok, "star spectra match the closed form within 1e-9, n = 3..50")
    assert ok, failed


def test_criterion_4_explicit_matrices(capsys):
    failed = []
    for d in range(1, 7):
        v = check_odd_core_eigenvalues(d)
        if not v.passed:
            failed.append((f"odd-core d={d}", v.detail))
    for d in range(1, 6):
        for n in range(2, 7):
            v = check_pair_block_inertia(d, n)
            if not v.passed:
                failed.append((f"pair-block d={d},n={n}", v.detail))
    ok = not failed
    _report(capsys, 4, ok, "odd-core eigenvalues (d = 1..6) and pair-block inertia "
                   "splitting (d = 1..5, n = 2..6)")
    assert ok, failed


def test_criterion_5_minor_sums(capsys):
    failed = []
    for d in range(2, 6):
        for l in range(2, 6):
            v = check_core_minor_sums(d, l)
            if not v.passed:
                failed.append((f"core d={d},l={l}", v.detail))
    ok = not failed
    _report(capsys, 5, ok, "even-core principal minor sums: nonzero, single-signed, "
                   "closed forms exact (d = 2..5, l = 2..5)")
    assert ok, failed


def _exhaustive_shape_minimum(n):
    reps = {}
    for t in enumerate_labeled_trees(n):
        key = canonical_key(t)
        if key not in reps:
            reps[key] = t
    radii = {
        key: eigenvalues_sym(TreeFacts(t).matrix)[0] for key, t in reps.items()
    }
    argmin = min(radii, key=radii.get)
    return len(reps), radii, argmin


def test_criterion_6_extremal_bounds(capsys, sweep_exhaustive, sweep_sampled):
    problems = []
    for n in range(4, 25):
        facts = TreeFacts(min_radius_tree(n))
        bound = min_radius_bound(n)
        if abs(facts.eigenvalues[0] - bound) > 1e-9:
            problems.append(f"largest eigenvalue off the bound at n={n}")
        if abs(facts.eigenvalues[-1] + bound) > 1e-9:
            problems.append(f"least eigenvalue off the negated bound at n={n}")

    for name, sweep in (("exhaustive", sweep_exhaustive), ("sampled", sweep_sampled)):
        for tid in BOUND_PREDICATES:
            if sweep["failures"].get(tid):
                problems.append(f"{tid} violated in the {name} sweep: "
                                f"{sweep['failures'][tid]}")

    for n in range(4, 10):
        shapes, radii, argmin = _exhaustive_shape_minimum(n)
        bound = min_radius_bound(n)
        if shapes != FREE_TREE_COUNTS[n]:
            problems.append(f"shape census mismatch at n={n}: {shapes}")
        if argmin != canonical_key(min_radius_tree(n)):
            problems.append(f"minimum attained off the stated family at n={n}")
        if abs(radii[argmin] - bound) > 1e-9:
            problems.append(f"minimum differs from the bound at n={n}")
        if any(r < bound - 1e-9 for r in radii.values()):
            problems.append(f"some shape dips below the bound at n={n}")

    ok = not problems
    _report(capsys, 6, ok, "extremal trees attain both bounds within 1e-9; all swept "
                   "trees respect them; minimality exhaustive for n <= 9")
    assert ok, problems


def test_criterion_7_low_order_coefficients(capsys, sweep_exhaustive, sweep_sampled):
    bad = sweep_exhaustive["coeff_bad"] + sweep_sampled["coeff_bad"]
    seen = sweep_exhaustive["even_seen"] + sweep_sampled["even_seen"]
    ok = not bad and seen > 0
    _report(capsys, 7, ok, "every even-diameter swept tree has nonzero consecutive "
                   f"low-order coefficients ({seen} trees inspected)")
    assert seen > 0
    assert not bad, bad


def test_criterion_8_diametrical_graphs(capsys):
    failed = []
    for g, name in zip(diametrical_examples(),
                       ("cycle:4", "cycle:6", "hypercube:3", "cocktail:3")):
        v = check_diametrical(g, name)
        if not v.passed:
            failed.append((name, v.detail))
    ok = not failed
    _report(capsys, 8, ok, "the four diametrical graphs have the half-positive, "
                   "half-negative two-value spectrum and the exact block form")
    assert ok, failed


def _fixed_matrix_pool():
    pool = []
    for d in range(1, 7):
        pool.append((f"odd-core:d={d}", odd_diameter_core(d)))
    for d in range(1, 6):
        for n in range(2, 7):
            pool.append((f"pair-block:d={d},n={n}", deep_mid_block(d, n)))
    for d in range(2, 6):
        for l in range(2, 6):
            pool.append((f"even-core:d={d},l={l}", even_diameter_core(d, l)))
    for g, name in zip(diametrical_examples(),
                       ("cycle:4", "cycle:6", "hypercube:3", "cocktail:3")):
        pool.append((name, eccentricity_matrix(distance_matrix(g))))
    for n in range(3, 13):
        pool.append((f"star:{n}", eccentricity_matrix(distance_matrix(star(n)))))
    for n in range(2, 13):
        pool.append((f"path:{n}", eccentricity_matrix(distance_matrix(path(n)))))
    for n in range(4, 13):
        pool.append((f"extremal:{n}", eccentricity_matrix(distance_matrix(min_radius_tree(n)))))
    pool.append(("spider:3,2", eccentricity_matrix(distance_matrix(spider(3, 2)))))
    for n in range(7, 13):
        for i in range(10):
            t = pruefer_random(n, f"crit9:{n}:{i}")
            pool.append((f"random:n={n},i={i}", eccentricity_matrix(distance_matrix(t))))
    return [(label, m) for label, m in pool if m.n <= 12]


def test_criterion_9_char_poly_routes(capsys, sweep_exhaustive, sweep_sampled):
    problems = []

    # the two division-free routes agree on every swept matrix of order <= 12
    for name, sweep in (("exhaustive", sweep_exhaustive), ("sampled", sweep_sampled)):
        if sweep["fl_bad"]:
            problems.append(f"route mismatch in the {name} sweep: {sweep['fl_bad']}")
    fl_total = sweep_exhaustive["fl_checked"] + sweep_sampled["fl_checked"]
    # the pivot-block route agrees with full-matrix Berkowitz above order 12
    if sweep_sampled["bk_bad"]:
        problems.append(f"pivot-block route mismatch: {sweep_sampled['bk_bad']}")
    if sweep_sampled["bk_checked"] != 18 * 500 // 5:
        problems.append(f"only {sweep_sampled['bk_checked']} trees checked against Berkowitz")

    # coefficients equal signed principal-minor sums on the fixed pool,
    # every tree matrix up to order 6, and sampled orders 7..12
    pool = _fixed_matrix_pool()
    for n in range(2, 7):
        for i, t in enumerate(enumerate_labeled_trees(n)):
            pool.append((f"pruefer:n={n},i={i}", eccentricity_matrix(distance_matrix(t))))
    for label, m in pool:
        coeffs = char_poly(m).coeffs
        if char_poly_leverrier(m).coeffs != coeffs:
            problems.append(f"route mismatch on {label}")
            continue
        for k in range(m.n + 1):
            if coeffs[k] != (-1) ** k * principal_minor_sum(m, k):
                problems.append(f"minor-sum mismatch on {label} at k={k}")
                break

    ok = not problems
    _report(capsys, 9, ok, f"char-poly routes agree on {fl_total} swept matrices "
                   f"and {sweep_sampled['bk_checked']} trees of order 13..30; "
                   f"coefficients equal signed minor sums on {len(pool)} matrices")
    assert ok, problems


def test_criterion_10_negative_control(capsys):
    code = cli_main(["verify", "--family", "path:4", "--corrupt"])
    captured = capsys.readouterr()
    has_failing_verdict = '"pass": false' in captured.out
    ok = code == 1 and has_failing_verdict and "FAILED" in captured.err
    _report(capsys, 10, ok, "a corrupted instance yields a failing verdict and exit code 1")
    assert code == 1
    assert has_failing_verdict
    assert "FAILED" in captured.err
