import math
import random

import numpy as np
import pytest

from eccmat import spectra
from eccmat.checks import TreeFacts
from eccmat.exact import char_poly, distinct_count_exact
from eccmat.families import path, pruefer_random, star
from eccmat.matrices import SymMatrix
from eccmat.spectra import (
    JacobiConvergenceError,
    default_zero_tol,
    eigenvalues_sym,
    group_spectrum,
    inertia_float,
)

from _oracles import random_symmetric


class TestEigenvaluesSym:
    def test_matches_numpy(self):
        rng = random.Random(61)
        for n in range(1, 13):
            for _ in range(4):
                m = random_symmetric(n, rng)
                got = eigenvalues_sym(m)
                want = sorted(np.linalg.eigvalsh(np.array(m.rows, dtype=float)), reverse=True)
                scale = 1.0 + max(abs(v) for v in want)
                assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-9 * scale

    def test_descending(self):
        rng = random.Random(67)
        for _ in range(10):
            vals = eigenvalues_sym(random_symmetric(7, rng))
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_path_eigenvalues_are_plus_minus_one_four(self):
        vals = eigenvalues_sym(TreeFacts(path(4)).matrix)
        assert max(abs(a - b) for a, b in zip(vals, (4.0, 1.0, -1.0, -4.0))) < 1e-10

    def test_trivial_sizes(self):
        assert eigenvalues_sym(SymMatrix([[5]])) == [5.0]
        assert eigenvalues_sym(SymMatrix([[0]])) == [0.0]
        assert eigenvalues_sym(SymMatrix([[0, 0], [0, 0]])) == [0.0, 0.0]

    def test_sweep_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(spectra, "MAX_SWEEPS", 0)
        m = TreeFacts(path(4)).matrix
        with pytest.raises(JacobiConvergenceError) as err:
            eigenvalues_sym(m)
        assert err.value.off_norm > 0

    def test_zero_sweeps_fine_for_diagonal(self, monkeypatch):
        monkeypatch.setattr(spectra, "MAX_SWEEPS", 0)
        m = SymMatrix([[3, 0], [0, -1]])
        assert eigenvalues_sym(m) == [3.0, -1.0]

    def test_large_entry_spread(self):
        rows = [
            [10**9, 3, 0],
            [3, -(10**9), 7],
            [0, 7, 2],
        ]
        got = eigenvalues_sym(SymMatrix(rows))
        want = sorted(np.linalg.eigvalsh(np.array(rows, dtype=float)), reverse=True)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-6


class TestGroupSpectrum:
    def test_exact_duplicates(self):
        assert group_spectrum([4.0, -2.0, -2.0, -2.0], 2) == ((4.0, -2.0), (1, 3))

    def test_cluster_mean(self):
        values, mults = group_spectrum([1.0 + 4e-9, 1.0], 1)
        assert mults == (2,)
        assert abs(values[0] - (1.0 + 2e-9)) < 1e-15

    def test_chain_merges(self):
        # a chain of small gaps stays one run however wide it is in total
        vals = [1.0, 5e-9, 0.0, -5e-9, -1e-8]
        assert group_spectrum(vals, 2)[1] == (1, 4)

    def test_split_on_large_gap(self):
        assert group_spectrum([1.0, 0.5, 0.5 - 1e-9], 2)[1] == (1, 2)

    def test_count_cuts_the_largest_gaps(self):
        vals = [9.0, 8.0, 5.0, 4.5, 0.0, -0.5]
        assert group_spectrum(vals, 3)[1] == (2, 2, 2)
        assert group_spectrum(vals, 6)[1] == (1,) * 6

    def test_tie_goes_to_the_earlier_gap(self):
        assert group_spectrum([2.0, 1.0, 0.0], 2) == ((2.0, 0.5), (1, 2))

    def test_near_degenerate_pair_keeps_the_exact_count(self):
        # the two eigenvalues lie 1 apart, inside the 1e-8 * max|a| = 10.0
        # band that once merged float clusters
        m = SymMatrix([[10**9, 0], [0, 10**9 + 1]])
        count = distinct_count_exact(char_poly(m))
        assert count == 2
        assert group_spectrum(eigenvalues_sym(m), count)[1] == (1, 1)

    def test_rejects_ascending(self):
        with pytest.raises(ValueError):
            group_spectrum([0.0, 1.0], 1)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            group_spectrum([1.0], 0)

    def test_rejects_bad_count(self):
        for values, count in (([1.0], 0), ([1.0, 0.0], 3), ([1.0], -1)):
            with pytest.raises(ValueError, match="count must be between"):
                group_spectrum(values, count)
        with pytest.raises(ValueError, match="count must be 0"):
            group_spectrum([], 1)

    def test_empty(self):
        assert group_spectrum([], 0) == ((), ())


class TestExtremesAndInertia:
    def test_star_spectral_radius_closed_form(self):
        for n in (4, 5, 9, 12):
            rho = eigenvalues_sym(TreeFacts(star(n)).matrix)[0]
            want = (n - 2) + math.sqrt(n * n - 3 * n + 3)
            assert abs(rho - want) < 1e-9

    def test_least_eigenvalue(self):
        assert abs(eigenvalues_sym(TreeFacts(path(4)).matrix)[-1] + 4.0) < 1e-10

    def test_inertia_float_counts(self):
        inn = inertia_float([3.0, 1e-12, -1e-12, -2.0], 1e-8)
        assert tuple(inn) == (1, 1, 2)

    def test_inertia_float_band_edge_is_zero(self):
        inn = inertia_float([1e-8], 1e-8)
        assert tuple(inn) == (0, 0, 1)

    def test_inertia_float_rejects_negative_tol(self):
        with pytest.raises(ValueError):
            inertia_float([1.0], -1.0)

    def test_float_inertia_matches_exact_on_random_trees(self):
        for i in range(20):
            facts = TreeFacts(pruefer_random(11, f"spec:{i}"))
            vals = eigenvalues_sym(facts.matrix)
            got = inertia_float(vals, default_zero_tol(facts.matrix))
            assert tuple(got) == tuple(facts.inertia)


class TestDefaultTols:
    def test_zero_tol_scales_with_entries(self):
        m = TreeFacts(star(5)).matrix
        assert default_zero_tol(m) == 2e-8
