"""Mutation probe: can the tests see a one-line fault in the verdict logic?

Each mutant replaces one line of src/eccmat (the old line must occur there
exactly once) in a temporary copy of src/, tests/ and the README (which
tests/test_readme.py reads), runs the tests outside test_acceptance.py
with -x, and prints whether a test failed (killed) or not (survived). An
equivalent mutant cannot change any verdict, so its survival is expected;
the probe exits 1 if any other mutant survives or an old line is no
longer found. The unmutated tests must pass, or every mutant reads as
killed.

Run from the repository root, with pytest installed:

    python tests/mutation_probe.py

It runs every mutant, two at a time, each with a 900 s limit (a mutant
that hits it counts as killed). It takes several minutes, so tier-1 does
not run it; pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JOBS = 2  # mutants tested at once
TIMEOUT = 900  # seconds per mutant

# (name, file under src/eccmat, old line, new line, equivalent); the lines
# are stripped of indentation, which the probe keeps
MUTANTS = [
    ("symmetry-ignores-witness", "checks.py",
     'passed = symmetric == odd and (odd or computed["witness"] != "absent")',
     "passed = symmetric == odd", False),
    ("distinct-count-accepts-3", "checks.py",
     "passed = computed >= 4",
     "passed = computed >= 3", False),
    ("bound-tolerance-1e-3", "checks.py",
     "passed = sign * value >= bound - FLOAT_TOL",
     "passed = sign * value >= bound - 1e-3", False),
    ("zero-band-1e4-wider", "spectra.py",
     "return 1e-8 * float(m.max_abs())",
     "return 1e-4 * float(m.max_abs())", False),
    ("diametrical-paired-entries-only", "checks.py",
     "m.rows[u][v] == (diam if pairing[u] == v else 0) for u in range(g.n) for v in range(g.n)",
     "m.rows[u][pairing[u]] == diam for u in range(g.n)", False),
    # implied: (n, n, 0) is (1, n - 1, 0) plus (n - 1, 1, 0), so the other
    # fields at their expected values make additive True
    ("pair-block-ignores-additive", "checks.py",
     "additive = total == tuple(x + y for x, y in zip(top, comp))",
     "additive = True", True),
    # implied: the minors equal to their closed forms share one sign
    ("core-minors-ignore-single-sign", "checks.py",
     '"single_sign": len(signs) == 1,',
     '"single_sign": True,', True),
    ("zero-block-corner-B-Bt", "exact.py",
     "[q[i][j] for j in rest] + [sum(q[i][w] * q[w][j] for w in block) for j in rest]",
     "[q[i][j] for j in rest] + [sum(q[i][w] * q[j][w] for w in block) for j in rest]", False),
    ("zero-block-no-pad", "exact.py",
     "poly = _berkowitz(top + bottom) + [0] * (len(block) - len(rest))",
     "poly = _berkowitz(top + bottom)", False),
    ("zero-block-nonzero-diagonal", "exact.py",
     "if not row[i] and not any(row[j] for j in block):",
     "if not any(row[j] for j in block):", False),
    ("berkowitz-drops-last-term", "exact.py",
     "if len(q) == r + 2:",
     "if len(q) == r + 1:", False),
    ("rank-reads-descartes", "checks.py",
     "computed = f.tree.n - f.minors.n_zero",
     "computed = f.tree.n - f.inertia.n_zero", False),
    ("minor-signs-from-the-polynomial", "checks.py",
     "return inertia_of_matrix(self.matrix)",
     "return inertia_exact(self.poly)", False),
    ("bareiss-two-by-two-pivot", "matrices.py",
     "prev = scale if i == j else scale // prev",
     "prev = scale", False),
    ("extremal-tolerance-1e-3", "checks.py",
     "passed = abs(value - target) <= FLOAT_TOL",
     "passed = abs(value - target) <= 1e-3", False),
    ("pair-block-always-passes", "checks.py",
     '"pair-block-inertia", instance, expected, computed, expected == computed',
     '"pair-block-inertia", instance, expected, computed, True', False),
    ("core-minors-ignore-closed-forms", "checks.py",
     "minors_ok = False",
     "minors_ok = True", False),
    # implied: the sum follows when every minor equals its closed form, and
    # closed_forms fails the verdict otherwise
    ("core-minors-report-expected-sum", "checks.py",
     '"minor_sum": total,',
     '"minor_sum": l * mid_center_form + (l * (l - 1) // 2) * mid_pair_form,', True),
    ("inertia-drops-twin-signs", "exact.py",
     "plus, minus = plus + (s - 1) * (d > b), minus + (s - 1) * (d < b)",
     "plus, minus = plus, minus", False),
]


def run_mutant(mutant):
    name, module, old, new, _ = mutant
    with tempfile.TemporaryDirectory(prefix="eccmat-mutant-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", work / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "README.md", work / "README.md")
        target = work / "src" / "eccmat" / module
        lines = target.read_text(encoding="utf-8").split("\n")
        hits = [i for i, line in enumerate(lines) if line.strip() == old]
        if len(hits) != 1:
            return "stale", f"old line found {len(hits)} times"
        line = lines[hits[0]]
        lines[hits[0]] = line[: len(line) - len(line.lstrip())] + new
        target.write_text("\n".join(lines), encoding="utf-8")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--ignore=tests/test_acceptance.py", "tests"]
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "killed", "timeout"
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        return ("survived" if proc.returncode == 0 else "killed"), last


def main() -> int:
    start = time.monotonic()
    with ThreadPoolExecutor(JOBS) as pool:
        results = list(pool.map(run_mutant, MUTANTS))
    bad = 0
    for (name, module, _, _, equivalent), (status, last) in zip(MUTANTS, results):
        note = " (equivalent)" if equivalent else ""
        print(f"{status:8} {module:12} {name}{note}: {last}")
        bad += status == "stale" or (status == "survived" and not equivalent)
    killed = sum(status == "killed" for status, _ in results)
    print(f"{killed} of {len(MUTANTS)} killed, {bad} unexpected, in {time.monotonic() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
