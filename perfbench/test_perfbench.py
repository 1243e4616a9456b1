"""Tests of the benchmark itself: its checker, its tracer and the --corrupt
negative control, which proves that a wrong run is reported as failed.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
from tracer import Tracer  # noqa: E402


def _bench(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, timeout=300,
    )
    lines = proc.stdout.decode().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def _eccmat(*argv) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "eccmat", *argv], env=env, capture_output=True, timeout=120, check=True
    )
    return proc.stdout


def test_clean_run_is_correct():
    code, result = _bench("--workload", "verify-sampled", "--seed", "3", "--seconds", "0.1")
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2 * 42
    assert set(result["metrics"]) >= {"setup_s", "wall_s", "instances_per_s", "peak_rss_mb"}


@pytest.mark.parametrize("workload", ["verify-sampled", "sweep-large", "dense-rank-spectra"])
def test_corrupt_run_is_reported_failed(workload):
    code, result = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--corrupt")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_missing_source_exits_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    code, result = _bench("--workload", "verify-sampled", "--seed", "1", "--seconds", "1", root=tmp_path)
    assert code != 0 and result is None


EXPECT_N4 = {"command": "verify", "n_from": 4, "n_to": 4, "samples": None, "seed": None}


def _rewrite(out: bytes, edit) -> bytes:
    lines = out.decode().splitlines()
    for i, text in enumerate(lines[1:], 1):
        v = json.loads(text)
        if v["instance"] == "pruefer:n=4,i=0" and v["theorem_id"] == "tree-inertia":
            edited = edit(v)
            lines[i] = json.dumps(edited) if edited is not None else None
            break
    return "".join(line + "\n" for line in lines if line is not None).encode()


def test_checker_accepts_eccmat_verify_output():
    out = _eccmat("verify", "--n-from", "4", "--n-to", "4")
    assert checker.check_call(EXPECT_N4, 0, out, 16) == (0, [])


@pytest.mark.parametrize(
    "edit",
    [
        lambda v: {**v, "computed": [2, 2, 0], "expected": [2, 2, 0]},  # wrong, yet "pass"
        lambda v: {**v, "pass": False},
        lambda v: None,  # a verdict goes missing
    ],
)
def test_checker_rejects_a_wrong_verdict(edit):
    out = _rewrite(_eccmat("verify", "--n-from", "4", "--n-to", "4"), edit)
    failed, problems = checker.check_call(EXPECT_N4, 0, out, 16)
    assert failed == 1 and problems


def test_checker_counts_a_nonzero_exit_as_all_failed():
    assert checker.check_call(EXPECT_N4, 1, b"", 16)[0] == 16


@pytest.mark.parametrize(
    "family,param", [("star", 6), ("spider", 3), ("cycle", 3), ("cocktail", 4), ("hypercube", 3)]
)
def test_closed_forms_match_eccmat_reports(family, param):
    token = checker.graph_facts(family, param)["token"]
    for command in ("spectrum", "inertia"):
        expect = {"command": command, "family": family, "param": param}
        assert checker.check_call(expect, 0, _eccmat(command, "--family", token), 1) == (0, [])


def test_tracer_self_time_excludes_children():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        traced_inner()

    traced_inner = tracer.wrap("x.inner", inner)
    tracer.wrap("x.outer", outer)()
    spans = tracer.aggregate()
    assert spans["x.inner"]["calls"] == spans["x.outer"]["calls"] == 1
    assert 0.01 <= spans["x.outer"]["self_ns"] / 1e9 < 0.02
    assert spans["x.inner"]["self_ns"] / 1e9 >= 0.02
    assert list(tracer.parent) == [-1, 0]
