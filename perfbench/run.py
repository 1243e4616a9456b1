"""eccmat benchmark: run one workload, check its output, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--corrupt]

Workloads are in workloads.py. Every CLI call runs in a fresh worker
process (worker.py) with one thread; this process only plans, times
set-up, checks outputs and reports.

--trace 0 measures set-up (median of fresh interpreter starts up to
"eccmat imported"), then runs rounds for --seconds seconds and reports the
end-to-end metrics. A second process re-runs round 0 and its stdout must
hash to the same sha256 (determinism check).

--trace 1 runs a fixed number of rounds twice, untraced and then with
every layer function wrapped in a span (tracer.py), and reports per-layer
self times and counts. Both outputs are checked and must hash the same.

--corrupt is the negative control: the calls are perturbed (a corrupted
matrix entry for verify, a mismatched input for sweep and the reports)
and the run must be reported as failed.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; a readable summary goes to stderr. Exit code 0 when
the output is correct, 1 when a check failed, 2 when the benchmark could
not run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checker import check_call  # noqa: E402
from speed import scaled_seconds, speed_now  # noqa: E402
from workloads import TRACE_ROUNDS, WORKLOADS, round_calls  # noqa: E402

SETUP_SAMPLES = 11
WORKER_TIMEOUT_S = 170
# Worker output goes to a directory of this run's own, removed at the end.
TMP_DIR = ROOT / ".perfbench_tmp" / str(os.getpid())
TRACE_DIR = ROOT / ".perfbench_traces"


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Every process gets its own hash seed, so the determinism check also
    # catches output that depends on set or dict-of-str iteration order.
    env["PYTHONHASHSEED"] = "random"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(config: dict, deadline: float) -> tuple:
    """Start a worker; return (seconds until it had imported eccmat, result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(config)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready != b"ready\n" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit code {proc.returncode})")
    if config.get("probe"):
        return setup, None
    return setup, json.loads(rest.splitlines()[-1])


def _worker_config(args, tag: str, **extra) -> dict:
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{tag}"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "corrupt": args.corrupt,
        "stdout_path": str(TMP_DIR / f"{stem}.out"),
        "stderr_path": str(TMP_DIR / f"{stem}.err"),
        **extra,
    }


class Outputs:
    """The calls a worker made, with their stdout and stderr bytes."""

    def __init__(self, args, config: dict, result: dict):
        self.rounds = result["rounds"]
        self.result = result
        out = Path(config["stdout_path"]).read_bytes()
        err = Path(config["stderr_path"]).read_bytes()
        self.calls = []
        self.round_instances = []
        for rnd in self.rounds:
            plan = round_calls(args.workload, args.seed, rnd["index"], args.corrupt)
            self.round_instances.append(sum(call.instances for call in plan))
            for j, (call, rec) in enumerate(zip(plan, rnd["calls"])):
                a, b = rec["out"]
                ea, eb = rec["err"]
                self.calls.append(((rnd["index"], j), call, rec, out[a:b], err[ea:eb]))
        self.output_bytes = len(out)
        Path(config["stdout_path"]).unlink()
        Path(config["stderr_path"]).unlink()

    @staticmethod
    def fingerprint(rec: dict, out: bytes) -> tuple:
        return rec["rc"], hashlib.sha256(out).hexdigest()

    def round_seconds(self) -> list:
        """Each round's time, scaled to the reference speed."""
        return [self.scaled(r) for r in self.rounds]

    def scaled(self, record: dict) -> float:
        """A round's or call's time in seconds, scaled to the reference speed."""
        return scaled_seconds(record["ns"], self.result["speeds"], *record["samples"])

    def speed(self) -> float:
        """The worker's mean speed relative to the reference."""
        speeds = self.result["speeds"]
        return scaled_seconds(10**9, speeds, 0, len(speeds))


def check_pair(first: Outputs, second: Outputs, what: str) -> tuple:
    """(attempted, failed, problems) over two workers' calls.

    A call the second worker repeats (same round, same position) must give
    the same exit code and the same stdout bytes (sha256) in the fresh
    process, and then shares the first call's check result. Every other
    call is checked on its own.
    """
    attempted = failed = 0
    problems = []
    seen = {}
    for key, call, rec, out, _ in first.calls:
        bad, why = check_call(call.expect, rec["rc"], out, call.instances)
        seen[key] = (Outputs.fingerprint(rec, out), bad)
        attempted += call.instances
        failed += bad
        problems.extend(why)
    for key, call, rec, out, _ in second.calls:
        attempted += call.instances
        if key not in seen:
            bad, why = check_call(call.expect, rec["rc"], out, call.instances)
            failed += bad
            problems.extend(why)
        elif seen[key][0] != Outputs.fingerprint(rec, out):
            failed += call.instances
            problems.append(f"stdout of `{' '.join(call.argv)}` differs between {what}")
        else:
            failed += seen[key][1]
    return attempted, failed, problems


def _quantile(values, q: float) -> float:
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def _timed_spawn(config: dict, deadline: float) -> tuple:
    """spawn(), with the set-up time scaled to the reference speed."""
    speed = speed_now()
    setup, result = spawn(config, deadline)
    return setup * speed, result


def untraced_run(args, deadline: float) -> tuple:
    spawn({"probe": True}, deadline)  # warm-up: byte-compiles a fresh checkout
    setups = [_timed_spawn({"probe": True}, deadline)[0] for _ in range(SETUP_SAMPLES)]
    workers = []
    for tag in ("a", "b"):
        # b repeats a's round 0, then goes on with rounds a did not reach.
        order = {"prefix": [0], "start": len(workers[0].rounds)} if workers else {}
        cfg = _worker_config(args, tag, seconds=args.seconds / 2, **order)
        setup, result = _timed_spawn(cfg, deadline)
        setups.append(setup)
        workers.append(Outputs(args, cfg, result))
    attempted, failed, problems = check_pair(*workers, "two processes")

    wall = [w for worker in workers for w in worker.round_seconds()]
    instances = sum(k for worker in workers for k in worker.round_instances)
    if args.workload == "dense-rank-spectra":
        latency = [
            1e3 * worker.scaled(rec) for worker in workers for rnd in worker.rounds for rec in rnd["calls"]
        ]
    else:
        # One sample per round: its time per tree.
        latency = [
            1e3 * w / k
            for worker in workers
            for w, k in zip(worker.round_seconds(), worker.round_instances)
        ]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(wall), "s"),
        "instances_per_s": (instances / sum(wall), "1/s"),
        "peak_rss_mb": (max(w.result["maxrss_kb"] for w in workers) / 1024, "MB"),
        "instance_p50_ms": (_quantile(latency, 0.5), "ms"),
        "instance_p90_ms": (_quantile(latency, 0.9), "ms"),
    }
    raw_wall = [r["ns"] / 1e9 for w in workers for r in w.rounds]
    notes = {
        "rounds": len(wall),
        "latency_samples": len(latency),
        "setup_samples": len(setups),
        "raw_wall_s_median": statistics.median(raw_wall),
        "speed": [w.speed() for w in workers],
    }
    return attempted, failed, problems, metrics, notes


# Per-layer metrics: span names whose self time (or call count) they sum.
SELF_TIMES = {
    "families.canonical_key_s": ("families.canonical_key",),
    "graphs.distance_matrix_s": ("graphs.distance_matrix", "graphs.bfs_distances"),
    "graphs.tree_meta_s": ("graphs.tree_meta",),
    "graphs.partition_s": ("graphs.partition_vertices", "graphs.diametrical_pairing"),
    "matrices.ecc_matrix_s": ("matrices.eccentricity_matrix",),
    "matrices.bareiss_det_s": ("matrices.bareiss_det", "matrices.principal_minor_sum"),
    "matrices.schur_complement_s": ("matrices.schur_complement",),
    "exact.char_poly_s": ("exact.char_poly",),
    "exact.rank_s": ("exact.rank_exact",),
    "exact.distinct_count_s": ("exact.distinct_count_exact", "exact.poly_gcd"),
    "exact.inertia_s": ("exact.inertia_exact", "exact.inertia_of_matrix", "exact.haynsworth_check"),
    "spectra.eigen_s": ("spectra.eigenvalues_sym",),
    "cli.serialize_s": ("cli._VerdictSink.add", "cli._VerdictSink.text", "cli._emit", "graphs.to_edge_list"),
}


def layer_metrics(spans: dict, speed: float, extra: dict) -> dict:
    """Per-layer metrics from span aggregates; times are scaled by `speed`
    (the traced worker's mean speed relative to the reference)."""

    def self_s(names):
        return speed * sum(spans.get(n, {}).get("self_ns", 0) for n in names) / 1e9

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    metrics = {key: (self_s(names), "s") for key, names in SELF_TIMES.items()}
    metrics["families.tree_gen_s"] = (
        self_s([n for n in spans if n.startswith("families.") and n != "families.canonical_key"]),
        "s",
    )
    metrics["families.trees_generated"] = (calls("families.pruefer_decode"), "count")
    poly_calls = calls("exact.char_poly")
    metrics["exact.char_poly_calls"] = (poly_calls, "count")
    metrics["exact.char_poly_ms_per_call"] = (
        1e3 * metrics["exact.char_poly_s"][0] / poly_calls if poly_calls else 0.0,
        "ms",
    )
    metrics["exact.coeff_bits_max"] = (extra["coeff_bits_max"], "bits")
    eigen_calls = calls("spectra.eigenvalues_sym")
    metrics["spectra.eigen_calls"] = (eigen_calls, "count")
    metrics["spectra.eigen_ms_per_call"] = (
        1e3 * metrics["spectra.eigen_s"][0] / eigen_calls if eigen_calls else 0.0,
        "ms",
    )
    metrics["checks.self_s"] = (self_s([n for n in spans if n.startswith("checks.")]), "s")
    metrics["checks.verdicts"] = (
        sum(v["calls"] for n, v in spans.items() if n.startswith("checks.check_")),
        "count",
    )
    built = calls("graphs.to_edge_list")
    metrics["cli.edge_lists_built"] = (built, "count")
    metrics["cli.edge_list_useful_ratio"] = (extra["edge_lists_printed"] / built if built else 0.0, "ratio")
    metrics["cli.output_bytes"] = (extra["output_bytes"], "bytes")
    return metrics


def traced_run(args, deadline: float) -> tuple:
    rounds = TRACE_ROUNDS[args.workload]
    plain_cfg = _worker_config(args, "untraced", rounds=rounds)
    plain = Outputs(args, plain_cfg, spawn(plain_cfg, deadline)[1])
    TRACE_DIR.mkdir(exist_ok=True)
    trace_path = TRACE_DIR / f"{args.workload}.tsv"
    traced_cfg = _worker_config(args, "traced", rounds=rounds, trace=True, trace_path=str(trace_path))
    traced = Outputs(args, traced_cfg, spawn(traced_cfg, deadline)[1])
    attempted, failed, problems = check_pair(plain, traced, "the untraced and traced runs")

    untraced_s = sum(plain.round_seconds())
    traced_s = sum(traced.round_seconds())
    printed = sum(err.count(b"instance serialization:") for *_, err in traced.calls)
    metrics = layer_metrics(
        traced.result["spans"],
        traced.speed(),
        {
            "coeff_bits_max": traced.result["coeff_bits_max"],
            "edge_lists_printed": printed,
            "output_bytes": traced.output_bytes,
        },
    )
    metrics["untraced_s"] = (untraced_s, "s")
    metrics["trace_overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    notes = {
        "rounds": rounds,
        "spans": traced.result["span_count"],
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    return attempted, failed, problems, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true", help="negative control: the run must fail")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "eccmat" / "cli.py").is_file():
        sys.stderr.write(f"error: no eccmat source under {ROOT / 'src'}\n")
        return 2
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        run = traced_run if args.trace else untraced_run
        attempted, failed, problems, metrics, notes = run(args, deadline)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        shutil.rmtree(TMP_DIR, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            TMP_DIR.parent.rmdir()
    failed = min(failed, attempted)
    correct = failed == 0 and not problems
    notes["failed_frac"] = failed / attempted
    for problem in problems[:10]:
        sys.stderr.write(f"check failed: {problem[:200]}\n")
    sys.stderr.write(f"{args.workload} seed={args.seed} trace={args.trace}: {json.dumps(notes)}\n")
    for name, (value, unit) in metrics.items():
        sys.stderr.write(f"  {name:32s} {value:14.6g} {unit}\n")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
