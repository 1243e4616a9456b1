"""Benchmark worker: one fresh process that runs rounds of eccmat CLI calls.

Usage: python3 worker.py '<json config>'. The process imports eccmat,
prints "ready" on stdout (the parent times set-up up to that line), runs
the configured rounds with eccmat's stdout and stderr sent to files, and
prints one JSON line of results. A config with "probe": true stops after
"ready".
"""

from __future__ import annotations

import json
import resource
import sys
import time

import eccmat.cli  # set-up ends once the CLI and its layers are imported


def _run(cfg: dict) -> dict:
    import io
    import itertools
    import traceback

    from speed import Speedometer
    from tracer import Tracer
    from workloads import round_calls

    tracer = None
    if cfg.get("trace"):
        tracer = Tracer()
        tracer.install()
    main = eccmat.cli.main

    result_stream = sys.stdout
    out = open(cfg["stdout_path"], "wb")
    err = open(cfg["stderr_path"], "wb")
    sys.stdout = io.TextIOWrapper(out, encoding="utf-8", newline="\n")
    sys.stderr = io.TextIOWrapper(err, encoding="utf-8", newline="\n")
    clock = time.perf_counter_ns
    budget_ns = int(cfg.get("seconds", 0) * 1e9)
    wanted = cfg.get("rounds")
    rounds = []
    speedometer = Speedometer()
    speedometer.start()
    began = clock()
    order = itertools.chain(cfg.get("prefix", []), itertools.count(cfg.get("start", 0)))
    try:
        for r in order:
            if wanted is not None and len(rounds) >= wanted:
                break
            if wanted is None and rounds and clock() - began >= budget_ns:
                break
            calls = round_calls(cfg["workload"], cfg["seed"], r, cfg.get("corrupt", False))
            records = []
            round_mark = speedometer.mark()
            t_round = clock()
            for call in calls:
                out_at, err_at = out.tell(), err.tell()
                if tracer is not None:
                    tracer.new_instance()
                call_mark = speedometer.mark()
                t0 = clock()
                try:
                    rc = main(list(call.argv))
                except Exception:  # a crash is a failed call, not a benchmark crash
                    traceback.print_exc(file=sys.stderr)
                    rc = -1
                sys.stdout.flush()
                sys.stderr.flush()
                t1 = clock()
                after = speedometer.mark()
                records.append(
                    {
                        "rc": rc,
                        "ns": t1 - t0 - (after[1] - call_mark[1]),
                        "samples": [call_mark[0], after[0]],
                        "out": [out_at, out.tell()],
                        "err": [err_at, err.tell()],
                    }
                )
            wall_ns = clock() - t_round
            end_mark = speedometer.mark()
            rounds.append(
                {
                    "index": r,
                    "ns": wall_ns - (end_mark[1] - round_mark[1]),
                    "samples": [round_mark[0], end_mark[0]],
                    "calls": records,
                }
            )
    finally:
        speedometer.stop()
        sys.stdout.close()
        sys.stderr.close()
        sys.stdout, sys.stderr = result_stream, sys.__stderr__
    result = {
        "rounds": rounds,
        "speeds": list(speedometer.speeds),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["spans"] = tracer.aggregate()
        result["span_count"] = len(tracer.start)
        result["coeff_bits_max"] = tracer.coeff_bits_max
        tracer.write(cfg["trace_path"])
    return result


if __name__ == "__main__":
    print("ready", flush=True)
    config = json.loads(sys.argv[1])
    if not config.get("probe"):
        print(json.dumps(_run(config)), flush=True)
