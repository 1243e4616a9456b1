"""The CLI invocations each benchmark round makes, derived from the seed.

A round is the unit a run repeats: one range invocation for the three
range workloads, and one seed-chosen sequence of single-graph reports for
dense-rank-spectra. Round r of seed s is the same on every machine, so the
worker that runs it and the checker that judges its output can both
rebuild it from (workload, seed, r).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("verify-exhaustive", "verify-sampled", "sweep-large", "dense-rank-spectra")

EXHAUSTIVE_RANGE = (2, 7)
SAMPLED_RANGE = (20, 40)
SAMPLED_SAMPLES = 2
SWEEP_RANGE = (40, 60)
SWEEP_SAMPLES = 1

# Rounds a traced run makes; fixed so that its counts repeat exactly.
TRACE_ROUNDS = {
    "verify-exhaustive": 1,
    "verify-sampled": 2,
    "sweep-large": 2,
    "dense-rank-spectra": 3,
}

# dense-rank-spectra asks for both reports on each of these 36 graphs, 72
# calls a round, in an order the seed shuffles. The set is the same in
# every round, so the latency quantiles do not depend on which sizes a seed
# happens to draw (char poly cost grows as n^4). star:n has rank n;
# spider:k,2 (n = 2k+1) has rank n-1; cycle:2k, cocktail:k and hypercube:d
# are diametrical and have rank n.
DENSE_PARAMS = {
    "star": range(9, 41, 4),  # n = 9..37
    "spider": range(5, 20, 2),  # k = 5..19, n = 11..39
    "cycle": range(5, 20, 2),  # cycle:2k, k = 5..19
    "cocktail": range(5, 20, 2),  # k = 5..19, n = 10..38
    "hypercube": (3, 4, 5, 6),  # n = 8, 16, 32, 64
}
DENSE_COMMANDS = ("spectrum", "inertia")


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what its output must show.

    `expect` describes the input the checker judges the output against;
    under --corrupt it deliberately differs from what `argv` asks for.
    """

    argv: tuple
    expect: dict
    instances: int


def range_seed(seed: int, r: int) -> int:
    """The --seed of round r: distinct rounds draw distinct trees."""
    return 1000 * seed + r


def _range_call(command: str, lo: int, hi: int, samples, seed, corrupt: bool) -> Call:
    argv = [command, "--n-from", str(lo), "--n-to", str(hi)]
    if samples is not None:
        argv += ["--samples", str(samples + (corrupt and command == "sweep")), "--seed", str(seed)]
    if corrupt and command == "verify":
        argv.append("--corrupt")
    orders = hi - lo + 1
    if samples is None:
        instances = sum(n ** (n - 2) for n in range(lo, hi + 1))
    else:
        instances = orders * samples
    expect = {"command": command, "n_from": lo, "n_to": hi, "samples": samples, "seed": seed}
    return Call(tuple(argv), expect, instances)


def _family_token(family: str, p: int) -> str:
    return f"spider:{p},2" if family == "spider" else f"{family}:{2 * p if family == 'cycle' else p}"


def _dense_round(seed: int, r: int, corrupt: bool) -> list:
    rng = random.Random(f"dense:{seed}:{r}")
    calls = []
    for family, params in DENSE_PARAMS.items():
        for p in params:
            # The corrupt control asks for the next smaller graph but judges
            # the output against the planned one.
            token = _family_token(family, p - 1 if corrupt else p)
            for command in DENSE_COMMANDS:
                expect = {"command": command, "family": family, "param": p}
                calls.append(Call((command, "--family", token), expect, 1))
    rng.shuffle(calls)
    return calls


def round_calls(workload: str, seed: int, r: int, corrupt: bool = False) -> list:
    """The calls of round r of `workload` under `seed`."""
    if workload == "verify-exhaustive":
        return [_range_call("verify", *EXHAUSTIVE_RANGE, None, None, corrupt)]
    if workload == "verify-sampled":
        return [_range_call("verify", *SAMPLED_RANGE, SAMPLED_SAMPLES, range_seed(seed, r), corrupt)]
    if workload == "sweep-large":
        return [_range_call("sweep", *SWEEP_RANGE, SWEEP_SAMPLES, range_seed(seed, r), corrupt)]
    if workload == "dense-rank-spectra":
        return _dense_round(seed, r, corrupt)
    raise ValueError(f"unknown workload {workload!r}")
