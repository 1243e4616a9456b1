"""Independent checks of eccmat's CLI output.

Nothing here imports eccmat. Trees are rebuilt from their labels with a
separate Pruefer decoder, and the expected inertia, rank, symmetry and
distinct counts come from diameter and branch structure alone (the paper's
theorems) or, for the single-graph reports, from closed-form
characteristic polynomials. So a wrong verdict that eccmat marks as
passing is still caught.

Each check returns (failed_instances, problems); problems are short
human-readable strings, at most a few per call.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import random
from collections import Counter

FLOAT_TOL = 1e-6
MAX_PROBLEMS = 5

BATTERY = (
    [("odd-core-eigenvalues", f"odd-core:d={d}") for d in range(1, 7)]
    + [("pair-block-inertia", f"pair-block:d={d},n={n}") for d in range(1, 4) for n in range(2, 5)]
    + [("core-minor-sums", f"core:d={d},l={l}") for d in range(2, 4) for l in range(2, 4)]
    + [("diametrical-spectrum", name) for name in ("cycle:4", "cycle:6", "hypercube:3", "cocktail:3")]
)


# ---------------------------------------------------------------- trees


def pruefer_adjacency(seq, n: int) -> list:
    """Adjacency lists of the tree with Pruefer sequence `seq`."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    adj = [[] for _ in range(n)]
    for x in seq:
        leaf = heapq.heappop(leaves)
        adj[leaf].append(x)
        adj[x].append(leaf)
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    adj[u].append(v)
    adj[v].append(u)
    return adj


def _bfs(adj, source: int) -> list:
    dist = [-1] * len(adj)
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def tree_shape(adj) -> tuple:
    """(n, diameter, l); l counts the center's branches reaching depth
    diameter/2, and is None unless the diameter is even and at least 4."""
    n = len(adj)
    d0 = _bfs(adj, 0)
    a = d0.index(max(d0))
    da = _bfs(adj, a)
    diam = max(da)
    if diam < 4 or diam % 2:
        return n, diam, None
    b = da.index(diam)
    db = _bfs(adj, b)
    half = diam // 2
    center = next(v for v in range(n) if da[v] == half and db[v] == half)
    dc = _bfs(adj, center)
    l = 0
    for v in adj[center]:
        # v's branch: vertices whose path to the center passes through v.
        dv = _bfs(adj, v)
        if any(dc[w] == half and dv[w] == half - 1 for w in range(n)):
            l += 1
    return n, diam, l


def expected_inertia(shape) -> tuple:
    n, diam, l = shape
    if diam <= 2:
        return (1, n - 1, 0)
    if diam % 2:
        return (2, 2, n - 4)
    return (l, l, n - 2 * l)


def range_trees(n_from: int, n_to: int, samples, seed) -> dict:
    """label -> shape for every tree a range invocation covers, using the
    CLI's labels and its per-instance seeds "{seed}:{n}:{i}"."""
    trees = {}
    for n in range(n_from, n_to + 1):
        if samples is None:
            for i, seq in enumerate(itertools.product(range(n), repeat=n - 2)):
                trees[f"pruefer:n={n},i={i}"] = tree_shape(pruefer_adjacency(seq, n))
        else:
            for i in range(samples):
                rng = random.Random(f"{seed}:{n}:{i}")
                seq = [rng.randrange(n) for _ in range(n - 2)]
                trees[f"random:n={n},i={i},seed={seed}"] = tree_shape(pruefer_adjacency(seq, n))
    return trees


def min_radius_bound(n: int) -> float:
    """The paper's lower bound on the spectral radius over trees of order n."""
    if n <= 15:
        q = 13 * n - 35
        return math.sqrt((q + math.sqrt(q * q - 64 * (n - 3))) / 2)
    if n % 2:
        return math.sqrt((16 * n - 21 + math.sqrt(800 * n - 1419)) / 2)
    return math.sqrt((16 * n - 21 + 5 * math.sqrt(32 * n - 67)) / 2)


def _tree_theorems(shape) -> list:
    n, diam, _ = shape
    ids = ["tree-inertia", "tree-rank", "spectrum-symmetry"]
    if n >= 4:
        ids.append("distinct-count")
    if diam >= 3:
        ids.append("block-structure")
    if n >= 4:
        ids.append("radius-lower-bound")
        if diam % 2:
            ids.append("least-eigenvalue-bound")
    ids.append("inertia-float-agreement")
    return ids


def _verdict_problem(v: dict, shape) -> str | None:
    """Why verdict v is wrong for a tree of this shape, or None."""
    if v.get("pass") is not True:
        return "verdict does not pass"
    n, diam, _ = shape
    tid, computed = v["theorem_id"], v["computed"]
    inertia = list(expected_inertia(shape))
    if tid in ("tree-inertia", "inertia-float-agreement"):
        ok = computed == inertia
    elif tid == "tree-rank":
        ok = computed == n - inertia[2]
    elif tid == "spectrum-symmetry":
        ok = computed.get("symmetric") == bool(diam % 2)
    elif tid == "distinct-count":
        if diam <= 2:
            ok = computed == 3
        elif diam % 2:
            ok = computed == (4 if n == 4 else 5)
        else:
            ok = computed >= 4
    elif tid == "block-structure":
        ok = computed == {"mismatches": 0}
    elif tid == "radius-lower-bound":
        ok = computed >= min_radius_bound(n) - 1e-9
    elif tid == "least-eigenvalue-bound":
        ok = computed <= -min_radius_bound(n) + 1e-9
    else:
        return f"unexpected theorem {tid}"
    return None if ok else f"computed {computed!r} contradicts the shape {shape}"


# ---------------------------------------------------------------- verify / sweep


def check_verify(expect: dict, rc: int, out: bytes, instances: int) -> tuple:
    problems = []
    if rc != 0:
        return instances, [f"exit code {rc}"]
    trees = range_trees(expect["n_from"], expect["n_to"], expect["samples"], expect["seed"])
    if len(trees) != instances:
        return instances, [f"{len(trees)} trees in range, {instances} expected"]
    lines = out.decode("utf-8").splitlines()
    try:
        header = json.loads(lines[0]) if lines else {}
    except ValueError:
        header = {}
    if header.get("config", {}).get("command") != "verify":
        return instances, ["missing verify header"]
    battery = Counter(BATTERY)
    battery.update(("star-spectrum", f"star:{n}") for n in range(max(3, expect["n_from"]), expect["n_to"] + 1))
    seen: dict = {}
    bad: set = set()
    for text in lines[1:]:
        try:
            v = json.loads(text)
        except ValueError:
            v = None
        if not isinstance(v, dict) or "theorem_id" not in v:
            return instances, [f"malformed verdict line {text!r:.100}"]
        label = v.get("instance")
        shape = trees.get(label)
        if shape is None:
            key = (v.get("theorem_id"), label)
            if battery[key] <= 0 or v.get("pass") is not True:
                problems.append(f"unexpected or failing verdict {key}")
            battery[key] -= 1
            continue
        seen.setdefault(label, []).append(v["theorem_id"])
        try:
            why = _verdict_problem(v, shape)
        except (KeyError, TypeError, AttributeError):
            why = f"malformed computed value {v.get('computed')!r:.100}"
        if why is not None:
            bad.add(label)
            if len(problems) < MAX_PROBLEMS:
                problems.append(f"{label} {v['theorem_id']}: {why}")
    missing = [key for key, left in battery.items() if left != 0]
    if missing:
        problems.append(f"battery verdicts missing or repeated: {missing[:3]}")
        return instances, problems
    for label, shape in trees.items():
        if seen.get(label) != _tree_theorems(shape):
            bad.add(label)
            if len(problems) < MAX_PROBLEMS:
                problems.append(f"{label}: verdicts {seen.get(label)} != {_tree_theorems(shape)}")
    return len(bad), problems


def check_sweep(expect: dict, rc: int, out: bytes, instances: int) -> tuple:
    if rc != 0:
        return instances, [f"exit code {rc}"]
    trees = range_trees(expect["n_from"], expect["n_to"], expect["samples"], expect["seed"])
    want = Counter()
    for n, diam, l in trees.values():
        want[(n, "odd" if diam % 2 else "even", expected_inertia((n, diam, l)))] += 1
    try:
        rows = json.loads(out)["rows"]
    except (ValueError, KeyError, TypeError):
        return instances, ["sweep output is not a JSON report with rows"]
    got = Counter()
    problems = []
    wrong = 0
    for row in rows:
        n, parity, count = row["n"], row["diameter_parity"], row["count"]
        inertia = tuple(row["inertia"])
        got[(n, parity, inertia)] += count
        distinct = row["distinct_count"]
        if parity == "odd":
            ok = inertia == (2, 2, n - 4) and distinct == (4 if n == 4 else 5)
        elif inertia == (1, n - 1, 0):
            ok = distinct == 3
        else:
            ok = distinct >= 4
        if not ok:
            wrong += count
            problems.append(f"row {row} breaks the parity rules")
    if sum(got.values()) != instances:
        problems.append(f"row counts sum to {sum(got.values())}, expected {instances}")
    missed = sum(max(0, c - got[key]) for key, c in want.items())
    if missed:
        problems.append(f"{missed} trees missing from their (n, parity, inertia) cell")
    failed = max(missed + wrong, abs(sum(got.values()) - instances))
    return min(instances, failed), problems[:MAX_PROBLEMS]


# ---------------------------------------------------------------- single-graph reports


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_pow(p, k):
    out = [1]
    for _ in range(k):
        out = _poly_mul(out, p)
    return out


def graph_facts(family: str, p: int) -> dict:
    """Closed forms for the dense-rank-spectra graphs (polynomials highest
    degree first)."""
    if family == "star":
        n = p
        s = math.sqrt(n * n - 3 * n + 3)
        poly = _poly_mul(_poly_pow([1, 2], n - 2), [1, -2 * (n - 2), -(n - 1)])
        values = [n - 2 + s, n - 2 - s] + [-2.0] * (n - 2)
        return {"token": f"star:{n}", "n": n, "diameter": 2, "inertia": [1, n - 1, 0],
                "poly": poly, "values": values, "symmetric": False}
    if family == "spider":
        k, n = p, 2 * p + 1
        r = math.sqrt(13 * (k - 1) ** 2 + 4 * k)
        poly = _poly_mul(
            [1, 0], _poly_mul(_poly_pow([1, 4, -9], k - 1), [1, -4 * (k - 1), -(9 * (k - 1) ** 2 + 4 * k)])
        )
        values = [0.0, 2 * (k - 1) + r, 2 * (k - 1) - r] + [-2 + math.sqrt(13), -2 - math.sqrt(13)] * (k - 1)
        return {"token": f"spider:{k},2", "n": n, "diameter": 4, "inertia": [k, k, 1],
                "poly": poly, "values": values, "symmetric": False}
    if family == "cycle":
        n, diam, token = 2 * p, p, f"cycle:{2 * p}"
    elif family == "cocktail":
        n, diam, token = 2 * p, 2, f"cocktail:{p}"
    elif family == "hypercube":
        n, diam, token = 2 ** p, p, f"hypercube:{p}"
    else:
        raise ValueError(f"no closed form for {family}")
    return {"token": token, "n": n, "diameter": diam, "inertia": [n // 2, n // 2, 0],
            "poly": _poly_pow([1, 0, -diam * diam], n // 2),
            "values": [float(diam)] * (n // 2) + [-float(diam)] * (n // 2), "symmetric": True}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_TOL * max(1.0, abs(b))


def _distinct(values) -> int:
    values = sorted(values)
    return 1 + sum(1 for a, b in zip(values, values[1:]) if not _close(a, b))


def check_report(expect: dict, rc: int, out: bytes) -> tuple:
    if rc != 0:
        return 1, [f"exit code {rc}"]
    facts = graph_facts(expect["family"], expect["param"])
    try:
        report = json.loads(out)
    except ValueError:
        return 1, ["report is not JSON"]
    n = facts["n"]
    want = {
        "instance": facts["token"],
        "n": n,
        "diameter": facts["diameter"],
        "inertia": facts["inertia"],
        "rank": n - facts["inertia"][2],
    }
    if expect["command"] == "spectrum":
        want["char_poly"] = [str(c) for c in facts["poly"]]
        want["distinct_count"] = _distinct(facts["values"])
        want["symmetric"] = facts["symmetric"]
    problems = [
        f"{facts['token']} {expect['command']}: {key} {report.get(key)!r} != {value!r}"
        for key, value in want.items()
        if report.get(key) != value
    ]
    if expect["command"] == "spectrum" and not problems:
        spec = report["spectrum"]
        got = sorted(
            v for v, m in zip(spec["values"], spec["multiplicities"]) for _ in range(m)
        )
        values = sorted(facts["values"])
        if len(got) != len(values) or not all(_close(a, b) for a, b in zip(got, values)):
            problems.append(f"{facts['token']}: spectrum {got} != {values}")
        if not _close(report["spectral_radius"], values[-1]) or not _close(report["least_eigenvalue"], values[0]):
            problems.append(f"{facts['token']}: extreme eigenvalues do not match")
    return (1 if problems else 0), problems[:MAX_PROBLEMS]


def check_call(expect: dict, rc: int, out: bytes, instances: int) -> tuple:
    """(failed instances, problems) for one call's exit code and stdout."""
    command = expect["command"]
    if command == "verify":
        return check_verify(expect, rc, out, instances)
    if command == "sweep":
        return check_sweep(expect, rc, out, instances)
    return check_report(expect, rc, out)
