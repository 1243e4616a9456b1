"""Command-line interface: per-graph reports and batch verification runs.

Reports are deterministic for a fixed configuration and seed: no
timestamps, fixed field order, rows sorted before emission.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import sys

from . import __version__
from .checks import (
    TreeFacts,
    check_core_minor_sums,
    check_diametrical,
    check_odd_core_eigenvalues,
    check_pair_block_inertia,
    check_star_spectrum,
    tree_checks,
)
from .exact import char_poly, distinct_count_exact, inertia_of_matrix, spectrum_symmetric_exact
from .families import (
    diametrical_examples,
    enumerate_labeled_trees,
    parse_family,
    pruefer_random,
)
from .graphs import MAX_INPUT_BYTES, MAX_ORDER, Graph, Tree, eccentricity_rows, read_graph, to_edge_list
from .matrices import eccentricity_matrix
from .spectra import eigenvalues_sym, group_spectrum

DEFAULT_SAMPLES = 500
EXHAUSTIVE_LIMIT = 8


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and each main() call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="eccmat",
        description="Eccentricity-matrix spectra: per-graph reports and "
        "batch verification of the structural predicates.",
    )
    parser.add_argument("--version", action="version", version=f"eccmat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("--input", help="edge-list or graph6 file")
        p.add_argument(
            "--family",
            help="family token name:args, e.g. star:7, path:4, "
            "tndab:10,3,0,6, spider:3,2, cycle:6, hypercube:3, cocktail:3",
        )

    def add_range(p):
        p.add_argument("--n-from", type=int, help="first order of the range")
        p.add_argument("--n-to", type=int, help="last order of the range")
        p.add_argument(
            "--samples",
            type=int,
            help=f"random trees per order (default: exhaustive for n <= "
            f"{EXHAUSTIVE_LIMIT}, else {DEFAULT_SAMPLES})",
        )
        p.add_argument("--seed", type=int, help="base seed of the random trees (default 0)")

    def add_output(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", help="write the report here instead of stdout")

    for name, help_text in (
        ("spectrum", "full exact + float report for one graph"),
        ("inertia", "exact inertia and rank for one graph"),
    ):
        p_report = sub.add_parser(name, help=help_text)
        add_source(p_report)
        add_output(p_report)
        p_report.add_argument("--dump-matrix", action="store_true", help="also print the eccentricity matrix")

    p_ver = sub.add_parser("verify", help="run every applicable predicate; exit 1 on any failure")
    add_source(p_ver)
    add_range(p_ver)
    add_output(p_ver)
    p_ver.add_argument(
        "--corrupt", action="store_true",
        help="negative-control hook: perturb one matrix entry before checking",
    )

    p_sw = sub.add_parser("sweep", help="tabulate inertia patterns and distinct counts over a range")
    add_range(p_sw)
    add_output(p_sw)
    return parser


def _load_graph(args) -> tuple[Graph, str]:
    """Resolve --family/--input into a graph and an instance label."""
    if bool(args.family) == bool(args.input):
        raise ValueError("exactly one of --family or --input is required")
    if args.family:
        return parse_family(args.family), args.family
    try:
        with open(args.input, "rb") as fh:
            data = fh.read(MAX_INPUT_BYTES + 1)
        if len(data) > MAX_INPUT_BYTES:
            raise ValueError(f"input exceeds the limit of {MAX_INPUT_BYTES} bytes")
        return read_graph(data.decode("utf-8")), f"input:{args.input}"
    except ValueError as exc:  # a parse error, or UnicodeDecodeError
        raise ValueError(f"{args.input}: {exc}") from None


def _as_tree(g: Graph) -> Tree | None:
    if isinstance(g, Tree):
        return g
    if g.edge_count == g.n - 1:
        return Tree(g.n, g.edges())
    return None


def _open_output(output: str | None):
    """The --output file opened for writing, or stdout (left open)."""
    if output:
        return open(output, "w", encoding="utf-8")
    return contextlib.nullcontext(sys.stdout)


def _emit(args, report: dict, csv_rows) -> None:
    """Write report as indented JSON, or csv_rows as CSV, as --format asks."""
    with _open_output(args.output) as out:
        if args.format == "json":
            out.write(json.dumps(report, indent=2) + "\n")
        else:
            csv.writer(out, lineterminator="\n").writerows(csv_rows)


def _config(args, keys) -> dict:
    return {key: getattr(args, key.replace("-", "_")) for key in keys}


def cmd_report(args) -> int:
    """spectrum: the full exact + float report; inertia: inertia and rank."""
    g, label = _load_graph(args)
    full = args.command == "spectrum"
    ecc, rows = eccentricity_rows(g)
    matrix = eccentricity_matrix(ecc, rows)
    # the rank too reads the matrix's one elimination
    inertia = inertia_of_matrix(matrix)
    rank = g.n - inertia.n_zero
    report = {
        "version": __version__,
        "config": _config(args, ("command", "family", "input", "format")),
        "instance": label,
        "n": g.n,
        "diameter": max(ecc),
    }
    if full:
        poly = char_poly(matrix)
        values = eigenvalues_sym(matrix)
        # the exact count decides how many runs; the floats, where they split
        distinct = distinct_count_exact(poly)
        means, multiplicities = group_spectrum(values, distinct)
        report.update({
            "char_poly": poly.to_json(),
            "inertia": list(inertia),
            "rank": rank,
            "spectrum": {
                "values": list(means),
                "multiplicities": list(multiplicities),
            },
            "spectral_radius": values[0],
            "least_eigenvalue": values[-1],
            "distinct_count": distinct,
            "symmetric": spectrum_symmetric_exact(poly),
        })
    else:
        report.update({"inertia": list(inertia), "rank": rank})
    if args.dump_matrix:
        report["matrix"] = [list(row) for row in matrix.rows]
    # one "field,value" row per key; values other than strings as JSON
    csv_rows = (
        (key, value if isinstance(value, str) else json.dumps(value))
        for key, value in [("field", "value"), *report.items()]
    )
    _emit(args, report, csv_rows)
    return 0


def _range_instances(args):
    """Yield (label, tree) pairs for the configured order range."""
    for n in range(args.n_from, args.n_to + 1):
        samples = args.samples
        if samples is None and n <= EXHAUSTIVE_LIMIT:
            for i, t in enumerate(enumerate_labeled_trees(n)):
                yield f"pruefer:n={n},i={i}", t
            continue
        if samples is None:
            samples = DEFAULT_SAMPLES
        for i in range(samples):
            t = pruefer_random(n, f"{args.seed}:{n}:{i}")
            yield f"random:n={n},i={i},seed={args.seed}", t


def _validate_range(args) -> None:
    if (args.n_from is None) != (args.n_to is None):
        raise ValueError("--n-from and --n-to must be given together")
    if args.n_from is not None and args.n_from < 2:
        raise ValueError("--n-from must be at least 2")
    if args.n_from is not None and args.n_from > args.n_to:
        raise ValueError(f"--n-from {args.n_from} is greater than --n-to {args.n_to}")
    if args.n_to is not None and args.n_to > MAX_ORDER:
        raise ValueError(f"--n-to must be at most {MAX_ORDER}")
    if args.samples is not None and args.samples < 1:
        raise ValueError("--samples must be at least 1")
    # a range enumerated at every order draws nothing random
    enumerated = args.samples is None and args.n_to is not None and args.n_to <= EXHAUSTIVE_LIMIT
    if enumerated and args.seed is not None:
        raise ValueError(f"--seed needs --samples: every order up to {EXHAUSTIVE_LIMIT} is enumerated")
    args.seed = 0 if args.seed is None else args.seed


def _fixed_battery():
    """Instance-independent checks run once per batch verification."""
    verdicts = []
    for d in range(1, 7):
        verdicts.append(check_odd_core_eigenvalues(d))
    for d in range(1, 4):
        for n in range(2, 5):
            verdicts.append(check_pair_block_inertia(d, n))
    for d in range(2, 4):
        for l in range(2, 4):
            verdicts.append(check_core_minor_sums(d, l))
    for g, name in zip(diametrical_examples(), ("cycle:4", "cycle:6", "hypercube:3", "cocktail:3")):
        verdicts.append(check_diametrical(g, name))
    return verdicts


class _VerdictSink:
    """Writes each verdict line as it is produced; cmd_verify stops the
    batch at the first failure."""

    def __init__(self, fmt: str, header: dict, out):
        self.out = out
        self.csv = csv.writer(out, lineterminator="\n") if fmt == "csv" else None
        self.failed = None
        self.failed_serialization = None
        if self.csv is None:
            out.write(json.dumps(header) + "\n")
        else:
            out.write("# " + json.dumps(header) + "\n")
            self.csv.writerow(["theorem_id", "instance", "expected", "computed", "pass", "detail"])

    def add(self, verdict, graph: Graph | None = None) -> bool:
        """Write one verdict; the first failure keeps the failing graph's
        edge list (or the instance label when there is no graph)."""
        if self.csv is None:
            self.out.write(verdict.to_json() + "\n")
        else:
            self.csv.writerow(
                [
                    verdict.theorem_id,
                    verdict.instance,
                    json.dumps(verdict.expected),
                    json.dumps(verdict.computed),
                    verdict.passed,
                    verdict.detail,
                ]
            )
        if not verdict.passed:
            self.failed = verdict
            self.failed_serialization = to_edge_list(graph) if graph is not None else verdict.instance
        return verdict.passed


def _range_verdicts(args):
    """Yield the (verdict, graph) pairs of a range run in order: the fixed
    battery, the star spectra, then each tree's checks."""
    for verdict in _fixed_battery():
        yield verdict, None
    for n in range(max(args.n_from, 3), args.n_to + 1):
        yield check_star_spectrum(n), None
    for label, t in _range_instances(args):
        for verdict in tree_checks(TreeFacts(t, label, corrupt=args.corrupt)):
            yield verdict, t


def cmd_verify(args) -> int:
    single = args.family or args.input
    # before _validate_range resolves an absent seed to 0
    if single and args.n_from is None and args.seed is not None:
        raise ValueError("--seed needs --n-from/--n-to")
    _validate_range(args)
    if bool(single) == (args.n_from is not None):
        raise ValueError("verify needs either --family/--input or --n-from/--n-to")
    if single and args.samples is not None:
        raise ValueError("--samples needs --n-from/--n-to")
    if single:
        # The one instance is checked before the header is written, so input
        # that no check accepts (n < 2, a graph that is neither a tree nor
        # diametrical) exits 2 with nothing on stdout.
        g, label = _load_graph(args)
        t = _as_tree(g)
        if t is not None:
            pairs = [(v, t) for v in tree_checks(TreeFacts(t, label, corrupt=args.corrupt))]
        else:
            pairs = [(check_diametrical(g, label), g)]
    else:
        pairs = _range_verdicts(args)

    header = {
        "version": __version__,
        "config": _config(
            args,
            ("command", "family", "input", "n-from", "n-to", "samples", "seed",
             "format", "corrupt"),
        ),
    }
    with _open_output(args.output) as out:
        sink = _VerdictSink(args.format, header, out)
        for verdict, graph in pairs:
            if not sink.add(verdict, graph):
                break

    if sink.failed is not None:
        sys.stderr.write(f"FAILED {sink.failed.theorem_id} on {sink.failed.instance}\n")
        sys.stderr.write("instance serialization:\n" + sink.failed_serialization + "\n")
        return 1
    return 0


def cmd_sweep(args) -> int:
    _validate_range(args)
    if args.n_from is None:
        raise ValueError("sweep requires --n-from and --n-to")
    counts: dict = {}
    for _, t in _range_instances(args):
        facts = TreeFacts(t)
        inertia = facts.inertia
        parity = "odd" if facts.meta.diameter % 2 else "even"
        key = (t.n, parity, tuple(inertia), distinct_count_exact(facts.poly))
        counts[key] = counts.get(key, 0) + 1
    rows = [
        {
            "n": n,
            "diameter_parity": parity,
            "inertia": list(inertia),
            "distinct_count": distinct,
            "count": counts[(n, parity, inertia, distinct)],
        }
        for (n, parity, inertia, distinct) in sorted(counts)
    ]
    report = {
        "version": __version__,
        "config": _config(args, ("command", "n-from", "n-to", "samples", "seed", "format")),
        "rows": rows,
    }
    csv_rows = [
        ["n", "diameter_parity", "n_plus", "n_minus", "n_zero", "distinct_count", "count"],
        *([r["n"], r["diameter_parity"], *r["inertia"], r["distinct_count"], r["count"]] for r in rows),
    ]
    _emit(args, report, csv_rows)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        if args.command in ("spectrum", "inertia"):
            return cmd_report(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_sweep(args)
    except BrokenPipeError:
        # Downstream consumer closed the stream; success can't be certified.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 1
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
