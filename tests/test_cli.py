import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import eccmat.cli
from eccmat import __version__
from eccmat.cli import main
from eccmat.families import parse_family, path
from eccmat.graphs import MAX_INPUT_BYTES, MAX_ORDER, to_edge_list

from _oracles import graph6_order, to_graph6


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrumCommand:
    def test_star_report(self, capsys):
        code, out, err = run(capsys, "spectrum", "--family", "star:5")
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["version"] == __version__
        assert report["instance"] == "star:5"
        assert report["n"] == 5 and report["diameter"] == 2
        assert report["char_poly"] == ["1", "0", "-28", "-88", "-96", "-32"]
        assert report["inertia"] == [1, 4, 0]
        assert report["rank"] == 5
        assert report["distinct_count"] == 3
        assert report["symmetric"] is False
        assert report["spectrum"]["multiplicities"] == [1, 1, 3]
        assert "matrix" not in report

    def test_path_report(self, capsys):
        code, out, err = run(capsys, "spectrum", "--family", "path:4")
        assert code == 0
        report = json.loads(out)
        assert report["symmetric"] is True
        assert report["inertia"] == [2, 2, 0]
        assert report["distinct_count"] == 4
        assert abs(report["spectral_radius"] - 4.0) < 1e-9
        assert abs(report["least_eigenvalue"] + 4.0) < 1e-9

    def test_one_run_per_exact_distinct_eigenvalue(self, capsys):
        for family in ("star:9", "spider:5,2", "cycle:10", "hypercube:3", "tndab:10,3,0,6"):
            _, out, _ = run(capsys, "spectrum", "--family", family)
            report = json.loads(out)
            mults = report["spectrum"]["multiplicities"]
            assert len(mults) == len(report["spectrum"]["values"]) == report["distinct_count"]
            assert sum(mults) == report["n"]

    def test_dump_matrix(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--family", "path:3", "--dump-matrix")
        assert code == 0
        report = json.loads(out)
        assert report["matrix"] == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--family", "star:5", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "field,value"
        assert any(ln.startswith("n,5") for ln in lines)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "spectrum", "--family", "star:5", "--output", str(target)
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["n"] == 5

    def test_config_echoes_arguments(self, capsys):
        _, out, _ = run(capsys, "spectrum", "--family", "star:5")
        config = json.loads(out)["config"]
        assert list(config) == ["command", "family", "input", "format"]
        assert config["family"] == "star:5"
        assert config["command"] == "spectrum"

    def test_cycle_input_works(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--family", "cycle:6")
        assert code == 0
        report = json.loads(out)
        assert report["diameter"] == 3
        assert report["inertia"] == [3, 3, 0]


class TestInertiaCommand:
    def test_spider(self, capsys):
        code, out, _ = run(capsys, "inertia", "--family", "spider:3,2")
        assert code == 0
        report = json.loads(out)
        assert report["inertia"] == [3, 3, 1]
        assert report["rank"] == 6
        assert "char_poly" not in report

    def test_no_characteristic_polynomial(self, capsys, monkeypatch):
        # inertia and rank come from the elimination alone
        def refuse(m):
            raise AssertionError("char_poly called")

        monkeypatch.setattr(eccmat.cli, "char_poly", refuse)
        for family, inertia in (("star:37", [1, 36, 0]), ("path:6", [2, 2, 2]), ("hypercube:4", [8, 8, 0])):
            code, out, err = run(capsys, "inertia", "--family", family)
            assert (code, err) == (0, "")
            assert json.loads(out)["inertia"] == inertia
        with pytest.raises(AssertionError, match="char_poly called"):
            main(["spectrum", "--family", "path:6"])

    def test_star_1000_under_a_second(self, capsys):
        # two twin classes, so the elimination is 2 x 2; eliminating the
        # whole matrix took minutes
        start = time.process_time()
        code, out, err = run(capsys, "inertia", "--family", "star:1000")
        elapsed = time.process_time() - start
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert (report["inertia"], report["rank"]) == ([1, 999, 0], 1000)
        assert elapsed < 1.0


def test_repeated_main_calls_match_fresh_processes(capsys, monkeypatch):
    # main() builds its parser once per process; each call must print and
    # return what the same call does alone in a fresh interpreter
    calls = [
        ["spectrum", "--bogus"],
        ["--version"],
        ["spectrum", "--family", "star:7"],
        ["inertia", "--family", "spider:3,2", "--format", "csv"],
        ["spectrum", "--family", "hypercube:3", "--dump-matrix"],
        ["inertia", "--family", "cycle:6"],
        ["inertia", "--family", "wheel:5"],
        ["verify"],
        ["spectrum", "--bogus"],
        ["inertia", "--family", "star:7", "--format", "csv", "--dump-matrix"],
    ]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to this width
    eccmat.cli.build_parser.cache_clear()
    together = [run(capsys, *argv) for argv in calls]
    assert eccmat.cli.build_parser.cache_info().misses == 1
    assert [code for code, _, _ in together] == [2, 0, 0, 0, 0, 0, 2, 2, 2, 0]
    assert together[0] == together[-2]
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=str(Path(eccmat.cli.__file__).parents[1]))
    for argv, got in zip(calls, together):
        proc = subprocess.run(
            [sys.executable, "-m", "eccmat", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == got, argv


class TestInputFiles:
    def test_edge_list_file(self, capsys, tmp_path):
        f = tmp_path / "p4.txt"
        f.write_text("# a path\n4 3\n0 1\n1 2\n2 3\n")
        code, out, _ = run(capsys, "spectrum", "--input", str(f))
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 4 and report["diameter"] == 3
        assert report["instance"] == f"input:{f}"

    def test_indented_comment_before_header(self, capsys, tmp_path):
        f = tmp_path / "p4.txt"
        f.write_text("  # my tree\n4 3\n0 1\n1 2\n2 3\n")
        code, out, err = run(capsys, "inertia", "--input", str(f))
        assert code == 0 and err == ""
        assert json.loads(out)["inertia"] == [2, 2, 0]

    def test_oversized_header_rejected(self, capsys, tmp_path):
        f = tmp_path / "huge.txt"
        f.write_text("1000000000 0\n")
        code, out, err = run(capsys, "inertia", "--input", str(f))
        assert code == 2 and out == "" and "exceeds the limit" in err

    def test_header_order_and_edge_count_rejected(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        for head in ("-3 7", "0 0", "5 -1"):
            f.write_text(f"{head}\n0 1\n")
            code, out, err = run(capsys, "inertia", "--input", str(f))
            assert (code, out) == (2, "")
            assert err == f"error: {f}: header '{head}' needs an order n >= 1 and an edge count m >= 0\n"

    def test_edge_count_above_the_simple_graph_bound_rejected(self, capsys, tmp_path):
        f = tmp_path / "k3.txt"
        f.write_text("3 4\n0 1\n0 2\n1 2\n0 1\n")
        code, out, err = run(capsys, "inertia", "--input", str(f))
        assert code == 2 and out == ""
        assert "a graph of order 3 has at most 3 edges; the header declares 4" in err

    def test_graph6_file(self, capsys, tmp_path):
        f = tmp_path / "p4.g6"
        f.write_text("Ch\n")
        code, out, _ = run(capsys, "spectrum", "--input", str(f))
        assert code == 0
        assert json.loads(out)["diameter"] == 3

    def test_graph6_long_header_file(self, capsys, tmp_path):
        f = tmp_path / "p63.g6"
        f.write_text(to_graph6(path(63)) + "\n")
        code, out, err = run(capsys, "inertia", "--input", str(f))
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["inertia"] == [2, 2, 59] and report["rank"] == 4

    @pytest.mark.parametrize(
        "text, message",
        [
            ("A_xyz\n", "graph6 body of order 2 has 4 characters; expected 1"),
            ("Bw\nCx\n", "graph6 input must hold one graph; found 2 data lines"),
            ("Ao\n", "graph6 padding bits after the 1 edge bits of order 2 must be zero"),
        ],
    )
    def test_graph6_file_read_strictly(self, capsys, tmp_path, text, message):
        f = tmp_path / "g.g6"
        f.write_text(text)
        code, out, err = run(capsys, "spectrum", "--input", str(f))
        assert (code, out, err) == (2, "", f"error: {f}: {message}\n")

    def test_oversized_graph6_rejected(self, capsys, tmp_path):
        f = tmp_path / "huge.g6"
        n = MAX_ORDER + 1
        f.write_text(graph6_order(n) + "\n")
        code, out, err = run(capsys, "inertia", "--input", str(f))
        assert code == 2 and out == ""
        assert err == f"error: {f}: order {n} exceeds the limit of {MAX_ORDER}\n"

    def test_empty_input_names_the_file(self, capsys, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_text("  # only a comment\n\n")
        code, out, err = run(capsys, "inertia", "--input", str(f))
        assert code == 2 and out == "" and err == f"error: {f}: empty input\n"

    def test_non_utf8_input_names_the_file(self, capsys, tmp_path):
        f = tmp_path / "latin1.txt"
        f.write_bytes(b"2 1\n0 1 # \xff\n")
        code, out, err = run(capsys, "inertia", "--input", str(f))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {f}: 'utf-8' codec can't decode byte 0xff")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "spectrum", "--input", "/nonexistent/g.txt")
        assert code == 2 and err.startswith("error:")

    def test_malformed_edge_list(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("4 2\n0 1\n")
        code, _, err = run(capsys, "spectrum", "--input", str(f))
        assert code == 2 and "error:" in err

    def test_disconnected_graph(self, capsys, tmp_path):
        f = tmp_path / "disc.txt"
        f.write_text("4 2\n0 1\n2 3\n")
        code, _, err = run(capsys, "spectrum", "--input", str(f))
        assert code == 2 and "error:" in err

    def test_input_size_cap(self, capsys, tmp_path):
        f = tmp_path / "big.txt"
        # one comment line of exactly the cap is read, and holds no graph
        f.write_bytes(b"#" * (MAX_INPUT_BYTES - 1) + b"\n")
        code, out, err = run(capsys, "inertia", "--input", str(f))
        assert (code, out, err) == (2, "", f"error: {f}: empty input\n")
        # one byte more is refused before it is parsed
        with open(f, "ab") as fh:
            fh.write(b"\n")
        assert f.stat().st_size == MAX_INPUT_BYTES + 1
        for command in ("inertia", "spectrum", "verify"):
            code, out, err = run(capsys, command, "--input", str(f))
            assert (code, out) == (2, "")
            assert err == f"error: {f}: input exceeds the limit of {MAX_INPUT_BYTES} bytes\n"

    def test_empty_file(self, capsys, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_text("\n")
        code, _, err = run(capsys, "spectrum", "--input", str(f))
        assert code == 2 and "error:" in err


def mutate(data: bytes, rng) -> bytes:
    """data after one to three random byte or line edits."""
    alphabet = b"0123456789 -#\n\r\t~?@_A^z\x00\xff"
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(data) + 1)
        lines = data.split(b"\n")
        line = rng.randrange(len(lines))
        data = rng.choice((
            lambda: data[:pos] + bytes([rng.choice(alphabet)]) + data[pos + 1:],
            lambda: data[:pos] + bytes([rng.choice(alphabet)]) + data[pos:],
            lambda: data[:pos] + data[pos + 1:],
            lambda: data[:pos],
            lambda: b"\n".join(lines[:line] + [lines[line]] + lines[line:]),
            lambda: b"\n".join(lines[:line] + lines[line + 1:]),
            lambda: b"\n".join(rng.sample(lines, len(lines))),
        ))()
    return data


def test_mutated_input_files_exit_cleanly(capsys, tmp_path):
    """Seeded random edits of valid edge-list and graph6 files: every
    command exits 0 or 2, writes nothing on stdout when it exits 2, and
    raises nothing."""
    graphs = [parse_family(t) for t in ("path:5", "star:6", "spider:3,2", "cycle:6", "hypercube:3")]
    seeds = [to_edge_list(g).encode() + b"\n" for g in graphs]
    seeds += [to_graph6(g).encode() + b"\n" for g in graphs]
    rng = random.Random(11)
    f = tmp_path / "fuzz.txt"
    codes = []
    for case in range(300):
        f.write_bytes(mutate(rng.choice(seeds), rng))
        for command in ("inertia", "spectrum", "verify"):
            code, out, _ = run(capsys, command, "--input", str(f))
            assert code in (0, 2), (case, f.read_bytes(), command)
            assert code == 0 or out == "", (case, f.read_bytes(), command)
            codes.append(code)
    assert codes.count(0) >= 100 and codes.count(2) >= 300


class TestArgumentErrors:
    def test_family_and_input_exclusive(self, capsys, tmp_path):
        f = tmp_path / "x.txt"
        f.write_text("2 1\n0 1\n")
        code, _, err = run(
            capsys, "spectrum", "--family", "star:5", "--input", str(f)
        )
        assert code == 2 and "exactly one" in err

    def test_neither_source(self, capsys):
        code, _, err = run(capsys, "spectrum")
        assert code == 2 and "exactly one" in err

    def test_oversized_family_rejected(self, capsys):
        code, out, err = run(capsys, "spectrum", "--family", "hypercube:20")
        assert code == 2 and out == "" and f"more than {MAX_ORDER}" in err

    def test_oversized_range_rejected(self, capsys):
        code, _, err = run(capsys, "sweep", "--n-from", "2", "--n-to", str(MAX_ORDER + 1))
        assert code == 2 and "at most" in err

    def test_reversed_range_rejected(self, capsys):
        for command in ("verify", "sweep"):
            code, out, err = run(capsys, command, "--n-from", "10", "--n-to", "5")
            assert (code, out) == (2, "")
            assert err == "error: --n-from 10 is greater than --n-to 5\n"

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "spectrum", "--family", "wheel:5")
        assert code == 2 and "unknown family" in err

    def test_no_subcommand(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(capsys, "spectrum", "--bogus")[0] == 2

    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.strip() == f"eccmat {__version__}"

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "verify", "--help")[0] == 0


class TestVerifyCommand:
    def test_single_tree(self, capsys):
        code, out, err = run(capsys, "verify", "--family", "path:6")
        assert code == 0 and err == ""
        lines = out.splitlines()
        header = json.loads(lines[0])
        assert header["version"] == __version__
        assert header["config"]["family"] == "path:6"
        verdicts = [json.loads(ln) for ln in lines[1:]]
        assert len(verdicts) == 8
        assert all(v["pass"] for v in verdicts)
        assert verdicts[0]["theorem_id"] == "tree-inertia"

    def test_single_diametrical_graph(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "hypercube:3")
        assert code == 0
        verdicts = [json.loads(ln) for ln in out.splitlines()[1:]]
        assert [v["theorem_id"] for v in verdicts] == ["diametrical-spectrum"]
        assert verdicts[0]["pass"]

    def test_non_diametrical_graph_errors(self, capsys):
        code, out, err = run(capsys, "verify", "--family", "cycle:5")
        assert code == 2 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("source", ["family", "input"])
    def test_single_vertex_writes_nothing(self, capsys, tmp_path, source):
        target = tmp_path / "k1.txt"
        target.write_text("1 0\n")
        argv = ("--family", "path:1") if source == "family" else ("--input", str(target))
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:")

    def test_range_small(self, capsys):
        code, out, err = run(capsys, "verify", "--n-from", "2", "--n-to", "4")
        assert code == 0 and err == ""
        lines = out.splitlines()
        verdicts = [json.loads(ln) for ln in lines[1:]]
        assert all(v["pass"] for v in verdicts)
        ids = {v["theorem_id"] for v in verdicts}
        # fixed battery plus star spectra plus per-tree checks
        assert "odd-core-eigenvalues" in ids
        assert "pair-block-inertia" in ids
        assert "core-minor-sums" in ids
        assert "diametrical-spectrum" in ids
        assert "star-spectrum" in ids
        assert "tree-inertia" in ids
        # n=2..4 is exhaustive: 1 + 3 + 16 trees
        assert sum(1 for v in verdicts if v["theorem_id"] == "tree-inertia") == 20

    def test_range_sampled_labels(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n-from", "9", "--n-to", "9",
            "--samples", "2", "--seed", "5",
        )
        assert code == 0
        labels = {
            json.loads(ln)["instance"]
            for ln in out.splitlines()[1:]
            if json.loads(ln)["theorem_id"] == "tree-inertia"
        }
        assert labels == {"random:n=9,i=0,seed=5", "random:n=9,i=1,seed=5"}

    def test_range_is_byte_deterministic(self, capsys):
        a = run(capsys, "verify", "--n-from", "2", "--n-to", "4")
        b = run(capsys, "verify", "--n-from", "2", "--n-to", "4")
        assert a == b

    def test_corrupt_single_fails(self, capsys):
        code, out, err = run(capsys, "verify", "--family", "path:4", "--corrupt")
        assert code == 1
        assert "FAILED" in err
        assert "instance serialization:" in err
        assert "0 1" in err  # edge list echoed for reproduction
        verdicts = [json.loads(ln) for ln in out.splitlines()[1:]]
        assert any(not v["pass"] for v in verdicts)

    def test_edge_list_built_only_on_failure(self, capsys, monkeypatch):
        built = []
        real = eccmat.cli.to_edge_list
        monkeypatch.setattr(eccmat.cli, "to_edge_list", lambda g: built.append(g) or real(g))
        assert run(capsys, "verify", "--n-from", "2", "--n-to", "5")[0] == 0
        assert built == []
        assert run(capsys, "verify", "--family", "path:6", "--corrupt")[0] == 1
        assert len(built) == 1

    def test_corrupt_range_fails(self, capsys):
        code, _, err = run(
            capsys, "verify", "--n-from", "4", "--n-to", "5",
            "--samples", "3", "--corrupt",
        )
        assert code == 1 and "FAILED" in err

    def test_corrupt_stops_at_first_failure(self, capsys):
        _, out, _ = run(capsys, "verify", "--family", "path:4", "--corrupt")
        verdicts = [json.loads(ln) for ln in out.splitlines()[1:]]
        assert sum(1 for v in verdicts if not v["pass"]) == 1
        assert verdicts[-1]["pass"] is False

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--family", "path:4", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == "theorem_id,instance,expected,computed,pass,detail"
        assert len(lines) == 2 + 8

    def test_range_and_source_exclusive(self, capsys):
        code, _, err = run(
            capsys, "verify", "--family", "path:4", "--n-from", "2", "--n-to", "3"
        )
        assert code == 2 and "either" in err

    def test_half_range_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--n-from", "3")
        assert code == 2 and "together" in err

    def test_range_floor_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--n-from", "1", "--n-to", "3")
        assert code == 2 and "at least 2" in err

    def test_no_command_takes_tolerances(self, capsys):
        for argv in (
            ("verify", "--family", "path:5", "--tol", "1e300"),
            ("spectrum", "--family", "star:5", "--tol", "1e-10"),
            ("spectrum", "--family", "star:5", "--group-tol", "1e-8"),
        ):
            code, out, _ = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
        _, out, _ = run(capsys, "verify", "--family", "path:5")
        assert "tol" not in json.loads(out.splitlines()[0])["config"]

    def test_samples_need_a_range(self, capsys):
        code, out, err = run(capsys, "verify", "--family", "star:5", "--samples", "3")
        assert (code, out) == (2, "")
        assert err == "error: --samples needs --n-from/--n-to\n"

    def test_seed_needs_a_range(self, capsys):
        for seed in ("5", "0"):
            code, out, err = run(capsys, "verify", "--family", "star:5", "--seed", seed)
            assert (code, out) == (2, "")
            assert err == "error: --seed needs --n-from/--n-to\n"

    def test_seed_needs_samples_on_an_enumerated_range(self, capsys):
        for command in ("verify", "sweep"):
            for seed in ("5", "0"):
                code, out, err = run(capsys, command, "--n-from", "2", "--n-to", "4", "--seed", seed)
                assert (code, out) == (2, ""), command
                assert err == "error: --seed needs --samples: every order up to 8 is enumerated\n"
            # without --seed the header still echoes seed 0
            code, out, _ = run(capsys, command, "--n-from", "2", "--n-to", "4")
            header = out.splitlines()[0] if command == "verify" else out
            assert code == 0 and json.loads(header)["config"]["seed"] == 0
            # --samples draws random trees at every order
            code, _, err = run(capsys, command, "--n-from", "2", "--n-to", "4", "--samples", "1", "--seed", "5")
            assert (code, err) == (0, ""), command
        # so does an order above 8 without it
        code, out, err = run(capsys, "sweep", "--n-from", "9", "--n-to", "9", "--seed", "5")
        assert (code, err) == (0, "") and json.loads(out)["config"]["seed"] == 5

    def test_zero_samples_rejected(self, capsys):
        code, _, err = run(
            capsys, "verify", "--n-from", "9", "--n-to", "9", "--samples", "0"
        )
        assert code == 2 and "at least 1" in err

    def test_verdicts_stream_before_the_run_ends(self, capsys, monkeypatch):
        _, want, _ = run(capsys, "verify", "--n-from", "4", "--n-to", "5")
        early = []
        real = eccmat.cli._range_instances

        def instances(args):
            early.append(capsys.readouterr().out)
            yield from real(args)

        monkeypatch.setattr(eccmat.cli, "_range_instances", instances)
        code, rest, _ = run(capsys, "verify", "--n-from", "4", "--n-to", "5")
        assert code == 0
        # header, fixed battery and star verdicts are out before the first tree
        assert len(early[0].splitlines()) == 1 + len(eccmat.cli._fixed_battery()) + 2
        assert early[0] + rest == want

    def test_broken_pipe_mid_stream_exits_1(self, monkeypatch):
        class Pipe(io.StringIO):
            writes = 0

            def write(self, text):
                if self.tell() > 4000:
                    raise BrokenPipeError
                Pipe.writes += 1
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", Pipe())
        assert main(["verify", "--n-from", "2", "--n-to", "6"]) == 1
        assert Pipe.writes > 1

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "verdicts.jsonl"
        for argv in (("--n-from", "2", "--n-to", "5"), ("--family", "path:4", "--corrupt")):
            want = run(capsys, "verify", *argv)
            code, out, err = run(capsys, "verify", *argv, "--output", str(target))
            assert (code, out, err) == (want[0], "", want[2])
            assert target.read_text() == want[1]


class TestSweepCommand:
    def test_exhaustive_small(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n-from", "6", "--n-to", "6")
        assert code == 0
        report = json.loads(out)
        rows = report["rows"]
        assert sum(r["count"] for r in rows) == 6 ** 4
        assert all(r["n"] == 6 for r in rows)
        odd = [r for r in rows if r["diameter_parity"] == "odd"]
        assert odd and all(r["inertia"] == [2, 2, 2] for r in odd)
        even = [r for r in rows if r["diameter_parity"] == "even"]
        assert even
        for r in even:
            # diameter 2 means a star; every other even row balances signs
            assert r["inertia"] == [1, 5, 0] or r["inertia"][0] == r["inertia"][1]

    def test_sampled_rows_sorted(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--n-from", "9", "--n-to", "11", "--samples", "8"
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        keys = [
            (r["n"], r["diameter_parity"], tuple(r["inertia"]), r["distinct_count"])
            for r in rows
        ]
        assert keys == sorted(keys)
        assert sum(r["count"] for r in rows) == 24

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--n-from", "5", "--n-to", "5", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,diameter_parity,n_plus,n_minus,n_zero,distinct_count,count"
        assert all(ln.startswith("5,") for ln in lines[1:])

    def test_deterministic(self, capsys):
        a = run(capsys, "sweep", "--n-from", "9", "--n-to", "9", "--samples", "5")
        b = run(capsys, "sweep", "--n-from", "9", "--n-to", "9", "--samples", "5")
        assert a == b

    def test_seed_changes_samples(self, capsys):
        a = run(capsys, "sweep", "--n-from", "12", "--n-to", "12", "--samples", "4",
                "--seed", "0")
        b = run(capsys, "sweep", "--n-from", "12", "--n-to", "12", "--samples", "4",
                "--seed", "1")
        # config line differs even if the histograms happen to agree
        assert a[1] != b[1]

    def test_requires_range(self, capsys):
        code, _, err = run(capsys, "sweep")
        assert code == 2 and "requires" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys, "sweep", "--n-from", "5", "--n-to", "5",
            "--format", "csv", "--output", str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("n,diameter_parity")


# sha256 of stdout, recorded before the exact layer was cut down to one
# matrix type, one elimination kernel and one report command; the entries
# from "sweep --n-from 40" on were recorded before the low-rank
# characteristic polynomial, and cover it (trees of order 40..60) and the
# full-rank fallback (hypercube:5, star:37). The three verify digests were
# recorded again when verify stopped echoing the tolerance flags it never
# used; only their header line changed. The eight graph keys were
# recorded again when spectrum lost --tol and --group-tol; only the two
# config keys left its reports. The characteristic polynomial's one route
# is pinned in all its forms: trees of order 40..60 run Berkowitz on the
# zero-block matrix of order their rank, star:37 on its 2 twin classes,
# hypercube:5 and cocktail:19 on n/2 classes, spider:3,2, which has no
# twins, on the zero-block matrix of order n - 1, and cycle:7, which has
# neither, on the whole matrix. The trees' digests were recorded under an
# earlier route that read the elimination's pivot block, and cycle:7 and
# cocktail:19 under a shifted low-rank route; no digest changed with
# either replacement. A key with a space is a command line; the eight
# reports of one graph are hashed together, in the loop order below.
GOLDEN_DIGESTS = {
    "verify --n-from 2 --n-to 6": "bc5ffbaeac1c3922a896705e4255f5218c54196147f736f1afd37e5f556bede4",
    "verify --n-from 9 --n-to 14 --samples 3 --seed 7": "5b61d14ba846423e12d1caf37cb671604894b859edb5f42b850b711c8752d43b",
    "sweep --n-from 4 --n-to 7": "a3035ad138684e917a0c9dfda0d3d5bfdfb05380bc6c91bd97c05dc903f00d44",
    "sweep --n-from 40 --n-to 60 --samples 1 --seed 3": "f45f5317de094f9589915200d4a84e132f2b0172234b9abff643d087eaaa0d71",
    "verify --n-from 40 --n-to 44 --samples 2 --seed 5": "b3eda64974718afb02c3d9dac8cfb2908ae3b06224d74b99ddc2f6e61265cc1d",
    "star:7": "204e19215f00ac3b5da71ebb3e06c502fec54e4c7d5787e7f0588744f23f767c",
    "spider:3,2": "fe326dc90659eb027b18e7f7c22ffe1b96ecdeadcee65692ee3518b12efc0910",
    "tndab:10,3,0,6": "1895f5c035be1a7d41451ca9cd19fd3919d7f78b1ecd6a8c3191eb7bac0b5c7b",
    "cycle:6": "e0a94a35165b7f2d81f34a209391c0393a2b55d24945244ae77f484c329f9635",
    "hypercube:3": "16b64b4f408e1aeb31f3f25ddab06cfe090f12405f263396dc1f21ad72912ab5",
    "cocktail:3": "3d193ef2b61834fbb6562fa4f7057f945cba37ca4fd7055f0680a13c6691ee83",
    "cycle:7": "dea1a3d1363fc90ad60a6492aae365ff0d54327fb76e3c1d8da8b316f9efdd50",
    "cocktail:19": "57438d0b394fb1347ab8af6e6ba28011dc291215372f4b388ee7b194b30321d0",
    "hypercube:5": "5c057409a76de4cc758be6570305582cedea974d362d6794e9ce0e96cc55460d",
    "star:37": "8ad6d025b4d8657ad52e6ef8ddfe4e1f5d44aae9cd54ebe7075734e4a84cbc04",
    "verify --family cycle:6": "2ca42d82222a7fcc2f74264e29d9b89bb7056e03d1461f5780d27d7e958e475e",
    "verify --family hypercube:3": "7a82e7bd07fb35e4fd2a23422b52706112bb31cb93d5dd9b1ecbec4c235ce795",
    "verify --family tndab:10,3,0,6": "1cba2f1b0c3709b375352d09eafc0e96e9d241059384a3e1d727c1072de4a28f",
    "verify --family path:4 --corrupt": "cd8ac9cbd8cc3456c5c465a0dc7cdfbf47a170c8502aab46818102ad14a1587e",
}

# Exit code and stderr sha256 of the golden runs that fail; every other
# run exits 0 with nothing on stderr.
GOLDEN_FAILURES = {
    "verify --family path:4 --corrupt": (1, "cc70d533f303c58049a7eca37cfdd17ce45f6ed386e1168f68696ea21ce930fb"),
}


def test_golden_output_digests(capsys):
    quiet = (0, hashlib.sha256(b"").hexdigest())

    def stdout(argv, status=quiet):
        code, out, err = run(capsys, *argv)
        assert (code, hashlib.sha256(err.encode()).hexdigest()) == status, argv
        return out.encode()

    got = {}
    for key in GOLDEN_DIGESTS:
        if " " in key:
            out = stdout(key.split(), GOLDEN_FAILURES.get(key, quiet))
            got[key] = hashlib.sha256(out).hexdigest()
            continue
        h = hashlib.sha256()
        for command in ("spectrum", "inertia"):
            for fmt in ("json", "csv"):
                for dump in ((), ("--dump-matrix",)):
                    h.update(stdout((command, "--family", key, "--format", fmt, *dump)))
        got[key] = h.hexdigest()
    assert got == GOLDEN_DIGESTS


@pytest.mark.skipif(shutil.which("eccmat") is None, reason="console script not on PATH")
class TestConsoleScript:
    def test_spectrum_smoke(self):
        proc = subprocess.run(
            ["eccmat", "spectrum", "--family", "star:5"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["inertia"] == [1, 4, 0]

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "eccmat", "--version"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"eccmat {__version__}"
