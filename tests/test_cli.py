import csv
import gc
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import netpos.cli
import netpos.partition
from netpos import (CONVENTIONS, DEFAULT_BIN_EDGES, DEFAULT_PAIR_CAP,
                    compute_measures, equitable_oracle, load_edge_list)
from netpos.cli import main
from netpos.partition import read_partition_file

from helpers import CliRunner, degree
from oracles import write_centrality_rows_ref

P4_EDGES = "a b\nb c\nc d\n"


@pytest.fixture
def runner():
    return CliRunner()


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_partition_p4(runner, tmp_path):
    edges = _write(tmp_path, "p4.edges", P4_EDGES)
    out = str(tmp_path / "p4.part")
    result = runner.invoke(main, ["partition", edges, "-e", "0", "-o", out])
    assert result.exit_code == 0, result.output
    lines = Path(out).read_text().splitlines()
    cells = [line for line in lines if not line.startswith("#")]
    assert len(cells) == 2  # the equitable oracle of a 4-path has two cells
    assert "algorithm=eep" in lines[0] and "graph_hash=sha256:" in lines[0]
    assert Path(out + ".labels").exists()
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    assert manifest["command"] == "partition"
    assert manifest["extra"]["iterations"] >= 1
    assert (manifest["extra"]["splits"], manifest["extra"]["fragments"]) == (1, 2)
    assert manifest["input_hashes"]["input"].startswith("sha256:")
    assert manifest["peak_rss_mb"] > 0


def test_partition_ep_oracle_matches_eps0_at_scale(runner, tmp_path):
    edges = str(tmp_path / "g.edges")
    result = runner.invoke(main, ["gen", "-n", "20000", "--gamma", "2.5",
                                  "--seed", "7", "-o", edges])
    assert result.exit_code == 0, result.output
    parts = []
    for name, args in (("oracle", ["--method", "ep-oracle"]), ("eep", ["-e", "0"])):
        out = str(tmp_path / f"{name}.part")
        result = runner.invoke(main, ["partition", edges, *args, "-o", out])
        assert result.exit_code == 0, result.output
        with open(out, encoding="utf-8") as fh:
            parts.append(read_partition_file(fh)[0].canonical())
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["peak_rss_mb"] > 0
    # both methods run the eps-0 refinement; the whole-graph colour
    # refinement is the independent check
    with open(edges, encoding="utf-8") as fh:
        graph, _ = load_edge_list(fh)
    oracle = equitable_oracle(graph)
    assert parts[0] == oracle and parts[1] == oracle and len(oracle) > 1000


def test_ep_oracle_records_the_epsilon_it_refines_at(runner, tmp_path):
    # -e 3 would merge the path's ends with its middle; ep-oracle refines at 0
    edges = _write(tmp_path, "p6.edges", "a b\nb c\nc d\nd e\ne f\n")
    bodies = []
    for name, args in (("oracle", ["--method", "ep-oracle", "-e", "3"]),
                       ("eep", ["-e", "0"])):
        out = str(tmp_path / f"{name}.part")
        result = runner.invoke(main, ["partition", edges, *args, "-o", out])
        assert result.exit_code == 0, result.output
        header, *body = Path(out).read_text().splitlines()
        assert "epsilon=0 " in header
        bodies.append(body)
    assert bodies[0] == bodies[1] and len(bodies[0]) == 3
    manifest = json.loads(Path(tmp_path / "oracle.part.manifest.json").read_text())
    assert manifest["options"]["epsilon"] == 3
    log = _write(tmp_path, "log.txt", "".join(
        f"{u} {w} 10\n" for u, w in ("ab", "bc", "cd", "de", "ef")))
    reports = []
    for name, args in (("oracle", ["--method", "ep-oracle"]), ("eep", ["-e", "0"])):
        base = str(tmp_path / name)
        result = runner.invoke(main, ["coevolve", log, "--cutoffs", "20,50", *args,
                                      "--measures", "degree", "-o", base])
        assert result.exit_code == 0, result.output
        report = json.loads(Path(base + ".report.json").read_text())
        assert report["metadata"]["epsilon"] == 0
        reports.append(report)
    assert reports[0]["metadata"]["positions"] == reports[1]["metadata"]["positions"] == 3
    assert reports[0]["counts"] == reports[1]["counts"]
    manifest = json.loads(Path(tmp_path / "oracle.manifest.json").read_text())
    assert manifest["options"]["epsilon"] == 1


def test_partition_signature_collision_exit(runner, tmp_path, monkeypatch):
    # with every token weighing 0, the P4 end and middle signatures collide
    monkeypatch.setattr(netpos.partition, "_mix64", np.zeros_like)
    edges = _write(tmp_path, "p4.edges", P4_EDGES)
    out = str(tmp_path / "p4.part")
    result = runner.invoke(main, ["partition", edges, "-e", "0", "-o", out])
    assert result.exit_code == 4
    assert result.stderr.startswith("error: two distinct degree signatures share "
                                    "a 64-bit hash")
    assert not Path(out).exists()


def test_progress_interval_prints_key_value_lines(runner, tmp_path):
    edges = str(tmp_path / "g.edges")
    assert runner.invoke(main, ["gen", "-n", "400", "--gamma", "2.5", "--seed", "3",
                                "-o", edges]).exit_code == 0
    runs = []
    for flag in ([], ["--progress-interval", "1"]):
        out = tmp_path / f"g{len(flag)}.part"
        result = runner.invoke(main, ["partition", edges, "-e", "0", "-o", str(out),
                                      *flag])
        assert result.exit_code == 0, result.output
        runs.append((out.read_bytes(), result.stderr.splitlines()))
    (quiet_part, quiet_err), (loud_part, loud_err) = runs
    assert quiet_part == loud_part and quiet_err == []
    assert len(loud_err) > 1
    assert all(re.fullmatch(r"iter=\d+ active=\d+ cells=\d+ elapsed_ms=\d+\.\d", line)
               for line in loud_err), loud_err
    assert [int(line.split()[0][5:]) for line in loud_err] == \
        list(range(1, len(loud_err) + 1))


def test_option_defaults_restate_library_constants():
    defaults = {(cmd, name): netpos.cli._parser(cmd).get_default(name)
                for cmd in ("centrality", "coevolve")
                for name in ("names", "bin_edges", "cap")}
    assert defaults["centrality", "names"] == ",".join(CONVENTIONS)
    assert defaults["coevolve", "names"] == ",".join(CONVENTIONS)
    assert defaults["coevolve", "bin_edges"] == ",".join(str(int(e))
                                                         for e in DEFAULT_BIN_EDGES)
    assert defaults["coevolve", "cap"] == DEFAULT_PAIR_CAP


def test_partition_degree_method_star(runner, tmp_path):
    edges = _write(tmp_path, "star.edges", "c l1\nc l2\nc l3\n")
    out = str(tmp_path / "star.part")
    result = runner.invoke(main, ["partition", edges, "--method", "degree",
                                  "-o", out])
    assert result.exit_code == 0
    cells = [l for l in Path(out).read_text().splitlines()
             if not l.startswith("#")]
    assert len(cells) == 2


def test_partition_negative_epsilon_usage_error(runner, tmp_path):
    edges = _write(tmp_path, "p4.edges", P4_EDGES)
    result = runner.invoke(main, ["partition", edges, "-e", "-1",
                                  "-o", str(tmp_path / "x.part")])
    assert result.exit_code == 2


def test_partition_parse_error_exit_code(runner, tmp_path):
    edges = _write(tmp_path, "bad.edges", "a b\nbroken\n")
    result = runner.invoke(main, ["partition", edges, "-o",
                                  str(tmp_path / "x.part")])
    assert result.exit_code == 3


@pytest.mark.parametrize("data, args", [
    (b"a b\n\xe2\x82 c\n", ["partition", "{in}", "-o", "{out}"]),
    (b"a b\n\xe2\x82 c\n", ["centrality", "{in}", "-o", "{out}"]),
    (b"a b 1\n\xff\xfe c 2\n", ["snapshots", "{in}", "--cutoffs", "5", "-o", "{out}"]),
    (b"a b 1\n\xff\xfe c 2\n", ["coevolve", "{in}", "--cutoffs", "1,5", "-o", "{out}"]),
    (b"# n=2\n0\t0\n1\t\xff1\n", ["similarity", "{in}", "{in}"]),
], ids=["partition", "centrality", "snapshots", "coevolve", "similarity"])
def test_input_that_is_not_utf8_is_a_parse_error(runner, tmp_path, data, args):
    path = tmp_path / "bad.in"
    path.write_bytes(data)
    out = str(tmp_path / "out")
    result = runner.invoke(main, [a.format(**{"in": str(path), "out": out})
                                  for a in args])
    assert result.exit_code == 3
    assert re.fullmatch(rf"error: {re.escape(str(path))}: not valid UTF-8 "
                        r"\(byte 0x(e2|ff): invalid \w+ byte\)\n", result.stderr)


def test_similarity_identical_files(runner, tmp_path):
    edges = _write(tmp_path, "p4.edges", P4_EDGES)
    out = str(tmp_path / "p4.part")
    assert runner.invoke(main, ["partition", edges, "-o", out]).exit_code == 0
    result = runner.invoke(main, ["similarity", out, out])
    assert result.exit_code == 0
    assert "value=1.0" in result.output


def test_similarity_worked_example(runner, tmp_path):
    p1 = _write(tmp_path, "a.part",
                "# n=8\n0\t1 2 3\n1\t4 5\n2\t6 7 8\n")
    p2 = _write(tmp_path, "b.part",
                "# n=8\n0\t1 2\n1\t3 4 5\n2\t6 7\n3\t8\n")
    result = runner.invoke(main, ["similarity", p1, p2, "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["value"] == pytest.approx(0.675, abs=1e-12)
    assert payload["cells_intersection"] == 5
    assert payload["manifest"]["elapsed_s"] > 0
    assert payload["manifest"]["peak_rss_mb"] > 0


def test_similarity_universe_mismatch_exit(runner, tmp_path):
    p1 = _write(tmp_path, "a.part", "0\t0 1\n")
    p2 = _write(tmp_path, "b.part", "0\t0 1 2\n")
    result = runner.invoke(main, ["similarity", p1, p2])
    assert result.exit_code == 4


@pytest.mark.parametrize("text, message", [
    ("0\t0 1\n1\t1 2\n", "line 2: vertex 1 appears more than once"),
    ("0\t0 1 1 2\n", "line 1: vertex 1 appears more than once"),
    ("0\t0 1\n1\t-3\n", "line 2: negative vertex id -3"),
], ids=["across-cells", "within-cell", "negative-id"])
def test_similarity_repeated_vertex_parse_error(runner, tmp_path, text, message):
    good = _write(tmp_path, "a.part", "0\t0 1 2\n")
    bad = _write(tmp_path, "b.part", text)
    result = runner.invoke(main, ["similarity", good, bad])
    assert result.exit_code == 3
    assert message in result.output


def test_centrality_csv(runner, tmp_path):
    edges = _write(tmp_path, "p4.edges", P4_EDGES)
    out = str(tmp_path / "scores.csv")
    result = runner.invoke(main, ["centrality", edges, "-o", out])
    assert result.exit_code == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 4
    assert rows[0]["label"] == "a"
    assert float(rows[1]["betweenness"]) == 2.0
    assert rows[0]["degree"] == "1"


@pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_centrality_rows_match_per_vertex_writer(runner, tmp_path, fmt, to_file):
    edges = str(tmp_path / "g.edges")
    assert runner.invoke(main, ["gen", "-n", "300", "--gamma", "2.5", "--seed", "4",
                                "-o", edges]).exit_code == 0
    with open(edges, "a", encoding="utf-8") as fh:
        fh.write("lone lone\nsolo solo\n")   # self-loops: two isolated vertices
    out = str(tmp_path / f"scores.{fmt}") if to_file else "-"
    result = runner.invoke(main, ["centrality", edges, "--format", fmt, "-o", out])
    assert result.exit_code == 0, result.output
    got = Path(out).read_bytes() if to_file else result.stdout_bytes
    with open(edges, encoding="utf-8") as fh:
        graph, labels = load_edge_list(fh)
    names = list(CONVENTIONS)
    assert degree(graph, labels.labels.index("lone")) == 0
    want = io.StringIO()
    write_centrality_rows_ref(want, fmt, labels, compute_measures(graph, names), names)
    assert got == want.getvalue().encode("utf-8")


# a triangle a-b-c with the pendant tree c-d-e, c-d-f: the 2-core is the
# triangle, k = 3 and m = 3, so its work is k * (k + 2m) = 27
PENDANT_EDGES = "a b\nb c\na c\nc d\nd e\nd f\n"


@pytest.mark.parametrize("limit, code", [(27, 0), (26, 4)])
def test_centrality_betweenness_work_limit(runner, tmp_path, monkeypatch, limit, code):
    monkeypatch.setattr(netpos.cli, "MAX_BETWEENNESS_WORK", limit)
    edges = _write(tmp_path, "pendant.edges", PENDANT_EDGES)
    out = tmp_path / "scores.csv"
    result = runner.invoke(main, ["centrality", edges, "-o", str(out)])
    assert result.exit_code == code, result.output
    assert out.exists() == (code == 0)
    if code:
        assert "error:" in result.output and "= 27" in result.output
        assert "k=3" in result.output and "limit of 26" in result.output
        result = runner.invoke(main, ["centrality", edges, "--measures",
                                      "degree,triangles,shapley", "-o", str(out)])
        assert result.exit_code == 0, result.output


def test_centrality_betweenness_work_limit_passes_large_tree(runner, tmp_path):
    # a random tree far above the limit by n * (n + 2m) has no 2-core at all
    n = 100_000
    parents = np.random.default_rng(5).integers(0, np.arange(1, n))
    assert n * (n + 2 * (n - 1)) > netpos.cli.MAX_BETWEENNESS_WORK
    edges = _write(tmp_path, "tree.edges",
                   "".join(f"{p} {v}\n" for v, p in enumerate(parents, 1)))
    out = tmp_path / "scores.csv"
    result = runner.invoke(main, ["centrality", edges, "--measures", "betweenness",
                                  "-o", str(out)])
    assert result.exit_code == 0, result.output
    assert len(out.read_text().splitlines()) == n + 1


@pytest.mark.parametrize("limit, code", [(27, 0), (26, 4)])
def test_coevolve_betweenness_work_limit(runner, tmp_path, monkeypatch, limit, code):
    # the earlier snapshot is the path a-b-c-d, with no 2-core; the later one
    # closes the triangle a-b-c and hangs c-d-e-f off it, so k = 3, m = 3
    monkeypatch.setattr(netpos.cli, "MAX_BETWEENNESS_WORK", limit)
    log = _write(tmp_path, "log.txt",
                 "a b 10\nb c 10\nc d 10\na c 40\nd e 40\ne f 40\n")
    base = str(tmp_path / "coe")
    result = runner.invoke(main, ["coevolve", log, "--cutoffs", "20,50", "-e", "1",
                                  "-o", base])
    assert result.exit_code == code, result.output
    if code:
        assert "error:" in result.output and "= 27" in result.output
        assert not list(tmp_path.glob("coe*"))


def test_centrality_unknown_measure_usage_error(runner, tmp_path):
    edges = _write(tmp_path, "p4.edges", P4_EDGES)
    result = runner.invoke(main, ["centrality", edges, "--measures", "zap"])
    assert result.exit_code == 2


def test_snapshots_command(runner, tmp_path):
    log = _write(tmp_path, "log.txt", "a b 10\nb c 20\nc d 30\n")
    base = str(tmp_path / "snap")
    result = runner.invoke(main, ["snapshots", log, "--cutoffs", "15,25",
                                  "-o", base])
    assert result.exit_code == 0, result.output
    s0 = Path(base + ".0.edges").read_text()
    s1 = Path(base + ".1.edges").read_text()
    assert "a b" in s0 and "b c" not in s0
    assert "b c" in s1
    assert Path(base + ".labels").exists()


def test_snapshots_iso_cutoffs(runner, tmp_path):
    log = _write(tmp_path, "log.txt", "a b 1000000\n")
    base = str(tmp_path / "snap")
    result = runner.invoke(main, ["snapshots", log, "--cutoffs", "1970-02-01",
                                  "-o", base])
    assert result.exit_code == 0, result.output
    assert "n=2" in result.output


@pytest.mark.parametrize("cutoffs, sizes", [
    ("1969-12-31T23:59:59.5", [[0, 0]]),
    ("1969-12-31T23:59:59.5,1970-01-01T00:00:00", [[0, 0], [2, 1]])],
    ids=["event-after-cutoff", "ascending-pair"])
def test_snapshots_floor_fractional_cutoffs_before_the_epoch(runner, tmp_path, cutoffs,
                                                            sizes):
    # unix time -0.5 floors to -1, so the event at t = 0 falls after it
    log = _write(tmp_path, "log.txt", "a b 0\nb c 5\n")
    base = str(tmp_path / "snap")
    result = runner.invoke(main, ["snapshots", log, "--cutoffs", cutoffs, "-o", base])
    assert result.exit_code == 0, result.output
    manifest = json.loads(Path(base + ".manifest.json").read_text())
    assert manifest["options"]["cutoffs"] == [-1, 0][:len(sizes)]
    assert manifest["extra"]["sizes"] == sizes


def test_gen_deterministic(runner, tmp_path):
    out1 = str(tmp_path / "g1.edges")
    out2 = str(tmp_path / "g2.edges")
    for out in (out1, out2):
        result = runner.invoke(main, ["gen", "-n", "300", "--gamma", "2.5",
                                      "--seed", "9", "-o", out])
        assert result.exit_code == 0
    assert Path(out1).read_text() == Path(out2).read_text()
    manifest = json.loads(Path(out1 + ".manifest.json").read_text())
    assert manifest["seed"] == 9
    assert manifest["extra"]["graph_hash"].startswith("sha256:")


def test_coevolve_histogram(runner, tmp_path):
    log = _write(tmp_path, "log.txt",
                 "a b 10\nb c 10\nc d 10\nd e 40\na c 40\nb e 40\n")
    base = str(tmp_path / "coe")
    result = runner.invoke(main, ["coevolve", log, "--cutoffs", "20,50",
                                  "-e", "1", "--measures", "degree,shapley",
                                  "--full-pairs", "-o", base])
    assert result.exit_code == 0, result.output
    rows = list(csv.DictReader(open(base + ".report.csv")))
    assert {r["measure"] for r in rows} == {"degree", "shapley"}
    report = json.loads(Path(base + ".report.json").read_text())
    assert report["total_pairs"] == sum(report["counts"]["degree"])
    assert "conventions" in report["metadata"]


def test_coevolve_full_pairs_refuses_a_huge_population(runner, tmp_path):
    # the 5,000 leaves of a star share one position: C(5000, 2) = 12,497,500 pairs
    log = _write(tmp_path, "log.txt", "".join(f"hub leaf{i} 10\n" for i in range(5000)))
    base = str(tmp_path / "coe")
    result = runner.invoke(main, ["coevolve", log, "--cutoffs", "20,50", "-e", "1",
                                  "--full-pairs", "-o", base])
    assert result.exit_code == 4, result.output
    assert "error:" in result.output and "12497500" in result.output
    assert not list(tmp_path.glob("coe*"))


def test_coevolve_overlap(runner, tmp_path):
    log = _write(tmp_path, "log.txt",
                 "a b 10\nb c 10\nc d 15\nd e 40\na c 40\nb e 45\nc e 45\n")
    base = str(tmp_path / "ov")
    result = runner.invoke(main, ["coevolve", log, "--cutoffs", "20,50",
                                  "--overlap", "--eps-list", "0,1,2",
                                  "-o", base])
    assert result.exit_code == 0, result.output
    rows = list(csv.reader(open(base + ".overlap.csv")))
    assert rows[0] == ["earlier", "later", "eep:0", "eep:1", "eep:2", "ep",
                       "degree"]
    assert len(rows) == 2


# name -> (arguments, the output files, the manifest file or None where the
# manifest is printed in the JSON on stdout); ``{tmp}`` is the test's directory
RERUNS = {
    "partition-eps0": (["partition", "{tmp}/g.edges", "-e", "0", "-o", "{tmp}/p.part"],
                       ["p.part", "p.part.labels"], "p.part.manifest.json"),
    "partition-eps2": (["partition", "{tmp}/g.edges", "-e", "2", "-o", "{tmp}/p.part"],
                       ["p.part", "p.part.labels"], "p.part.manifest.json"),
    "snapshots": (["snapshots", "{tmp}/log.txt", "--cutoffs", "30,60,99", "--directed",
                   "--reciprocal", "-o", "{tmp}/s"],
                  ["s.0.edges", "s.1.edges", "s.2.edges", "s.labels"], "s.manifest.json"),
    "gen": (["gen", "-n", "300", "--gamma", "2.5", "--seed", "3", "-o", "{tmp}/h.edges"],
            ["h.edges"], "h.edges.manifest.json"),
    "centrality": (["centrality", "{tmp}/g.edges", "--measures", "degree,shapley",
                    "-o", "{tmp}/c.csv"], ["c.csv"], "c.csv.manifest.json"),
    "coevolve-histogram": (["coevolve", "{tmp}/log.txt", "--cutoffs", "50,99",
                            "-o", "{tmp}/co"],
                           ["co.report.json", "co.report.csv"], "co.manifest.json"),
    "coevolve-overlap": (["coevolve", "{tmp}/log.txt", "--cutoffs", "30,60,99",
                          "--overlap", "--eps-list", "2,0,1", "-o", "{tmp}/ov"],
                         ["ov.overlap.json", "ov.overlap.csv"], "ov.manifest.json"),
    "similarity-json": (["similarity", "{tmp}/g0.part", "{tmp}/g2.part",
                         "--format", "json"], [], None),
}


@pytest.mark.parametrize("args, outputs, manifest", RERUNS.values(), ids=RERUNS)
def test_reruns_are_byte_identical(runner, tmp_path, args, outputs, manifest):
    rng = np.random.default_rng(11)
    events = list(zip(rng.integers(0, 80, 400).tolist(),
                      rng.integers(0, 80, 400).tolist(),
                      rng.integers(0, 100, 400).tolist()))
    _write(tmp_path, "log.txt", "".join(f"u{a} u{b} {t}\n" for a, b, t in events))
    edges = _write(tmp_path, "g.edges", "".join(f"u{a} u{b}\n" for a, b, _ in events))
    for eps in ("0", "2"):
        assert runner.invoke(main, ["partition", edges, "-e", eps,
                                    "-o", str(tmp_path / f"g{eps}.part")]).exit_code == 0
    runs = []
    for _ in range(2):
        result = runner.invoke(main, [arg.format(tmp=tmp_path) for arg in args])
        assert result.exit_code == 0, result.output
        texts = [(tmp_path / name).read_bytes() for name in outputs]
        if manifest:
            record = json.loads((tmp_path / manifest).read_text())
        else:
            payload = json.loads(result.stdout)
            record = payload.pop("manifest")
            texts.append(json.dumps(payload, sort_keys=True).encode())
        assert all(texts)
        for key in ("elapsed_s", "peak_rss_mb", "started_at"):
            del record[key]
        record["extra"].pop("refine_elapsed_s", None)   # a wall-clock time too
        runs.append((texts, record))
    assert runs[0] == runs[1]


COEVOLVE_SHARED = {"log", "cutoffs", "directed", "reciprocal", "overlap"}
HISTOGRAM_ONLY = {"method", "epsilon", "measures", "bin_edges", "cap", "full_pairs",
                  "seed"}


def test_coevolve_overlap_manifest_options(runner, tmp_path):
    log = _write(tmp_path, "log.txt",
                 "a b 10\nb c 10\nc d 15\nd e 40\na c 40\nb e 45\nc e 45\n")
    base = str(tmp_path / "ov")
    result = runner.invoke(main, ["coevolve", log, "--cutoffs", "20,50", "--overlap",
                                  "--method", "degree", "-e", "7", "--cap", "3",
                                  "-o", base])
    assert result.exit_code == 0, result.output
    manifest = json.loads(Path(base + ".manifest.json").read_text())
    assert set(manifest["options"]) == COEVOLVE_SHARED | {"eps_list"}
    assert manifest["seed"] is None


def test_coevolve_histogram_manifest_options(runner, tmp_path):
    log = _write(tmp_path, "log.txt",
                 "a b 10\nb c 10\nc d 10\nd e 40\na c 40\nb e 40\n")
    base = str(tmp_path / "coe")
    result = runner.invoke(main, ["coevolve", log, "--cutoffs", "20,50", "--seed", "4",
                                  "--eps-list", "1,2", "-o", base])
    assert result.exit_code == 0, result.output
    manifest = json.loads(Path(base + ".manifest.json").read_text())
    assert set(manifest["options"]) == COEVOLVE_SHARED | HISTOGRAM_ONLY
    assert manifest["options"]["seed"] == manifest["seed"] == 4


def test_coevolve_overlap_repeated_epsilon(runner, tmp_path):
    log = _write(tmp_path, "log.txt",
                 "a b 10\nb c 10\nc d 15\nd e 40\na c 40\nb e 45\nc e 45\n")
    base = str(tmp_path / "ov")
    result = runner.invoke(main, ["coevolve", log, "--cutoffs", "20,50",
                                  "--overlap", "--eps-list", "0,0,1", "-o", base])
    assert result.exit_code == 0, result.output
    methods = ["eep:0", "eep:1", "ep", "degree"]
    assert next(csv.reader(open(base + ".overlap.csv"))) == ["earlier", "later"] + methods
    assert json.loads(Path(base + ".overlap.json").read_text())["methods"] == methods


def test_bench_csv_shape_and_determinism(runner, tmp_path):
    out = str(tmp_path / "bench.csv")
    args = ["bench", "--sizes", "200,400", "--gammas", "2.5,2.9", "--eps", "5",
            "--seed", "1", "-o", out]
    assert runner.invoke(main, args).exit_code == 0
    rows1 = list(csv.DictReader(open(out)))
    assert len(rows1) == 4  # 2 sizes x 2 gammas x 1 epsilon
    assert runner.invoke(main, args).exit_code == 0
    rows2 = list(csv.DictReader(open(out)))
    for r1, r2 in zip(rows1, rows2):
        assert r1["iterations"] == r2["iterations"]
        assert r1["cells"] == r2["cells"]
        assert r1["splits"] == r2["splits"] and r1["fragments"] == r2["fragments"]
        assert int(r1["cells"]) == 1 + int(r1["fragments"]) - int(r1["splits"])


def test_reciprocal_needs_directed(runner, tmp_path):
    log = _write(tmp_path, "log.txt", "a b 10\n")
    result = runner.invoke(main, ["snapshots", log, "--cutoffs", "20",
                                  "--reciprocal", "-o", str(tmp_path / "s")])
    assert result.exit_code == 2


@pytest.mark.parametrize("args", [
    ["coevolve", "LOG", "--cutoffs", "20,50", "--overlap", "--eps-list", "0,-1"],
    ["coevolve", "LOG", "--cutoffs", "20,50", "--overlap", "--eps-list", "x"],
    ["coevolve", "LOG", "--cutoffs", "20,50", "--bin-edges", "3,1"],
    ["coevolve", "LOG", "--cutoffs", "20,50", "--measures", "foo"],
    ["bench", "--sizes", "1"],
    ["snapshots", "LOG", "--cutoffs", "50,20"],
    ["coevolve", "LOG", "--cutoffs", ","],
    ["coevolve", "LOG", "--cutoffs", "20,50,80"],
    ["coevolve", "LOG", "--cutoffs", "20", "--overlap"],
    ["gen", "-n", "10", "--gamma", "nan"],
    ["bench", "--sizes", "200", "--gammas", "2,nan"],
    ["coevolve", "LOG", "--cutoffs", "20,50", "--bin-edges", "5,6"],
    ["coevolve", "LOG", "--cutoffs", "20,50", "--bin-edges", "nan"],
    ["coevolve", "LOG", "--cutoffs", "20,50", "--bin-edges", "-inf,0,1"],
    ["coevolve", "LOG", "--cutoffs", "20,50", "-e", "-1"],
    ["coevolve", "LOG", "--cutoffs", "20,50", "--bin", "0,1"],
    ["snapshots", "missing.log", "--cutoffs", "20"],
], ids=["negative-eps", "non-int-eps", "descending-bins", "unknown-measure",
        "size-below-2", "descending-cutoffs", "empty-cutoffs",
        "three-cutoffs-histogram", "one-cutoff-overlap", "nan-gamma",
        "nan-gammas", "bins-above-zero", "nan-bins", "infinite-bins",
        "negative-epsilon", "abbreviated-option", "missing-input"])
def test_bad_list_option_usage_error(runner, tmp_path, args):
    # the log does not parse, so exit 2 rather than 3 shows the option was
    # rejected before any input was read
    log = _write(tmp_path, "bad.log", "broken\n")
    out = tmp_path / "out"
    result = runner.invoke(main, [log if a == "LOG" else a for a in args]
                           + ["-o", str(out)])
    assert result.exit_code == 2, result.output
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("args, message", [
    (["partition", "{bad}", "-o", "{tmp}/out.part", "--labels-out", "{ro}"],
     "is not writable"),
    (["partition", "{bad}", "-o", "{tmp}/out.part", "--manifest-out", "{ro}"],
     "is not writable"),
    (["similarity", "{bad}", "{bad}", "--manifest-out", "{ro}"], "is not writable"),
    (["centrality", "{bad}", "-o", "{ro}"], "is not writable"),
    (["centrality", "{bad}", "-o", "{tmp}/out.csv", "--manifest-out", "{ro}"],
     "is not writable"),
    (["snapshots", "{bad}", "--cutoffs", "20", "-o", "{tmp}/out",
      "--manifest-out", "{ro}"], "is not writable"),
    (["coevolve", "{bad}", "--cutoffs", "20,50", "-o", "{tmp}/out",
      "--manifest-out", "{ro}"], "is not writable"),
    (["gen", "-n", "10", "--gamma", "2.5", "-o", "{tmp}/out.edges",
      "--manifest-out", "{ro}"], "is not writable"),
    (["bench", "--sizes", "20", "-o", "{tmp}/out.csv", "--manifest-out", "{ro}"],
     "is not writable"),
    # a path to be created: its directory must exist, be one and be writable
    (["partition", "{bad}", "-o", "{tmp}/missing/out.part"], "does not exist"),
    (["snapshots", "{bad}", "--cutoffs", "20", "-o", "{tmp}/missing/out"],
     "does not exist"),
    (["coevolve", "{bad}", "--cutoffs", "20,50", "-o", "{tmp}/missing/out"],
     "does not exist"),
    (["partition", "{bad}", "-o", "{bad}/out.part"], "is not a directory"),
    (["partition", "{bad}", "-o", "{tmp}/out.part", "--labels-out", "{rodir}/out.labels"],
     "is not writable"),
    (["similarity", "{bad}", "{bad}", "--manifest-out", "{rodir}/out.json"],
     "is not writable"),
    (["snapshots", "{bad}", "--cutoffs", "20", "-o", "{rodir}/out"], "is not writable"),
    (["coevolve", "{bad}", "--cutoffs", "20,50", "-o", "{rodir}/out"],
     "is not writable"),
    (["gen", "-n", "10", "--gamma", "2.5", "-o", "{rodir}/out.edges"], "is not writable"),
], ids=["partition-labels", "partition-manifest", "similarity-manifest",
        "centrality-output", "centrality-manifest", "snapshots-manifest",
        "coevolve-manifest", "gen-manifest", "bench-manifest",
        "partition-missing-dir", "snapshots-missing-dir", "coevolve-missing-dir",
        "partition-file-as-dir", "partition-labels-read-only-dir",
        "similarity-manifest-read-only-dir", "snapshots-read-only-dir",
        "coevolve-read-only-dir", "gen-read-only-dir"])
def test_output_paths_are_checked_for_writing(runner, tmp_path, monkeypatch, args,
                                              message):
    # the input does not parse, so exit 2 rather than 3 shows the path was
    # refused before any input was read; root may write any file, so the
    # permission check itself is faked
    bad = _write(tmp_path, "bad.edges", "broken\n")
    read_only = _write(tmp_path, "read-only", "")
    read_only_dir = tmp_path / "read-only-dir"
    read_only_dir.mkdir()
    access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode: access(path, mode) and not (
        path in (read_only, str(read_only_dir)) and mode & os.W_OK))
    result = runner.invoke(main, [a.format(bad=bad, ro=read_only, rodir=read_only_dir,
                                           tmp=tmp_path) for a in args])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not list(tmp_path.rglob("out*"))


def test_option_value_may_start_with_a_dash(runner, tmp_path, monkeypatch):
    # a value binds to the option before it even when it looks like an option
    log = _write(tmp_path, "log.txt",
                 "a b 10\nb c 10\nc d 10\nd e 40\na c 40\nb e 40\n")
    base = str(tmp_path / "coe")
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["coevolve", log, "--cutoffs", "20,50", "--measures",
                                  "degree", "--bin-edges", "-1,0,1", "-o", base,
                                  "--manifest-out", "-m.json"])
    assert result.exit_code == 0, result.output
    report = json.loads(Path(base + ".report.json").read_text())
    assert report["bin_edges"] == [-1.0, 0.0, 1.0] and report["total_pairs"] > 0
    assert report["counts"]["degree"][0] == 0   # no difference is below 0
    assert json.loads((tmp_path / "-m.json").read_text())["command"] == "coevolve"
    assert not Path(base + ".manifest.json").exists()


OPTION_NAMES = {
    None: {"--version"},
    "partition": {"-e", "--epsilon", "--method", "-o", "--output", "--labels-out",
                  "--manifest-out", "--progress-interval"},
    "similarity": {"--labels", "--format", "--manifest-out"},
    "centrality": {"--measures", "--format", "-o", "--output", "--manifest-out"},
    "snapshots": {"--cutoffs", "--directed", "--undirected", "--reciprocal", "-o",
                  "--output-base", "--manifest-out"},
    "coevolve": {"--cutoffs", "--directed", "--undirected", "--reciprocal", "--method",
                 "-e", "--epsilon", "--measures", "--bin-edges", "--cap", "--full-pairs",
                 "--seed", "--overlap", "--eps-list", "-o", "--output-base",
                 "--manifest-out"},
    "gen": {"-n", "--gamma", "--seed", "-o", "--output", "--manifest-out"},
    "bench": {"--sizes", "--gammas", "--eps", "--repeats", "--seed", "-o", "--output",
              "--manifest-out"},
}


@pytest.mark.parametrize("command", OPTION_NAMES, ids=str)
def test_help_lists_every_option(runner, command):
    result = runner.invoke(main, [command, "--help"] if command else ["--help"])
    assert result.exit_code == 0, result.output
    listed = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", result.stdout))
    assert listed == OPTION_NAMES[command] | {"--help"}
    if command is None:
        assert all(name in result.stdout for name in OPTION_NAMES if name)


@pytest.mark.parametrize("args, code", [
    (["--version"], 0),
    (["partition", "BAD", "-o", "OUT"], 3),
], ids=["version", "parse-error"])
def test_run_freezes_once_after_main(tmp_path, monkeypatch, args, code):
    events = []
    group = netpos.cli.main

    def recording_main():
        try:
            return group()
        finally:
            events.append("main")

    monkeypatch.setattr(netpos.cli, "main", recording_main)
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    bad = _write(tmp_path, "bad.edges", "a b c d\n")
    monkeypatch.setattr(sys, "argv", ["netpos"] + [
        {"BAD": bad, "OUT": str(tmp_path / "out.part")}.get(a, a) for a in args])
    with pytest.raises(SystemExit) as exc:
        netpos.cli.run()
    assert exc.value.code == code
    assert events == ["main", "freeze"]


def _python(tmp_path, *args):
    src = Path(netpos.cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_run_turns_the_collector_off_around_main_only(monkeypatch, enabled):
    during = []
    group = netpos.cli.main

    def recording_main():
        during.append(gc.isenabled())
        group()

    monkeypatch.setattr(netpos.cli, "main", recording_main)
    monkeypatch.setattr(gc, "freeze", lambda: None)   # keep this process's heap
    monkeypatch.setattr(sys, "argv", ["netpos", "--version"])
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(SystemExit):
            netpos.cli.run()
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False] and after is enabled


def test_main_never_touches_the_collector(runner, tmp_path, monkeypatch):
    calls = []
    for name in ("disable", "enable", "freeze", "collect"):
        monkeypatch.setattr(gc, name, lambda *args, name=name: calls.append(name))
    result = runner.invoke(main, ["gen", "-n", "30", "--gamma", "2.5",
                                  "-o", str(tmp_path / "g.edges")])
    assert result.exit_code == 0, result.output
    assert calls == [] and gc.isenabled()


_GARBAGE_AFTER = """\
import gc, sys
gc.disable()
from netpos.cli import main
main(sys.argv[1:])
print(gc.collect())
"""


def test_snapshots_leaves_no_cyclic_garbage_per_event(tmp_path):
    # run() turns the collector off because a command's work makes no
    # reference cycles: what a collection finds then is the same fixed set
    # of import-time garbage, however long the log
    found = []
    for events in (20, 20_000):
        log = tmp_path / f"{events}.log"
        log.write_text("".join(f"v{i % 997} v{(7 * i + 1) % 1009} {i}\n"
                               for i in range(events)), encoding="utf-8")
        result = _python(tmp_path, "-c", _GARBAGE_AFTER, "snapshots", str(log),
                         "--cutoffs", f"{events // 2},{events}", "--directed",
                         "--reciprocal", "-o", str(tmp_path / f"s{events}"))
        assert result.returncode == 0, result.stderr
        found.append(int(result.stdout.splitlines()[-1]))
    assert found[1] <= found[0]


def test_import_and_click_runner_never_freeze(runner, tmp_path):
    result = _python(tmp_path, "-c", "import gc, netpos.cli; print(gc.get_freeze_count())")
    assert result.stdout == "0\n", result.stderr
    before = gc.get_freeze_count()
    assert runner.invoke(main, ["--version"]).exit_code == 0
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("args, code", [
    (["partition", "--no-such-option"], 2),
    (["partition", "bad.edges", "-o", "out.part"], 3),
    # refused while the line is parsed, before the graph is generated
    (["gen", "-n", "10", "--gamma", "2.5", "-o", "missing/g.edges"], 2),
    # the manifest's default path is a directory: an IO error after the work
    (["gen", "-n", "10", "--gamma", "2.5", "-o", "taken.edges"], 3),
    (["snapshots", "bad.log", "--cutoffs", "5", "-o", "x"], 3),
], ids=["usage", "parse-error", "missing-output-dir", "io-error", "not-utf8"])
def test_process_exit_codes(tmp_path, args, code):
    _write(tmp_path, "bad.edges", "a b c d\n")
    (tmp_path / "bad.log").write_bytes(b"a b 1\n\xff\xfe c 2\n")
    (tmp_path / "taken.edges.manifest.json").mkdir()
    result = _python(tmp_path, "-m", "netpos.cli", *args)
    assert result.returncode == code, result.stderr
    assert result.stderr and "Traceback" not in result.stderr


def test_process_flushes_its_outputs(tmp_path):
    # the stdout line, the edge list and the manifest are each whole after
    # the process froze its heap and exited
    result = _python(tmp_path, "-m", "netpos.cli", "gen", "-n", "50", "--gamma",
                     "2.5", "--seed", "1", "-o", "g.edges")
    assert result.returncode == 0, result.stderr
    lines = (tmp_path / "g.edges").read_text(encoding="utf-8").splitlines()
    m = len(lines) - 1
    assert lines[0] == f"# vertices=50 edges={m}"
    assert result.stdout == f"n=50 m={m} -> g.edges\n"
    manifest = json.loads((tmp_path / "g.edges.manifest.json").read_text())
    assert manifest["extra"]["m"] == m


def test_console_script_is_the_freezing_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["netpos"] == "netpos.cli:run"
