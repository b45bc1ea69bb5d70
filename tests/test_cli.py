import csv
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from netpos.cli import main

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


def test_similarity_universe_mismatch_exit(runner, tmp_path):
    p1 = _write(tmp_path, "a.part", "0\t0 1\n")
    p2 = _write(tmp_path, "b.part", "0\t0 1 2\n")
    result = runner.invoke(main, ["similarity", p1, p2])
    assert result.exit_code == 4


@pytest.mark.parametrize("text", ["0\t0 1\n1\t1 2\n", "0\t0 1 1 2\n"],
                         ids=["across-cells", "within-cell"])
def test_similarity_repeated_vertex_parse_error(runner, tmp_path, text):
    good = _write(tmp_path, "a.part", "0\t0 1 2\n")
    bad = _write(tmp_path, "b.part", text)
    result = runner.invoke(main, ["similarity", good, bad])
    assert result.exit_code == 3
    assert "vertex 1 appears more than once" in result.output


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
], ids=["negative-eps", "non-int-eps", "descending-bins", "unknown-measure",
        "size-below-2"])
def test_bad_list_option_usage_error(runner, tmp_path, args):
    # the log does not parse, so exit 2 rather than 3 shows the option was
    # rejected before any input was read
    log = _write(tmp_path, "bad.log", "broken\n")
    out = tmp_path / "out"
    result = runner.invoke(main, [log if a == "LOG" else a for a in args]
                           + ["-o", str(out)])
    assert result.exit_code == 2, result.output
    assert not list(tmp_path.glob("out*"))
