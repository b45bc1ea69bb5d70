"""Self-test of the benchmark: its checks reject broken outputs and its
generator is deterministic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import calibrate  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from launcher import Launcher  # noqa: E402
from netpos import (Partition, epsilon_spread, fast_eep,  # noqa: E402
                    load_edge_list, write_partition_file)


def _cli(*argv: str) -> None:
    subprocess.run([sys.executable, "-m", "netpos.cli", *argv], check=True,
                   capture_output=True, env={**os.environ, "PYTHONPATH": str(SRC)})


@pytest.fixture(scope="module")
def small_graph(tmp_path_factory):
    directory = tmp_path_factory.mktemp("graph")
    edges = directory / "G.edges"
    gen.write_graph(edges, 400, seed=3)
    with open(edges, encoding="utf-8") as fh:
        graph, labels = load_edge_list(fh)
    labels.save(directory / "G.labels")
    return edges, directory / "G.labels", graph


@pytest.mark.parametrize("epsilon", [0, 1, 3])
def test_sparse_spread_matches_dense(small_graph, epsilon):
    edges, labels_path, graph = small_graph
    part = fast_eep(graph, epsilon)
    u, v = checks.GraphFile(edges).ids(checks.read_labels(labels_path))
    memb = part.membership_array(graph.n)
    assert checks.epsilon_spread(u, v, memb, len(part)) == epsilon_spread(graph, part)


def test_partition_check_rejects_merged_cells(small_graph, tmp_path):
    edges, labels_path, graph = small_graph
    part = fast_eep(graph, 0)
    good, bad = tmp_path / "good.part", tmp_path / "bad.part"
    with open(good, "w", encoding="utf-8") as fh:
        write_partition_file(fh, part)
    merged = Partition((tuple(sorted(part.cells[0] + part.cells[1])),) + part.cells[2:])
    with open(bad, "w", encoding="utf-8") as fh:
        write_partition_file(fh, merged)
    graph_file = checks.GraphFile(edges)
    assert checks.check_partition(graph_file, good, labels_path, 0)[0] == []
    problems, _ = checks.check_partition(graph_file, bad, labels_path, 0)
    assert any("epsilon spread" in p for p in problems)


def test_report_check_rejects_truncated_report(tmp_path):
    log = tmp_path / "H.log"
    desc = gen.write_log(log, 300, seed=5, directed=False, reciprocated=0.0,
                         cut_fractions=(0.6,))
    cap = 500
    _cli("coevolve", str(log), "--cutoffs", ",".join(map(str, desc["cutoffs"])),
         "-e", "1", "--cap", str(cap), "-o", str(tmp_path / "h"))
    report = tmp_path / "h.report.json"
    assert checks.check_report(report, workloads.MEASURES, cap)[0] == []

    text = report.read_text(encoding="utf-8")
    report.write_text(text[: len(text) // 2], encoding="utf-8")
    assert checks.check_report(report, workloads.MEASURES, cap)[0]

    data = json.loads(text)
    data["counts"]["betweenness"] = data["counts"]["betweenness"][:-1]
    report.write_text(json.dumps(data), encoding="utf-8")
    assert checks.check_report(report, workloads.MEASURES, cap)[0]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(workload, tmp_path):
    w = workloads.WORKLOADS[workload]
    n = min(w.n, 2_000)
    runs = []
    for attempt, seed in enumerate((11, 11, 12)):
        directory = tmp_path / str(attempt)
        directory.mkdir()
        desc = w.generate(directory, n, seed)
        files = {p.name: p.read_bytes() for p in directory.iterdir()}
        runs.append((desc, files))
    assert runs[0] == runs[1]
    assert runs[0][1] != runs[2][1]


def test_launcher_reads_only_the_childs_memory(tmp_path):
    ballast = bytearray(128 * 1024 * 1024)
    ballast[::4096] = b"x" * len(ballast[::4096])
    with Launcher() as launcher:
        ok = launcher.run([sys.executable, "-c", "pass"], tmp_path / "ok.out",
                          tmp_path / "ok.err", dict(os.environ), tmp_path, 60)
        slow = launcher.run([sys.executable, "-c", "import time; time.sleep(30)"],
                            tmp_path / "slow.out", tmp_path / "slow.err",
                            dict(os.environ), tmp_path, 0.5)
    del ballast
    assert ok["returncode"] == 0 and not ok["timed_out"]
    assert ok["maxrss_mb"] < 64
    assert slow["timed_out"] and slow["returncode"] != 0 and slow["wall_s"] < 20


def test_calibration_scales_by_the_mean_of_its_two_times():
    calib = calibrate.Calibration()
    assert calib.time_once() > 0 and calib.time_once() > 0     # same result twice
    assert calibrate.scale(3.0, 0.1, 0.3) == pytest.approx(3.0 / 0.2 * calibrate.REFERENCE_S)
