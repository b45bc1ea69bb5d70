"""The four benchmark workloads: their inputs, CLI commands and output checks.

Sizes are chosen so that one command sequence takes one to three seconds on
a 2-core host and a measured run holds seven to seventeen sequences. The
single-command workloads are the smallest: the shorter a sequence, the
closer in time its two calibration loops, and the better they cancel the
host's drift. See README.md for the sizes the workloads were first sketched
at and why they shrank.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import gen

MEASURES = ("degree", "betweenness", "triangles", "shapley")
OVERLAP_EPSILONS = tuple(range(9))      # the CLI's default --eps-list
OVERLAP_METHODS = tuple(f"eep:{e}" for e in OVERLAP_EPSILONS) + ("ep", "degree")
PAIR_CAP = 20_000                       # below the population, so pairs are sampled
SNAPSHOT_EPSILONS = (2, 5)


@dataclass(frozen=True)
class Step:
    """One CLI command and the check of what it wrote.

    ``check()`` returns the problems found and an observation (a digest or
    score) that is compared with the recorded seed-0 value.
    """

    name: str
    argv: list[str]
    check: Callable[[], tuple[list[str], object]]


class Inputs:
    """Generated input files of one run; edge lists are parsed on first use."""

    def __init__(self, directory: Path, desc: dict):
        self.dir = directory
        self.desc = desc
        self._graphs: dict[tuple, checks.GraphFile] = {}

    def graph(self, path: Path) -> checks.GraphFile:
        """The edge list at ``path``, parsed again only if the file changed."""
        stat = path.stat()
        key = (path, stat.st_mtime_ns, stat.st_size)
        if key not in self._graphs:
            self._graphs = {key: checks.GraphFile(path)}
        return self._graphs[key]

    @property
    def cutoffs(self) -> str:
        return ",".join(str(c) for c in self.desc["cutoffs"])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    generate: Callable[[Path, int, int], dict]
    steps: Callable[[Inputs, Path], list[Step]]


def _partition_step(name: str, inputs: Inputs, edges: Path, out: Path,
                    epsilon: int) -> Step:
    def check():
        try:
            graph = inputs.graph(edges)
        except (OSError, ValueError) as exc:
            return [f"unreadable input {edges.name}: {exc}"], None
        problems, cells = checks.check_partition(graph, out, f"{out}.labels", epsilon)
        return problems, (checks.partition_digest(cells) if cells else None)
    return Step(name, ["partition", str(edges), "-e", str(epsilon), "-o", str(out)], check)


def _partition_eps0_steps(inputs: Inputs, seq: Path) -> list[Step]:
    return [_partition_step("partition", inputs, inputs.dir / "G.edges",
                            seq / "G.part", 0)]


def _coevolve_hist_steps(inputs: Inputs, seq: Path) -> list[Step]:
    def check():
        return checks.check_report(seq / "h.report.json", MEASURES, PAIR_CAP)
    return [Step("coevolve", ["coevolve", str(inputs.dir / "H.log"),
                              "--cutoffs", inputs.cutoffs, "-e", "1",
                              "--cap", str(PAIR_CAP), "-o", str(seq / "h")],
                 check)]


def _snapshot_scale_steps(inputs: Inputs, seq: Path) -> list[Step]:
    n_snap = len(inputs.desc["cutoffs"])
    last = seq / f"snap.{n_snap - 1}.edges"
    parts = [seq / f"S.e{eps}.part" for eps in SNAPSHOT_EPSILONS]

    def check_snapshots():
        return checks.check_snapshots([seq / f"snap.{i}.edges" for i in range(n_snap)])

    def check_similarity():
        cells = []
        for path in parts:
            try:
                cells.append(checks.read_partition(path)[1])
            except (OSError, ValueError) as exc:
                return [f"unreadable partition {path.name}: {exc}"], None
        n = sum(c.size for c in cells[0])
        return checks.check_similarity(seq / "similarity.out", *cells, n)

    steps = [Step("snapshots", ["snapshots", str(inputs.dir / "S.log"), "--directed",
                                "--reciprocal", "--cutoffs", inputs.cutoffs,
                                "-o", str(seq / "snap")], check_snapshots)]
    steps += [_partition_step(f"partition-e{eps}", inputs, last, part, eps)
              for eps, part in zip(SNAPSHOT_EPSILONS, parts)]
    steps.append(Step("similarity", ["similarity", *map(str, parts), "--format", "json"],
                      check_similarity))
    return steps


def _overlap_oracle_steps(inputs: Inputs, seq: Path) -> list[Step]:
    n_snap = len(inputs.desc["cutoffs"])

    def check():
        return checks.check_overlap(seq / "o.overlap.json", OVERLAP_METHODS, n_snap)
    return [Step("coevolve", ["coevolve", str(inputs.dir / "O.log"), "--directed",
                              "--reciprocal", "--cutoffs", inputs.cutoffs,
                              "--overlap", "-o", str(seq / "o")], check)]


def _graph_input(name: str):
    def generate(directory: Path, n: int, seed: int) -> dict:
        return gen.write_graph(directory / name, n, seed)
    return generate


def _log_input(name: str, **kwargs):
    def generate(directory: Path, n: int, seed: int) -> dict:
        return gen.write_log(directory / name, n, seed, **kwargs)
    return generate


WORKLOADS = {w.name: w for w in [
    Workload("partition-eps0",
             "eps=0 refinement does almost all the work; shows the per-iteration "
             "bookkeeping cost of the refinement loop",
             12_000, _graph_input("G.edges"), _partition_eps0_steps),
    Workload("coevolve-hist",
             "centralities and same-position pair sampling do the work; "
             "refinement is negligible",
             600, _log_input("H.log", directed=False, reciprocated=0.0,
                               cut_fractions=(0.6,)),
             _coevolve_hist_steps),
    Workload("snapshot-scale",
             "temporal ingestion, edge-list and partition I/O, eps>0 refinement "
             "and similarity on the largest graph; no eps=0 and no centrality",
             60_000, _log_input("S.log", directed=True, reciprocated=0.7,
                                cut_fractions=(0.5,)),
             _snapshot_scale_steps),
    Workload("overlap-oracle",
             "the only path that runs the dense equitable_oracle, plus many "
             "small restrict_partition and similarity_score calls",
             2_200, _log_input("O.log", directed=True, reciprocated=0.7,
                               cut_fractions=(0.5, 0.75)),
             _overlap_oracle_steps),
]}
