"""Traced replay of a workload's commands through the public library API.

Run as ``python3 tracing.py SPEC.json`` in a fresh process, with the
``netpos`` sources on ``PYTHONPATH``. It calls the public functions that each
CLI command calls, in the same order, and records a span around each call:
name, start, end, parent, run id, and how far ``ru_maxrss`` rose during the
call. The high-water mark only rises, so a rise attributes the process's
peak memory to the layer that first reached it.

Spans under the ``replay`` root mirror the commands. Spans under the
``extra`` root are not part of any command: read-backs, the eps=0 refinement
at half size, and the rebuilds of single library calls (``overlap_matrix``
and the coevolve histogram) from the public calls they make, each checked
against the single call. Spans stay in memory and are written to SPEC's
``out`` path when the run ends, with the counts and any problems found.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from netpos import (EngineConfig, SnapshotSpec, build_snapshots,
                    compute_measures, coevolution_report, degree_partition,
                    equitable_oracle, fast_eep, load_edge_list,
                    load_temporal_edge_list, overlap_matrix,
                    pair_difference_histogram, read_partition_file,
                    reciprocal_projection, restrict_partition, run_refinement,
                    same_position_pairs, save_edge_list, similarity_score,
                    write_partition_file)

import gen
import workloads as wl


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder; spans nest by the order they open."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.problems: list[str] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "run": self.run_id,
                  "parent": self._open[-1] if self._open else None}
        self.spans.append(record)
        self._open.append(record["id"])
        rss = _maxrss_mb()
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["rss_rise_mb"] = _maxrss_mb() - rss
            self._open.pop()

    def count(self, counts: dict[str, int]) -> None:
        """Add to named counts; a count met twice in one replay is summed."""
        for name, value in counts.items():
            self.counts[name] = self.counts.get(name, 0) + int(value)

    def expect(self, what: str, ok: bool) -> None:
        if not ok:
            self.problems.append(f"traced run: {what}")


def _refine(tr: Tracer, graph, epsilon: int, span: str = "engine.refine"):
    with tr.span(span):
        part, stats = run_refinement(graph, epsilon,
                                     EngineConfig(workers=1, collect_work=True))
    return part, stats


def _write_partition(tr: Tracer, part, graph, labels, epsilon: int, out: Path) -> None:
    with tr.span("partition.write"):
        header = {"n": graph.n, "epsilon": epsilon, "algorithm": "eep",
                  "graph_hash": graph.content_hash()}
        with open(out, "w", encoding="utf-8") as fh:
            write_partition_file(fh, part, header=header)
        labels.save(f"{out}.labels")


def _read_partition(tr: Tracer, path: Path):
    with tr.span("partition.read"):
        with open(path, encoding="utf-8") as fh:
            return read_partition_file(fh)[0]


def _load_log(tr: Tracer, path: Path, directed: bool, cutoffs):
    with tr.span("graphs.load_temporal"):
        with open(path, encoding="utf-8") as fh:
            log = load_temporal_edge_list(fh, directed=directed)
    tr.count({"graphs.events": len(log)})
    if directed:
        with tr.span("graphs.reciprocal"):
            log = reciprocal_projection(log)
    with tr.span("graphs.snapshots"):
        graphs, labels = build_snapshots(log, SnapshotSpec(tuple(cutoffs)))
    tr.count({"graphs.n": graphs[-1].n, "graphs.m": graphs[-1].m})
    return graphs, labels


def _same_cells(a, b) -> bool:
    return a.canonical() == b.canonical()


def partition_eps0(tr: Tracer, spec: dict) -> None:
    source = Path(spec["inputs_dir"]) / "G.edges"
    out = Path(spec["scratch"]) / "G.part"
    with tr.span("replay"):
        with tr.span("graphs.load"):
            with open(source, encoding="utf-8") as fh:
                graph, labels = load_edge_list(fh)
        part, stats = _refine(tr, graph, 0)
        _write_partition(tr, part, graph, labels, 0, out)
    tr.count({"graphs.n": graph.n, "graphs.m": graph.m,
              "engine.iterations": stats.iterations, "engine.cells": stats.cells})
    with tr.span("extra"):
        tr.expect("partition read back differs",
                  _same_cells(_read_partition(tr, out), part))
        _refine(tr, gen.power_law(graph.n // 2), 0, span="engine.refine_half")
    with open(Path(spec["seq_dir"]) / "G.part", encoding="utf-8") as fh:
        tr.expect("partition differs from the CLI's",
                  _same_cells(read_partition_file(fh)[0], part))


def snapshot_scale(tr: Tracer, spec: dict) -> None:
    scratch = Path(spec["scratch"])
    with tr.span("replay"):
        graphs, labels = _load_log(tr, Path(spec["inputs_dir"]) / "S.log", True,
                                   spec["cutoffs"])
        with tr.span("graphs.save"):
            for i, graph in enumerate(graphs):
                with open(scratch / f"snap.{i}.edges", "w", encoding="utf-8") as fh:
                    save_edge_list(graph, labels, fh)
            labels.save(scratch / "snap.labels")
        parts = []
        last = scratch / f"snap.{len(graphs) - 1}.edges"
        for eps in wl.SNAPSHOT_EPSILONS:
            with tr.span("graphs.load"):
                with open(last, encoding="utf-8") as fh:
                    graph, snap_labels = load_edge_list(fh)
            part, stats = _refine(tr, graph, eps)
            tr.count({"engine.iterations": stats.iterations, "engine.cells": stats.cells})
            _write_partition(tr, part, graph, snap_labels, eps, scratch / f"S.e{eps}.part")
            parts.append(part)
        read = [_read_partition(tr, scratch / f"S.e{eps}.part")
                for eps in wl.SNAPSHOT_EPSILONS]
        with tr.span("similarity.score"):
            score = similarity_score(*read)
    with open(Path(spec["seq_dir"]) / "similarity.out", encoding="utf-8") as fh:
        tr.expect("similarity differs from the CLI's",
                  json.load(fh)["value"] == score.value)
    tr.expect("partitions read back differ",
              all(_same_cells(a, b) for a, b in zip(parts, read)))


def coevolve_hist(tr: Tracer, spec: dict) -> None:
    with tr.span("replay"):
        (early, late), _ = _load_log(tr, Path(spec["inputs_dir"]) / "H.log", False,
                                     spec["cutoffs"])
        with tr.span("engine.refine"):   # coevolve does not collect work counts
            part, stats = run_refinement(early, 1, EngineConfig(workers=1))
        with tr.span("coevolution.pairs"):
            pairs = same_position_pairs(part, range(early.n), cap=wl.PAIR_CAP, seed=0)
        scores = {}
        for graph in (early, late):
            for name in wl.MEASURES:
                with tr.span(f"centrality.{name}"):
                    scores.setdefault(name, []).append(
                        compute_measures(graph, [name])[name].scores)
        population = sum(len(c) * (len(c) - 1) // 2 for c in part.cells)
        with tr.span("coevolution.report"):
            report = coevolution_report(
                pairs, {m: tuple(s) for m, s in scores.items()},
                sampling={"population_pairs": population, "cap": wl.PAIR_CAP,
                          "sampled": len(pairs) < population, "seed": 0})
    tr.count({"engine.iterations": stats.iterations, "engine.cells": stats.cells,
              "coevolution.pairs": len(pairs), "coevolution.population": population})
    with tr.span("extra"):
        with tr.span("coevolution.histogram"):
            rebuilt = {m: pair_difference_histogram(pairs, *scores[m], measure=m).counts[m]
                       for m in wl.MEASURES}
    tr.expect("rebuilt histograms differ from coevolution_report", rebuilt == report.counts)
    with open(Path(spec["seq_dir"]) / "h.report.json", encoding="utf-8") as fh:
        cli = json.load(fh)
    tr.expect("report differs from the CLI's",
              cli["counts"] == {m: list(c) for m, c in report.counts.items()}
              and cli["total_pairs"] == report.total_pairs)


_PARTITIONERS = {"eep": ("partition.fast_eep", fast_eep),
                 "ep": ("partition.oracle", equitable_oracle),
                 "degree": ("partition.degree", degree_partition)}


def overlap_oracle(tr: Tracer, spec: dict) -> None:
    with tr.span("replay"):
        graphs, _ = _load_log(tr, Path(spec["inputs_dir"]) / "O.log", True,
                              spec["cutoffs"])
        with tr.span("coevolution.overlap"):
            matrix = overlap_matrix(graphs, epsilons=wl.OVERLAP_EPSILONS,
                                    include_equitable=True, include_degree=True,
                                    workers=1)
    with tr.span("extra"):
        by_method = {}
        for method in wl.OVERLAP_METHODS:
            kind, _, eps = method.partition(":")
            span, fn = _PARTITIONERS[kind]
            args = (int(eps),) if eps else ()
            by_method[method] = []
            for graph in graphs:
                with tr.span(span):
                    by_method[method].append(fn(graph, *args))
        rebuilt = {}
        for i in range(len(graphs)):
            for j in range(i + 1, len(graphs)):
                row = {}
                for method in wl.OVERLAP_METHODS:
                    with tr.span("similarity.restrict"):
                        later = restrict_partition(by_method[method][j], range(graphs[i].n))
                    with tr.span("similarity.score"):
                        row[method] = 100.0 * similarity_score(by_method[method][i],
                                                               later).value
                rebuilt[(i, j)] = row
    tr.expect("rebuilt overlap differs from overlap_matrix", rebuilt == matrix.values)
    with open(Path(spec["seq_dir"]) / "o.overlap.json", encoding="utf-8") as fh:
        cli = json.load(fh)["values"]
    tr.expect("overlap differs from the CLI's",
              cli == {f"{i}-{j}": row for (i, j), row in matrix.values.items()})


REPLAYS = {"partition-eps0": partition_eps0, "coevolve-hist": coevolve_hist,
           "snapshot-scale": snapshot_scale, "overlap-oracle": overlap_oracle}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    tracer = Tracer(spec["run_id"])
    REPLAYS[spec["workload"]](tracer, spec)
    Path(spec["out"]).write_text(json.dumps({"spans": tracer.spans,
                                             "counts": tracer.counts,
                                             "problems": tracer.problems}),
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
