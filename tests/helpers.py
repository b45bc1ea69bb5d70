"""Shared graph and partition builders for the test suite, and the helpers
only the tests call: label lookup, partition equality and intersection, the
per-pair score differences and memory tracing."""

from __future__ import annotations

import gc
import io
import sys
import tracemalloc

import numpy as np

from netpos import Graph, Partition, TemporalEdgeLog, VertexLabelMap
from netpos.coevolution import _checked_pairs, _differences
from netpos.similarity import _common_universe, _meet_labels


def neighbors(graph: Graph, v: int) -> np.ndarray:
    """Sorted read-only array of the neighbors of v."""
    return graph.indices[graph.indptr[v]:graph.indptr[v + 1]]


def degree(graph: Graph, v: int) -> int:
    return int(graph.indptr[v + 1] - graph.indptr[v])


def er_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) graph, deterministic per seed."""
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph.from_edges(n, edges)


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    """Center is vertex 0."""
    return Graph.from_edges(leaves + 1, [(0, i + 1) for i in range(leaves)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def unit_partition(n: int) -> Partition:
    """One cell holding [0, n); no cell when n = 0."""
    return Partition.from_membership(np.zeros(n, dtype=np.int64))


def discrete_partition(vertices) -> Partition:
    """One singleton cell per vertex, ascending."""
    return Partition((v,) for v in sorted(vertices))


def pa_snapshots(n1: int, n2: int, seed: int, m_links: int = 2) -> tuple[Graph, Graph]:
    """Two nested snapshots of a preferential-attachment growth process."""
    rng = np.random.default_rng(seed)
    edges = [(0, 1)]
    targets = [0, 1, 0, 1]
    for v in range(2, n2):
        chosen: set[int] = set()
        while len(chosen) < min(m_links, v):
            chosen.add(targets[rng.integers(len(targets))])
        for t in chosen:
            edges.append((t, v))
            targets.extend((t, v))
    early = [(u, w) for u, w in edges if u < n1 and w < n1]
    return Graph.from_edges(n1, early), Graph.from_edges(n2, edges)


def label_of(labels: VertexLabelMap, vid: int) -> str:
    return labels.labels[vid]


def partitions_equal(p1: Partition, p2: Partition) -> bool:
    """True iff the partitions agree up to cell order and member order."""
    _common_universe(p1, p2)
    return p1.canonical() == p2.canonical()


def partition_intersection(p1: Partition, p2: Partition) -> Partition:
    """Cell-wise intersection, empties discarded, canonicalized.

    Computed in O(N log N) by grouping each vertex on its (cell-in-p1,
    cell-in-p2) index pair rather than crossing cells.
    """
    return Partition._from_labels(p1.universe, _meet_labels(p1, p2)).canonical()


def pair_difference_values(pairs, scores_t, scores_later) -> np.ndarray:
    """|(a_t - b_t) - (a_t' - b_t')| for every pair; symmetric in (a, b).

    ``pairs`` is a (k, 2) array or a sequence of (a, b) tuples; both score
    sets are arrays indexed by vertex id.
    """
    return _differences(*_checked_pairs(pairs, scores_t, scores_later))


def log_rows(log: TemporalEdgeLog) -> list[tuple[str, str, int]]:
    """The rows of a temporal log as (source label, target label, timestamp)."""
    names = log.labels.labels
    return [(names[s], names[t], ts) for s, t, ts in
            zip(log.source.tolist(), log.target.tolist(), log.timestamp.tolist())]


def edge_set(graph: Graph) -> set[tuple[int, int]]:
    """Each undirected edge of the graph once, as (u, w) with u < w."""
    rows = np.repeat(np.arange(graph.n), graph.degrees)
    return {(u, w) for u, w in zip(rows.tolist(), graph.indices.tolist()) if u < w}


def traced(fn):
    """``fn()``, the memory it leaves allocated and its peak, both above the
    memory traced when it starts, by tracemalloc, with the cyclic collector
    off as the CLI runs."""
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    return result, held - before, peak - before


class _Tee(io.BytesIO):
    """A byte stream that also copies every write into a shared one."""

    def __init__(self, shared: io.BytesIO):
        super().__init__()
        self.shared = shared

    def write(self, data) -> int:
        self.shared.write(data)
        return super().write(data)


class CliResult:
    """A CLI run's exit code and what it wrote, as bytes and as text; ``output``
    interleaves stdout and stderr in the order they were written."""

    def __init__(self, exit_code: int, stdout_bytes: bytes, stderr_bytes: bytes,
                 output_bytes: bytes):
        self.exit_code = exit_code
        self.stdout_bytes, self.stderr_bytes = stdout_bytes, stderr_bytes
        self.stdout, self.stderr, self.output = (
            b.decode("utf-8") for b in (stdout_bytes, stderr_bytes, output_bytes))


class CliRunner:
    """Runs a CLI ``main(args)`` in this process with stdout and stderr captured."""

    def invoke(self, main, args) -> CliResult:
        output = io.BytesIO()
        out, err = (io.TextIOWrapper(_Tee(output), encoding="utf-8", write_through=True)
                    for _ in range(2))
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        try:
            code = main(list(args))
        finally:
            sys.stdout, sys.stderr = saved
        return CliResult(code, out.buffer.getvalue(), err.buffer.getvalue(),
                         output.getvalue())
