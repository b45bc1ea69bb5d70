"""Graph model and ingestion: edge lists, temporal logs, snapshots, generation.

Vertices carry dense integer ids internally; external string labels live in a
:class:`~netpos.textio.VertexLabelMap`, as one UTF-8 byte pool. Graphs are
undirected, simple, and immutable once built. The label map, the text reader
and the edge-list writer are in :mod:`netpos.textio`.
"""

from __future__ import annotations

import hashlib
from typing import IO, Iterable

import numpy as np

from .textio import ID_DTYPE, VertexLabelMap, scan


def ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated index ranges [starts_i, starts_i + lens_i), in order."""
    shift = starts - lens.cumsum()
    shift += lens
    flat = np.repeat(shift, lens)
    del shift
    flat += np.arange(flat.size, dtype=ID_DTYPE)
    return flat


def run_offsets(values: np.ndarray) -> np.ndarray:
    """Start offset of each run of equal values in a sorted array, then its size."""
    size = values.size
    edge = np.empty(size + 1, dtype=bool)
    edge[0] = edge[size] = True
    np.not_equal(values[1:], values[:-1], out=edge[1:size])
    return edge.nonzero()[0]


class Graph:
    """Immutable undirected simple graph over dense vertex ids [0, n).

    Adjacency is stored CSR-style: the neighbors of ``v`` are
    ``indices[indptr[v]:indptr[v+1]]``, strictly ascending. ``self_loops_dropped``
    and ``duplicates_collapsed`` record what was erased to keep the graph simple.
    """

    __slots__ = ("n", "m", "indptr", "indices", "self_loops_dropped",
                 "duplicates_collapsed")

    def __init__(self, n: int, indptr, indices, *, self_loops_dropped: int = 0,
                 duplicates_collapsed: int = 0):
        self.n = int(n)
        self.indptr = np.ascontiguousarray(indptr, dtype=ID_DTYPE)
        self.indices = np.ascontiguousarray(indices, dtype=ID_DTYPE)
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)
        self.m = int(self.indices.size) // 2
        self.self_loops_dropped = int(self_loops_dropped)
        self.duplicates_collapsed = int(duplicates_collapsed)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a simple graph from (u, v) pairs, erasing self-loops and duplicates.

        Beyond the pairs, it peaks at about three int64 a pair, the result's
        two ``indices`` among them.
        """
        if isinstance(edges, np.ndarray):
            arr = edges.astype(ID_DTYPE, copy=False)
        else:
            arr = np.array(list(edges), dtype=ID_DTYPE)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise ValueError(f"edge endpoint outside [0, {n})")

        # dedupe on the 1-D key lo * n + hi: sorted keys are sorted (lo, hi)
        # pairs; sort-based, as numpy's hashing np.unique is many times slower.
        # A self-loop's key is -1, so the loops sort first and are cut off
        keys = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        loop = keys == hi
        loops = int(np.count_nonzero(loop))
        keys *= n
        keys += hi
        del hi
        keys[loop] = -1
        del loop
        keys.sort()
        keys = keys[loops:]
        keys = keys[run_offsets(keys)[:-1]]
        dups = arr.shape[0] - loops - keys.size
        # every edge in both directions, keyed and sorted by (head, tail)
        size = keys.size
        both = np.empty(2 * size, dtype=ID_DTYPE)
        both[:size] = keys
        lo, hi = np.divmod(keys, n, out=(keys, both[size:]))
        hi *= n
        hi += lo
        del keys, lo, hi
        both.sort()
        indptr = np.searchsorted(both, np.arange(n + 1, dtype=ID_DTYPE) * n)
        both %= n
        return cls(n, indptr, both, self_loops_dropped=loops,
                   duplicates_collapsed=dups)

    def adjacent(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The neighbours of each of ``vertices``, concatenated, and their degrees."""
        starts = self.indptr[vertices]
        degrees = self.indptr[vertices + 1] - starts
        return self.indices[ranges(starts, degrees)], degrees

    def tally(self, sources: np.ndarray, groups: np.ndarray
              ) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray, int]:
        """Count the adjacency entries of ``sources`` by (neighbour, source group).

        ``groups`` holds one label in [0, n) per source. Returns the distinct
        (neighbour, group) pairs, ascending, as two arrays, the count of each
        and the number of entries gathered: one sort, over the sources' volume.
        """
        key, lens = self.adjacent(sources)
        key *= self.n
        key += np.repeat(groups, lens)
        del lens
        key.sort()
        runs = run_offsets(key)
        return np.divmod(key[runs[:-1]], max(self.n, 1)), runs[1:] - runs[:-1], key.size

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(np.array([self.n, self.m], dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(self.indptr, "<i8"))
        h.update(np.ascontiguousarray(self.indices, "<i8"))
        return "sha256:" + h.hexdigest()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __hash__(self):
        return hash((self.n, self.m, self.content_hash()))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class TemporalEdgeLog:
    """Timestamped edge events as three read-only int64 columns.

    Row i is the event from label ``source[i]`` to label ``target[i]`` of the
    :class:`VertexLabelMap` ``labels`` at unix time ``timestamp[i]``;
    ``directed`` says whether a row's direction carries meaning. Given as
    ``str``, the labels are kept as given, repeats included. The columns are
    copies of what is passed in, but for int64 arrays already read-only, which
    are kept as they are (the readers hand over their fresh columns so).
    """

    __slots__ = ("source", "target", "timestamp", "labels", "directed")

    def __init__(self, source, target, timestamp,
                 labels: VertexLabelMap | Iterable[str], directed: bool = True):
        columns = [c if isinstance(c, np.ndarray) and c.dtype == ID_DTYPE
                   and not c.flags.writeable else np.array(c, dtype=ID_DTYPE)
                   for c in (source, target, timestamp)]
        for column in columns:
            column.setflags(write=False)
        self.source, self.target, self.timestamp = columns
        self.labels = (labels if isinstance(labels, VertexLabelMap)
                       else VertexLabelMap._table(labels))
        self.directed = directed
        if not self.source.shape == self.target.shape == self.timestamp.shape:
            raise ValueError("source, target and timestamp differ in length")
        if self.source.size:
            if (min(self.source.min(), self.target.min()) < 0
                    or max(self.source.max(), self.target.max()) >= len(self.labels)):
                raise ValueError("label id outside the label table")
            if self.timestamp.min() < 0:
                raise ValueError("negative timestamp")

    def __len__(self) -> int:
        return int(self.source.size)


class SnapshotSpec:
    """Strictly ascending snapshot cutoff timestamps."""

    __slots__ = ("cutoffs",)

    def __init__(self, cutoffs: tuple[int, ...]):
        if not cutoffs:
            raise ValueError("at least one cutoff required")
        if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
            raise ValueError("cutoffs must be strictly ascending")
        self.cutoffs = cutoffs


class GeneratorConfig:
    """Power-law generator parameters: P(k) proportional to k**(-gamma)."""

    __slots__ = ("n", "gamma", "seed")

    def __init__(self, n: int, gamma: float, seed: int = 0):
        if n < 1:
            raise ValueError("n must be >= 1")
        if not gamma > 1:
            raise ValueError("gamma must be > 1")
        self.n, self.gamma, self.seed = n, gamma, seed


def load_edge_list(stream: IO[str] | Iterable[str]) -> tuple[Graph, VertexLabelMap]:
    """Read '<label> <label> [<unix-timestamp>]' lines into a simple graph.

    Blank lines and '#' comments are skipped; timestamps are validated but not
    used. Duplicate edges collapse; self-loops are dropped and counted on the
    returned graph.
    """
    labels, edges, _ = scan(stream, (2, 3))
    return Graph.from_edges(len(labels), edges), labels


def load_temporal_edge_list(stream: IO[str] | Iterable[str], *,
                            directed: bool = True) -> TemporalEdgeLog:
    """Read '<label> <label> <unix-timestamp>' lines into a TemporalEdgeLog."""
    labels, edges, times = scan(stream, (3,))
    edges.setflags(write=False)     # kept by the log, not copied
    times.setflags(write=False)
    return TemporalEdgeLog(edges[:, 0], edges[:, 1], times, labels, directed)


def _canonical_order(labels: VertexLabelMap, source: np.ndarray,
                     target: np.ndarray, timestamp: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Row order by (timestamp, source label, target label), labels in ``str``
    order and equal labels by id, and the timestamps in that order.

    One argsort of the timestamps; rows are re-sorted by label rank
    (``VertexLabelMap.ranks``) only among rows whose timestamp another row
    shares. Rows that tie on all of that are identical, so no sort here needs
    to be stable but the last.
    """
    order = timestamp.argsort()
    times = timestamp[order]
    tied = np.zeros(times.size, dtype=bool)
    np.equal(times[1:], times[:-1], out=tied[1:])
    tied[:-1] |= tied[1:]
    rows = order[tied]
    if rows.size:
        ranks = labels.ranks()
        # by rank pair (below 2**63 for fewer than 3e9 labels), then stably
        # by timestamp, so that the tied rows keep their places
        by_ranks = (ranks[source[rows]] * len(labels) + ranks[target[rows]]).argsort()
        order[tied] = rows[by_ranks[times[tied][by_ranks].argsort(kind="stable")]]
    return order, times


def reciprocal_projection(log: TemporalEdgeLog) -> TemporalEdgeLog:
    """Project a directed log to the undirected reciprocated-link log.

    An undirected event (a, b) appears iff both a->b and b->a occur; its
    timestamp is the moment the later of the two directions first appeared.
    Each pair is oriented with its lower label (in ``str`` order; the lower id
    where the two labels are equal) as source, and rows are in canonical
    (timestamp, source, target) order, so the result is invariant to input
    order. The label table is kept. One argsort of keys that name each
    row's unordered pair and its direction (below 2**63 for fewer than about
    2.1e9 labels, as ``_canonical_order``'s rank pairs are for fewer than
    3e9) finds the pairs seen both ways. Beyond the log, it peaks at about
    twice the log's three columns, its label ranks included (1.8 times at
    983,701 events).
    """
    if not log.directed:
        raise ValueError("reciprocal_projection requires a directed log")
    ranks = log.labels.ranks()      # before the temporaries below are live
    k = max(len(log.labels), 1)
    # each row keyed by its unordered pair, lower id first, then a bit that
    # is set where the row runs from the higher id; the pair key lo * k + hi
    # is built as lo * (k - 1) + source + target, with no temporary for hi
    keys = np.minimum(log.source, log.target)
    keys *= k - 1
    keys += log.source
    keys += log.target
    keys *= 2
    keys += log.source > log.target
    order = keys.argsort()
    keys = keys[order]
    times = log.timestamp[order]
    del order
    # each direction once, at its earliest time: the minimum over its run
    runs = run_offsets(keys)[:-1]
    times = np.minimum.reduceat(times, runs)
    keys = keys[runs]
    del runs
    # a pair seen both ways is now two equal keys in a row; a self-loop has
    # one direction only, so it is never one of them
    keys >>= 1
    at = np.flatnonzero(keys[1:] == keys[:-1])
    src, tgt = np.divmod(keys[at], k)
    del keys
    times = np.maximum(times[at], times[at + 1])
    del at
    # swap the ends where the target's label sorts first
    swap = np.flatnonzero(ranks[tgt] < ranks[src])
    src[swap], tgt[swap] = tgt[swap], src[swap]
    del swap
    order, times = _canonical_order(log.labels, src, tgt, times)
    src = src[order]
    tgt = tgt[order]
    del order
    for column in (src, tgt, times):
        column.setflags(write=False)    # kept by the log, not copied
    return TemporalEdgeLog(src, tgt, times, log.labels, directed=False)


def build_snapshots(log: TemporalEdgeLog,
                    spec: SnapshotSpec) -> tuple[list[Graph], VertexLabelMap]:
    """Build nested cumulative snapshots, one per cutoff, over a shared label map.

    Snapshot i holds exactly the edges whose first event is at or before
    cutoff i; a vertex belongs to a snapshot iff it is incident to a retained
    edge. Ids are assigned in order of first appearance in canonical
    (timestamp, source label, target label) event order (see
    ``_canonical_order``), source before target, so each snapshot's vertex
    set is the dense prefix [0, n_i). Self-loops and events after the last
    cutoff are ignored. Beyond the log, it peaks at about 1.5 times its
    result, the snapshots' CSR arrays and the label map (1.46 times at
    983,701 events).
    """
    rows = np.flatnonzero((log.source != log.target) & (log.timestamp <= spec.cutoffs[-1]))
    order, times = _canonical_order(log.labels, log.source[rows], log.target[rows],
                                    log.timestamp[rows])
    rows = rows[order]
    del order
    events_in = np.searchsorted(times, spec.cutoffs, side="right")
    del times
    ends = np.empty((rows.size, 2), dtype=ID_DTYPE)
    ends[:, 0] = log.source[rows]
    ends[:, 1] = log.target[rows]
    del rows
    # each label's first position in ``ends``, or ends.size where it is absent
    first = np.full(len(log.labels), ends.size, dtype=ID_DTYPE)
    np.minimum.at(first, ends.ravel(), np.arange(ends.size))
    seen = np.flatnonzero(first < ends.size)
    seen = seen[first[seen].argsort()]      # in order of first appearance
    n_in = np.searchsorted(first[seen], 2 * events_in)
    del first
    new_id = np.empty(len(log.labels), dtype=ID_DTYPE)
    new_id[seen] = np.arange(seen.size)
    ends = new_id[ends]
    del new_id
    # a snapshot's events from the first on: repeated pairs collapse there
    graphs = [Graph.from_edges(int(n_i), ends[:e_i]) for n_i, e_i in zip(n_in, events_in)]
    del ends
    return graphs, log.labels._subset(seen)


def generate_power_law(config: GeneratorConfig) -> Graph:
    """Erased configuration model with degrees drawn from P(k) ~ k**(-gamma).

    Degrees are sampled on [1, n-1]; if the stub total is odd, one random
    vertex (below the cap) gains a stub. Multi-edges and self-loops are erased
    and counted. Pure function of (n, gamma, seed).
    """
    n = config.n
    if n < 2:
        raise ValueError("generator needs n >= 2")
    rng = np.random.default_rng(config.seed)
    ks = np.arange(1, n, dtype=np.float64)
    weights = ks ** (-config.gamma)
    degrees = rng.choice(np.arange(1, n, dtype=ID_DTYPE), size=n,
                         p=weights / weights.sum())
    if int(degrees.sum()) % 2:
        while True:
            i = int(rng.integers(n))
            if degrees[i] < n - 1:
                degrees[i] += 1
                break
    stubs = np.repeat(np.arange(n, dtype=ID_DTYPE), degrees)
    rng.shuffle(stubs)
    return Graph.from_edges(n, stubs.reshape(-1, 2))
