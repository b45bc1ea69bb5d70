"""Temporal edge logs and the nested cumulative graph snapshots cut from them;
of the CLI's commands, only those that read a log load this module."""

from __future__ import annotations

from typing import IO, Iterable

import numpy as np

from .graphs import Graph, run_offsets
from .textio import ID_DTYPE, VertexLabelMap, scan


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
