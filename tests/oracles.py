"""Reference implementations that only the tests use.

Each helper is the direct, per-vertex or per-cell-pair form of a quantity the
library computes in bulk, or a check of its invariants: the CSR invariants of
a simple undirected graph, the active list and SPLIT step of the refinement
loop, degrees toward a cell, the dense signature matrix behind the coarsest
equitable partition, the dense degree matrix behind the epsilon spread,
partition equality, intersection and restriction over cell tuples, the
cross-product intersection count, exact rational betweenness, per-edge
triangle counts, the per-line edge-list and log reader, the per-line label
map and edge-list writers, the string-keyed
per-event reciprocal projection and snapshot construction, the same two cut
by ranking every label and sorting whole logs with ``np.lexsort`` (the
array ordering that held before canonical order was found from one timestamp
sort), the set-based same-position pair sampler with its scalar pair
unranking, the per-cell partition file writer and set-based reader, and the
per-vertex centrality row writer. Tests compare the library against them.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from collections import deque
from fractions import Fraction
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from netpos import (Graph, Partition, SnapshotSpec, TemporalEdgeLog,
                    VertexLabelMap)
from netpos.textio import ID_DTYPE, ParseError
from netpos.partition import check_epsilon
from netpos.similarity import UniverseMismatchError, _common_universe

from helpers import neighbors


class ActiveList:
    """Ordered queue of cell indices pending refinement; pops the minimum index."""

    __slots__ = ("_items",)

    def __init__(self, indices: Iterable[int] = ()):
        items = [int(i) for i in indices]
        if len(set(items)) != len(items):
            raise ValueError("active list may not contain duplicate indices")
        self._items = items

    def pop_min(self) -> int:
        if not self._items:
            raise IndexError("pop from empty active list")
        pos = min(range(len(self._items)), key=self._items.__getitem__)
        return self._items.pop(pos)

    def updated(self, split_map: Mapping[int, Sequence[int]]) -> "ActiveList":
        """Apply the post-split update rule.

        Entries whose cell fragmented are replaced in place by all fragment
        indices (ascending); unsplit entries are renumbered; fragments of
        cells not on the list are appended in ascending index order.
        """
        fragmented = {old for old, news in split_map.items() if len(news) > 1}
        out: list[int] = []
        for idx in self._items:
            news = split_map[idx]
            if len(news) > 1:
                out.extend(int(i) for i in news)
            else:
                out.append(int(news[0]))
        present = set(self._items)
        tail = sorted(int(i) for old in fragmented if old not in present
                      for i in split_map[old])
        return ActiveList(out + tail)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __repr__(self):
        return f"ActiveList({self._items!r})"


def validate_graph(graph: Graph) -> None:
    """Check the simple-undirected CSR invariants; raises ValueError on violation."""
    indptr, indices, n = graph.indptr, graph.indices, graph.n
    if indptr.size != n + 1 or indptr[0] != 0:
        raise ValueError("bad indptr")
    if np.any(np.diff(indptr) < 0) or indptr[-1] != indices.size:
        raise ValueError("bad indptr")
    if indices.size:
        if indices.min() < 0 or indices.max() >= n:
            raise ValueError("neighbor id out of range")
    rows = np.repeat(np.arange(n, dtype=ID_DTYPE), graph.degrees)
    if np.any(rows == indices):
        raise ValueError("self-loop present")
    # strictly ascending inside each adjacency run
    if indices.size > 1:
        ascending = indices[1:] > indices[:-1]
        run_starts = np.zeros(indices.size - 1, dtype=bool)
        starts = indptr[1:-1]
        run_starts[starts[(starts > 0) & (starts < indices.size)] - 1] = True
        if not np.all(ascending | run_starts):
            raise ValueError("adjacency list not strictly ascending")
    # symmetry: the (u, w) multiset equals the (w, u) multiset
    fwd = np.lexsort((indices, rows))
    rev = np.lexsort((rows, indices))
    if not (np.array_equal(rows[fwd], indices[rev])
            and np.array_equal(indices[fwd], rows[rev])):
        raise ValueError("adjacency not symmetric")


def degree_to_cell(graph: Graph, u: int, cell) -> int:
    """Number of neighbors of u inside the given vertex set.

    Intersects adjacency(u) with the cell, iterating the smaller side against
    a binary search of the larger.
    """
    if not 0 <= u < graph.n:
        raise ValueError(f"vertex {u} outside [0, {graph.n})")
    adj = neighbors(graph, u)
    if isinstance(cell, (set, frozenset)):
        members = np.fromiter(cell, dtype=ID_DTYPE, count=len(cell))
    else:
        members = np.asarray(cell, dtype=ID_DTYPE)
    if members.size and (members.min() < 0 or members.max() >= graph.n):
        raise ValueError("cell contains ids outside the graph")
    if members.size == 0 or adj.size == 0:
        return 0
    members = np.unique(members)
    if members.size <= adj.size:
        small, large = members, adj
    else:
        small, large = adj, members
    pos = np.searchsorted(large, small)
    pos[pos == large.size] = large.size - 1
    return int(np.count_nonzero(large[pos] == small))


def degree_vector(graph: Graph, u: int, partition: Partition) -> np.ndarray:
    """Per-cell neighbor counts of u, ordered like the partition's cells."""
    memb = partition.membership
    counts = np.zeros(len(partition), dtype=ID_DTYPE)
    for w in neighbors(graph, u):
        counts[memb[int(w)]] += 1
    return counts


def _degree_values(f, members: np.ndarray) -> np.ndarray:
    if isinstance(f, Mapping):
        try:
            return np.array([f[int(v)] for v in members], dtype=ID_DTYPE)
        except KeyError as exc:
            raise ValueError(f"degree function undefined for vertex {exc.args[0]}") from None
    arr = np.asarray(f)
    if members.size and members.max() >= arr.shape[0]:
        raise ValueError("degree function undefined for some vertices")
    return arr[members].astype(ID_DTYPE, copy=False)


def _fragment_cell(members: np.ndarray, fvals: np.ndarray,
                   eps: int) -> list[np.ndarray] | None:
    """Greedy epsilon-grouping of one cell, or None if it stays whole.

    The per-cell form of the refinement loop's split: members are taken in
    ascending f, and each starts a new group when its f exceeds the current
    group's first (least) f by more than eps. Fragments come out in
    ascending-f order with members sorted by id.
    """
    if int(fvals.max()) - int(fvals.min()) <= eps:
        return None
    order = np.argsort(fvals, kind="stable")
    groups: list[list[int]] = []
    for v, value in zip(members[order].tolist(), fvals[order].tolist()):
        if not groups or value > low + eps:
            groups.append([])
            low = value
        groups[-1].append(v)
    return [np.sort(np.asarray(group, dtype=ID_DTYPE)) for group in groups]


def split(partition: Partition, f, epsilon) -> tuple[Partition, dict[int, tuple[int, ...]]]:
    """Split every cell by the degree function under the epsilon rule.

    Returns the refined partition (fragments replace their source cell in
    ascending-f order) and a map from each old cell index to its new indices;
    an old cell fragmented iff its entry has more than one index.

    ``f`` may be an array indexed by vertex id or a mapping; values must be
    non-negative integers defined for every vertex of the partition.
    """
    eps = check_epsilon(epsilon)
    new_cells: list[tuple[int, ...]] = []
    split_map: dict[int, tuple[int, ...]] = {}
    for old, cell in enumerate(partition.cells):
        members = np.asarray(cell, dtype=ID_DTYPE)
        fvals = _degree_values(f, members)
        if fvals.size and fvals.min() < 0:
            raise ValueError("degree function values must be non-negative")
        start = len(new_cells)
        parts = _fragment_cell(members, fvals, eps) if members.size > 1 else None
        if parts is None:
            new_cells.append(cell)
        else:
            for part in parts:
                new_cells.append(tuple(int(v) for v in part))
        split_map[old] = tuple(range(start, len(new_cells)))
    return Partition(tuple(new_cells)), split_map


def _cells_intersect(a: Sequence[int], b: Sequence[int]) -> bool:
    # sorted-merge, early exit on the first common element
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x == y:
            return True
        if x < y:
            i += 1
        else:
            j += 1
    return False


def intersection_cardinality_cellpairs(p1: Partition, p2: Partition) -> int:
    """|p1 ^ p2| by enumerating all K x L cell pairs and counting overlaps.

    This is the cross-product formulation of the paper's MapReduce job: each
    overlapping pair contributes a single 1 and a summing reducer adds them up.
    """
    _common_universe(p1, p2)
    return sum(1 for a in p1.cells for b in p2.cells if _cells_intersect(a, b))


def _universe(partition: Partition) -> frozenset[int]:
    return frozenset(v for cell in partition.cells for v in cell)


def common_universe_ref(p1: Partition, p2: Partition) -> frozenset[int]:
    """The shared vertex set of two partitions, compared as Python sets."""
    u1, u2 = _universe(p1), _universe(p2)
    if u1 != u2:
        raise UniverseMismatchError(
            f"partitions cover different vertex sets "
            f"({len(u1 - u2)} vertices only in the first, "
            f"{len(u2 - u1)} only in the second)")
    return u1


def partitions_equal_ref(p1: Partition, p2: Partition) -> bool:
    """Equality up to cell order, as sets of member tuples."""
    common_universe_ref(p1, p2)
    return frozenset(p1.cells) == frozenset(p2.cells)


def partition_intersection_ref(p1: Partition, p2: Partition) -> Partition:
    """Cell-wise intersection by grouping vertices on a dict of cell-index pairs."""
    universe = common_universe_ref(p1, p2)
    m1 = {v: i for i, cell in enumerate(p1.cells) for v in cell}
    m2 = {v: i for i, cell in enumerate(p2.cells) for v in cell}
    groups: dict[tuple[int, int], list[int]] = {}
    for v in universe:
        groups.setdefault((m1[v], m2[v]), []).append(v)
    return Partition(sorted((tuple(sorted(g)) for g in groups.values()),
                            key=lambda c: c[0]))


def restrict_partition_ref(partition: Partition, keep: Iterable[int]) -> Partition:
    """Filter every cell by a Python set, dropping the empties."""
    keep_set = {int(v) for v in keep}
    extra = keep_set - _universe(partition)
    if extra:
        raise ValueError(f"keep set contains vertices outside the partition "
                         f"universe, e.g. {min(extra)}")
    cells = (tuple(v for v in cell if v in keep_set) for cell in partition.cells)
    return Partition(cell for cell in cells if cell)


def similarity_value_ref(p1: Partition, p2: Partition) -> float:
    """The two-fraction similarity value from the reference equality and meet."""
    n = len(common_universe_ref(p1, p2))
    k1, k2 = len(p1), len(p2)
    if partitions_equal_ref(p1, p2):
        return 1.0
    if k1 == n or k2 == n:
        return 0.0
    inter = len(partition_intersection_ref(p1, p2))
    return 0.5 * ((n - inter) / (n - k1) + (n - inter) / (n - k2))


def _brandes_source(graph: Graph, s: int):
    """BFS from s; returns (visit order, predecessor lists, path counts)."""
    n = graph.n
    dist = np.full(n, -1, dtype=ID_DTYPE)
    sigma = [0] * n
    preds: list[list[int]] = [[] for _ in range(n)]
    dist[s] = 0
    sigma[s] = 1
    order: list[int] = []
    queue = deque([s])
    while queue:
        v = queue.popleft()
        order.append(v)
        dv = dist[v]
        for w in neighbors(graph, v):
            w = int(w)
            if dist[w] < 0:
                dist[w] = dv + 1
                queue.append(w)
            if dist[w] == dv + 1:
                sigma[w] += sigma[v]
                preds[w].append(v)
    return order, preds, sigma


def betweenness_centrality_exact(graph: Graph) -> list[Fraction]:
    """Betweenness with exact rational arithmetic.

    Same convention as netpos.betweenness_centrality; path-count ratios are
    kept as Fractions so results can be compared for strict equality.
    """
    n = graph.n
    totals = [Fraction(0)] * n
    for s in range(n):
        order, preds, sigma = _brandes_source(graph, s)
        delta = [Fraction(0)] * n
        for w in reversed(order):
            coeff = (1 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
        for w in order:
            if w != s:
                totals[w] += delta[w]
    return [t / 2 for t in totals]


def triangle_counts_ref(graph: Graph) -> np.ndarray:
    """Per-vertex triangle counts by per-edge adjacency intersection.

    The per-vertex form of netpos.triangle_counts: edges point from lower to
    higher (degree, id) rank, and each forward edge v -> w intersects the
    forward lists of v and w, so each triangle is found exactly once and
    credited to all three members.
    """
    n = graph.n
    counts = np.zeros(n, dtype=ID_DTYPE)
    rank = np.empty(n, dtype=ID_DTYPE)
    rank[np.lexsort((np.arange(n), graph.degrees))] = np.arange(n)
    forward = [neighbors(graph, v)[rank[neighbors(graph, v)] > rank[v]]
               for v in range(n)]
    for v in range(n):
        fv = forward[v]
        for w in fv:
            common = np.intersect1d(fv, forward[int(w)], assume_unique=True)
            if common.size:
                counts[v] += common.size
                counts[int(w)] += common.size
                counts[common] += 1
    return counts


def equitable_oracle_dense(graph: Graph) -> Partition:
    """Coarsest equitable partition from dense n x k degree signatures.

    The direct form of netpos.equitable_oracle: every round row v of an n x k
    matrix holds v's own colour and its degree toward every colour, and
    vertices are relabelled by distinct rows until the colour count stops
    growing. O(n*k) memory per round, so small graphs only.
    """
    n = graph.n
    if n == 0:
        return Partition(())
    memb = np.zeros(n, dtype=ID_DTYPE)
    k = 1
    rows = np.repeat(np.arange(n, dtype=ID_DTYPE), graph.degrees)
    while True:
        sig = np.zeros((n, k), dtype=ID_DTYPE)
        np.add.at(sig, (rows, memb[graph.indices]), 1)
        _, new = np.unique(np.column_stack([memb, sig]), axis=0,
                           return_inverse=True)
        new_k = int(new.max()) + 1
        if new_k == k:
            break
        memb = new.astype(ID_DTYPE)
        k = new_k
    return Partition.from_membership(memb).canonical()


def epsilon_spread_dense(graph: Graph, partition: Partition) -> int:
    """Largest within-cell degree spread from the dense n x K degree matrix.

    The direct form of netpos.epsilon_spread: row v of the matrix holds the
    degree of v toward every cell. O(n*K) memory, so small graphs only.
    """
    n = graph.n
    if n == 0 or len(partition) == 0:
        return 0
    memb = partition.membership_array(n)
    sig = np.zeros((n, len(partition)), dtype=ID_DTYPE)
    rows = np.repeat(np.arange(n, dtype=ID_DTYPE), graph.degrees)
    np.add.at(sig, (rows, memb[graph.indices]), 1)
    worst = 0
    for cell in partition.cells:
        block = sig[list(cell)]
        worst = max(worst, int((block.max(axis=0) - block.min(axis=0)).max()))
    return worst


def scan_reference(stream: IO[str] | Iterable[str], fields: tuple[int, ...]):
    """The per-line form of ``netpos.textio.scan``, interning labels in a dict.

    Each line is split with ``str.split``; blank lines and lines whose first
    token starts with '#' are skipped, and the first line with a field count
    outside ``fields`` or a timestamp outside [0, 2**63) raises a ParseError
    naming it. Returns the labels in order of first appearance, the
    (source, target) ids as an (events, 2) array and the timestamps.
    """
    ids: dict[str, int] = {}
    intern = ids.setdefault
    ends: list[int] = []
    times: list[int] = []
    for line_no, raw in enumerate(stream, 1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) not in fields:
            expected = " or ".join(map(str, fields))
            raise ParseError(f"expected {expected} fields, got {len(tokens)}", line_no)
        if len(tokens) == 3:
            try:
                ts = int(tokens[2])
            except ValueError:
                ts = -1
            if not 0 <= ts < 2**63:
                raise ParseError(f"bad timestamp {tokens[2]!r}", line_no)
            times.append(ts)
        ends += intern(tokens[0], len(ids)), intern(tokens[1], len(ids))
    return (list(ids), np.array(ends, dtype=ID_DTYPE).reshape(-1, 2),
            np.array(times, dtype=ID_DTYPE))


def _canonical(events):
    return sorted(events, key=lambda e: (e[2], e[0], e[1]))


def reciprocal_reference(events) -> list[tuple[str, str, int]]:
    """Reciprocated links of directed (source, target, timestamp) events.

    The string-keyed form of ``reciprocal_projection``: (a, b, t) with a < b
    for each pair linked both ways, t the later of the two directions' first
    times, in canonical (timestamp, source, target) order.
    """
    first_seen: dict[tuple[str, str], int] = {}
    for source, target, ts in events:
        if source != target:
            first_seen[(source, target)] = min(ts, first_seen.get((source, target), ts))
    return _canonical((a, b, max(t_ab, first_seen[(b, a)]))
                      for (a, b), t_ab in first_seen.items()
                      if a < b and (b, a) in first_seen)


def snapshots_reference(events, cutoffs) -> tuple[list[Graph], tuple[str, ...]]:
    """Nested snapshots of (source, target, timestamp) events, one per cutoff.

    The string-keyed per-event form of ``build_snapshots``: events are walked
    in canonical order, labels get ids on first appearance (source before
    target), and each cutoff keeps the pairs first seen at or before it.
    Returns the graphs and the label tuple.
    """
    ids: dict[str, int] = {}
    edge_list: list[tuple[int, int]] = []
    seen_pairs: set[tuple[int, int]] = set()
    checkpoints: list[tuple[int, int]] = []
    ci = 0
    for source, target, ts in _canonical(events):
        while ci < len(cutoffs) and ts > cutoffs[ci]:
            checkpoints.append((len(ids), len(edge_list)))
            ci += 1
        if ci == len(cutoffs):
            break
        if source == target:
            continue
        u = ids.setdefault(source, len(ids))
        v = ids.setdefault(target, len(ids))
        pair = (min(u, v), max(u, v))
        if pair not in seen_pairs:
            seen_pairs.add(pair)
            edge_list.append(pair)
    checkpoints += [(len(ids), len(edge_list))] * (len(cutoffs) - ci)
    return ([Graph.from_edges(n_i, edge_list[:k_i]) for n_i, k_i in checkpoints],
            tuple(ids))


def _label_ranks(labels: tuple[str, ...], ids: np.ndarray) -> np.ndarray:
    """Ranks of the labels of ``ids`` in ``str`` order, equal labels by id,
    indexed by id; only the entries at ``ids`` are meaningful."""
    ids = np.flatnonzero(np.bincount(ids, minlength=len(labels))).tolist()
    ranks = np.zeros(len(labels), dtype=ID_DTYPE)
    ranks[sorted(ids, key=labels.__getitem__)] = np.arange(len(ids))
    return ranks


def reciprocal_projection_lexsort(log: TemporalEdgeLog) -> TemporalEdgeLog:
    """``reciprocal_projection`` over id arrays, ordered by whole-log sorts:
    a lexsort of (direction, time) for each direction's first time, every
    end's label rank for orientation, and a lexsort of (time, source rank,
    target rank) for canonical order."""
    k = len(log.labels)
    links = log.source != log.target
    keys = log.source[links] * k + log.target[links]
    times = log.timestamp[links]
    order = np.lexsort((times, keys))
    keys, times = keys[order], times[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys, times = keys[first], times[first]
    src, tgt = np.divmod(keys, max(k, 1))
    at = np.minimum(np.searchsorted(keys, tgt * k + src), keys.size - 1)
    both = keys[at] == tgt * k + src
    src, tgt = src[both], tgt[both]
    times = np.maximum(times[both], times[at[both]])
    ranks = _label_ranks(log.labels.labels, src)
    keep = ranks[src] < ranks[tgt]
    src, tgt, times = src[keep], tgt[keep], times[keep]
    order = np.lexsort((ranks[tgt], ranks[src], times))
    return TemporalEdgeLog(src[order], tgt[order], times[order], log.labels,
                           directed=False)


def snapshots_lexsort(log: TemporalEdgeLog,
                      spec: SnapshotSpec) -> tuple[list[Graph], tuple[str, ...]]:
    """``build_snapshots`` with canonical order from every end's label rank and
    one lexsort of the whole log, then ids walked edge by edge in that order.
    Returns the graphs and the label tuple."""
    kept = (log.source != log.target) & (log.timestamp <= spec.cutoffs[-1])
    src, tgt, times = log.source[kept], log.target[kept], log.timestamp[kept]
    ranks = _label_ranks(log.labels.labels, np.concatenate([src, tgt]))
    order = np.lexsort((ranks[tgt], ranks[src], times))
    ids: dict[int, int] = {}
    edges: dict[tuple[int, int], None] = {}
    checkpoints = []
    ci = 0
    for s, t, ts in zip(src[order].tolist(), tgt[order].tolist(),
                        times[order].tolist()):
        while ts > spec.cutoffs[ci]:
            checkpoints.append((len(ids), len(edges)))
            ci += 1
        u, v = ids.setdefault(s, len(ids)), ids.setdefault(t, len(ids))
        edges.setdefault((min(u, v), max(u, v)))
    checkpoints += [(len(ids), len(edges))] * (len(spec.cutoffs) - ci)
    pairs = list(edges)
    return ([Graph.from_edges(n_i, pairs[:m_i]) for n_i, m_i in checkpoints],
            tuple(log.labels.labels[i] for i in ids))


def unrank_pair_scalar(k: int, size: int) -> tuple[int, int]:
    """The k-th pair (i, j), i < j, of range(size) in row-major order, by
    integer square root and stepping."""
    total = size * (size - 1) // 2
    if not 0 <= k < total:
        raise ValueError("pair rank out of range")
    rem = total - k
    s = (1 + math.isqrt(8 * rem)) // 2
    while s * (s - 1) // 2 < rem:
        s += 1
    while (s - 1) * (s - 2) // 2 >= rem:
        s -= 1
    i = size - s
    return i, i + 1 + (k - (total - s * (s - 1) // 2))


def same_position_pairs_reference(partition: Partition,
                                  common: Iterable[int] | None = None,
                                  cap: int | None = None, seed: int = 0) -> list:
    """Same-cell pairs as tuples: every combination, or the first ``cap``
    distinct ranks of the seeded draw stream, added to a set one draw at a
    time and unranked one pair at a time."""
    cells = partition.cells
    if common is not None:
        keep = set(common)
        cells = [tuple(v for v in cell if v in keep) for cell in cells]
    groups = [cell for cell in cells if len(cell) > 1]
    population = sum(len(g) * (len(g) - 1) // 2 for g in groups)
    if cap is None or population <= cap:
        return [pair for cell in groups for pair in itertools.combinations(cell, 2)]
    rng = np.random.default_rng(seed)
    chosen: set[int] = set()
    while len(chosen) < cap:
        need = cap - len(chosen)
        for k in rng.integers(0, population, size=need + need // 4 + 16):
            chosen.add(int(k))
            if len(chosen) == cap:
                break
    offsets = np.cumsum([0] + [len(g) * (len(g) - 1) // 2 for g in groups])
    out = []
    for k in sorted(chosen):
        g = int(np.searchsorted(offsets, k, side="right")) - 1
        i, j = unrank_pair_scalar(k - int(offsets[g]), len(groups[g]))
        out.append((groups[g][i], groups[g][j]))
    return out


def write_labels_ref(labels: VertexLabelMap, stream: IO[str]) -> None:
    """``VertexLabelMap.write`` as one string joined from a line per label."""
    stream.write("".join(f"{vid}\t{label}\n" for vid, label in enumerate(labels.labels)))


def save_edge_list_ref(graph: Graph, labels: VertexLabelMap, stream: IO[str]) -> None:
    """``save_edge_list`` from an object array of the label strings, 8,192
    lines a write."""
    stream.write(f"# vertices={graph.n} edges={graph.m}\n")
    rows = np.repeat(np.arange(graph.n, dtype=ID_DTYPE), graph.degrees)
    upper = graph.indices > rows
    heads, tails = rows[upper], graph.indices[upper]
    names = np.array(labels.labels, dtype=object)
    for at in range(0, heads.size, 8192):
        chunk = slice(at, at + 8192)
        stream.write("".join(names[heads[chunk]] + " " + names[tails[chunk]] + "\n"))


def write_partition_file_ref(stream: IO[str], partition: Partition, *,
                             header: Mapping[str, object] | None = None) -> None:
    """The partition file format written one cell tuple at a time."""
    meta = dict(header or {})
    meta.setdefault("cells", len(partition))
    stream.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
    for idx, cell in enumerate(partition.cells):
        stream.write(f"{idx}\t{' '.join(str(v) for v in cell)}\n")


def read_partition_file_ref(stream: IO[str]) -> tuple[Partition, dict[str, str]]:
    """The partition file format read line by line, repeats caught in a Python
    set as each line arrives. Negative ids pass, as they did in this form."""
    meta: dict[str, str] = {}
    cells: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for line_no, raw in enumerate(stream, 1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                if "=" in token:
                    key, value = token.split("=", 1)
                    meta[key] = value
            continue
        parts = line.split("\t", 1)
        if len(parts) != 2:
            raise ParseError("expected '<cell_index>\\t<ids>'", line_no)
        try:
            idx = int(parts[0])
            members = tuple(int(tok) for tok in parts[1].split())
        except ValueError:
            raise ParseError("bad cell line", line_no) from None
        if idx != len(cells):
            raise ParseError(f"cell index {idx} out of sequence", line_no)
        if not members:
            raise ParseError("empty cell", line_no)
        fresh = set(members)
        if len(fresh) < len(members) or not seen.isdisjoint(fresh):
            repeated = min(v for v in fresh if v in seen or members.count(v) > 1)
            raise ParseError(f"vertex {repeated} appears more than once", line_no)
        seen |= fresh
        cells.append(members)
    return Partition(cells), meta


def write_centrality_rows_ref(stream: IO[str], fmt: str, labels: VertexLabelMap,
                              vectors: Mapping, names: Sequence[str]) -> None:
    """The ``centrality`` rows written vertex by vertex, one ``.item()`` per
    score: a CSV header and rows, or one JSON record per line."""
    if fmt == "csv":
        writer = csv.writer(stream)
        writer.writerow(["label"] + list(names))
        for v in range(len(labels)):
            writer.writerow([labels.labels[v]]
                            + [vectors[m].scores[v].item() for m in names])
    else:
        for v in range(len(labels)):
            record = {"label": labels.labels[v]}
            record.update({m: vectors[m].scores[v].item() for m in names})
            stream.write(json.dumps(record) + "\n")
