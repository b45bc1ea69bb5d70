"""Graph model and ingestion: edge lists, temporal logs, snapshots, generation.

Vertices carry dense integer ids internally; external string labels live in a
:class:`VertexLabelMap`. Graphs are undirected, simple, and immutable once
built.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np

ID_DTYPE = np.int64


class ParseError(ValueError):
    """Malformed input; the message carries the 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


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
        """Build a simple graph from (u, v) pairs, erasing self-loops and duplicates."""
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

        loop_mask = arr[:, 0] == arr[:, 1]
        loops = int(loop_mask.sum())
        arr = arr[~loop_mask]
        if arr.shape[0]:
            lo = np.minimum(arr[:, 0], arr[:, 1])
            hi = np.maximum(arr[:, 0], arr[:, 1])
            pairs = np.unique(np.column_stack([lo, hi]), axis=0)
        else:
            pairs = arr
        dups = int(arr.shape[0] - pairs.shape[0])

        if pairs.shape[0]:
            heads = np.concatenate([pairs[:, 0], pairs[:, 1]])
            tails = np.concatenate([pairs[:, 1], pairs[:, 0]])
            order = np.lexsort((tails, heads))
            indices = tails[order]
            counts = np.bincount(heads, minlength=n)
        else:
            indices = np.empty(0, dtype=ID_DTYPE)
            counts = np.zeros(n, dtype=ID_DTYPE)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(ID_DTYPE)
        return cls(n, indptr, indices, self_loops_dropped=loops,
                   duplicates_collapsed=dups)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted read-only array of the neighbors of v."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once, as (u, v) with u < v."""
        for u in range(self.n):
            for w in self.neighbors(u):
                if w > u:
                    yield u, int(w)

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(np.array([self.n, self.m], dtype="<i8").tobytes())
        h.update(self.indptr.astype("<i8").tobytes())
        h.update(self.indices.astype("<i8").tobytes())
        return "sha256:" + h.hexdigest()

    def validate(self) -> None:
        """Check the simple-undirected invariants; raises ValueError on violation."""
        if self.indptr.size != self.n + 1 or self.indptr[0] != 0:
            raise ValueError("bad indptr")
        if np.any(np.diff(self.indptr) < 0) or self.indptr[-1] != self.indices.size:
            raise ValueError("bad indptr")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.n:
                raise ValueError("neighbor id out of range")
        rows = np.repeat(np.arange(self.n, dtype=ID_DTYPE), self.degrees)
        if np.any(rows == self.indices):
            raise ValueError("self-loop present")
        # strictly ascending inside each adjacency run
        if self.indices.size > 1:
            ascending = self.indices[1:] > self.indices[:-1]
            run_starts = np.zeros(self.indices.size - 1, dtype=bool)
            starts = self.indptr[1:-1]
            run_starts[starts[(starts > 0) & (starts < self.indices.size)] - 1] = True
            if not np.all(ascending | run_starts):
                raise ValueError("adjacency list not strictly ascending")
        # symmetry: the (u, w) multiset equals the (w, u) multiset
        fwd = np.lexsort((self.indices, rows))
        rev = np.lexsort((rows, self.indices))
        if not (np.array_equal(rows[fwd], self.indices[rev])
                and np.array_equal(self.indices[fwd], rows[rev])):
            raise ValueError("adjacency not symmetric")

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


class VertexLabelMap:
    """Bijective external-label <-> dense-id map, stable for the life of a run."""

    __slots__ = ("_ids", "_labels")

    def __init__(self, labels: Iterable[str] = ()):
        self._labels: list[str] = []
        self._ids: dict[str, int] = {}
        for label in labels:
            self.intern(label)

    def intern(self, label: str) -> int:
        """Return the id for label, assigning the next dense id if new."""
        vid = self._ids.get(label)
        if vid is None:
            vid = len(self._labels)
            self._ids[label] = vid
            self._labels.append(label)
        return vid

    def id_of(self, label: str) -> int:
        return self._ids[label]

    def label_of(self, vid: int) -> str:
        return self._labels[vid]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: str) -> bool:
        return label in self._ids

    def write(self, stream: IO[str]) -> None:
        for vid, label in enumerate(self._labels):
            stream.write(f"{vid}\t{label}\n")

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            self.write(fh)

    @classmethod
    def read(cls, stream: IO[str]) -> "VertexLabelMap":
        entries: dict[int, str] = {}
        for line_no, raw in enumerate(stream, 1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t", 1)
            if len(parts) != 2:
                raise ParseError("expected '<id>\\t<label>'", line_no)
            try:
                vid = int(parts[0])
            except ValueError:
                raise ParseError(f"bad id {parts[0]!r}", line_no) from None
            if vid in entries:
                raise ParseError(f"duplicate id {vid}", line_no)
            entries[vid] = parts[1]
        if sorted(entries) != list(range(len(entries))):
            raise ParseError("label map ids are not dense")
        out = cls()
        for vid in range(len(entries)):
            out.intern(entries[vid])
        if len(out) != len(entries):
            raise ParseError("label map has duplicate labels")
        return out

    @classmethod
    def load(cls, path) -> "VertexLabelMap":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.read(fh)


class EdgeEvent(NamedTuple):
    source: str
    target: str
    timestamp: int
    directed: bool = True


@dataclass(frozen=True)
class TemporalEdgeLog:
    """Timestamped (possibly directed) edge events feeding snapshot construction."""

    events: tuple[EdgeEvent, ...]

    def __post_init__(self):
        for ev in self.events:
            if ev.timestamp < 0:
                raise ValueError(f"negative timestamp in event {ev}")

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def ordered(self) -> tuple[EdgeEvent, ...]:
        """Events in canonical (timestamp, source, target) order."""
        return tuple(sorted(self.events,
                            key=lambda e: (e.timestamp, e.source, e.target)))


@dataclass(frozen=True)
class SnapshotSpec:
    """Strictly ascending snapshot cutoff timestamps."""

    cutoffs: tuple[int, ...]

    def __post_init__(self):
        if not self.cutoffs:
            raise ValueError("at least one cutoff required")
        if any(b <= a for a, b in zip(self.cutoffs, self.cutoffs[1:])):
            raise ValueError("cutoffs must be strictly ascending")


@dataclass(frozen=True)
class GeneratorConfig:
    """Power-law generator parameters: P(k) proportional to k**(-gamma)."""

    n: int
    gamma: float
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not self.gamma > 1:
            raise ValueError("gamma must be > 1")


def _parse_timestamp_token(token: str, line_no: int) -> int:
    try:
        ts = int(token)
    except ValueError:
        try:
            ts = int(float(token))
        except (ValueError, OverflowError):
            raise ParseError(f"bad timestamp {token!r}", line_no) from None
    if ts < 0:
        raise ParseError(f"negative timestamp {token!r}", line_no)
    return ts


def load_edge_list(stream: IO[str] | Iterable[str]) -> tuple[Graph, VertexLabelMap]:
    """Read '<label> <label> [<unix-timestamp>]' lines into a simple graph.

    Blank lines and '#' comments are skipped; timestamps are validated but not
    used. Duplicate edges collapse; self-loops are dropped and counted on the
    returned graph.
    """
    labels = VertexLabelMap()
    pairs: list[tuple[int, int]] = []
    for line_no, raw in enumerate(stream, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise ParseError(f"expected 2 or 3 fields, got {len(tokens)}", line_no)
        if len(tokens) == 3:
            _parse_timestamp_token(tokens[2], line_no)
        pairs.append((labels.intern(tokens[0]), labels.intern(tokens[1])))
    return Graph.from_edges(len(labels), pairs), labels


def save_edge_list(graph: Graph, labels: VertexLabelMap, stream: IO[str]) -> None:
    stream.write(f"# vertices={graph.n} edges={graph.m}\n")
    for u, v in graph.edges():
        stream.write(f"{labels.label_of(u)} {labels.label_of(v)}\n")


def load_temporal_edge_list(stream: IO[str] | Iterable[str], *,
                            directed: bool = True) -> TemporalEdgeLog:
    """Read '<label> <label> <unix-timestamp>' lines into a TemporalEdgeLog."""
    events: list[EdgeEvent] = []
    for line_no, raw in enumerate(stream, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 3:
            raise ParseError(f"expected 3 fields, got {len(tokens)}", line_no)
        ts = _parse_timestamp_token(tokens[2], line_no)
        events.append(EdgeEvent(tokens[0], tokens[1], ts, directed))
    return TemporalEdgeLog(tuple(events))


def reciprocal_projection(log: TemporalEdgeLog) -> TemporalEdgeLog:
    """Project a directed log to the undirected reciprocated-link log.

    An undirected event (a, b) appears iff both a->b and b->a occur; its
    timestamp is the moment the later of the two directions first appeared.
    Output order is canonical, so the result is invariant to input order.
    """
    if any(not ev.directed for ev in log.events):
        raise ValueError("reciprocal_projection requires directed events")
    first_seen: dict[tuple[str, str], int] = {}
    for ev in log.events:
        if ev.source == ev.target:
            continue
        key = (ev.source, ev.target)
        prev = first_seen.get(key)
        if prev is None or ev.timestamp < prev:
            first_seen[key] = ev.timestamp
    out: list[EdgeEvent] = []
    for (a, b), t_ab in first_seen.items():
        if a < b:
            t_ba = first_seen.get((b, a))
            if t_ba is not None:
                out.append(EdgeEvent(a, b, max(t_ab, t_ba), directed=False))
    out.sort(key=lambda e: (e.timestamp, e.source, e.target))
    return TemporalEdgeLog(tuple(out))


def build_snapshots(log: TemporalEdgeLog,
                    spec: SnapshotSpec) -> tuple[list[Graph], VertexLabelMap]:
    """Build nested cumulative snapshots, one per cutoff, over a shared label map.

    Snapshot i holds exactly the edges whose first event is at or before
    cutoff i; a vertex belongs to a snapshot iff it is incident to a retained
    edge. Ids are assigned in order of first appearance in canonical event
    order, so each snapshot's vertex set is the dense prefix [0, n_i).
    """
    labels = VertexLabelMap()
    edge_list: list[tuple[int, int]] = []
    seen_pairs: set[tuple[int, int]] = set()
    cutoffs = spec.cutoffs
    checkpoints: list[tuple[int, int]] = []

    ci = 0
    for ev in log.ordered():
        while ci < len(cutoffs) and ev.timestamp > cutoffs[ci]:
            checkpoints.append((len(labels), len(edge_list)))
            ci += 1
        if ci == len(cutoffs):
            break
        if ev.source == ev.target:
            continue
        u = labels.intern(ev.source)
        v = labels.intern(ev.target)
        pair = (u, v) if u < v else (v, u)
        if pair not in seen_pairs:
            seen_pairs.add(pair)
            edge_list.append(pair)
    while ci < len(cutoffs):
        checkpoints.append((len(labels), len(edge_list)))
        ci += 1

    graphs = [Graph.from_edges(n_i, edge_list[:k_i]) for n_i, k_i in checkpoints]
    return graphs, labels


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
