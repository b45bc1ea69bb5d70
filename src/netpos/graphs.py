"""Graph model and ingestion: the CSR graph, edge lists and generation.

Vertices carry dense integer ids internally; external string labels live in a
:class:`~netpos.textio.VertexLabelMap`, as one UTF-8 byte pool. Graphs are
undirected, simple, and immutable once built. Label text is in
:mod:`netpos.textio`, temporal logs and their snapshots in :mod:`netpos.temporal`.
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
    flat = shift.repeat(lens)
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
        key += groups.repeat(lens)
        del lens
        key.sort()
        runs = run_offsets(key)
        return np.divmod(key[runs[:-1]], max(self.n, 1)), runs[1:] - runs[:-1], key.size

    @property
    def degrees(self) -> np.ndarray:
        return self.indptr[1:] - self.indptr[:-1]

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
