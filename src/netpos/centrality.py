"""The four per-vertex structural measures used in co-evolution analysis.

Conventions are fixed here and surfaced in report metadata: betweenness counts
unordered pairs, excludes endpoints, and is unnormalized; the Shapley measure
is the closed-form value of the coalition game v(S) = |S union N(S)|.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .graphs import ID_DTYPE, Graph

CONVENTIONS = {
    "degree": "neighbor count",
    "betweenness": "exact shortest-path counts; unordered pairs, endpoints "
                   "excluded, unnormalized",
    "triangles": "number of triangles containing the vertex",
    "shapley": "Shapley value of the coalition game v(S) = |S union N(S)|; "
               "score(v) = sum over u in closed neighborhood of 1/(1+deg(u))",
}

# Largest n * (n + 2m) the CLI lets exact betweenness take on: each source
# scans n-sized arrays and the 2m adjacency entries, at about 0.6 us a unit
# on a 2-vCPU host, so the limit is about ten minutes there.
MAX_BETWEENNESS_WORK = 10**9


@dataclass(frozen=True)
class CentralityVector:
    """A measure tag plus one score per vertex."""

    measure: str
    scores: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores)
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return len(self.scores)


def degree_centrality(graph: Graph) -> CentralityVector:
    return CentralityVector("degree", graph.degrees.copy())


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
        for w in graph.neighbors(v):
            w = int(w)
            if dist[w] < 0:
                dist[w] = dv + 1
                queue.append(w)
            if dist[w] == dv + 1:
                sigma[w] += sigma[v]
                preds[w].append(v)
    return order, preds, sigma


def betweenness_centrality(graph: Graph) -> CentralityVector:
    """Exact unweighted betweenness via per-source dependency accumulation."""
    n = graph.n
    totals = np.zeros(n)
    delta = np.zeros(n)
    for s in range(n):
        order, preds, sigma = _brandes_source(graph, s)
        delta[:] = 0.0
        for w in reversed(order):
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
        delta[s] = 0.0
        totals += delta
    return CentralityVector("betweenness", totals / 2.0)  # unordered pairs


def triangle_counts(graph: Graph) -> CentralityVector:
    """Per-vertex triangle counts via degree-ordered adjacency intersection.

    Edges are oriented from lower to higher (degree, id) rank, so each
    triangle is found exactly once and credited to all three members.
    """
    n = graph.n
    counts = np.zeros(n, dtype=ID_DTYPE)
    if n == 0:
        return CentralityVector("triangles", counts)
    degrees = graph.degrees
    rank = np.empty(n, dtype=ID_DTYPE)
    rank[np.lexsort((np.arange(n), degrees))] = np.arange(n)
    forward = [graph.neighbors(v)[rank[graph.neighbors(v)] > rank[v]]
               for v in range(n)]
    for v in range(n):
        fv = forward[v]
        for w in fv:
            common = np.intersect1d(fv, forward[int(w)], assume_unique=True)
            if common.size:
                counts[v] += common.size
                counts[int(w)] += common.size
                counts[common] += 1
    return CentralityVector("triangles", counts)


def shapley_centrality(graph: Graph) -> CentralityVector:
    """Closed-form Shapley value of the closed-neighborhood coverage game.

    score(v) = sum of 1/(1 + deg(u)) over u in {v} union N(v); the scores sum
    to n (the game is efficient).
    """
    n = graph.n
    inv = 1.0 / (1.0 + graph.degrees)
    if graph.indices.size:
        vals = inv[graph.indices]
        cs = np.concatenate(([0.0], np.cumsum(vals)))
        neighbor_sums = cs[graph.indptr[1:]] - cs[graph.indptr[:-1]]
    else:
        neighbor_sums = np.zeros(n)
    return CentralityVector("shapley", inv + neighbor_sums)


_MEASURES = {
    "degree": degree_centrality,
    "betweenness": betweenness_centrality,
    "triangles": triangle_counts,
    "shapley": shapley_centrality,
}


def compute_measures(graph: Graph, measures) -> dict[str, CentralityVector]:
    """Compute a named subset of the four measures."""
    out: dict[str, CentralityVector] = {}
    for name in measures:
        if name not in _MEASURES:
            raise ValueError(f"unknown measure {name!r}; "
                             f"choose from {sorted(_MEASURES)}")
        out[name] = _MEASURES[name](graph)
    return out
