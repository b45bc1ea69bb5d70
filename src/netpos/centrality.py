"""The four per-vertex structural measures used in co-evolution analysis.

Conventions are fixed here and surfaced in report metadata: betweenness counts
unordered pairs, excludes endpoints, and is unnormalized; the Shapley measure
is the closed-form value of the coalition game v(S) = |S union N(S)|.
"""

from __future__ import annotations

import numpy as np

from .graphs import ID_DTYPE, Graph, ranges

CONVENTIONS = {
    "degree": "neighbor count",
    "betweenness": "exact shortest-path counts; unordered pairs, endpoints "
                   "excluded, unnormalized",
    "triangles": "number of triangles containing the vertex",
    "shapley": "Shapley value of the coalition game v(S) = |S union N(S)|; "
               "score(v) = sum over u in closed neighborhood of 1/(1+deg(u))",
}

# Source-by-vertex entries one betweenness batch holds: _BATCH_ENTRIES // k
# sources, whose per-level temporaries scale with it.
_BATCH_ENTRIES = 1 << 15
# Wedges one triangle chunk checks, whose temporaries take about 60 B each.
_TRIANGLE_WEDGES = 1 << 18


class CentralityVector:
    """A measure tag plus one score per vertex, as a read-only array."""

    __slots__ = ("measure", "scores")

    def __init__(self, measure: str, scores):
        scores = np.asarray(scores)
        scores.setflags(write=False)
        self.measure, self.scores = measure, scores

    def __len__(self) -> int:
        return len(self.scores)


def degree_centrality(graph: Graph) -> CentralityVector:
    return CentralityVector("degree", graph.degrees.copy())


def _shatter(graph: Graph):
    """Strip degree-1 vertices round by round (Sariyuce et al., SDM 2013).

    Returns each vertex's reach (itself plus the trees merged into it), its
    parent in the peel forest (itself if it survives), its betweenness from
    pairs inside its merged trees, and the degrees left in the 2-core. A round
    costs its leaves' degrees: the next leaves are found among their parents.
    """
    n = graph.n
    deg = graph.degrees.copy()  # 0 once a vertex is peeled
    reach, parent = np.ones(n, dtype=ID_DTYPE), np.arange(n, dtype=ID_DTYPE)
    credit, merged, merged_sq, owner = np.zeros((4, n), dtype=ID_DTYPE)
    leaves = np.flatnonzero(deg == 1)
    while leaves.size:
        nbrs = graph.adjacent(leaves)[0]
        up = nbrs[deg[nbrs] > 0]  # a leaf's one unpeeled neighbour
        keep = (deg[up] != 1) | (leaves > up)  # two joined leaves: the lower id stays
        leaves, up = leaves[keep], up[keep]
        parent[leaves], deg[leaves] = up, 0
        np.subtract.at(deg, up, 1)
        np.add.at(merged, up, reach[leaves])
        np.add.at(merged_sq, up, reach[leaves] ** 2)
        s = merged[up]  # a repeated parent repeats the same updates below
        # pairs between the new trees, and between them and the trees merged before
        credit[up] += s * (reach[up] - 1) + (s * s - merged_sq[up]) // 2
        reach[up] += s
        merged[up] = merged_sq[up] = 0
        up = up[deg[up] == 1]
        owner[up] = np.arange(up.size)
        leaves = up[owner[up] == np.arange(up.size)]
    return reach, parent, credit, deg


def core_size(graph: Graph) -> tuple[int, int]:
    """Vertices and edges of the 2-core that exact betweenness searches."""
    deg = _shatter(graph)[3]
    return int(np.count_nonzero(deg)), int(deg.sum()) // 2


def _core_brandes(graph: Graph, deg: np.ndarray, reach: np.ndarray):
    """Reach-weighted Brandes on the 2-core (the vertices with deg > 0).

    A batch of sources runs its BFS level by level on flat keys ``row * k + v``.
    Returns each core vertex's component size and its betweenness from the
    pairs whose shortest paths cross the core.
    """
    core = np.flatnonzero(deg)
    k = core.size
    nbrs = graph.adjacent(core)[0]
    indices = (np.cumsum(deg > 0) - 1)[nbrs[deg[nbrs] > 0]]  # core ids
    deg, reach = deg[core], reach[core]
    indptr, weight = np.concatenate(([0], np.cumsum(deg))), reach.astype(float)
    batch = min(k, max(1, _BATCH_ENTRIES // k))
    comp, scores = np.empty(k, dtype=ID_DTYPE), np.zeros(k)
    for first in range(0, k, batch):
        src = np.arange(first, min(first + batch, k))
        sg, dl, coef = np.zeros((3, src.size * k))
        owner = np.empty(src.size * k, dtype=ID_DTYPE)
        frontier = np.arange(src.size) * k + src
        sg[frontier] = 1.0
        levels = []  # per level: its keys and vertices, and its edges to the next
        while frontier.size:  # forward: path counts, one BFS level at a time
            v = frontier % k
            lens = deg[v]
            tail = np.repeat(np.arange(frontier.size), lens)
            head = (frontier - v)[tail] + indices[ranges(indptr[v], lens)]
            fresh = sg[head] == 0.0  # edges to unreached keys lead one level down
            tail, head = tail[fresh], head[fresh]
            np.add.at(sg, head, sg[frontier][tail])
            levels.append((frontier, v, tail, head))
            owner[head] = np.arange(head.size)
            frontier = head[owner[head] == np.arange(head.size)]
        for keys, v, tail, head in reversed(levels[1:]):  # dependencies, deepest first
            dl[keys] = sg[keys] * np.bincount(tail, coef[head], keys.size)
            coef[keys] = (weight[v] + dl[keys]) / sg[keys]
        comp[src] = np.where(sg.reshape(-1, k) > 0, reach, 0).sum(axis=1)
        scores += (weight[src][:, None] * dl.reshape(-1, k)).sum(axis=0)
    return comp, scores / 2.0  # each unordered pair was counted from both ends


def betweenness_centrality(graph: Graph) -> CentralityVector:
    """Exact unweighted betweenness: closed form on trees, Brandes on the 2-core.

    Degree-1 trees are peeled off with reach weights (``_shatter``); a vertex
    then gains (reach - 1) * (N - reach) for paths from its trees to the rest
    of its N-vertex component, and the 2-core runs reach-weighted Brandes.
    """
    reach, parent, credit, deg = _shatter(graph)
    comp, scores = reach.copy(), np.zeros(graph.n)  # a tree's root reaches it all
    if deg.any():
        comp[deg > 0], scores[deg > 0] = _core_brandes(graph, deg, reach)
    root = parent
    while not np.array_equal(root, up := root[root]):  # pointer jumping
        root = up
    return CentralityVector("betweenness",
                            scores + (credit + (reach - 1) * (comp[root] - reach)))


def triangle_counts(graph: Graph) -> CentralityVector:
    """Per-vertex triangle counts by compact-forward wedge checks.

    Edges point from the lower to the higher (degree, id) rank (Chiba &
    Nishizeki 1985; Latapy 2008), so a triangle u < v < w in rank is found
    once: from its forward edge u -> v and the forward neighbour w of v, when
    one binary search over the sorted forward-edge keys finds u -> w too. A
    hit is credited to all three members. The wedges go in chunks of about
    ``_TRIANGLE_WEDGES``, so memory is O(m + chunk) whatever the degree skew.
    """
    n = graph.n
    rank = graph.degrees * n + np.arange(n)  # (degree, id), as one number
    rows = np.repeat(np.arange(n, dtype=ID_DTYPE), graph.degrees)
    forward = rank[rows] < rank[graph.indices]
    tail, head = rows[forward], graph.indices[forward]
    del rank, rows, forward
    keys = tail * n + head  # ascending: the adjacency is sorted by (row, id)
    out_deg = np.bincount(tail, minlength=n)
    out_start = np.cumsum(out_deg) - out_deg
    wedges = out_deg[head]  # the wedges of each forward edge
    first = np.cumsum(wedges) - wedges
    # chunk j holds the edges whose first wedge is in [j, j + 1) * chunk
    starts = np.arange(0, wedges.sum(), _TRIANGLE_WEDGES)
    cuts = np.searchsorted(first, starts).tolist()
    counts = np.zeros(n, dtype=ID_DTYPE)
    for lo, hi in zip(cuts, cuts[1:] + [head.size]):
        edge = np.repeat(np.arange(lo, hi), wedges[lo:hi])
        w = head[ranges(out_start[head[lo:hi]], wedges[lo:hi])]
        query = tail[edge] * n + w
        hit = keys[np.minimum(np.searchsorted(keys, query), keys.size - 1)] == query
        edge = edge[hit]
        counts += np.bincount(np.concatenate((tail[edge], head[edge], w[hit])),
                              minlength=n)
    return CentralityVector("triangles", counts)


def shapley_centrality(graph: Graph) -> CentralityVector:
    """Closed-form Shapley value of the closed-neighborhood coverage game.

    score(v) = sum of 1/(1 + deg(u)) over u in {v} union N(v); the scores sum
    to n (the game is efficient).
    """
    inv = 1.0 / (1.0 + graph.degrees)
    vals = inv[graph.indices]
    cs = np.concatenate(([0.0], np.cumsum(vals)))
    neighbor_sums = cs[graph.indptr[1:]] - cs[graph.indptr[:-1]]
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
