"""Reference implementations that only the tests use.

Each helper is the direct, per-vertex or per-cell-pair form of a quantity the
library computes in bulk: the active list and SPLIT step of the refinement
loop, degrees toward a cell, the dense degree matrix behind the epsilon
spread, partition equality, intersection and restriction over cell tuples,
the cross-product intersection count, and exact rational betweenness. Tests
compare the library against them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from netpos import Graph, Partition
from netpos.centrality import _brandes_source
from netpos.graphs import ID_DTYPE
from netpos.partition import _check_epsilon, _group_bounds
from netpos.similarity import UniverseMismatchError, _common_universe


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


def degree_to_cell(graph: Graph, u: int, cell) -> int:
    """Number of neighbors of u inside the given vertex set.

    Intersects adjacency(u) with the cell, iterating the smaller side against
    a binary search of the larger.
    """
    if not 0 <= u < graph.n:
        raise ValueError(f"vertex {u} outside [0, {graph.n})")
    adj = graph.neighbors(u)
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
    for w in graph.neighbors(u):
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

    The per-cell form of the refinement loop's split: members are sorted by f
    and grouped by :func:`netpos.partition._group_bounds`. Fragments
    come out in ascending-f order with members sorted by id.
    """
    if int(fvals.max()) - int(fvals.min()) <= eps:
        return None
    order = np.argsort(fvals, kind="stable")
    bounds = _group_bounds(fvals[order], eps)
    return [np.sort(members[order[a:b]]) for a, b in zip(bounds, bounds[1:])]


def split(partition: Partition, f, epsilon) -> tuple[Partition, dict[int, tuple[int, ...]]]:
    """Split every cell by the degree function under the epsilon rule.

    Returns the refined partition (fragments replace their source cell in
    ascending-f order) and a map from each old cell index to its new indices;
    an old cell fragmented iff its entry has more than one index.

    ``f`` may be an array indexed by vertex id or a mapping; values must be
    non-negative integers defined for every vertex of the partition.
    """
    eps = _check_epsilon(epsilon)
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
