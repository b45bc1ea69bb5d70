"""Co-evolution methodology: same-position pairs, difference histograms,
and cross-snapshot overlap matrices.

For a vertex pair (a, b) sharing a position at time t, the tracked quantity is
|(a_t - b_t) - (a_t' - b_t')| per centrality measure: zero means the pair's
scores moved in lockstep between the snapshots.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graphs import ID_DTYPE, Graph
from .partition import Partition, check_epsilon, degree_partition, fast_eep
from .similarity import similarity_score

DEFAULT_BIN_EDGES = tuple(float(x) for x in range(11))  # [0,1) .. [9,10) + overflow
DEFAULT_PAIR_CAP = 1_000_000
_PAIR_CHUNK = 1 << 12   # ranks unranked at once by ``same_position_pairs``
_DIFFERENCE_CHUNK = 1 << 16   # pairs binned at once by ``coevolution_report``


def _pair_count(size: int | np.ndarray) -> int | np.ndarray:
    return size * (size - 1) // 2


def _unrank_pair(k, size) -> tuple[np.ndarray, np.ndarray]:
    """Map ranks ``k`` in [0, C(size, 2)) to pairs (i, j), i < j, elementwise.

    Ranks enumerate pairs row-major: (0,1), (0,2), ..., (1,2), ... Row i
    starts at rank C(size, 2) - C(size - i, 2), so the row of rank k is
    size - s for the least s with C(s, 2) >= C(size, 2) - k. The float square
    root lands within one of s; one integer step each way makes it exact.
    The arithmetic runs in place, so that few arrays of len(k) are live at once.
    """
    k = np.asarray(k, dtype=np.int64)
    size = np.asarray(size, dtype=np.int64)
    rem = _pair_count(size) - k  # pairs from rank k to the end of the cell
    if np.any(k < 0) or np.any(rem < 1):
        raise ValueError("pair rank out of range")
    root = rem.astype(np.float64)
    root *= 8
    np.sqrt(root, out=root)
    root += 1
    root //= 2
    s = root.astype(np.int64)
    del root
    s += 1
    s += _pair_count(s) < rem
    s -= _pair_count(s - 1) >= rem
    # i = size - s and j = i + 1 + C(s, 2) - rem, written over s and rem
    rem -= _pair_count(s)
    np.subtract(size, s, out=s)
    np.subtract(s, rem, out=rem)
    rem += 1
    return s, rem


def _sample_ranks(population: int, cap: int, seed: int) -> np.ndarray:
    """The first ``cap`` distinct values of a seeded stream of draws from
    [0, population), ascending. A batch is need + need // 4 + 16 draws, need
    being how many values are still missing.

    Near ``cap`` the last values take thousands of small batches, so a mask
    over the population marks the chosen ones and a batch costs O(batch). Far
    above ``cap`` one batch nearly always suffices and a sorted array does.
    """
    rng = np.random.default_rng(seed)
    taken = np.zeros(population, dtype=bool) if population <= 8 * cap else None
    chosen, count = np.empty(0, dtype=np.int64), 0
    while count < cap:
        need = cap - count
        draw = rng.integers(0, population, size=need + need // 4 + 16)
        values, first = np.unique(draw, return_index=True)
        old = np.isin(values, chosen) if taken is None else taken[values]
        new = draw[np.sort(first[~old])[:need]]  # fresh values in draw order
        if taken is None:
            chosen = np.union1d(chosen, new)
        else:
            taken[new] = True
        count += new.size
    return chosen if taken is None else np.flatnonzero(taken)


def same_position_pairs(partition: Partition, common: Iterable[int] | None = None,
                        cap: int | None = None, seed: int = 0) -> np.ndarray:
    """All unordered same-cell pairs, restricted to ``common``, as a (k, 2)
    int64 array of (a, b) rows with a < b, in cell order and then row-major.

    When the pair population exceeds ``cap``, a uniform sample of exactly
    ``cap`` distinct pairs is drawn without replacement, deterministically for
    a given seed, and returned in the same order.
    """
    universe, membership = partition.universe, partition.membership
    if common is not None:   # cells emptied here have no pairs
        keep = np.isin(universe, np.fromiter(common, dtype=ID_DTYPE))
        universe, membership = universe[keep], membership[keep]
    members = universe[np.argsort(membership, kind="stable")]
    sizes = np.bincount(membership, minlength=len(partition))
    counts = _pair_count(sizes)
    ends = np.cumsum(counts)
    population = int(counts.sum())
    sampled = cap is not None and population > cap
    ranks = _sample_ranks(population, cap, seed) if sampled else None
    k = cap if sampled else population
    firsts = ends - counts               # each cell's first rank
    offsets = np.cumsum(sizes) - sizes   # each cell's first slot in ``members``
    pairs = np.empty((k, 2), dtype=np.int64)
    # unranking holds several arrays of its ranks' length at once, so it
    # runs on chunks of 4,096 ranks: their 32-KiB temporaries are reused
    # from the heap chunk after chunk, and only the output grows with k
    for lo in range(0, k, _PAIR_CHUNK):
        hi = min(lo + _PAIR_CHUNK, k)
        chunk = np.arange(lo, hi, dtype=np.int64) if ranks is None else ranks[lo:hi]
        cell = np.searchsorted(ends, chunk, side="right")
        i, j = _unrank_pair(chunk - firsts[cell], sizes[cell])
        start = offsets[cell]
        i += start
        j += start
        np.take(members, i, out=pairs[lo:hi, 0])
        np.take(members, j, out=pairs[lo:hi, 1])
    return pairs


def _checked_pairs(pairs, scores_t, scores_later
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs as a (k, 2) int64 array and both score sets as float arrays,
    once every pair's vertices are known to have a score in both."""
    arr = np.asarray(pairs, dtype=np.int64)
    if not len(arr):
        return arr.reshape(0, 2), np.empty(0), np.empty(0)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"pairs must have shape (k, 2), not {arr.shape}")
    st = np.asarray(scores_t, dtype=float)
    sl = np.asarray(scores_later, dtype=float)
    shortest = min(st.shape[0], sl.shape[0])
    if arr.min() < 0 or arr.max() >= shortest:
        bad = arr[(arr < 0) | (arr >= shortest)]
        raise ValueError(f"vertex {int(bad.min())} has no score")
    return arr, st, sl


def _differences(arr: np.ndarray, st: np.ndarray, sl: np.ndarray) -> np.ndarray:
    # in place: a pair peaks at three floats, the result among them
    d = st[arr[:, 0]]
    d -= st[arr[:, 1]]
    e = sl[arr[:, 0]]
    e -= sl[arr[:, 1]]
    d -= e
    return np.abs(d, out=d)


def bin_values(values: np.ndarray, edges: Sequence[float]) -> np.ndarray:
    """Counts per bin; bins are [lo, hi) between edges plus a terminal
    overflow bin [last edge, inf)."""
    edges_arr = np.asarray(edges, dtype=float)
    if edges_arr.size < 1 or np.any(np.diff(edges_arr) <= 0):
        raise ValueError("bin edges must be strictly ascending")
    values = np.asarray(values, dtype=float)
    if values.size and values.min() < edges_arr[0]:
        raise ValueError("value below the first bin edge")
    idx = np.searchsorted(edges_arr, values, side="right") - 1
    return np.bincount(idx, minlength=edges_arr.size)


class CoevolutionReport:
    """Binned pair-difference statistics per measure, plus sampling metadata."""

    __slots__ = ("bin_edges", "counts", "percentages", "total_pairs", "sampling",
                 "metadata")

    def __init__(self, bin_edges: tuple[float, ...],
                 counts: dict[str, tuple[int, ...]],
                 percentages: dict[str, tuple[float, ...]], total_pairs: int,
                 sampling: dict, metadata: dict | None = None):
        self.bin_edges, self.counts, self.percentages = bin_edges, counts, percentages
        self.total_pairs, self.sampling = total_pairs, sampling
        self.metadata = {} if metadata is None else metadata

    def bins(self) -> list[tuple[float, float]]:
        edges = list(self.bin_edges) + [math.inf]
        return list(zip(edges, edges[1:]))

    def csv_rows(self) -> list[tuple[float, float, str, int, float]]:
        rows = []
        for measure in self.counts:
            for (lo, hi), count, pct in zip(self.bins(), self.counts[measure],
                                            self.percentages[measure]):
                rows.append((lo, hi, measure, count, pct))
        return rows

    def to_json_dict(self) -> dict:
        return {
            "bin_edges": list(self.bin_edges),
            "counts": {m: list(c) for m, c in self.counts.items()},
            "percentages": {m: list(p) for m, p in self.percentages.items()},
            "total_pairs": self.total_pairs,
            "sampling": self.sampling,
            "metadata": self.metadata,
        }


def pair_difference_histogram(pairs, scores_t, scores_later,
                              bin_edges: Sequence[float] = DEFAULT_BIN_EDGES,
                              measure: str = "score") -> CoevolutionReport:
    """Bin one measure's pair differences into a single-measure report."""
    return coevolution_report(pairs, {measure: (scores_t, scores_later)},
                              bin_edges=bin_edges)


def coevolution_report(pairs, score_sets: Mapping[str, tuple[object, object]],
                       bin_edges: Sequence[float] = DEFAULT_BIN_EDGES,
                       sampling: Mapping | None = None,
                       metadata: Mapping | None = None) -> CoevolutionReport:
    """Histogram the pair differences of several measures over shared pairs.

    The differences are taken and binned ``_DIFFERENCE_CHUNK`` pairs at a
    time, so beyond the pairs the report holds one chunk's arrays at once.
    """
    pairs = np.asarray(pairs, dtype=np.int64)  # convert once, not per measure
    counts: dict[str, tuple[int, ...]] = {}
    pcts: dict[str, tuple[float, ...]] = {}
    total = len(pairs)
    for measure, (scores_t, scores_later) in score_sets.items():
        arr, st, sl = _checked_pairs(pairs, scores_t, scores_later)
        binned = bin_values(np.empty(0), bin_edges)   # checks the edges
        for lo in range(0, total, _DIFFERENCE_CHUNK):
            chunk = arr[lo:lo + _DIFFERENCE_CHUNK]
            binned += bin_values(_differences(chunk, st, sl), bin_edges)
        counts[measure] = tuple(int(c) for c in binned)
        pcts[measure] = tuple(100.0 * c / total if total else 0.0 for c in binned)
    return CoevolutionReport(tuple(float(e) for e in bin_edges), counts, pcts,
                             total, dict(sampling or {}), dict(metadata or {}))


class OverlapMatrix:
    """Similarity percentages per (earlier, later) snapshot pair and method."""

    __slots__ = ("methods", "n_snapshots", "values")

    def __init__(self, methods: tuple[str, ...], n_snapshots: int,
                 values: dict[tuple[int, int], dict[str, float]]):
        self.methods, self.n_snapshots, self.values = methods, n_snapshots, values

    def to_json_dict(self) -> dict:
        return {
            "methods": list(self.methods),
            "n_snapshots": self.n_snapshots,
            "values": {f"{i}-{j}": scores for (i, j), scores in self.values.items()},
        }


def overlap_matrix(snapshots: Sequence[Graph], *, epsilons: Sequence[int] = (),
                   include_equitable: bool = False, include_degree: bool = False,
                   workers: int = 1) -> OverlapMatrix:
    """Score every snapshot pair (i < j) under each partitioning method.

    The later partition is cut to the earlier snapshot's vertices before
    scoring, so N is the earlier vertex count. Snapshots must share a label
    map, i.e. vertex ids are nested dense prefixes [0, n). Methods are scored
    one at a time, holding one method's partitions at once, and a repeated
    epsilon once, in first-seen order. ``ep`` copies ``eep:0``'s scores when
    0 is in the grid. ``workers`` is accepted and has no effect.
    """
    for earlier, later in zip(snapshots, snapshots[1:]):
        if earlier.n > later.n:
            raise ValueError("snapshots must be ordered by growing vertex set")
    grid = dict.fromkeys(check_epsilon(e) for e in epsilons)
    methods = {f"eep:{e}": e for e in grid}
    if include_equitable:   # the coarsest equitable partition is eep at eps 0
        methods["ep"] = 0
    if include_degree:
        methods["degree"] = None
    if not methods:
        raise ValueError("no partitioning method selected")
    count = len(snapshots)
    values = {(i, j): {} for i in range(count) for j in range(i + 1, count)}
    for method, e in methods.items():
        if method == "ep" and 0 in grid:
            for cell in values.values():
                cell["ep"] = cell["eep:0"]
            continue
        parts = [degree_partition(g) if e is None else fast_eep(g, e) for g in snapshots]
        for (i, j), cell in values.items():
            pj = Partition.from_membership(parts[j].membership[:snapshots[i].n],
                                           len(parts[j]))
            cell[method] = 100.0 * similarity_score(parts[i], pj).value
        del parts   # before the next method refines
    return OverlapMatrix(tuple(methods), count, values)
