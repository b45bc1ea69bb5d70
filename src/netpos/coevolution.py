"""Co-evolution methodology: same-position pairs, difference histograms,
and cross-snapshot overlap matrices.

For a vertex pair (a, b) sharing a position at time t, the tracked quantity is
|(a_t - b_t) - (a_t' - b_t')| per centrality measure: zero means the pair's
scores moved in lockstep between the snapshots.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .graphs import ID_DTYPE, Graph
from .partition import Partition, degree_partition, equitable_oracle, fast_eep
from .similarity import _masked, restrict_partition, similarity_score

DEFAULT_BIN_EDGES = tuple(float(x) for x in range(11))  # [0,1) .. [9,10) + overflow
DEFAULT_PAIR_CAP = 1_000_000


class PairDifferenceRecord(NamedTuple):
    a: int
    b: int
    measure: str
    value: float


def _pair_count(size: int) -> int:
    return size * (size - 1) // 2


def _unrank_pair(k: int, size: int) -> tuple[int, int]:
    """Map a rank in [0, C(size, 2)) to the k-th (i, j) pair, i < j.

    Ranks enumerate pairs row-major: (0,1), (0,2), ..., (1,2), ...
    Row i starts at offset C(size, 2) - C(size - i, 2), so the row of rank k
    is found from the smallest s with C(s, 2) >= C(size, 2) - k.
    """
    total = _pair_count(size)
    if not 0 <= k < total:
        raise ValueError("pair rank out of range")
    rem = total - k
    s = (1 + math.isqrt(8 * rem)) // 2
    while _pair_count(s) < rem:
        s += 1
    while _pair_count(s - 1) >= rem:
        s -= 1
    i = size - s
    j = i + 1 + (k - (total - _pair_count(s)))
    return i, j


def same_position_pairs(partition: Partition, common: Iterable[int] | None = None,
                        cap: int | None = None, seed: int = 0) -> list[tuple[int, int]]:
    """All unordered same-cell pairs, restricted to ``common``.

    When the pair population exceeds ``cap``, a uniform sample of exactly
    ``cap`` distinct pairs is drawn without replacement, deterministically for
    a given seed.
    """
    if common is not None:
        keep = np.fromiter(common, dtype=ID_DTYPE)
        partition = _masked(partition, np.isin(partition.universe, keep))
    groups = [cell for cell in partition.cells if len(cell) > 1]
    population = sum(_pair_count(len(g)) for g in groups)
    if cap is None or population <= cap:
        return [pair for members in groups
                for pair in itertools.combinations(members, 2)]

    rng = np.random.default_rng(seed)
    chosen: set[int] = set()
    while len(chosen) < cap:
        need = cap - len(chosen)
        draw = rng.integers(0, population, size=need + need // 4 + 16)
        for k in draw:
            chosen.add(int(k))
            if len(chosen) == cap:
                break
    offsets = np.cumsum([0] + [_pair_count(len(g)) for g in groups])
    out = []
    for k in sorted(chosen):
        g = int(np.searchsorted(offsets, k, side="right")) - 1
        i, j = _unrank_pair(k - int(offsets[g]), len(groups[g]))
        out.append((groups[g][i], groups[g][j]))
    return out


def _score_of(scores, v: int) -> float:
    if isinstance(scores, Mapping):
        if v not in scores:
            raise ValueError(f"vertex {v} has no score")
        return float(scores[v])
    arr = np.asarray(scores)
    if v >= arr.shape[0]:
        raise ValueError(f"vertex {v} has no score")
    return float(arr[v])


def pair_difference_values(pairs: Sequence[tuple[int, int]], scores_t,
                           scores_later) -> np.ndarray:
    """|(a_t - b_t) - (a_t' - b_t')| for every pair; symmetric in (a, b)."""
    if not pairs:
        return np.empty(0)
    if not isinstance(scores_t, Mapping) and not isinstance(scores_later, Mapping):
        st = np.asarray(scores_t, dtype=float)
        sl = np.asarray(scores_later, dtype=float)
        arr = np.asarray(pairs, dtype=np.int64)
        top = int(arr.max())
        if top >= st.shape[0] or top >= sl.shape[0]:
            shortest = min(st.shape[0], sl.shape[0])
            bad = int(arr[arr >= shortest].min())
            raise ValueError(f"vertex {bad} has no score")
        before = st[arr[:, 0]] - st[arr[:, 1]]
        after = sl[arr[:, 0]] - sl[arr[:, 1]]
        return np.abs(before - after)
    values = np.empty(len(pairs))
    for idx, (a, b) in enumerate(pairs):
        before = _score_of(scores_t, a) - _score_of(scores_t, b)
        after = _score_of(scores_later, a) - _score_of(scores_later, b)
        values[idx] = abs(before - after)
    return values


def pair_difference_records(pairs: Sequence[tuple[int, int]], scores_t,
                            scores_later, measure: str):
    """Yield one PairDifferenceRecord per pair for the given measure."""
    values = pair_difference_values(pairs, scores_t, scores_later)
    for (a, b), value in zip(pairs, values):
        yield PairDifferenceRecord(a, b, measure, float(value))


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


@dataclass(frozen=True)
class CoevolutionReport:
    """Binned pair-difference statistics per measure, plus sampling metadata."""

    bin_edges: tuple[float, ...]
    counts: dict[str, tuple[int, ...]]
    percentages: dict[str, tuple[float, ...]]
    total_pairs: int
    sampling: dict
    metadata: dict = field(default_factory=dict)

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


def pair_difference_histogram(pairs: Sequence[tuple[int, int]], scores_t,
                              scores_later,
                              bin_edges: Sequence[float] = DEFAULT_BIN_EDGES,
                              measure: str = "score") -> CoevolutionReport:
    """Bin one measure's pair differences into a single-measure report."""
    return coevolution_report(pairs, {measure: (scores_t, scores_later)},
                              bin_edges=bin_edges)


def coevolution_report(pairs: Sequence[tuple[int, int]],
                       score_sets: Mapping[str, tuple[object, object]],
                       bin_edges: Sequence[float] = DEFAULT_BIN_EDGES,
                       sampling: Mapping | None = None,
                       metadata: Mapping | None = None) -> CoevolutionReport:
    """Histogram the pair differences of several measures over shared pairs."""
    counts: dict[str, tuple[int, ...]] = {}
    pcts: dict[str, tuple[float, ...]] = {}
    total = len(pairs)
    for measure, (scores_t, scores_later) in score_sets.items():
        values = pair_difference_values(pairs, scores_t, scores_later)
        binned = bin_values(values, bin_edges)
        counts[measure] = tuple(int(c) for c in binned)
        pcts[measure] = tuple(100.0 * c / total if total else 0.0 for c in binned)
    return CoevolutionReport(tuple(float(e) for e in bin_edges), counts, pcts,
                             total, dict(sampling or {}), dict(metadata or {}))


@dataclass(frozen=True)
class OverlapMatrix:
    """Similarity percentages per (earlier, later) snapshot pair and method."""

    methods: tuple[str, ...]
    n_snapshots: int
    values: dict[tuple[int, int], dict[str, float]]

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

    The later partition is restricted to the earlier snapshot's vertex set
    before scoring, so N is the earlier vertex count. Snapshots must share a
    label map, i.e. vertex ids are nested dense prefixes. A repeated epsilon
    is scored once, in first-seen order. ``workers`` is accepted for
    compatibility and has no effect.
    """
    for earlier, later in zip(snapshots, snapshots[1:]):
        if earlier.n > later.n:
            raise ValueError("snapshots must be ordered by growing vertex set")

    methods = [f"eep:{e}" for e in dict.fromkeys(int(e) for e in epsilons)]
    if include_equitable:
        methods.append("ep")
    if include_degree:
        methods.append("degree")
    if not methods:
        raise ValueError("no partitioning method selected")

    def partition_for(method: str, graph: Graph) -> Partition:
        if method.startswith("eep:"):
            return fast_eep(graph, int(method.split(":", 1)[1]))
        if method == "ep":
            return equitable_oracle(graph)
        return degree_partition(graph)

    by_method = {m: [partition_for(m, g) for g in snapshots] for m in methods}
    values: dict[tuple[int, int], dict[str, float]] = {}
    for i in range(len(snapshots)):
        for j in range(i + 1, len(snapshots)):
            early_universe = range(snapshots[i].n)
            cell: dict[str, float] = {}
            for method in methods:
                pi = by_method[method][i]
                pj = restrict_partition(by_method[method][j], early_universe)
                cell[method] = 100.0 * similarity_score(pi, pj).value
            values[(i, j)] = cell
    return OverlapMatrix(tuple(methods), len(snapshots), values)
