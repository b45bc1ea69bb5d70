"""Partition comparison: equality, intersection, and the similarity score.

The score for two partitions of the same N-vertex universe is

    sim(p1, p2) = 1/2 * [ (N - |p1 ^ p2|) / (N - |p1|) + (N - |p1 ^ p2|) / (N - |p2|) ]

where |p| is the cell count and p1 ^ p2 the cell-wise intersection. The same
quantity rewrites as C(p1 ^ p2) / H(C(p1), C(p2)) with C(p) = 1 - |p|/N and H
the harmonic mean; both forms are evaluated and must agree to 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .partition import Partition

_FORM_AGREEMENT = 1e-12


class UniverseMismatchError(ValueError):
    """The two partitions do not cover the same vertex set."""


def _common_universe(p1: Partition, p2: Partition) -> frozenset[int]:
    u1, u2 = p1.universe, p2.universe
    if u1 != u2:
        only1 = len(u1 - u2)
        only2 = len(u2 - u1)
        raise UniverseMismatchError(
            f"partitions cover different vertex sets "
            f"({only1} vertices only in the first, {only2} only in the second)")
    return u1


def partitions_equal(p1: Partition, p2: Partition) -> bool:
    """True iff the partitions agree up to cell order and member order."""
    _common_universe(p1, p2)
    return frozenset(p1.cells) == frozenset(p2.cells)


def partition_intersection(p1: Partition, p2: Partition) -> Partition:
    """Cell-wise intersection, empties discarded, canonicalized.

    Computed in O(N) by grouping each vertex on its (cell-in-p1, cell-in-p2)
    index pair rather than crossing cells.
    """
    universe = _common_universe(p1, p2)
    m1, m2 = p1.membership, p2.membership
    groups: dict[tuple[int, int], list[int]] = {}
    for v in universe:
        groups.setdefault((m1[v], m2[v]), []).append(v)
    cells = sorted((tuple(sorted(g)) for g in groups.values()),
                   key=lambda c: c[0])
    return Partition(tuple(cells))


@dataclass(frozen=True)
class SimilarityScore:
    """Similarity value in [0, 1] plus the quantities it was computed from."""

    value: float
    cells_a: int
    cells_b: int
    cells_intersection: int
    universe_size: int
    direct_form: float    # the two-fraction average
    harmonic_form: float  # C(p1^p2) / H(C(p1), C(p2))


def similarity_score(p1: Partition, p2: Partition) -> SimilarityScore:
    """Fraction of actors sharing positions across two partitions.

    Degenerate denominators: equal partitions score 1 outright; otherwise a
    discrete input forces a discrete intersection and the score extends
    continuously to 0.
    """
    universe = _common_universe(p1, p2)
    n = len(universe)
    k1, k2 = len(p1), len(p2)
    if partitions_equal(p1, p2):
        return SimilarityScore(1.0, k1, k2, k1, n, 1.0, 1.0)
    if k1 == n or k2 == n:
        return SimilarityScore(0.0, k1, k2, n, n, 0.0, 0.0)

    inter = len(partition_intersection(p1, p2))
    direct = 0.5 * ((n - inter) / (n - k1) + (n - inter) / (n - k2))
    c_inter = 1.0 - inter / n
    c1 = 1.0 - k1 / n
    c2 = 1.0 - k2 / n
    harmonic = c_inter * (c1 + c2) / (2.0 * c1 * c2)
    if abs(direct - harmonic) > _FORM_AGREEMENT:
        raise RuntimeError(
            f"similarity formula forms disagree: {direct!r} vs {harmonic!r}")
    return SimilarityScore(direct, k1, k2, inter, n, direct, harmonic)


def restrict_partition(partition: Partition, keep: Iterable[int]) -> Partition:
    """Intersect every cell with ``keep`` and drop the empties.

    Used to drop vertices absent from an earlier snapshot before scoring.
    """
    keep_set = {int(v) for v in keep}
    extra = keep_set - partition.universe
    if extra:
        raise ValueError(f"keep set contains vertices outside the partition "
                         f"universe, e.g. {min(extra)}")
    cells = []
    for cell in partition.cells:
        kept = tuple(v for v in cell if v in keep_set)
        if kept:
            cells.append(kept)
    return Partition(tuple(cells))
