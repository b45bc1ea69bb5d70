"""Partition comparison: the similarity score and restriction to a vertex set.

The score for two partitions of the same N-vertex universe is

    sim(p1, p2) = 1/2 * [ (N - |p1 ^ p2|) / (N - |p1|) + (N - |p1 ^ p2|) / (N - |p2|) ]

where |p| is the cell count and p1 ^ p2 the cell-wise intersection. The same
quantity rewrites as C(p1 ^ p2) / H(C(p1), C(p2)) with C(p) = 1 - |p|/N and H
the harmonic mean; both forms are evaluated and must agree to 1e-12.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .graphs import ID_DTYPE, run_offsets
from .partition import Partition

_FORM_AGREEMENT = 1e-12


class UniverseMismatchError(ValueError):
    """The two partitions do not cover the same vertex set."""


def _common_universe(p1: Partition, p2: Partition) -> None:
    u1, u2 = p1.universe, p2.universe
    if not np.array_equal(u1, u2):
        only1 = np.setdiff1d(u1, u2, assume_unique=True).size
        only2 = np.setdiff1d(u2, u1, assume_unique=True).size
        raise UniverseMismatchError(
            f"partitions cover different vertex sets "
            f"({only1} vertices only in the first, {only2} only in the second)")


def _meet_labels(p1: Partition, p2: Partition) -> np.ndarray:
    """One label per (cell-in-p1, cell-in-p2) pair, aligned with the universe."""
    _common_universe(p1, p2)
    return p1.membership * len(p2) + p2.membership


class SimilarityScore:
    """Similarity value in [0, 1] plus the quantities it was computed from.

    ``direct_form`` is the two-fraction average and ``harmonic_form`` is
    C(p1^p2) / H(C(p1), C(p2)).
    """

    __slots__ = ("value", "cells_a", "cells_b", "cells_intersection",
                 "universe_size", "direct_form", "harmonic_form")

    def __init__(self, value: float, cells_a: int, cells_b: int,
                 cells_intersection: int, universe_size: int,
                 direct_form: float, harmonic_form: float):
        self.value, self.cells_a, self.cells_b = value, cells_a, cells_b
        self.cells_intersection, self.universe_size = cells_intersection, universe_size
        self.direct_form, self.harmonic_form = direct_form, harmonic_form


def similarity_score(p1: Partition, p2: Partition) -> SimilarityScore:
    """Fraction of actors sharing positions across two partitions.

    Degenerate denominators: equal partitions score 1 outright; otherwise a
    discrete input forces a discrete intersection and the score extends
    continuously to 0.
    """
    # sort-and-count: numpy's hashing np.unique is several times slower here
    inter = run_offsets(np.sort(_meet_labels(p1, p2))).size - 1
    n = p1.n_vertices
    k1, k2 = len(p1), len(p2)
    # the meet has as many cells as both inputs only when they are equal
    if inter == k1 == k2:
        return SimilarityScore(1.0, k1, k2, k1, n, 1.0, 1.0)
    if k1 == n or k2 == n:
        return SimilarityScore(0.0, k1, k2, n, n, 0.0, 0.0)

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
    """Intersect every cell with ``keep`` and drop the empties, keeping cell order.

    Used to drop vertices absent from an earlier snapshot before scoring.
    """
    keep_ids = np.fromiter(keep, dtype=ID_DTYPE)
    outside = keep_ids[~np.isin(keep_ids, partition.universe)]
    if outside.size:
        raise ValueError(f"keep set contains vertices outside the partition "
                         f"universe, e.g. {outside.min()}")
    mask = np.isin(partition.universe, keep_ids)
    return Partition._from_labels(partition.universe[mask], partition.membership[mask])
