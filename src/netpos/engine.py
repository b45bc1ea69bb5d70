"""Configured refinement runs that report counters alongside the partition.

``run_refinement`` drives the refinement loop of ``netpos.partition`` (the
loop behind ``fast_eep``) and returns its run counters: iterations, cells,
splits, fragments, elapsed time and, when asked, the summed volume of the
active cells, which is the number of adjacency entries the scatter gathered.
The result is a pure function of (graph, epsilon).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

from .graphs import Graph
from .partition import Partition, _check_epsilon, _refine

log = logging.getLogger(__name__)


@dataclass
class EngineConfig:
    """Knobs of a refinement run.

    ``workers`` is accepted for compatibility and has no effect: refinement
    runs in one thread. It must still be >= 1.
    """

    workers: int = 1
    iteration_cap: int | None = None
    progress_interval: int = 0    # log a key=value line every k iterations; 0 = off
    collect_work: bool = False    # sum the active-cell volumes into map_work

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class RefinementStats:
    iterations: int = 0
    cells: int = 0
    elapsed_s: float = 0.0
    map_work: int = 0    # summed active-cell volume; 0 unless collect_work
    splits: int = 0      # cells split
    fragments: int = 0   # cells the splits created; cells == 1 + fragments - splits


def run_refinement(graph: Graph, epsilon,
                   config: EngineConfig | None = None) -> tuple[Partition, RefinementStats]:
    """Refine to a fixpoint, returning the partition and the run's counters."""
    eps = _check_epsilon(epsilon)
    cfg = config or EngineConfig()
    stats = RefinementStats()
    t0 = time.perf_counter()

    def on_iteration(i: int, volume: int, n_cells: int, n_active: int) -> None:
        if cfg.collect_work:
            stats.map_work += volume
        if cfg.progress_interval and i % cfg.progress_interval == 0:
            log.info("iter=%d active=%d cells=%d elapsed_ms=%.1f",
                     i, n_active, n_cells, (time.perf_counter() - t0) * 1000.0)

    partition, stats.iterations, stats.splits, stats.fragments = _refine(
        graph, eps, iteration_cap=cfg.iteration_cap, on_iteration=on_iteration)
    stats.cells = len(partition)
    stats.elapsed_s = time.perf_counter() - t0
    return partition, stats


def parallel_eep(graph: Graph, epsilon,
                 config: EngineConfig | None = None) -> Partition:
    """Alias of run_refinement that returns only the partition.

    Kept under its historical name; cell-identical to fast_eep(graph, epsilon)
    for every config, since ``EngineConfig.workers`` has no effect.
    """
    partition, _ = run_refinement(graph, epsilon, config)
    return partition
