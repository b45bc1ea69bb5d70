"""A fixed loop that measures the host's speed next to each command sequence.

On a shared host the speed of one CPU drifts by 20-60% over seconds to
minutes, and the wall time of a command drifts with it. The benchmark pins
itself and its children to one CPU and times this loop before and after
every command sequence. A sequence's wall time divided by the mean of the
two loop times next to it cancels most of the drift, because both ran on
the same CPU within a few seconds of each other.

The loop mixes the kinds of work netpos does: a breadth-first search over
Python lists on a graph too large for the caches (as in betweenness), dict
updates (as in the refinement's bookkeeping), many NumPy calls on small
arrays and a sort of a large one. Over a mix, its slowdown follows that of
the commands more closely than any one kind of work alone. Its inputs are
fixed, so it does the same work on every run and on every commit; it does
not use netpos, so no change to the program moves it.
"""

from __future__ import annotations

import os
import time

import numpy as np

# About the loop's median time on the host in README.md. A scaled time is the
# time the work would take on a CPU where the loop takes this long.
REFERENCE_S = 0.2

_SEED = 20140217
_N = 60_000         # vertices of the loop's random graph, too many for the caches
_DEGREE = 3         # out-links per vertex before symmetrizing
_KEYS = 100_000     # keys counted in a dict
_SMALL_CALLS = 3_000
_LARGE = 250_000


class Calibration:
    """The loop's fixed inputs; ``time_once`` runs one pass and times it."""

    def __init__(self) -> None:
        rng = np.random.default_rng(_SEED)
        heads = rng.integers(0, _N, size=(_N, _DEGREE))
        adjacency: list[list[int]] = [[] for _ in range(_N)]
        for v, row in enumerate(heads.tolist()):
            for w in row:
                if w != v:
                    adjacency[v].append(w)
                    adjacency[w].append(v)
        self.adjacency = adjacency
        self.keys = rng.integers(0, 1 << 40, size=_KEYS).tolist()
        self.small = [rng.integers(0, 64, size=200) for _ in range(16)]
        self.large = rng.random(_LARGE)
        self.checksum: int | None = None

    def _pass(self) -> int:
        adjacency = self.adjacency
        dist = [-1] * _N
        dist[0] = 0
        queue = [0]
        for v in queue:
            dv = dist[v] + 1
            for w in adjacency[v]:
                if dist[w] < 0:
                    dist[w] = dv
                    queue.append(w)
        total = sum(dist)
        counts: dict[int, int] = {}
        for k in self.keys:
            counts[k] = counts.get(k >> 3, 0) + 1
        total += len(counts)
        for i in range(_SMALL_CALLS):
            a = self.small[i % len(self.small)]
            binned = np.bincount(a, minlength=64)
            total += int(np.argsort(binned, kind="stable")[-1]) + int(a[binned[a] > 3].size)
        order = np.argsort(self.large, kind="stable")
        total += int(order[:: 1000].sum())
        return total

    def time_once(self) -> float:
        """Run one pass and return its wall time in seconds.

        Raises RuntimeError if a pass computes another result than the first
        did, which would mean the loop no longer does fixed work.
        """
        t0 = time.perf_counter()
        total = self._pass()
        elapsed = time.perf_counter() - t0
        if self.checksum is None:
            self.checksum = total
        elif total != self.checksum:
            raise RuntimeError("calibration loop gave another result than before")
        return elapsed


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two loop times, scaled to ``REFERENCE_S``."""
    return seconds / ((before + after) / 2) * REFERENCE_S


def pin_to_one_cpu() -> int:
    """Restrict this process, and the children it starts, to one CPU.

    Takes the highest-numbered CPU it may run on and returns it. The command
    children and the calibration loop then share one CPU, so the loop sees
    the speed the commands see.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
