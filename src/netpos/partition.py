"""Partition model, epsilon-equitable refinement, and reference partitioners.

The refinement loop starts from the unit partition and repeatedly takes the
lowest-indexed pending cell as the active cell, counts the degree toward it of
every vertex it touches, and splits cells wherever member degrees spread more
than epsilon apart. With epsilon = 0 this is exactly equitable (McKay-style)
refinement and converges to the coarsest equitable partition.

The loop keeps its cells in the classic partition-refinement layout (Paige &
Tarjan 1987): one permutation of the vertices in which every cell is a
contiguous range named by its start offset, with pending cells on a min-heap
of start offsets. A split moves only the vertices that leave the cell's
start, so an iteration costs work proportional to the active cell's volume.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .graphs import ID_DTYPE, Graph, ParseError


class IterationLimitError(RuntimeError):
    """Refinement exceeded its iteration cap; carries a diagnostic state dump."""

    def __init__(self, iterations: int, active: int, cells: int):
        super().__init__(
            f"refinement did not settle within {iterations} iterations "
            f"(|active|={active}, cells={cells}); this indicates a bug, "
            f"refinement strictly progresses")
        self.iterations = iterations
        self.active = active
        self.cells = cells


def _check_epsilon(epsilon) -> int:
    eps = int(epsilon)
    if eps != epsilon or eps < 0:
        raise ValueError(f"epsilon must be a non-negative integer, got {epsilon!r}")
    return eps


class Partition:
    """Ordered disjoint cover of a vertex set, stored as two read-only arrays.

    ``universe`` holds the vertex ids ascending and ``membership`` the cell
    index of each, with cells numbered in partition order; ``len(p)`` is the
    cell count. Cell order is significant (refinement numbers cells by
    position); use :meth:`canonical` before comparing partitions structurally.
    ``cells`` is a tuple-of-tuples view with ascending members, built once on
    first use, for file output and for callers that read cells.
    """

    def __init__(self, cells: Iterable[Iterable[int]] = ()):
        """Validate and normalize cells (sorted members, disjoint, nonempty)."""
        cells = [tuple(cell) for cell in cells]
        if not all(cells):
            raise ValueError("partition cells must be nonempty")
        flat = np.fromiter(itertools.chain.from_iterable(cells), dtype=ID_DTYPE)
        order = np.argsort(flat, kind="stable")
        universe = flat[order]
        repeated = universe[1:][universe[1:] == universe[:-1]]
        if repeated.size:
            raise ValueError(f"vertex {repeated[0]} appears more than once")
        sizes = [len(cell) for cell in cells]
        labels = np.repeat(np.arange(len(cells), dtype=ID_DTYPE), sizes)
        self._store(universe, labels[order], len(cells))

    def _store(self, universe: np.ndarray, membership: np.ndarray, k: int) -> None:
        universe.flags.writeable = membership.flags.writeable = False
        self.universe, self.membership, self._k = universe, membership, k

    @classmethod
    def _from_labels(cls, universe: np.ndarray, labels: np.ndarray) -> "Partition":
        """Group ascending, distinct ``universe`` ids by label, cells in label order."""
        keys, membership = np.unique(labels, return_inverse=True)
        part = cls.__new__(cls)
        part._store(universe, membership.astype(ID_DTYPE, copy=False), keys.size)
        return part

    @classmethod
    def from_cells(cls, cells: Iterable[Iterable[int]]) -> "Partition":
        """Same as ``Partition(cells)``."""
        return cls(cells)

    @classmethod
    def unit(cls, n: int) -> "Partition":
        """Single-cell partition of [0, n); refinement's starting point."""
        return cls.from_membership(np.zeros(n, dtype=ID_DTYPE))

    @classmethod
    def discrete(cls, vertices: Iterable[int]) -> "Partition":
        return cls((v,) for v in sorted(vertices))

    @classmethod
    def from_membership(cls, membership: Sequence[int]) -> "Partition":
        """Group vertex ids [0, len) by their membership value, ascending."""
        memb = np.asarray(membership, dtype=ID_DTYPE)
        return cls._from_labels(np.arange(memb.size, dtype=ID_DTYPE), memb)

    def __len__(self) -> int:
        """Number of cells (the |pi| of the similarity score)."""
        return self._k

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return (np.array_equal(self.universe, other.universe)
                and np.array_equal(self.membership, other.membership))

    def __repr__(self) -> str:
        return f"Partition({self.cells!r})"

    @functools.cached_property
    def cells(self) -> tuple[tuple[int, ...], ...]:
        members = self.universe[np.argsort(self.membership, kind="stable")].tolist()
        ends = np.bincount(self.membership, minlength=self._k).cumsum().tolist()
        return tuple(tuple(members[a:b]) for a, b in zip([0] + ends, ends))

    @property
    def n_vertices(self) -> int:
        return self.universe.size

    def is_discrete(self) -> bool:
        return self._k == self.universe.size

    def canonical(self) -> "Partition":
        """Cells renumbered by minimum member id; member order is already canonical."""
        _, first = np.unique(self.membership, return_index=True)
        return Partition._from_labels(self.universe, first[self.membership])

    def membership_array(self, n: int) -> np.ndarray:
        """The membership array, checking that the universe is [0, n)."""
        u = self.universe
        if u.size != n or (n and (u[0] != 0 or u[-1] != n - 1)):
            raise ValueError("partition universe is not the dense range [0, n)")
        return self.membership


def _group_bounds(fs: np.ndarray, eps: int) -> list[int]:
    """Greedy epsilon-grouping of ascending degree values, as offsets into ``fs``.

    A value joins the current group iff it is within eps of the group's first
    (minimum) value, so the groups depend only on the multiset of values.
    """
    bounds = [0]
    start = 0
    while True:
        nxt = int(np.searchsorted(fs, fs[start] + eps, side="right"))
        if nxt >= fs.size:
            break
        bounds.append(nxt)
        start = nxt
    bounds.append(fs.size)
    return bounds


def _run_offsets(values: np.ndarray) -> np.ndarray:
    """Start offset of each run of equal values in a sorted array, then its size."""
    size = values.size
    edge = np.empty(size + 1, dtype=bool)
    edge[0] = edge[size] = True
    np.not_equal(values[1:], values[:-1], out=edge[1:size])
    return edge.nonzero()[0]


def _active_cell_degrees(graph: Graph, active_cell: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, int]:
    """Vertices adjacent to the active cell, their degrees toward it, and its volume.

    Scatters from the active cell side: gathers the adjacency rows of its
    members in one shot, sorts the gathered ids and takes run lengths. Returns
    the touched vertices (ascending), f(u) = deg(u, active cell) >= 1 for each,
    and the cell's volume (the number of adjacency entries gathered), so an
    iteration costs work proportional to that volume, never to n.
    """
    indptr = graph.indptr
    starts = indptr[active_cell]
    lens = indptr[active_cell + 1] - starts
    ends = lens.cumsum()
    volume = int(ends[-1]) if ends.size else 0
    if volume == 0:
        empty = np.empty(0, dtype=ID_DTYPE)
        return empty, empty, 0
    # flat index of every entry of the rows [starts_i, starts_i + lens_i)
    flat = np.repeat(starts - ends + lens, lens)
    flat += np.arange(volume, dtype=ID_DTYPE)
    hits = graph.indices[flat]
    hits.sort()
    runs = _run_offsets(hits)
    return hits[runs[:-1]], runs[1:] - runs[:-1], volume


def _refine(graph: Graph, eps: int, *, iteration_cap: int | None = None,
            on_iteration=None) -> tuple[Partition, int, int, int]:
    """Refinement loop behind fast_eep and run_refinement.

    The cells live in one permutation ``perm`` of the vertices: each cell is
    the contiguous range ``perm[s:cell_end[s]]`` and is named by its start
    offset ``s``, so partition order is start-offset order. ``cell_of[v]`` is
    the start of v's cell and ``pos[v]`` its offset in ``perm``; members of a
    cell are unordered in ``perm``.

    Each iteration pops the pending cell with the least start (a min-heap plus
    a pending flag), counts the degrees toward it of the vertices it touches,
    and splits every cell whose members' degrees spread more than eps, where
    untouched members count as f = 0. A split keeps the lowest-f fragment at
    the cell's start and moves the other members to the tail of its range in
    ascending-f order, so only moved vertices are rewritten; every fragment
    becomes pending. Nothing in an iteration costs O(n) or O(number of cells).

    Returns the partition, whose membership is each vertex's ``cell_of``
    ranked among the cell starts (so cells keep partition order), the
    iteration count, the number of cell splits and the number of fragments
    they created. ``on_iteration(i, volume, n_cells, n_active)`` fires after
    each iteration's splits; ``volume`` is the active cell's volume, the number
    of adjacency entries the scatter gathered, and ``n_active`` the number of
    pending cells.
    """
    n = graph.n
    if n == 0:
        return Partition.unit(0), 0, 0, 0
    perm = np.arange(n, dtype=ID_DTYPE)
    pos = np.arange(n, dtype=ID_DTYPE)
    cell_of = np.zeros(n, dtype=ID_DTYPE)
    cell_end = np.zeros(n, dtype=ID_DTYPE)   # nonzero exactly at cell starts
    cell_end[0] = n
    pending = np.zeros(n, dtype=bool)
    pending[0] = True
    heap = [0]
    n_cells = 1
    iterations = splits = fragments = 0
    cap = iteration_cap if iteration_cap is not None else 16 * n + 64

    def make_pending(start: int) -> None:
        if not pending[start]:
            pending[start] = True
            heapq.heappush(heap, start)

    while heap and n_cells < n:
        if iterations >= cap:
            raise IterationLimitError(iterations, len(heap), n_cells)
        iterations += 1
        active = heapq.heappop(heap)
        pending[active] = False
        touched, f, volume = _active_cell_degrees(
            graph, perm[active:cell_end[active]])

        # no cell can spread more than the largest degree toward the active cell
        fmax = int(f.max()) if volume else 0
        if fmax > eps:
            # group the touched vertices by cell, ascending f within each cell
            cells = cell_of[touched]
            order = (cells * (fmax + 1) + f).argsort()
            cells, f, touched = cells[order], f[order], touched[order]
            runs = _run_offsets(cells)
            first, stop = runs[:-1], runs[1:]
            starts = cells[first]
            covered = stop - first == cell_end[starts] - starts
            # a cell splits iff its exact f spread exceeds eps, where untouched
            # members (f = 0) only enter through the minimum
            low = f[first] * covered
            for g in (f[stop - 1] - low > eps).nonzero()[0].tolist():
                start, a, b = int(starts[g]), int(first[g]), int(stop[g])
                end = int(cell_end[start])
                if covered[g]:
                    tail = start      # regroup the whole range in place
                else:
                    # the f <= eps group keeps the untouched members and start
                    a += int(np.searchsorted(f[a:b], eps, side="right"))
                    tail = end - (b - a)
                    cell_end[start] = tail
                    make_pending(start)
                # swap the movers into [tail, end); members there that stay
                # fill the holes the movers leave
                movers = touched[a:b]
                at = pos[movers]
                holes = at[at < tail]
                if holes.size:
                    staying = np.ones(end - tail, dtype=bool)
                    staying[at[at >= tail] - tail] = False
                    displaced = perm[tail:end][staying]
                    perm[holes] = displaced
                    pos[displaced] = holes
                perm[tail:end] = movers
                pos[movers] = np.arange(tail, end, dtype=ID_DTYPE)
                bounds = _group_bounds(f[a:b], eps)
                for lo, hi in zip(bounds, bounds[1:]):
                    if tail + lo != start:
                        cell_of[movers[lo:hi]] = tail + lo
                    cell_end[tail + lo] = tail + hi
                    make_pending(tail + lo)
                new = len(bounds) - 1 if covered[g] else len(bounds)
                splits += 1
                fragments += new
                n_cells += new - 1

        if on_iteration is not None:
            on_iteration(iterations, volume, n_cells, len(heap))

    return Partition.from_membership(cell_of), iterations, splits, fragments


def fast_eep(graph: Graph, epsilon) -> Partition:
    """Epsilon-equitable partition by iterative refinement from the unit partition.

    The result satisfies: for every pair of cells, member degrees toward the
    other cell differ by at most epsilon. Pure function of (graph, epsilon);
    epsilon = 0 yields the coarsest equitable partition.
    """
    return _refine(graph, _check_epsilon(epsilon))[0]


def equitable_oracle(graph: Graph) -> Partition:
    """Coarsest equitable partition by whole-partition signature refinement.

    Independent of the active-list algorithm: every round splits every cell by
    its members' full degree vectors until nothing changes. Canonical output
    (cells ordered by minimum member).
    """
    n = graph.n
    if n == 0:
        return Partition(())
    memb = np.zeros(n, dtype=ID_DTYPE)
    k = 1
    rows = np.repeat(np.arange(n, dtype=ID_DTYPE), graph.degrees)
    while True:
        sig = np.zeros((n, k), dtype=ID_DTYPE)
        np.add.at(sig, (rows, memb[graph.indices]), 1)
        _, new = np.unique(np.column_stack([memb, sig]), axis=0,
                           return_inverse=True)
        new_k = int(new.max()) + 1
        if new_k == k:
            break
        memb = new.astype(ID_DTYPE)
        k = new_k
    return Partition.from_membership(memb).canonical()


def degree_partition(graph: Graph) -> Partition:
    """Cells of equal-degree vertices, ordered by ascending degree."""
    return Partition.from_membership(graph.degrees)


def epsilon_spread(graph: Graph, partition: Partition) -> int:
    """Largest within-cell spread of member degrees toward any cell.

    A partition is epsilon-equitable iff this is <= epsilon. Counts each
    (vertex, neighbour cell) pair from the adjacency entries, then takes
    max - min per (own cell, neighbour cell) group; a member with no entry
    for a neighbour cell has degree 0 toward it. Costs O(m log m) time and
    O(m) memory, whatever the number of cells.
    """
    n = graph.n
    memb, k = partition.membership_array(n), len(partition)
    if graph.indices.size == 0:
        return 0
    rows = np.repeat(np.arange(n, dtype=ID_DTYPE), graph.degrees)
    keys, counts = np.unique(rows * k + memb[graph.indices], return_counts=True)
    vertex, target = np.divmod(keys, k)
    group = memb[vertex] * k + target
    order = np.argsort(group, kind="stable")
    group, counts = group[order], counts[order]
    first = _run_offsets(group)
    high = np.maximum.reduceat(counts, first[:-1])
    low = np.minimum.reduceat(counts, first[:-1])
    cell_size = np.bincount(memb, minlength=k)
    low[np.diff(first) < cell_size[group[first[:-1]] // k]] = 0
    return int((high - low).max())


def write_partition_file(stream: IO[str], partition: Partition, *,
                         header: Mapping[str, object] | None = None) -> None:
    """Write the partition file format: header comments, then one cell per line.

    Each line is '<cell_index>\\t<v1> <v2> ...' with ids ascending. The header
    records whatever metadata the caller supplies (n, epsilon, algorithm,
    graph hash) plus the cell count.
    """
    meta = dict(header or {})
    meta.setdefault("cells", len(partition))
    stream.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
    for idx, cell in enumerate(partition.cells):
        stream.write(f"{idx}\t{' '.join(str(v) for v in cell)}\n")


def read_partition_file(stream: IO[str]) -> tuple[Partition, dict[str, str]]:
    """Parse a partition file; returns the partition and its header metadata."""
    meta: dict[str, str] = {}
    cells: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for line_no, raw in enumerate(stream, 1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                if "=" in token:
                    key, value = token.split("=", 1)
                    meta[key] = value
            continue
        parts = line.split("\t", 1)
        if len(parts) != 2:
            raise ParseError("expected '<cell_index>\\t<ids>'", line_no)
        try:
            idx = int(parts[0])
            members = tuple(int(tok) for tok in parts[1].split())
        except ValueError:
            raise ParseError("bad cell line", line_no) from None
        if idx != len(cells):
            raise ParseError(f"cell index {idx} out of sequence", line_no)
        if not members:
            raise ParseError("empty cell", line_no)
        fresh = set(members)
        if len(fresh) < len(members) or not seen.isdisjoint(fresh):
            repeated = min(v for v in fresh if v in seen or members.count(v) > 1)
            raise ParseError(f"vertex {repeated} appears more than once", line_no)
        seen |= fresh
        cells.append(members)
    return Partition.from_cells(cells), meta
