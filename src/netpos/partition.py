"""Partition model, epsilon-equitable refinement, and reference partitioners.

The refinement loop starts from the unit partition and repeatedly takes the
lowest-indexed pending cell as the active cell, computes every vertex's degree
toward it, and splits cells wherever member degrees spread more than epsilon
apart. With epsilon = 0 this is exactly equitable (McKay-style) refinement and
converges to the coarsest equitable partition.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Partition:
    """Ordered disjoint cover of a vertex set; each cell holds ascending ids.

    Cell order is significant (refinement indexes cells by position); use
    :meth:`canonical` before comparing partitions structurally.
    """

    cells: tuple[tuple[int, ...], ...]

    @classmethod
    def from_cells(cls, cells: Iterable[Iterable[int]]) -> "Partition":
        """Validate and normalize cells (sorted members, disjoint, nonempty)."""
        norm: list[tuple[int, ...]] = []
        seen: set[int] = set()
        for cell in cells:
            members = tuple(sorted(int(v) for v in cell))
            if not members:
                raise ValueError("partition cells must be nonempty")
            for v in members:
                if v in seen:
                    raise ValueError(f"vertex {v} appears in more than one cell")
                seen.add(v)
            norm.append(members)
        return cls(tuple(norm))

    @classmethod
    def unit(cls, n: int) -> "Partition":
        """Single-cell partition of [0, n); refinement's starting point."""
        if n == 0:
            return cls(())
        return cls((tuple(range(n)),))

    @classmethod
    def discrete(cls, vertices: Iterable[int]) -> "Partition":
        return cls(tuple((int(v),) for v in sorted(vertices)))

    @classmethod
    def from_membership(cls, membership: Sequence[int]) -> "Partition":
        """Group vertex ids [0, len) by their membership value, ascending."""
        memb = np.asarray(membership, dtype=ID_DTYPE)
        order = np.argsort(memb, kind="stable")
        cells: list[tuple[int, ...]] = []
        sorted_memb = memb[order]
        boundaries = np.flatnonzero(np.diff(sorted_memb)) + 1
        for chunk in np.split(order, boundaries):
            cells.append(tuple(int(v) for v in np.sort(chunk)))
        return cls(tuple(cells))

    def __len__(self) -> int:
        """Number of cells (the |pi| of the similarity score)."""
        return len(self.cells)

    @functools.cached_property
    def universe(self) -> frozenset[int]:
        return frozenset(v for cell in self.cells for v in cell)

    @functools.cached_property
    def membership(self) -> dict[int, int]:
        return {v: i for i, cell in enumerate(self.cells) for v in cell}

    @property
    def n_vertices(self) -> int:
        return sum(len(cell) for cell in self.cells)

    def is_discrete(self) -> bool:
        return all(len(cell) == 1 for cell in self.cells)

    def canonical(self) -> "Partition":
        """Cells reordered by minimum member id; member order is already canonical."""
        return Partition(tuple(sorted(self.cells, key=lambda c: c[0])))

    def membership_array(self, n: int) -> np.ndarray:
        """Membership as a dense array; requires universe == [0, n)."""
        if self.universe != frozenset(range(n)):
            raise ValueError("partition universe is not the dense range [0, n)")
        out = np.empty(n, dtype=ID_DTYPE)
        for i, cell in enumerate(self.cells):
            out[list(cell)] = i
        return out


def _fragment_cell(members: np.ndarray, fvals: np.ndarray,
                   eps: int) -> list[np.ndarray] | None:
    """Greedy epsilon-grouping of one cell, or None if it stays whole.

    Members are sorted by (f, id); a vertex joins the current group iff its f
    is within eps of the group's first (minimum-f) member. Fragments come out
    in ascending-f order with members re-sorted by id.
    """
    if int(fvals.max()) - int(fvals.min()) <= eps:
        return None
    order = np.argsort(fvals, kind="stable")  # members ascending => (f, id) key
    fs = fvals[order]
    bounds = [0]
    start = 0
    while True:
        nxt = int(np.searchsorted(fs, fs[start] + eps, side="right"))
        if nxt >= fs.size:
            break
        bounds.append(nxt)
        start = nxt
    bounds.append(fs.size)
    return [np.sort(members[order[a:b]]) for a, b in zip(bounds, bounds[1:])]


def _active_cell_degrees(graph: Graph,
                         active_cell: np.ndarray) -> tuple[np.ndarray, int]:
    """f(u) = deg(u, active cell) for every vertex, and the cell's volume.

    Scatters from the active cell side: gather the adjacency rows of its
    members in one shot and count hits per vertex, so an iteration costs work
    proportional to the active cell's volume (the number of adjacency entries
    gathered, returned as the second value) rather than the whole edge set.
    """
    indptr = graph.indptr
    starts = indptr[active_cell]
    lens = indptr[active_cell + 1] - starts
    nonempty = lens > 0
    if not nonempty.any():
        return np.zeros(graph.n, dtype=ID_DTYPE), 0
    starts = starts[nonempty]
    lens = lens[nonempty]
    bounds = np.cumsum(lens)
    volume = int(bounds[-1])
    # flat index array covering [starts_i, starts_i + lens_i) for all i
    jumps = np.ones(volume, dtype=ID_DTYPE)
    jumps[0] = starts[0]
    if starts.size > 1:
        jumps[bounds[:-1]] = starts[1:] - (starts[:-1] + lens[:-1]) + 1
    flat = np.cumsum(jumps)
    f = np.bincount(graph.indices[flat], minlength=graph.n)
    return f.astype(ID_DTYPE, copy=False), volume


def _refine(graph: Graph, eps: int, *,
            iteration_cap: int | None = None,
            on_iteration=None) -> tuple[list[np.ndarray], int]:
    """Active-list refinement loop behind fast_eep and run_refinement.

    Cells carry stable ids internally so membership never needs rewriting when
    positions shift; the active list stores ids and pops the one at the lowest
    current position, which matches the positional minimum-index rule exactly.

    Returns the final cells (ascending-id arrays, in partition order) and the
    iteration count. ``on_iteration(i, volume, n_cells, n_active)`` fires
    after each iteration's split has been applied; ``volume`` is the active
    cell's volume, the number of adjacency entries the scatter gathered.
    """
    n = graph.n
    if n == 0:
        return [], 0
    cells: list[np.ndarray] = [np.arange(n, dtype=ID_DTYPE)]
    ids = np.zeros(1, dtype=ID_DTYPE)          # stable id at each position
    id_to_pos = np.zeros(1, dtype=ID_DTYPE)    # current position of each id
    sizes_by_id = np.zeros(256, dtype=ID_DTYPE)
    sizes_by_id[0] = n
    next_id = 1
    membership = np.zeros(n, dtype=ID_DTYPE)   # vertex -> stable cell id
    active: list[int] = [0]
    cap = iteration_cap if iteration_cap is not None else 16 * n + 64
    iterations = 0

    while active and len(cells) < n:
        if iterations >= cap:
            raise IterationLimitError(iterations, len(active), len(cells))
        iterations += 1
        positions = id_to_pos[np.fromiter(active, dtype=ID_DTYPE, count=len(active))]
        aid = active.pop(int(np.argmin(positions)))
        f, volume = _active_cell_degrees(graph, cells[int(id_to_pos[aid])])

        # vectorized pre-filter: a cell splits iff its exact f spread exceeds
        # eps, where untouched members (f = 0) only enter through the minimum
        splitters: list[tuple[int, int]] = []  # (position, stable id)
        touched = np.flatnonzero(f)
        if touched.size:
            tid = membership[touched]
            order = np.argsort(tid, kind="stable")
            tid_sorted = tid[order]
            ft = f[touched[order]]
            group_starts = np.flatnonzero(
                np.concatenate(([True], tid_sorted[1:] != tid_sorted[:-1])))
            group_ids = tid_sorted[group_starts]
            gmax = np.maximum.reduceat(ft, group_starts)
            gmin = np.minimum.reduceat(ft, group_starts)
            gcount = np.diff(np.concatenate((group_starts, [tid_sorted.size])))
            covered = gcount == sizes_by_id[group_ids]
            true_min = np.where(covered, gmin, 0)
            split_ids = group_ids[(gmax - true_min) > eps]
            if split_ids.size:
                pos = id_to_pos[split_ids]
                rank = np.argsort(pos)
                splitters = list(zip(pos[rank].tolist(), split_ids[rank].tolist()))

        if splitters:
            frag_parts: list[list[np.ndarray]] = []
            frag_ids: list[np.ndarray] = []
            for position, _ in splitters:
                members = cells[position]
                parts = _fragment_cell(members, f[members], eps)
                assert parts is not None  # pre-filter computed the exact spread
                new_ids = np.arange(next_id, next_id + len(parts), dtype=ID_DTYPE)
                next_id += len(parts)
                if next_id > sizes_by_id.size:
                    grown = np.zeros(max(2 * sizes_by_id.size, next_id),
                                     dtype=ID_DTYPE)
                    grown[:sizes_by_id.size] = sizes_by_id
                    sizes_by_id = grown
                for part, pid in zip(parts, new_ids):
                    membership[part] = pid
                    sizes_by_id[pid] = part.size
                frag_parts.append(parts)
                frag_ids.append(new_ids)

            new_cells: list[np.ndarray] = []
            id_pieces: list[np.ndarray] = []
            prev = 0
            for (position, _), parts, new_ids in zip(splitters, frag_parts, frag_ids):
                new_cells.extend(cells[prev:position])
                id_pieces.append(ids[prev:position])
                new_cells.extend(parts)
                id_pieces.append(new_ids)
                prev = position + 1
            new_cells.extend(cells[prev:])
            id_pieces.append(ids[prev:])
            cells = new_cells
            ids = np.concatenate(id_pieces)
            id_to_pos = np.empty(next_id, dtype=ID_DTYPE)  # stale ids never read
            id_to_pos[ids] = np.arange(len(cells), dtype=ID_DTYPE)

            # active update: fragmented entries are replaced in place by their
            # fragments (ascending position); fragments of cells not on the
            # list are appended in ascending position order
            replacement = {cid: new_ids
                           for (_, cid), new_ids in zip(splitters, frag_ids)}
            new_active: list[int] = []
            for entry in active:
                hit = replacement.get(entry)
                if hit is None:
                    new_active.append(entry)
                else:
                    new_active.extend(int(x) for x in hit)
            present = set(active)
            appended: list[tuple[int, int]] = []
            for (_, cid), new_ids in zip(splitters, frag_ids):
                if cid not in present:
                    appended.extend((int(id_to_pos[x]), int(x)) for x in new_ids)
            appended.sort()
            new_active.extend(x for _, x in appended)
            active = new_active

        if on_iteration is not None:
            on_iteration(iterations, volume, len(cells), len(active))

    return cells, iterations


def _partition_from_arrays(cells: list[np.ndarray]) -> Partition:
    return Partition(tuple(tuple(int(v) for v in cell) for cell in cells))


def fast_eep(graph: Graph, epsilon) -> Partition:
    """Epsilon-equitable partition by iterative refinement from the unit partition.

    The result satisfies: for every pair of cells, member degrees toward the
    other cell differ by at most epsilon. Pure function of (graph, epsilon);
    epsilon = 0 yields the coarsest equitable partition.
    """
    eps = _check_epsilon(epsilon)
    cells, _ = _refine(graph, eps)
    return _partition_from_arrays(cells)


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
    if graph.n == 0:
        return Partition(())
    _, inv = np.unique(graph.degrees, return_inverse=True)
    return Partition.from_membership(inv)


def epsilon_spread(graph: Graph, partition: Partition) -> int:
    """Largest within-cell spread of member degrees toward any cell.

    A partition is epsilon-equitable iff this is <= epsilon; direct O(n*K)
    check used to verify refinement output.
    """
    n = graph.n
    if n == 0 or len(partition) == 0:
        return 0
    memb = partition.membership_array(n)
    k = len(partition)
    sig = np.zeros((n, k), dtype=ID_DTYPE)
    rows = np.repeat(np.arange(n, dtype=ID_DTYPE), graph.degrees)
    np.add.at(sig, (rows, memb[graph.indices]), 1)
    worst = 0
    for cell in partition.cells:
        block = sig[list(cell)]
        spread = int((block.max(axis=0) - block.min(axis=0)).max())
        worst = max(worst, spread)
    return worst


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
        cells.append(members)
    return Partition.from_cells(cells), meta
