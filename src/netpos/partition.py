"""Partition model, epsilon-equitable refinement, and reference partitioners.

Refinement starts from the unit partition and repeats one step: it counts the
degree toward the splitter cells of every vertex they touch (the map phase)
and splits every cell whose members' degrees spread more than epsilon apart
(the reduce phase). With epsilon = 0 this is exactly equitable (McKay-style)
refinement and converges to the coarsest equitable partition.

One loop, ``run_refinement``, serves every epsilon on one cell store in the
classic partition-refinement layout (Paige & Tarjan 1987): one permutation of
the vertices in which every cell is a contiguous range named by its start
offset. ``_split_cells`` is the only code that moves vertices, and it moves
only those that leave their cell's start, so an iteration costs work
proportional to its splitters' volume; at epsilon > 0, the degrees toward the
cell at start 0, which only loses members, are kept by subtraction instead.
The loop branches on epsilon = 0 in four places: which cells are splitters
(every pending cell, or the least one), how touched vertices are classed,
which fragments become pending, and how the cells are numbered. ``fast_eep``
returns the partition alone.
"""

from __future__ import annotations

import heapq
import sys
import time
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .graphs import Graph, ranges, run_offsets
from .textio import ID_DTYPE, ParseError, format_decimal, parse_ints, strip, tokenize


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


class SignatureCollisionError(RuntimeError):
    """Two distinct degree signatures share a 64-bit hash; refinement refuses them."""


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
    ``cells`` builds a tuple-of-tuples view with ascending members on each
    access; nothing else is kept.
    """

    __slots__ = ("universe", "membership", "_k")

    def __init__(self, cells: Iterable[Iterable[int]] = ()):
        """Validate and normalize cells (sorted members, disjoint, nonempty)."""
        cells = [np.fromiter(cell, dtype=ID_DTYPE) for cell in cells]
        flat = np.concatenate(cells) if cells else np.zeros(0, dtype=ID_DTYPE)
        self._group(flat, [c.size for c in cells])

    def _group(self, flat: np.ndarray, sizes: Sequence[int],
               line_nos: np.ndarray | None = None) -> None:
        """Store cells given as their ids end to end and their sizes, checking
        them with one stable sort.

        The sort keeps the copies of a vertex in input order, so each copy but
        the first is a repeat. The first cell, in input order, that holds one
        raises a ParseError (a ValueError) naming its least repeated vertex and,
        from ``line_nos``, the cell's line.
        """
        if 0 in sizes:
            raise ValueError("partition cells must be nonempty")
        order = np.argsort(flat, kind="stable")
        universe = flat[order]
        membership = np.repeat(np.arange(len(sizes), dtype=ID_DTYPE), sizes)[order]
        again = (universe[1:] == universe[:-1]).nonzero()[0] + 1
        if again.size:
            at = again[membership[again].argmin()]
            line_no = None if line_nos is None else int(line_nos[membership[at]])
            raise ParseError(f"vertex {universe[at]} appears more than once", line_no)
        self._store(universe, membership, len(sizes))

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

    @property
    def cells(self) -> tuple[tuple[int, ...], ...]:
        members, ends = (a.tolist() for a in self._members_by_cell())
        return tuple(tuple(members[a:b]) for a, b in zip([0] + ends, ends))

    def _members_by_cell(self) -> tuple[np.ndarray, np.ndarray]:
        """The ids in cell order, ascending within a cell, and each cell's end."""
        members = self.universe[np.argsort(self.membership, kind="stable")]
        return members, np.bincount(self.membership, minlength=self._k).cumsum()

    @property
    def n_vertices(self) -> int:
        return self.universe.size

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


class EngineConfig:
    """Knobs of a refinement run.

    ``iteration_cap`` bounds the iterations (default 16 n + 64) and
    ``progress_interval`` prints a key=value line on stderr every that many
    iterations (0, the default, prints none). ``collect_work`` reports the
    summed active-cell volumes as ``map_work``; without it that counter
    reads 0. ``workers`` is accepted for compatibility and has no effect:
    refinement runs in one thread. It must still be >= 1.
    """

    __slots__ = ("workers", "iteration_cap", "progress_interval", "collect_work")

    def __init__(self, workers: int = 1, iteration_cap: int | None = None,
                 progress_interval: int = 0, collect_work: bool = False):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers, self.iteration_cap = workers, iteration_cap
        self.progress_interval, self.collect_work = progress_interval, collect_work


class RefinementStats:
    """Counters of a refinement run; ``cells == 1 + fragments - splits``.

    ``map_work`` is the summed active-cell volume, 0 unless ``collect_work``;
    ``splits`` counts the cells split and ``fragments`` the cells they created.
    """

    __slots__ = ("iterations", "cells", "elapsed_s", "map_work", "splits",
                 "fragments")

    def __init__(self, iterations: int = 0, cells: int = 0, elapsed_s: float = 0.0,
                 map_work: int = 0, splits: int = 0, fragments: int = 0):
        self.iterations, self.cells, self.elapsed_s = iterations, cells, elapsed_s
        self.map_work, self.splits, self.fragments = map_work, splits, fragments


def run_refinement(graph: Graph, epsilon,
                   config: EngineConfig | None = None) -> tuple[Partition, RefinementStats]:
    """Refine to a fixpoint, returning the partition and the run's counters.

    The cells live in one permutation ``perm`` of the vertices: each cell is
    the contiguous range ``perm[s:cell_end[s]]`` and is named by its start
    offset ``s``. ``cell_of[v]`` is the start of v's cell and ``pos[v]`` its
    offset in ``perm``; members of a cell are unordered in ``perm``.

    One loop serves every epsilon. An iteration takes its splitters, classes
    the vertices they touch, and hands the classes to ``_split_cells``, the
    only code that moves vertices; it branches on eps = 0 at four points:

    1. Splitters: at eps = 0 every pending cell, so an iteration is a round;
       at eps > 0 the pending cell with the least start, off a min-heap.
    2. Classes: at eps = 0 the (cell, sorted (splitter, count) list)
       signatures of ``_splitter_classes``; at eps > 0 the greedy eps-groups
       of ``_epsilon_classes`` over the degrees toward the active cell.
    3. New pending cells: at eps = 0 every fragment but the largest of its
       cell (``_all_but_largest``, Hopcroft's rule); at eps > 0 every fragment.
    4. Numbering: at eps = 0 cells are numbered by least member (canonical
       order, equal to ``equitable_oracle``'s); at eps > 0 by start offset,
       which a split fixes by keeping its lowest-f fragment at the cell's
       start and the others after it in ascending-f order.

    At eps > 0 the cell at start 0 is never gathered: the degrees toward it
    are kept by subtraction (``_epsilon_classes``), and a visit of it reads
    the cells it may split and costs O(n). Nothing else in an iteration costs
    O(n) or O(number of cells). The counters are the iteration count, the
    number of cell splits, the number of fragments they created, the cell
    count, the elapsed time and, under ``collect_work``, the summed volume
    of the splitters, gathered or not: eps > 0 splitters of at most eps
    members cannot split a cell and are not gathered either. Every
    ``progress_interval`` iterations it prints an ``iter= active= cells=
    elapsed_ms=`` line on ``sys.stderr``, looked up at each print. The result
    is a pure function of (graph, epsilon).
    """
    eps = _check_epsilon(epsilon)
    cfg = config or EngineConfig()
    t0 = time.perf_counter()
    n = graph.n
    perm, pos = np.arange(n, dtype=ID_DTYPE), np.arange(n, dtype=ID_DTYPE)
    cell_of, cell_end = np.zeros(n, dtype=ID_DTYPE), np.zeros(n, dtype=ID_DTYPE)
    cell_end[:1] = n   # cell_end is nonzero exactly at cell starts
    mover = np.zeros(n, dtype=bool)   # marks movers; all False between iterations
    # pending starts: an array at eps = 0, else a min-heap with a queued flag
    pending = np.zeros(1, dtype=ID_DTYPE) if eps == 0 else [0]
    queued = np.zeros(n, dtype=bool)   # the unit cell is popped before any push
    # eps > 0: deg(., C) for the cell C at start 0 as of C's last visit (the
    # degrees before the first), and the vertices that left C since
    f0, left = (graph.degrees if eps else None), []
    n_cells = 1
    iterations = splits = fragments = map_work = 0
    cap = cfg.iteration_cap if cfg.iteration_cap is not None else 16 * n + 64
    while len(pending) and n_cells < n:
        if iterations >= cap:
            raise IterationLimitError(iterations, len(pending), n_cells)
        iterations += 1
        if eps == 0:
            touched, label, volume = _splitter_classes(graph, perm, cell_of,
                                                       cell_end, pending)
            pending = pending[:0]
        else:
            active = heapq.heappop(pending)
            queued[active] = False
            touched, label, volume = _epsilon_classes(graph, perm, active, cell_of,
                                                      cell_end, eps, f0, left)
        map_work += volume
        if touched.size:
            if eps:
                left.append(touched[cell_of[touched] == 0])
            starts, heads = _split_cells(perm, pos, cell_of, cell_end, mover,
                                         touched, label)
            splits += starts.size
            fragments += heads.size
            n_cells += heads.size - starts.size
            if eps == 0:
                pending = _all_but_largest(cell_end, starts, heads)
            else:
                for head in heads[~queued[heads]].tolist():
                    heapq.heappush(pending, head)
                queued[heads] = True
        if cfg.progress_interval and iterations % cfg.progress_interval == 0:
            elapsed_ms = (time.perf_counter() - t0) * 1000.0
            print(f"iter={iterations} active={len(pending)} cells={n_cells} "
                  f"elapsed_ms={elapsed_ms:.1f}", file=sys.stderr)
    del f0, left   # so that they do not add to the numbering's peak
    # number the cells in start order, or at eps = 0 by least member
    starts = cell_end.nonzero()[0]
    if eps == 0:
        starts = starts[np.minimum.reduceat(perm, starts).argsort()]
    cell_end[starts] = np.arange(starts.size)
    partition = Partition.__new__(Partition)
    partition._store(np.arange(n, dtype=ID_DTYPE), cell_end[cell_of], starts.size)
    return partition, RefinementStats(
        iterations, len(partition), time.perf_counter() - t0,
        map_work if cfg.collect_work else 0, splits, fragments)


def _splitter_classes(graph: Graph, perm, cell_of, cell_end, pending
                      ) -> tuple[np.ndarray, np.ndarray, int]:
    """Vertices the pending cells touch, their classes, and the cells' volume.

    A round counts the (touched vertex, splitter) pairs with ``Graph.tally``;
    a class is a (cell, sorted (splitter, count) list) signature (Cardon &
    Crochemore 1982), with ids from ``_signature_classes``. Untouched members
    of a touched cell form one more class in ``_split_cells``.
    """
    members = perm[ranges(pending, cell_end[pending] - pending)]
    (touched, token), count, volume = graph.tally(members, cell_of[members])
    del members
    token *= graph.n + 1
    token += count   # (splitter, count), one per pair
    del count
    bounds = run_offsets(touched)
    touched = touched[bounds[:-1]]
    own = cell_of[touched]
    label = _signature_classes(own, token, bounds)
    order = (own * label.size + label).argsort()   # by cell, then class
    return touched[order], label[order], volume


def _epsilon_classes(graph: Graph, perm, active: int, cell_of, cell_end, eps: int,
                     f0: np.ndarray, left: list) -> tuple[np.ndarray, np.ndarray, int]:
    """The vertices that leave their cell's start, their classes, and the volume.

    A cell splits iff its members' degrees f toward the active cell spread
    more than eps, untouched members counting as f = 0. It is cut greedily in
    ascending f: each group runs from its head, the least f not yet grouped,
    to the last f within eps of it, so the groups depend only on the multiset
    of values. The first group stays at the cell's start, with the untouched
    members in a partly touched cell, so only the other groups move and are
    returned. Class ids are distinct and ascend with f within a cell.

    The cell C at start 0 only loses members, so it is never gathered: ``f0``
    = deg(., C) is kept by subtracting the adjacency of the vertices that
    left C (``left``, emptied here). Every cell spread at most eps under f0
    after C's last visit and has only shrunk since, so only the cells that
    hold a vertex whose f0 changed are read, and only their members above
    the cell's least f0 + eps go on.
    """
    cell = perm[active:cell_end[active]]
    if cell.size <= eps:
        # in a simple graph no vertex has more neighbours in the active cell
        # than it has members, so no cell can spread more than eps
        volume = graph.indptr[cell + 1] - graph.indptr[cell]
        return cell[:0], cell[:0], int(volume.sum())
    if active:
        neighbours, _ = graph.adjacent(cell)
        neighbours.sort()
        runs = run_offsets(neighbours)
        touched, f, volume = neighbours[runs[:-1]], np.diff(runs), neighbours.size
        del neighbours, runs
    else:
        starts = np.zeros(1, dtype=ID_DTYPE)   # on the first visit C is the only cell
        if cell.size < graph.n:
            neighbours, _ = graph.adjacent(np.concatenate(left))
            left.clear()
            np.subtract.at(f0, neighbours, 1)
            starts = cell_of[neighbours]
            starts.sort()
            starts = starts[run_offsets(starts)[:-1]]
        size = cell_end[starts] - starts
        touched = perm[ranges(starts, size)]
        f = f0[touched]
        low = np.minimum.reduceat(f, size.cumsum() - size)
        move = f > np.repeat(low + eps, size)
        touched, f, volume = touched[move], f[move], int(f0.sum())   # vol(C)
    # no cell can spread more than the largest degree toward the active cell
    fmax = int(f.max()) if f.size else 0
    if fmax <= eps:
        return touched[:0], f[:0], volume
    # order the touched vertices by cell, ascending f within each cell
    key = cell_of[touched]
    key *= fmax + 1
    key += f
    del f
    order = key.argsort()
    key = key[order]
    touched = touched[order]
    del order
    cells, f = np.divmod(key, fmax + 1)
    runs = run_offsets(cells)
    first, stop = runs[:-1], runs[1:]
    starts = cells[first]
    covered = stop - first == cell_end[starts] - starts
    # the exact f spread of a cell, where untouched members (f = 0) only
    # enter through the minimum
    low = f[first] * covered
    spread = f[stop - 1] - low > eps
    # the group within eps of the minimum stays at the cell's start, so the
    # movers of a spreading cell start after it
    lo = np.searchsorted(key, starts * (fmax + 1) + low + eps, side="right")[spread]
    head, end = lo, stop[spread]
    moves = ranges(lo, end - lo)
    is_head = np.zeros(f.size, dtype=bool)
    while head.size:   # the next group head of every cell at once
        is_head[head] = True
        head = np.searchsorted(key, key[head] + eps, side="right")
        more = head < end
        head, end = head[more], end[more]
    return touched[moves], is_head[moves].cumsum(), volume


def _split_cells(perm, pos, cell_of, cell_end, mover, touched, label
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Split every touched cell that holds two classes, untouched members being one.

    ``touched`` comes grouped by cell in start order, each class (a run of
    equal ``label``) contiguous. The untouched members keep the cell's start
    and the classes follow in the given order, each a fragment, as the movers
    of all split cells go to the tails of their ranges in one vectorised
    swap. Returns the starts of the split cells and the heads of all their
    fragments, both ascending.
    """
    own = cell_of[touched]
    edge = np.diff(label, prepend=-1) != 0         # where each class starts
    # a touched cell (a run of ``own``) splits if it holds two classes
    runs = run_offsets(own)
    first, count = runs[:-1], runs[1:] - runs[:-1]
    starts = own[first]
    untouched = cell_end[starts] - starts - count
    split = np.add.reduceat(edge, first) + (untouched > 0) > 1
    keep = np.repeat(split, count)
    movers, edge = touched[keep], edge[keep]
    starts, count, untouched = starts[split], count[split], untouched[split]
    tail = starts + untouched
    slots = ranges(tail, count)
    # swap the movers into [tail, end) of their cells; members there that
    # stay fill the holes the movers leave, cell by cell in both lists
    at = pos[movers]
    holes = at[at < np.repeat(tail, count)]
    mover[movers] = True
    held = perm[slots]
    displaced = held[~mover[held]]
    mover[movers] = False
    perm[holes] = displaced
    pos[displaced] = holes
    perm[slots] = movers
    pos[movers] = slots
    # each class of movers becomes a fragment at its first slot
    heads = edge.nonzero()[0]
    head, size = slots[heads], np.diff(heads, append=movers.size)
    cell_of[movers] = np.repeat(head, size)
    cell_end[head] = head + size
    kept = untouched > 0
    cell_end[starts[kept]] = tail[kept]
    return starts, np.sort(np.concatenate((starts[kept], head)))


def _all_but_largest(cell_end, starts, heads) -> np.ndarray:
    """Every fragment but the largest of its cell (the lower start on a tie).

    Hopcroft's rule, exact at eps = 0 only: deg(v, largest) = deg(v, cell) -
    deg(v, rest of the cell), so the largest fragment need not split others.
    """
    size = cell_end[heads] - heads
    lead = np.searchsorted(heads, starts)   # each cell's first fragment
    big = np.maximum.reduceat(size, lead).repeat(np.diff(lead, append=size.size))
    big = np.flatnonzero(size == big)
    return np.delete(heads, big[np.searchsorted(big, lead)])


def fast_eep(graph: Graph, epsilon) -> Partition:
    """Epsilon-equitable partition by iterative refinement from the unit partition.

    The result satisfies: for every pair of cells, member degrees toward the
    other cell differ by at most epsilon. Pure function of (graph, epsilon);
    epsilon = 0 yields the coarsest equitable partition.
    """
    return run_refinement(graph, epsilon)[0]


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser: a fixed pseudo-random uint64 weight per uint64 key."""
    x = x ^ (x >> np.uint64(30))
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _signature_classes(own: np.ndarray, token: np.ndarray,
                       bounds: np.ndarray) -> np.ndarray:
    """Dense class ids that group items by (own key, token list), in digest order.

    Item i's list is ``token[bounds[i]:bounds[i + 1]]``, possibly empty.
    Items are ranked by one 64-bit digest: the sum of the tokens' SplitMix64
    weights plus an odd multiple of the own key plus the list length. Each is
    checked against the first item of its digest run, so a hash collision
    raises SignatureCollisionError instead of merging two signatures.
    """
    lens = bounds[1:] - bounds[:-1]
    weight = np.zeros(token.size + 1, dtype=np.uint64)   # prefix sums of weights
    np.cumsum(_mix64(token.view(np.uint64)), out=weight[1:])
    digest = weight[bounds[1:]] - weight[bounds[:-1]]
    digest += own.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15) + lens.view(np.uint64)
    del weight
    order = digest.argsort()
    runs = run_offsets(digest[order])
    label = np.empty_like(order)
    label[order] = np.arange(runs.size - 1).repeat(runs[1:] - runs[:-1])
    leader = order[runs[:-1]][label]
    del digest, order, runs
    # each token's partner: the token at the same offset in the leader's list
    partner = np.repeat(bounds[leader] - bounds[:-1], lens)
    partner += np.arange(token.size)
    if not (np.array_equal(own[leader], own) and np.array_equal(lens[leader], lens)
            and np.array_equal(token[partner], token)):
        raise SignatureCollisionError("two distinct degree signatures share a "
                                      "64-bit hash; refusing to merge them")
    return label


def equitable_oracle(graph: Graph) -> Partition:
    """Coarsest equitable partition by sparse whole-graph colour refinement.

    1-WL colour refinement from one uniform colour, whose stable colouring is
    the coarsest equitable partition (Berkholz, Bonsma & Grohe 2017). Each
    round counts the (vertex, neighbour colour) pairs with ``Graph.tally``,
    gives every vertex the signature (own colour, sorted (colour, count)
    list) and relabels vertices by signature (``_signature_classes``, which
    refuses a hash collision); it stops when the colour count stops growing.
    A round costs O(m log m) time and O(n + m) memory; the number of rounds
    is at most the number of cells, and n/2 on a path. Independent of the
    pending-cell refinement loop: every round recounts the whole graph.
    Canonical output (cells ordered by minimum member).
    """
    n = graph.n
    if n == 0:
        return Partition(())
    memb = np.zeros(n, dtype=ID_DTYPE)
    k = 1
    bounds = np.zeros(n + 1, dtype=ID_DTYPE)
    while True:
        # the (colour, count) lists, each a run of ``owner``, ascending colour
        (owner, colour), counts, _ = graph.tally(np.arange(n, dtype=ID_DTYPE), memb)
        np.cumsum(np.bincount(owner, minlength=n), out=bounds[1:])
        new = _signature_classes(memb, colour * (n + 1) + counts, bounds)
        if new.max() + 1 == k:
            break
        memb, k = new, int(new.max()) + 1
    return Partition.from_membership(memb).canonical()


def degree_partition(graph: Graph) -> Partition:
    """Cells of equal-degree vertices, ordered by ascending degree."""
    return Partition.from_membership(graph.degrees)


def epsilon_spread(graph: Graph, partition: Partition) -> int:
    """Largest within-cell spread of member degrees toward any cell.

    A partition is epsilon-equitable iff this is <= epsilon. Counts each
    (vertex, neighbour cell) pair with ``Graph.tally``, then takes
    max - min per (own cell, neighbour cell) group; a member with no entry
    for a neighbour cell has degree 0 toward it. Costs O(m log m) time and
    O(m) memory, whatever the number of cells.
    """
    n = graph.n
    memb, k = partition.membership_array(n), len(partition)
    (vertex, target), counts, _ = graph.tally(np.arange(n, dtype=ID_DTYPE), memb)
    group = memb[vertex] * k + target
    order = np.argsort(group, kind="stable")
    group, counts = group[order], counts[order]
    first = run_offsets(group)
    high = np.maximum.reduceat(counts, first[:-1])
    low = np.minimum.reduceat(counts, first[:-1])
    cell_size = np.bincount(memb, minlength=k)
    low[np.diff(first) < cell_size[group[first[:-1]] // k]] = 0
    return int((high - low).max(initial=0))


def write_partition_file(stream: IO[str], partition: Partition, *,
                         header: Mapping[str, object] | None = None) -> None:
    """Write the partition file format: header comments, then one cell per line.

    Each line is '<cell_index>\\t<v1> <v2> ...' with ids ascending. The header
    records whatever metadata the caller supplies (n, epsilon, algorithm,
    graph hash) plus the cell count. The lines are formatted ``_CHUNK_IDS``
    ids at a time, each chunk's cell indexes among them.
    """
    meta = dict(header or {})
    meta.setdefault("cells", len(partition))
    stream.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
    members, ends = partition._members_by_cell()
    firsts = ends - np.diff(ends, prepend=0)
    for lo in range(0, members.size, _CHUNK_IDS):
        hi = min(lo + _CHUNK_IDS, members.size)
        c0, c1 = np.searchsorted(firsts, (lo, hi))      # the cells starting here
        e0, e1 = np.searchsorted(ends, (lo, hi), side="right")   # and ending
        after = np.full(hi - lo, 32, dtype=np.uint8)    # ' ', or '\n' at a cell's end
        after[ends[e0:e1] - 1 - lo] = 10
        heads = firsts[c0:c1] - lo
        rows = format_decimal(np.insert(members[lo:hi], heads, np.arange(c0, c1)),
                              np.insert(after, heads, 9))
        stream.write(strip(rows).decode("ascii"))


_CHUNK_IDS = 1 << 12   # most ids formatted at once in a partition file


def _cell_line_error(line: str, line_no: int, index: int) -> ParseError:
    """The error of a cell line that is not '<index>\\t<ids>' with at least
    one id in [0, 2**63), ``index`` being the expected cell index."""
    parts = line.split("\t", 1)
    if len(parts) != 2:
        return ParseError("expected '<cell_index>\\t<ids>'", line_no)
    try:
        idx = int(parts[0])
        ids = np.array(parts[1].split(), dtype=ID_DTYPE)
    except (ValueError, OverflowError):
        return ParseError("bad cell line", line_no)
    if idx != index:
        return ParseError(f"cell index {idx} out of sequence", line_no)
    if ids.size:
        return ParseError(f"negative vertex id {ids.min()}", line_no)
    return ParseError("empty cell", line_no)


def read_partition_file(stream: IO[str]) -> tuple[Partition, dict[str, str]]:
    """Parse a partition file; returns the partition and its header metadata.

    The text is cut into tokens a block of lines at a time by
    :func:`netpos.textio.tokenize`. Blank lines are skipped, and a line
    whose first byte is '#' is a comment, whose 'key=value' tokens are the
    metadata. Every other line is a cell: before its first tab, the cell
    index as ``int()`` reads it, counting the cells from 0; after the tab,
    at least one id; the index and every id in [0, 2**63). The first line
    that is not raises a ParseError naming it. The repeat check runs once,
    over all cells, and names the line of the first cell that holds a repeat.
    """
    meta: dict[str, str] = {}
    empty = np.zeros(0, dtype=ID_DTYPE)
    ids, sizes, line_nos = [empty], [empty], [empty]
    lines = cells = 0
    for raw, byte, starts, stops, ends, count, _ in tokenize(stream.read):
        heads = np.concatenate(([0], ends[:-1] + 1))     # each line's first byte
        comment = byte[heads] == 35     # '#'
        if comment.any():
            for line in np.flatnonzero(comment).tolist():
                text = raw[heads[line] + 1:ends[line]].decode("utf-8", "surrogatepass")
                meta.update(token.split("=", 1) for token in text.split() if "=" in token)
            keep = np.repeat(~comment, count)
            starts, stops = starts[keep], stops[keep]
        rows = np.flatnonzero((count > 0) & ~comment)   # neither blank nor comments
        count = count[rows]
        first = np.cumsum(count) - count
        # each line's first tab, unless a byte 0x1C-0x1F, which str.split()
        # takes for whitespace but int() refuses, comes first
        marks = np.flatnonzero((byte == 9) | ((byte >= 0x1C) & (byte <= 0x1F)))
        tab = np.append(marks, byte.size - 1)[np.searchsorted(marks, heads[rows])]
        value = parse_ints(raw, byte, starts, stops)
        # one token before the line's first tab and an id after it; the index
        # counts the cells; every token is in [0, 2**63)
        good = ((byte[tab] == 9) & (count > 1)
                & (np.searchsorted(starts, tab) == first + 1)
                & (value[first] == cells + np.arange(rows.size))
                & (np.minimum.reduceat(value, first) >= 0))
        if not good.all():
            bad = int(good.argmin())
            line = raw[heads[rows[bad]]:ends[rows[bad]]].decode("utf-8", "surrogatepass")
            raise _cell_line_error(line, lines + int(rows[bad]) + 1, cells + bad)
        ids.append(np.delete(value, first))
        sizes.append(count - 1)
        line_nos.append(rows + lines + 1)
        lines += ends.size
        cells += rows.size
    part = Partition.__new__(Partition)
    part._group(np.concatenate(ids), np.concatenate(sizes), np.concatenate(line_nos))
    return part, meta
