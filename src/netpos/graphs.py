"""Graph model and ingestion: edge lists, temporal logs, snapshots, generation.

Vertices carry dense integer ids internally; external string labels live in a
:class:`VertexLabelMap`. Graphs are undirected, simple, and immutable once
built.
"""

from __future__ import annotations

import hashlib
import io
from functools import partial
from itertools import chain, repeat
from typing import IO, Iterable

import numpy as np

ID_DTYPE = np.int64


def ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated index ranges [starts_i, starts_i + lens_i), in order."""
    ends = lens.cumsum()
    flat = np.repeat(starts - ends + lens, lens)
    flat += np.arange(flat.size, dtype=ID_DTYPE)
    return flat


def run_offsets(values: np.ndarray) -> np.ndarray:
    """Start offset of each run of equal values in a sorted array, then its size."""
    size = values.size
    edge = np.empty(size + 1, dtype=bool)
    edge[0] = edge[size] = True
    np.not_equal(values[1:], values[:-1], out=edge[1:size])
    return edge.nonzero()[0]


class ParseError(ValueError):
    """Malformed input; the message carries the 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class Graph:
    """Immutable undirected simple graph over dense vertex ids [0, n).

    Adjacency is stored CSR-style: the neighbors of ``v`` are
    ``indices[indptr[v]:indptr[v+1]]``, strictly ascending. ``self_loops_dropped``
    and ``duplicates_collapsed`` record what was erased to keep the graph simple.
    """

    __slots__ = ("n", "m", "indptr", "indices", "self_loops_dropped",
                 "duplicates_collapsed")

    def __init__(self, n: int, indptr, indices, *, self_loops_dropped: int = 0,
                 duplicates_collapsed: int = 0):
        self.n = int(n)
        self.indptr = np.ascontiguousarray(indptr, dtype=ID_DTYPE)
        self.indices = np.ascontiguousarray(indices, dtype=ID_DTYPE)
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)
        self.m = int(self.indices.size) // 2
        self.self_loops_dropped = int(self_loops_dropped)
        self.duplicates_collapsed = int(duplicates_collapsed)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a simple graph from (u, v) pairs, erasing self-loops and duplicates."""
        if isinstance(edges, np.ndarray):
            arr = edges.astype(ID_DTYPE, copy=False)
        else:
            arr = np.array(list(edges), dtype=ID_DTYPE)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise ValueError(f"edge endpoint outside [0, {n})")

        loop_mask = arr[:, 0] == arr[:, 1]
        loops = int(loop_mask.sum())
        arr = arr[~loop_mask]
        # dedupe on the 1-D key lo * n + hi: sorted keys are sorted (lo, hi)
        # pairs; sort-based, as numpy's hashing np.unique is many times slower
        keys = np.sort(arr.min(axis=1) * n + arr.max(axis=1))
        keys = keys[np.diff(keys, prepend=-1) != 0]
        dups = int(arr.shape[0] - keys.size)
        lo, hi = np.divmod(keys, n)
        # every edge in both directions, keyed and sorted by (head, tail)
        heads, indices = np.divmod(np.sort(np.concatenate([keys, hi * n + lo])), n)
        counts = np.bincount(heads, minlength=n)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(ID_DTYPE)
        return cls(n, indptr, indices, self_loops_dropped=loops,
                   duplicates_collapsed=dups)

    def adjacent(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The neighbours of each of ``vertices``, concatenated, and their degrees."""
        starts = self.indptr[vertices]
        degrees = self.indptr[vertices + 1] - starts
        return self.indices[ranges(starts, degrees)], degrees

    def tally(self, sources: np.ndarray, groups: np.ndarray
              ) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray, int]:
        """Count the adjacency entries of ``sources`` by (neighbour, source group).

        ``groups`` holds one label in [0, n) per source. Returns the distinct
        (neighbour, group) pairs, ascending, as two arrays, the count of each
        and the number of entries gathered: one sort, over the sources' volume.
        """
        key, lens = self.adjacent(sources)
        key *= self.n
        key += np.repeat(groups, lens)
        del lens
        key.sort()
        runs = run_offsets(key)
        return np.divmod(key[runs[:-1]], max(self.n, 1)), runs[1:] - runs[:-1], key.size

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(np.array([self.n, self.m], dtype="<i8").tobytes())
        h.update(self.indptr.astype("<i8").tobytes())
        h.update(self.indices.astype("<i8").tobytes())
        return "sha256:" + h.hexdigest()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __hash__(self):
        return hash((self.n, self.m, self.content_hash()))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class VertexLabelMap:
    """Dense id -> external label table, stable for the life of a run.

    Ids are positions in the label tuple; a repeated label keeps its first id.
    """

    __slots__ = ("_labels",)

    def __init__(self, labels: Iterable[str] = ()):
        self._labels: tuple[str, ...] = tuple(dict.fromkeys(labels))

    @classmethod
    def _distinct(cls, labels: Iterable[str]) -> VertexLabelMap:
        """The map of ``labels``, already distinct, without the dedup pass."""
        self = cls.__new__(cls)
        self._labels = tuple(labels)
        return self

    def label_of(self, vid: int) -> str:
        return self._labels[vid]

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def write(self, stream: IO[str]) -> None:
        """Write one '<id>\\t<label>' line per id, ascending."""
        stream.write("".join(f"{vid}\t{label}\n"
                             for vid, label in enumerate(self._labels)))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            self.write(fh)


class TemporalEdgeLog:
    """Timestamped edge events as three read-only int64 columns.

    Row i is the event ``labels[source[i]] -> labels[target[i]]`` at unix time
    ``timestamp[i]``; ``directed`` says whether a row's direction carries
    meaning.
    """

    __slots__ = ("source", "target", "timestamp", "labels", "directed")

    def __init__(self, source, target, timestamp, labels: Iterable[str],
                 directed: bool = True):
        columns = [np.array(c, dtype=ID_DTYPE) for c in (source, target, timestamp)]
        for column in columns:
            column.setflags(write=False)
        self.source, self.target, self.timestamp = columns
        self.labels: tuple[str, ...] = tuple(labels)
        self.directed = directed
        if not self.source.shape == self.target.shape == self.timestamp.shape:
            raise ValueError("source, target and timestamp differ in length")
        if self.source.size:
            if (min(self.source.min(), self.target.min()) < 0
                    or max(self.source.max(), self.target.max()) >= len(self.labels)):
                raise ValueError("label id outside the label table")
            if self.timestamp.min() < 0:
                raise ValueError("negative timestamp")

    def __len__(self) -> int:
        return int(self.source.size)


class SnapshotSpec:
    """Strictly ascending snapshot cutoff timestamps."""

    __slots__ = ("cutoffs",)

    def __init__(self, cutoffs: tuple[int, ...]):
        if not cutoffs:
            raise ValueError("at least one cutoff required")
        if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
            raise ValueError("cutoffs must be strictly ascending")
        self.cutoffs = cutoffs


class GeneratorConfig:
    """Power-law generator parameters: P(k) proportional to k**(-gamma)."""

    __slots__ = ("n", "gamma", "seed")

    def __init__(self, n: int, gamma: float, seed: int = 0):
        if n < 1:
            raise ValueError("n must be >= 1")
        if not gamma > 1:
            raise ValueError("gamma must be > 1")
        self.n, self.gamma, self.seed = n, gamma, seed


# Bytes are classified by lookups in these tables, which share one numpy
# kernel. str.split()'s whitespace is the ASCII bytes of _IS_SPACE and the
# characters of _SPACES, which become spaces before a block is encoded.
_IS_SPACE = np.frombuffer(bytes(b in b"\t\n\v\f\r\x1c\x1d\x1e\x1f "
                                for b in range(256)), dtype=bool)
_IS_NEWLINE = np.frombuffer(bytes(b == 10 for b in range(256)), dtype=bool)
_IS_HASH = np.frombuffer(bytes(b == 35 for b in range(256)), dtype=bool)
_DIGIT = np.array([b - 48 if 48 <= b < 58 else 10 for b in range(256)],
                  dtype=ID_DTYPE)      # a byte's digit value; 10 for no digit
_SPACES = dict.fromkeys([0x85, 0xA0, 0x1680, *range(0x2000, 0x200B), 0x2028,
                         0x2029, 0x202F, 0x205F, 0x3000], " ")
# _PAD[r] sets each byte of a word past its first r to 0xFF, which UTF-8 never
# holds, so labels packed into words padded this way are equal iff the words are
_PAD = np.frombuffer(b"".join(bytes(r) + b"\xff" * (8 - r) for r in range(9)),
                     dtype=ID_DTYPE)


def _blocks(read):
    """The text ``read(size)`` returns, in blocks of whole lines of about 64K
    characters, each ending in a newline."""
    carry = ""
    for chunk in iter(partial(read, 1 << 16), ""):
        text = carry + chunk
        cut = text.rfind("\n") + 1
        carry = text[cut:]
        if cut:
            yield text[:cut]
    if carry:
        yield carry + "\n"


def _stamps(raw: bytes, byte: np.ndarray, starts: np.ndarray,
            stops: np.ndarray) -> np.ndarray:
    """The value of each token as a timestamp, or -1 if not in [0, 2**63).

    Tokens of at most 19 ASCII digits are read in int64 one digit position at
    a time, right-aligned; 2**63 and above wrap negative, since fewer than 20
    digits stay below 2**64. Any other token, such as '+5' or '1_0', is read
    by ``int`` alone.
    """
    sizes = stops - starts
    at = np.arange(-min(int(sizes.max(initial=0)), 19), 0)[:, None]
    digits = byte[stops + at]
    digits[at + sizes < 0] = 48     # '0' before each token
    value = np.zeros(sizes.size, dtype=ID_DTYPE)
    odd = sizes > 19
    for row in digits:
        row = _DIGIT[row]
        odd |= row > 9
        value *= 10
        value += row
    value[value < 0] = -1
    for i in np.flatnonzero(odd).tolist():
        try:
            number = int(raw[starts[i]:stops[i]].decode("utf-8", "surrogatepass"))
        except ValueError:
            number = -1
        value[i] = number if 0 <= number < 2**63 else -1
    return value


def _decode(words: np.ndarray) -> list[str]:
    """The labels packed in the rows of ``words``."""
    rows = np.full((len(words), 8 * words.shape[1] + 1), 10, dtype=np.uint8)
    rows[:, :-1] = words.view(np.uint8)
    text = rows.tobytes().replace(b"\xff", b"").decode("utf-8", "surrogatepass")
    del rows
    labels = text.split("\n")
    labels.pop()    # after the last newline
    return labels


def _intern(keys: list[np.ndarray], wide: dict) -> tuple[list[str], np.ndarray]:
    """The labels in order of first appearance, and the id of each token.

    ``keys`` holds each block's tokens' first packed words, and is emptied;
    ``wide`` maps each word count above one to the (token ordinals, words)
    of the tokens that need it. Each word count is one group, sorted once:
    by argsort for one word, by lexsort for more. A label first appears at
    the least ordinal in its run of equal rows.
    """
    key = np.concatenate(keys)
    keys.clear()
    total = key.size
    groups = [(None, key[:, None])]
    if wide:
        groups = [(np.concatenate(o), np.concatenate(w))
                  for o, w in (zip(*parts) for parts in wide.values())]
        short = np.ones(total, dtype=bool)
        for ordinal, _ in groups:
            short[ordinal] = False
        short = np.flatnonzero(short)
        groups.insert(0, (short, key[short, None]))
    del key
    runs, firsts, reps = [], [], []
    while groups:
        ordinal, words = groups.pop(0)
        order = words[:, 0].argsort() if words.shape[1] == 1 else np.lexsort(words.T)
        words = words[order]
        start = np.zeros(len(words), dtype=bool)
        start[:1] = True
        for column in words.T:
            start[1:] |= column[1:] != column[:-1]
        start = np.flatnonzero(start)
        reps.append(words[start])
        del words
        if ordinal is not None:
            order = ordinal[order]
        firsts.append(np.minimum.reduceat(order, start))
        runs.append((order, start))
    rank = np.concatenate(firsts).argsort()
    del firsts
    new = np.empty(rank.size, dtype=ID_DTYPE)
    new[rank] = np.arange(rank.size)
    ids = np.empty(total, dtype=ID_DTYPE)
    for order, start in runs:
        ids[order] = np.repeat(new[:start.size], np.diff(start, append=order.size))
        new = new[start.size:]
    del runs, new
    if len(reps) == 1:
        return _decode(reps.pop()[rank]), ids
    labels = np.array(list(chain.from_iterable(map(_decode, reps))), dtype=object)
    return labels[rank].tolist(), ids


def _scan(stream: IO[str] | Iterable[str], fields: tuple[int, ...]):
    """Read '<label> <label> [<timestamp>]' lines, a block of lines at a time.

    ``stream`` is a text stream, or an iterable of lines, each with or
    without its newline. Tokens are split at ``str.split``'s whitespace.
    Blank lines, and lines whose first token starts with '#', are skipped.
    A line whose field count is not in ``fields``, or whose timestamp is not
    integer unix seconds in [0, 2**63), raises a ParseError naming it; the
    first such line in the file wins. Each label is kept as its UTF-8 bytes
    packed into int64 words. Returns the labels in order of first appearance
    (source before target), the (source, target) ids as an (events, 2)
    array, and the timestamps.
    """
    if not hasattr(stream, "read"):     # an iterable of lines
        stream = io.StringIO("\n".join(map(str.removesuffix, stream, repeat("\n"))))
    keys, times = [np.empty(0, dtype=ID_DTYPE)], [np.empty(0, dtype=ID_DTYPE)]
    wide = {}       # word count above one -> [(token ordinals, words)]
    lines = tokens = 0
    for text in _blocks(stream.read):
        raw = (text if text.isascii() else text.translate(_SPACES)).encode(
            "utf-8", "surrogatepass") + bytes(7)     # room to read a word at any byte
        byte = np.frombuffer(raw, dtype=np.uint8)[:-7]
        space = np.concatenate(([True], _IS_SPACE[byte]))
        bounds = np.flatnonzero(space[1:] != space[:-1])
        starts, stops = bounds[0::2], bounds[1::2]
        # the tokens before each line's end, so each line's count and first
        after = np.searchsorted(starts, np.flatnonzero(_IS_NEWLINE[byte]))
        count = np.diff(after, prepend=0)
        first = after - count
        data = count > 0    # and not a comment: its first token starts with '#'
        data[data] = ~_IS_HASH[byte[starts[first[data]]]]
        timed = data & (count == 3)
        good = timed | (data & (count == 2)) if 2 in fields else timed
        stamp = _stamps(raw, byte, starts[first[timed] + 2], stops[first[timed] + 2])
        wrong = data & ~good
        wrong[timed] = stamp < 0
        if wrong.any():
            line = int(wrong.argmax())
            if not good[line]:
                expected = " or ".join(map(str, fields))
                raise ParseError(f"expected {expected} fields, got {count[line]}",
                                 lines + line + 1)
            token = raw[starts[first[line] + 2]:stops[first[line] + 2]]
            raise ParseError(f"bad timestamp {token.decode('utf-8', 'surrogatepass')!r}",
                             lines + line + 1)
        lines += count.size
        times.append(stamp)
        at = (first[good][:, None] + (0, 1)).ravel()
        starts, sizes = starts[at], stops[at] - starts[at]
        words = np.ndarray(byte.size, ID_DTYPE, raw, 0, (1,))   # 8 bytes from each byte
        keys.append(words[starts] | _PAD[np.minimum(sizes, 8)])
        width = (sizes + 7) >> 3
        for w in (np.flatnonzero(np.bincount(width)[2:]) + 2).tolist():   # 2+ words
            rows = np.flatnonzero(width == w)
            cols = 8 * np.arange(w)
            wide.setdefault(w, []).append(
                (tokens + rows, words[starts[rows, None] + cols]
                 | _PAD[np.minimum(sizes[rows, None] - cols, 8)]))
        tokens += at.size
    labels, ids = _intern(keys, wide)
    return labels, ids.reshape(-1, 2), np.concatenate(times)


def load_edge_list(stream: IO[str] | Iterable[str]) -> tuple[Graph, VertexLabelMap]:
    """Read '<label> <label> [<unix-timestamp>]' lines into a simple graph.

    Blank lines and '#' comments are skipped; timestamps are validated but not
    used. Duplicate edges collapse; self-loops are dropped and counted on the
    returned graph.
    """
    labels, edges, _ = _scan(stream, (2, 3))
    return Graph.from_edges(len(labels), edges), VertexLabelMap._distinct(labels)


def save_edge_list(graph: Graph, labels: VertexLabelMap, stream: IO[str]) -> None:
    """Write each edge once, as 'u w' with u < w, rows ascending, 8,192
    edges a write."""
    stream.write(f"# vertices={graph.n} edges={graph.m}\n")
    rows = np.repeat(np.arange(graph.n, dtype=ID_DTYPE), graph.degrees)
    upper = graph.indices > rows
    heads, tails = rows[upper], graph.indices[upper]
    names = np.array(labels.labels, dtype=object)
    # a chunk at a time, so the strings of one chunk are all that are live
    for at in range(0, heads.size, 8192):
        chunk = slice(at, at + 8192)
        stream.write("".join(names[heads[chunk]] + " " + names[tails[chunk]] + "\n"))


def load_temporal_edge_list(stream: IO[str] | Iterable[str], *,
                            directed: bool = True) -> TemporalEdgeLog:
    """Read '<label> <label> <unix-timestamp>' lines into a TemporalEdgeLog."""
    labels, edges, times = _scan(stream, (3,))
    return TemporalEdgeLog(edges[:, 0], edges[:, 1], times, labels, directed)


def _canonical_order(labels: tuple[str, ...], source: np.ndarray,
                     target: np.ndarray, timestamp: np.ndarray) -> np.ndarray:
    """Row order by (timestamp, source label, target label), labels in ``str``
    order and equal labels by id.

    One argsort of the timestamps; labels are ranked, and rows re-sorted by
    rank, only among rows whose timestamp another row shares. Rows that tie
    on all of that are identical, so no sort here needs to be stable but the
    last.
    """
    order = timestamp.argsort()
    times = timestamp[order]
    tied = np.zeros(times.size, dtype=bool)
    np.equal(times[1:], times[:-1], out=tied[1:])
    tied[:-1] |= tied[1:]
    rows = order[tied]
    if rows.size:
        src, tgt = source[rows], target[rows]
        ids = np.flatnonzero(np.bincount(np.concatenate([src, tgt]),
                                         minlength=len(labels))).tolist()
        ranks = np.zeros(len(labels), dtype=ID_DTYPE)
        ranks[sorted(ids, key=labels.__getitem__)] = np.arange(len(ids))
        # by rank pair (below 2**63 for fewer than 3e9 labels), then stably
        # by timestamp, so that the tied rows keep their places
        by_ranks = (ranks[src] * len(ids) + ranks[tgt]).argsort()
        order[tied] = rows[by_ranks[times[tied][by_ranks].argsort(kind="stable")]]
    return order


def reciprocal_projection(log: TemporalEdgeLog) -> TemporalEdgeLog:
    """Project a directed log to the undirected reciprocated-link log.

    An undirected event (a, b) appears iff both a->b and b->a occur; its
    timestamp is the moment the later of the two directions first appeared.
    Each pair is oriented with its lower label (in ``str`` order; the lower id
    where the two labels are equal) as source, and rows are in canonical
    (timestamp, source, target) order, so the result is invariant to input
    order. The label table is kept.
    """
    if not log.directed:
        raise ValueError("reciprocal_projection requires a directed log")
    k = len(log.labels)
    links = log.source != log.target
    keys = log.source[links] * k + log.target[links]
    order = keys.argsort()
    keys = keys[order]
    # each direction once, at its earliest time: the minimum over its run
    runs = run_offsets(keys)[:-1]
    times = np.minimum.reduceat(log.timestamp[links][order], runs)
    keys = keys[runs]
    src, tgt = np.divmod(keys, max(k, 1))
    reverse = tgt * k + src
    # look the reverse keys up in ascending order, so that the binary
    # searches walk ``keys`` forward instead of missing cache at random;
    # the rows are put in canonical order at the end whatever their order here
    order = np.argsort(reverse)
    reverse = reverse[order]
    at = np.minimum(np.searchsorted(keys, reverse), keys.size - 1)
    both = keys[at] == reverse
    found = order[both]
    src, tgt = src[found], tgt[found]
    times = np.maximum(times[found], times[at[both]])
    # each pair is here in both directions: keep the one from the lower id,
    # then swap the ends where the target's label sorts first
    lower = src < tgt
    src, tgt, times = src[lower], tgt[lower], times[lower]
    names = np.array(log.labels, dtype=object)
    swap = names[tgt] < names[src]
    src, tgt = np.where(swap, tgt, src), np.where(swap, src, tgt)
    order = _canonical_order(log.labels, src, tgt, times)
    return TemporalEdgeLog(src[order], tgt[order], times[order], log.labels,
                           directed=False)


def build_snapshots(log: TemporalEdgeLog,
                    spec: SnapshotSpec) -> tuple[list[Graph], VertexLabelMap]:
    """Build nested cumulative snapshots, one per cutoff, over a shared label map.

    Snapshot i holds exactly the edges whose first event is at or before
    cutoff i; a vertex belongs to a snapshot iff it is incident to a retained
    edge. Ids are assigned in order of first appearance in canonical
    (timestamp, source label, target label) event order (see
    ``_canonical_order``), source before target, so each snapshot's vertex
    set is the dense prefix [0, n_i). Self-loops and events after the last
    cutoff are ignored.
    """
    kept = (log.source != log.target) & (log.timestamp <= spec.cutoffs[-1])
    src, tgt, times = log.source[kept], log.target[kept], log.timestamp[kept]
    order = _canonical_order(log.labels, src, tgt, times)
    ends = np.column_stack([src[order], tgt[order]])
    times = times[order]
    # each label's first position in ``ends``, or ends.size where it is absent
    first = np.full(len(log.labels), ends.size, dtype=ID_DTYPE)
    np.minimum.at(first, ends.ravel(), np.arange(ends.size))
    seen = np.flatnonzero(first < ends.size)
    seen = seen[first[seen].argsort()]      # in order of first appearance
    new_id = np.empty(len(log.labels), dtype=ID_DTYPE)
    new_id[seen] = np.arange(seen.size)
    pairs = np.sort(new_id[ends], axis=1)
    keys = pairs[:, 0] * seen.size + pairs[:, 1]
    order = keys.argsort()
    # each pair's first row, the minimum over its run of equal keys
    first_pair = np.minimum.reduceat(order, run_offsets(keys[order])[:-1])
    first_pair.sort()
    events_in = np.searchsorted(times, spec.cutoffs, side="right")
    n_in = np.searchsorted(first[seen], 2 * events_in)
    m_in = np.searchsorted(first_pair, events_in)
    graphs = [Graph.from_edges(int(n_i), pairs[first_pair[:m_i]])
              for n_i, m_i in zip(n_in, m_in)]
    names = np.array(log.labels, dtype=object)[seen]
    return graphs, VertexLabelMap._distinct(names.tolist())


def generate_power_law(config: GeneratorConfig) -> Graph:
    """Erased configuration model with degrees drawn from P(k) ~ k**(-gamma).

    Degrees are sampled on [1, n-1]; if the stub total is odd, one random
    vertex (below the cap) gains a stub. Multi-edges and self-loops are erased
    and counted. Pure function of (n, gamma, seed).
    """
    n = config.n
    if n < 2:
        raise ValueError("generator needs n >= 2")
    rng = np.random.default_rng(config.seed)
    ks = np.arange(1, n, dtype=np.float64)
    weights = ks ** (-config.gamma)
    degrees = rng.choice(np.arange(1, n, dtype=ID_DTYPE), size=n,
                         p=weights / weights.sum())
    if int(degrees.sum()) % 2:
        while True:
            i = int(rng.integers(n))
            if degrees[i] < n - 1:
                degrees[i] += 1
                break
    stubs = np.repeat(np.arange(n, dtype=ID_DTYPE), degrees)
    rng.shuffle(stubs)
    return Graph.from_edges(n, stubs.reshape(-1, 2))
