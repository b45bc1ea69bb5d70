"""Text I/O: the label map, the block tokenizer that reads edge lists, event
logs and partition files, and the byte kernels of the chunked writers.

Text is handled as UTF-8 bytes in numpy arrays, a block or a chunk of lines at
a time. A label is its UTF-8 bytes, packed into int64 words on the way in and
gathered from a :class:`VertexLabelMap`'s byte pool on the way out; 0xFF
(``PAD_BYTE``), which UTF-8 never holds, pads the words and rows, and
``bytes.replace`` strips it. No other module handles the padding. This module
imports no other netpos module; ``graphs`` and ``partition`` import it at
module level, so every command but ``--version`` loads it.
"""

from __future__ import annotations

import io
from functools import partial
from itertools import repeat
from typing import IO, Iterable

import numpy as np

ID_DTYPE = np.int64
_CHUNK = 1 << 12    # most labels or lines formatted at once
# _HIGH[r] keeps the first r bytes of a big-endian word read as a number
_HIGH = np.array([2**64 - 2**(64 - 8 * r) for r in range(9)], dtype=np.uint64)

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
# _UNIT[r] is 1 at byte r of a word and 0 elsewhere (everywhere for r = 8)
_UNIT = np.frombuffer(b"".join(bytes(r) + b"\x01" + bytes(7 - r) for r in range(8))
                      + bytes(8), dtype=ID_DTYPE)
# as an end byte of ``gather`` or ``format_decimal``, 0xFF adds none
PAD_BYTE = 0xFF


class ParseError(ValueError):
    """Malformed input; the message carries the 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def gather(pool: bytes, starts: np.ndarray, sizes: np.ndarray, ends) -> bytes:
    """The byte strings ``pool[starts[i]:starts[i] + sizes[i]]`` end to end,
    each followed by its byte of ``ends``, where 0xFF adds none.

    ``pool`` holds 8 bytes past its last string. A string of s bytes is read
    as s // 8 + 1 words, 8 bytes apart from its start; the bytes of its last
    word past its end become 0xFF, but for the first, which becomes its end
    byte, and ``bytes.replace`` strips the rest. The temporaries take a few
    int64 a word, whatever the string sizes.
    """
    count = sizes // 8 + 1
    at = np.repeat(starts - 8 * (count.cumsum() - count), count)
    at += np.arange(0, 8 * at.size, 8)
    left = np.repeat(starts + sizes, count)
    left -= at      # the string's bytes from the word on
    np.minimum(left, 8, out=left)
    words = np.ndarray(len(pool) - 7, ID_DTYPE, pool, 0, (1,))[at]
    del at
    words |= _PAD[left]
    # byte ``left`` of a string's last word, 0xFF now, becomes its end byte:
    # subtracting 0xFF - end there borrows from no other byte, and int64
    # overflow wraps, so the other bytes keep their bits
    lower = np.broadcast_to(0xFF - np.asarray(ends, ID_DTYPE), count.shape)
    lower = np.repeat(lower, count)
    lower *= _UNIT[left]
    words -= lower
    return words.tobytes().replace(b"\xff", b"")


def format_decimal(values: np.ndarray, ends) -> np.ndarray:
    """One row of uint8 per value (>= 0): its decimal digits right-aligned
    after 0xFF padding, which :func:`unpad` strips, then its byte of
    ``ends``."""
    width = len(str(int(values.max(initial=0))))
    rows = np.empty((values.size, width + 1), dtype=np.uint8)
    rows[:, width] = ends
    rest = values
    for column in range(width - 1, -1, -1):
        quotient = rest // 10
        digit = rest - quotient * 10
        digit += 48
        if column < width - 1:
            digit[rest == 0] = 0xFF     # left of the first digit
        rows[:, column] = digit
        rest = quotient
    return rows


def unpad(rows: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The bytes of the rows of ``rows``, a 2-D array, end to end with their
    0xFF padding stripped, and each row's size in bytes without it."""
    keep = rows.view(np.uint8) != 0xFF
    # a row sum: twice as fast as count_nonzero on rows of a few bytes
    sizes = np.einsum("ij->i", keep, dtype=ID_DTYPE)
    del keep
    return rows.tobytes().replace(b"\xff", b""), sizes


def _encode(labels: tuple[str, ...]) -> tuple[bytes, np.ndarray]:
    """The UTF-8 bytes of ``labels`` end to end, and the bytes of each."""
    text = "".join(labels)
    pool = text.encode("utf-8", "surrogatepass")
    sizes = np.fromiter(map(len, labels), ID_DTYPE, len(labels))
    if len(pool) != len(text):
        # from characters to bytes: a character starts at each byte that is
        # not 10xxxxxx
        heads = np.append(np.flatnonzero(np.frombuffer(pool, np.uint8) & 0xC0 != 0x80),
                          len(pool))
        sizes = np.diff(heads[np.concatenate(([0], sizes.cumsum()))])
    return pool, sizes


class VertexLabelMap:
    """Dense id -> external label table, stable for the life of a run.

    The labels are one UTF-8 byte pool: label i is ``pool[offsets[i]:offsets[i
    + 1]]``, and 8 zero bytes follow the last, so that 8 bytes can be read
    from any label's start. ``labels``, the ``str`` tuple, is decoded on first
    access. Built from ``str`` labels, a repeated label keeps its first id.
    """

    __slots__ = ("_pool", "_offsets", "_labels", "_ranks")

    def __init__(self, labels: Iterable[str] = ()):
        self._store(*_encode(tuple(dict.fromkeys(labels))))

    @classmethod
    def _table(cls, labels: Iterable[str]) -> VertexLabelMap:
        """The map of ``labels`` as given, repeats included."""
        return cls._from_pool(*_encode(tuple(labels)))

    @classmethod
    def decimal(cls, n: int) -> VertexLabelMap:
        """The map of the labels ``str(v)`` for v < ``n``, each v its own id."""
        return cls._from_pool(*unpad(format_decimal(np.arange(n), PAD_BYTE)))

    @classmethod
    def _from_pool(cls, pool: bytes, sizes: np.ndarray) -> VertexLabelMap:
        """The map of the labels of ``sizes`` bytes each, end to end in ``pool``."""
        self = cls.__new__(cls)
        self._store(pool, sizes)
        return self

    def _store(self, pool: bytes, sizes: np.ndarray) -> None:
        offsets = np.zeros(sizes.size + 1, dtype=ID_DTYPE)
        np.cumsum(sizes, out=offsets[1:])
        offsets.setflags(write=False)
        self._pool, self._offsets = pool + bytes(8), offsets
        self._labels = self._ranks = None

    @property
    def labels(self) -> tuple[str, ...]:
        """The labels as ``str``, by id: decoded on first access, then kept."""
        if self._labels is None:
            end = int(self._offsets[-1])
            text = str(memoryview(self._pool)[:end], "utf-8", "surrogatepass")
            cuts = self._offsets
            if len(text) != end:    # byte offsets to character offsets
                heads = np.frombuffer(self._pool, np.uint8, end) & 0xC0 != 0x80
                cuts = np.concatenate(([0], heads.cumsum()))[cuts]
            cuts = cuts.tolist()
            self._labels = tuple(map(text.__getitem__, map(slice, cuts[:-1], cuts[1:])))
        return self._labels

    def __len__(self) -> int:
        return self._offsets.size - 1

    def ranks(self) -> np.ndarray:
        """Each label's place in code-point order, equal labels by id.

        UTF-8 byte order is code-point order (RFC 3629), lone surrogates
        encoded by 'surrogatepass' included, so labels are compared as bytes,
        8 at a time: as big-endian words, zero past the label's end, then by
        the label's bytes left from the word on, capped at 9, which puts a
        label before a longer one whose next bytes are zero. Only labels that
        tie on a word and have bytes past it are sorted again, on the next
        word. Computed once.
        """
        if self._ranks is None:
            starts, sizes = self._offsets[:-1], np.diff(self._offsets)
            words = np.ndarray(len(self._pool) - 7, ">u8", self._pool, 0, (1,))
            order = np.arange(sizes.size)
            rows = np.arange(sizes.size if sizes.size > 1 else 0)   # places still tied
            group = ()      # the key of their tie groups, after the first word
            at = 0
            while rows.size:
                ids = order[rows]
                left = np.minimum(sizes[ids] - at, 9)
                word = words[starts[ids] + at] & _HIGH[np.minimum(left, 8)]
                by = np.lexsort((left, word, *group))     # groups keep their places
                order[rows] = ids[by]
                del ids
                left, word = left[by], word[by]
                del by
                new = np.ones(rows.size, dtype=bool)
                new[1:] = (word[1:] != word[:-1]) | (left[1:] != left[:-1])
                if group:
                    new[1:] |= group[0][1:] != group[0][:-1]
                del word
                heads = np.flatnonzero(new)
                count = np.diff(heads, append=rows.size)
                tied = (np.repeat(count, count) > 1) & (left > 8)
                rows, group = rows[tied], (np.repeat(heads, count)[tied],)
                at += 8
            self._ranks = np.empty_like(order)
            self._ranks[order] = np.arange(order.size)
        return self._ranks

    def _text(self, ids: np.ndarray, ends) -> bytes:
        """The labels of ``ids`` end to end, each followed by its byte of ``ends``."""
        starts = self._offsets[ids]
        return gather(self._pool, starts, self._offsets[ids + 1] - starts, ends)

    def _subset(self, ids: np.ndarray) -> VertexLabelMap:
        """The map of the labels of ``ids``, in that order."""
        text = b"".join(self._text(ids[at:at + _CHUNK], 0xFF)
                        for at in range(0, ids.size, _CHUNK))
        return VertexLabelMap._from_pool(text, self._offsets[ids + 1] - self._offsets[ids])

    def write(self, stream: IO[str]) -> None:
        """Write one '<id>\\t<label>' line per id, ascending, a chunk of ids at a
        time."""
        offsets = self._offsets
        ends = np.tile(np.array([0xFF, 10], dtype=np.uint8), _CHUNK)
        for lo in range(0, len(self), _CHUNK):
            ids = np.arange(lo, min(lo + _CHUNK, len(self)))
            digits = format_decimal(ids, 9)     # each '<id>\t', padded
            first, last = int(offsets[lo]), int(offsets[ids[-1] + 1])
            source = digits.tobytes() + self._pool[first:last + 8]
            # the line's two strings in ``source``: its id's row and its label
            starts, sizes = np.empty((2, ids.size, 2), dtype=ID_DTYPE)
            starts[:, 0] = (ids - lo) * digits.shape[1]
            starts[:, 1] = offsets[ids] + (digits.size - first)
            sizes[:, 0] = digits.shape[1]
            sizes[:, 1] = offsets[ids + 1] - offsets[ids]
            text = gather(source, starts.ravel(), sizes.ravel(), ends[:2 * ids.size])
            stream.write(text.decode("utf-8", "surrogatepass"))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            self.write(fh)


def save_edge_list(graph, labels: VertexLabelMap, stream: IO[str]) -> None:
    """Write each edge of ``graph``, a :class:`~netpos.graphs.Graph`, once, as
    'u w' with u < w, rows ascending, a chunk of edges at a time."""
    stream.write(f"# vertices={graph.n} edges={graph.m}\n")
    rows = np.repeat(np.arange(graph.n, dtype=ID_DTYPE), graph.degrees)
    upper = graph.indices > rows
    ends = np.column_stack([rows[upper], graph.indices[upper]]).ravel()
    del rows, upper
    line = np.tile(np.array([32, 10], dtype=np.uint8), _CHUNK)     # ' ', '\n'
    for at in range(0, ends.size, 2 * _CHUNK):
        ids = ends[at:at + 2 * _CHUNK]
        stream.write(labels._text(ids, line[:ids.size]).decode("utf-8", "surrogatepass"))


def _blocks(read):
    """The text ``read(size)`` returns, in blocks of whole lines of about 64K
    characters, each ending in a newline. The chunks of a line longer than a
    block are joined once, when its newline arrives."""
    pending = []    # the chunks read since the last newline
    for chunk in iter(partial(read, 1 << 16), ""):
        cut = chunk.rfind("\n") + 1
        if cut:
            pending.append(chunk[:cut])
            yield "".join(pending)
            pending.clear()
        pending.append(chunk[cut:])
    tail = "".join(pending)
    if tail:
        yield tail + "\n"


def tokenize(read):
    """Split the text ``read(size)`` returns at ``str.split``'s whitespace, a
    block of whole lines of about 64K characters at a time.

    Yields one tuple per block: its UTF-8 bytes ``raw``, with 7 zero bytes
    past the end (room to read a word at any byte); ``byte``, the array of
    its bytes before them; each token's start and stop in it; and each
    line's end (the offset of its newline), token count and first token.
    """
    for text in _blocks(read):
        raw = (text if text.isascii() else text.translate(_SPACES)).encode(
            "utf-8", "surrogatepass") + bytes(7)
        byte = np.frombuffer(raw, dtype=np.uint8)[:-7]
        space = np.concatenate(([True], _IS_SPACE[byte]))
        bounds = np.flatnonzero(space[1:] != space[:-1])
        del space
        ends = np.flatnonzero(_IS_NEWLINE[byte])
        after = np.searchsorted(bounds[0::2], ends)   # the tokens before each end
        count = np.diff(after, prepend=0)
        yield raw, byte, bounds[0::2], bounds[1::2], ends, count, after - count


def parse_ints(raw: bytes, byte: np.ndarray, starts: np.ndarray,
               stops: np.ndarray) -> np.ndarray:
    """The value of each token as an integer, or -1 if not in [0, 2**63).

    Tokens of at most 19 ASCII digits are read in int64 one digit position at
    a time, right-aligned, 4,096 tokens at a time; 2**63 and above wrap
    negative, since fewer than 20 digits stay below 2**64. Any other token,
    such as '+5' or '1_0', is read by ``int`` alone.
    """
    value = np.zeros(starts.size, dtype=ID_DTYPE)
    odd = stops - starts > 19
    step = 1 << 12      # tokens at once, so the digit matrix stays small
    for lo in range(0, starts.size, step):
        part = slice(lo, lo + step)
        sizes = stops[part] - starts[part]
        at = np.arange(-min(int(sizes.max()), 19), 0)[:, None]
        digits = byte[stops[part] + at]
        digits[at + sizes < 0] = 48     # '0' before each token
        for row in digits:
            row = _DIGIT[row]
            odd[part] |= row > 9
            value[part] *= 10
            value[part] += row
    value[value < 0] = -1
    for i in np.flatnonzero(odd).tolist():
        try:
            number = int(raw[starts[i]:stops[i]].decode("utf-8", "surrogatepass"))
        except ValueError:
            number = -1
        value[i] = number if 0 <= number < 2**63 else -1
    return value


def _intern(keys: list[np.ndarray], wide: dict) -> tuple[VertexLabelMap, np.ndarray]:
    """The map of the labels in order of first appearance, and the id of each
    token.

    ``keys`` holds each block's tokens' first packed words, and is emptied;
    ``wide`` maps each word count above one to the (token ordinals, words)
    of the tokens that need it. Each word count is one group, sorted once:
    by argsort for one word, by lexsort for more. A label first appears at
    the least ordinal in its run of equal rows. Each token's run, numbered
    on from the runs of the groups before, is counted in the buffer of its
    group's sorted words and stored in the buffer of the joined ``keys``,
    where the run numbers become the ids at the end, so no token-length
    array is allocated after the sorts.
    """
    ids = np.concatenate(keys)      # each token's first word until it is sorted
    keys.clear()
    groups = [(None, ids[:, None])]
    if wide:
        groups = [(np.concatenate(o), np.concatenate(w))
                  for o, w in (zip(*parts) for parts in wide.values())]
        short = np.ones(ids.size, dtype=bool)
        for ordinal, _ in groups:
            short[ordinal] = False
        short = np.flatnonzero(short)
        groups.insert(0, (short, ids[short, None]))
    firsts, reps = [], []
    runs = 0    # in the groups before
    while groups:
        ordinal, words = groups.pop(0)
        order = words[:, 0].argsort() if words.shape[1] == 1 else np.lexsort(words.T)
        words = words[order]
        fresh = np.zeros(len(words), dtype=bool)
        fresh[:1] = True
        for column in range(words.shape[1]):
            fresh[1:] |= words[1:, column] != words[:-1, column]
        start = np.flatnonzero(fresh)
        reps.append(words[start])
        if ordinal is not None:
            order = ordinal[order]
        firsts.append(np.minimum.reduceat(order, start))
        run = words.reshape(-1)[:len(words)]
        run[:] = fresh
        np.cumsum(run, out=run)     # in place: no cast of ``fresh`` to int64
        run += runs - 1
        ids[order] = run
        runs += start.size
        del words, run, fresh, start, order, ordinal
    rank = np.concatenate(firsts).argsort()
    del firsts
    if len(reps) == 1:
        labels = VertexLabelMap._from_pool(*unpad(reps.pop()[rank]))
    else:
        pools, sizes = zip(*map(unpad, reps))
        labels = VertexLabelMap._from_pool(b"".join(pools), np.concatenate(sizes))
        labels = labels._subset(rank)
    del reps
    new = np.empty(rank.size, dtype=ID_DTYPE)
    new[rank] = np.arange(rank.size)
    # in place: under mode "clip", which clips no id here, ``take`` writes
    # each item after reading its index, where "raise" would buffer a copy
    return labels, np.take(new, ids, out=ids, mode="clip")


def scan(stream: IO[str] | Iterable[str], fields: tuple[int, ...]):
    """Read '<label> <label> [<timestamp>]' lines, a block of lines at a time.

    ``stream`` is a text stream, or an iterable of lines, each with or
    without its newline. Tokens are split at ``str.split``'s whitespace.
    Blank lines, and lines whose first token starts with '#', are skipped.
    A line whose field count is not in ``fields``, or whose timestamp is not
    integer unix seconds in [0, 2**63), raises a ParseError naming it; the
    first such line in the file wins. Each label is kept as its UTF-8 bytes
    packed into int64 words. Returns the map of the labels in order of first
    appearance (source before target), the (source, target) ids as an
    (events, 2) array, and the timestamps.
    """
    if not hasattr(stream, "read"):     # an iterable of lines
        stream = io.StringIO("\n".join(map(str.removesuffix, stream, repeat("\n"))))
    keys, times = [np.empty(0, dtype=ID_DTYPE)], [np.empty(0, dtype=ID_DTYPE)]
    wide = {}       # word count above one -> [(token ordinals, words)]
    lines = tokens = 0
    for raw, byte, starts, stops, _, count, first in tokenize(stream.read):
        data = count > 0    # and not a comment: its first token starts with '#'
        data[data] = ~_IS_HASH[byte[starts[first[data]]]]
        timed = data & (count == 3)
        good = timed | (data & (count == 2)) if 2 in fields else timed
        stamp = parse_ints(raw, byte, starts[first[timed] + 2], stops[first[timed] + 2])
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
        # so that no block's arrays stay alive while _intern runs
        del raw, byte, starts, stops, _, count, first, data, timed, good, wrong, at
        del sizes, words, width
    labels, ids = _intern(keys, wide)
    return labels, ids.reshape(-1, 2), np.concatenate(times)
