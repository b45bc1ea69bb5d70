"""Text I/O: the block tokenizer that reads edge lists, event logs and
partition files, and the byte kernels of the chunked writers.

Text is handled as UTF-8 bytes in numpy arrays, a block or a chunk of lines at
a time. A label is its UTF-8 bytes, packed into int64 words on the way in and
gathered from a :class:`~netpos.graphs.VertexLabelMap`'s byte pool on the way
out; 0xFF, which UTF-8 never holds, pads the words and rows, and
``bytes.replace`` strips it. This module imports ``netpos.graphs`` at module
level, so ``graphs`` can import it only inside its functions; ``partition``
imports it the same way. Every command but ``bench`` and ``--version`` loads it.
"""

from __future__ import annotations

import io
from functools import partial
from itertools import repeat
from typing import IO, Iterable

import numpy as np

from .graphs import ID_DTYPE, ParseError, VertexLabelMap

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
    after 0xFF padding, which ``bytes.replace`` strips, then its byte of
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


def _unpack(words: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The labels packed in the rows of ``words``, end to end, and their sizes."""
    pad = words.view(np.uint8).reshape(len(words), 8 * words.shape[1]) == 0xFF
    sizes = pad.shape[1] - np.count_nonzero(pad, axis=1)
    del pad
    return words.tobytes().replace(b"\xff", b""), sizes


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
        labels = VertexLabelMap._from_pool(*_unpack(reps.pop()[rank]))
    else:
        pools, sizes = zip(*map(_unpack, reps))
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
