import io
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import netpos.textio

from netpos import (GeneratorConfig, Graph, ParseError, Partition, SnapshotSpec,
                    TemporalEdgeLog, VertexLabelMap, build_snapshots,
                    generate_power_law, load_edge_list, load_temporal_edge_list,
                    reciprocal_projection, save_edge_list)
from netpos.partition import run_refinement
from netpos.textio import scan

from helpers import edge_set, er_graph, label_of, log_rows, neighbors, traced
from oracles import (degree_to_cell, degree_vector, reciprocal_projection_lexsort,
                     reciprocal_reference, save_edge_list_ref, scan_reference,
                     snapshots_lexsort, snapshots_reference, validate_graph,
                     write_labels_ref)


def test_load_path_graph():
    g, labels = load_edge_list(["a b", "b c"])
    assert g.n == 3 and g.m == 2
    assert labels.labels.index("a") == 0 and labels.labels.index("c") == 2
    assert list(neighbors(g, 1)) == [0, 2]


def test_load_deduplicates():
    g, _ = load_edge_list(["a b", "a b", "b a"])
    assert g.m == 1
    assert g.duplicates_collapsed == 2


def test_load_drops_self_loop_with_count():
    g, _ = load_edge_list(["a a"])
    assert g.m == 0
    assert g.self_loops_dropped == 1


def test_load_empty_input():
    g, labels = load_edge_list([])
    assert g.n == 0 and g.m == 0 and len(labels) == 0


def test_load_skips_comments_and_blanks():
    g, _ = load_edge_list(["# header", "", "a b", "  ", "b c 123"])
    assert g.n == 3 and g.m == 2


def test_load_malformed_line_reports_number():
    with pytest.raises(ParseError, match="line 2"):
        load_edge_list(["a b", "oops"])
    with pytest.raises(ParseError, match="line 1"):
        load_edge_list(["a b c d"])
    for token in ("notatime", "inf", "1e400", "10.9", "1.5e1", "-1", str(2**63)):
        with pytest.raises(ParseError, match="line 1: bad timestamp"):
            load_edge_list([f"a b {token}"])
    with pytest.raises(ParseError, match="line 2: bad timestamp"):
        load_temporal_edge_list(["a b 1", "a c 1e400"])


# str.split()'s whitespace but the newline, which ends a line
_GAPS = [" ", "\t", "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
         "\xa0", "\u1680", "\u2000", "\u200a", "\u2028", "\u2029", "\u202f",
         "\u205f", "\u3000"]
_GOOD_STAMPS = ["0", "007", "+5", "1_0", "\u0663", "1700000000", str(2**63 - 1),
                "-0", "0" * 24 + "42"]
_BAD_STAMPS = [str(2**63), "9" * 19, "-1", "x", "1.5", "0x10", "\xbd"]
# labels of 1 to 12 characters, up to 48 bytes, so keys of one to six words
_LABELS = st.text(alphabet="ab#1\x00\xe9\u65e5\U0001f600", min_size=1, max_size=12)


@st.composite
def _edge_text(draw):
    """A file of edge or event lines: comments, blank lines, Unicode gaps,
    CRLF, odd labels and timestamps, and, if ``noisy``, bad lines."""
    noisy = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["pair", "timed", "timed", "comment", "blank"]
                                    + ["odd"] * noisy))
        if kind == "pair":
            tokens = [draw(_LABELS), draw(_LABELS)]
        elif kind == "timed":
            stamps = _GOOD_STAMPS + _BAD_STAMPS * noisy
            tokens = [draw(_LABELS), draw(_LABELS), draw(st.sampled_from(stamps))]
        elif kind == "comment":
            tokens = ["#" + draw(_LABELS)] + draw(st.lists(_LABELS, max_size=3))
        elif kind == "odd":
            tokens = draw(st.lists(_LABELS, min_size=1, max_size=5))
        else:
            tokens = []
        gaps = draw(st.lists(st.lists(st.sampled_from(_GAPS), min_size=1, max_size=3),
                             min_size=len(tokens) + 1, max_size=len(tokens) + 1))
        lead = "".join(gaps[0]) if draw(st.booleans()) else ""
        line = lead + "".join(t + "".join(g) for t, g in zip(tokens, gaps[1:]))
        lines.append(line if draw(st.booleans()) else line.rstrip("".join(_GAPS)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + (end if draw(st.booleans()) else "")


def _outcome(scan, source, fields):
    """What a reader returns as plain lists, or its error message."""
    try:
        labels, ends, times = scan(source, fields)
    except ParseError as exc:
        return str(exc)
    return list(getattr(labels, "labels", labels)), ends.tolist(), times.tolist()


@settings(max_examples=300, deadline=None)
@given(text=_edge_text(), fields=st.sampled_from([(2, 3), (3,)]))
def test_reader_matches_per_line_reference(text, fields):
    want = _outcome(scan_reference, io.StringIO(text), fields)
    assert _outcome(scan, io.StringIO(text), fields) == want
    # an iterable of lines, with or without their newlines, reads the same
    assert _outcome(scan, io.StringIO(text).readlines(), fields) == want
    assert _outcome(scan, text.split("\n"), fields) == want


@pytest.mark.parametrize("lines, message", [
    (["a b 1", "a b x", "a b c d"], "line 2: bad timestamp 'x'"),
    (["a b 1", "a b c d", "a b x"], "line 2: expected 3 fields, got 4"),
    (["# c", "", f"a b {2**63}"], f"line 3: bad timestamp '{2**63}'"),
    (["a b +5", "a b \u0663", "a b -1"], "line 3: bad timestamp '-1'"),
    (["a\u3000b\u2005\t7"], None),
], ids=["stamp-first", "count-first", "2**63", "int-spellings", "unicode-gaps"])
def test_reader_reports_the_first_error_in_file_order(lines, message):
    want = _outcome(scan_reference, lines, (3,))
    assert _outcome(scan, lines, (3,)) == want
    assert want == message if message else isinstance(want, tuple)


def _random_log(events: int, labels: int, seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    ends = rng.integers(0, labels, size=(events, 2)).tolist()
    stamps = rng.integers(10**9, 2 * 10**9, size=events).tolist()
    return [f"u{a} v{b} {t}\n" for (a, b), t in zip(ends, stamps)]


def test_reader_matches_reference_across_blocks():
    # 40k lines span many 64K-character blocks; a 100k-character label and a
    # line with non-ASCII gaps sit across block boundaries; the last line has
    # no newline
    lines = _random_log(40_000, 5_000, 3)
    lines[2_000] = "x" * 100_000 + " y 5\n"
    lines[3_000] = "\xe9t\xe9\u3000\u65e5 7\n"
    lines[-1] = lines[-1].rstrip("\n")
    text = "".join(lines)
    for fields in ((2, 3), (3,)):
        want = _outcome(scan_reference, io.StringIO(text), fields)
        assert isinstance(want, tuple)
        assert _outcome(scan, io.StringIO(text), fields) == want
    lines[-2] = "u1 v2 3 4\n"   # an error in the last block names its line
    want = _outcome(scan_reference, io.StringIO("".join(lines)), (3,))
    assert want == f"line {len(lines) - 1}: expected 3 fields, got 4"
    assert _outcome(scan, io.StringIO("".join(lines)), (3,)) == want


def test_reader_peaks_no_higher_than_reference():
    text = "".join(_random_log(100_000, 60_000, 5))
    peaks = [traced(lambda: read(io.StringIO(text), (3,)))[2]
             for read in (scan, scan_reference)]
    assert peaks[0] <= peaks[1]


def test_handshake_and_symmetry_on_random_graphs():
    for seed in range(10):
        g = er_graph(40, 0.15, seed)
        assert int(g.degrees.sum()) == 2 * g.m
        validate_graph(g)


@pytest.mark.parametrize("n, indptr, indices, message", [
    (2, [0, 1, 1], [1], "not symmetric"),
    (2, [0, 1, 2], [0, 1], "self-loop"),
    (3, [0, 2, 3, 4], [2, 1, 0, 0], "not strictly ascending"),
    (2, [0, 1, 2], [1, 2], "out of range"),
    (2, [0, 1], [1], "bad indptr"),
])
def test_validate_graph_rejects_broken_csr(n, indptr, indices, message):
    with pytest.raises(ValueError, match=message):
        validate_graph(Graph(n, indptr, indices))


# --- Graph.tally, the one count of neighbours by group ----------------------------


def _tally_dense(graph, sources, groups):
    """The tally as an n x n (neighbour, group) count matrix, and the volume."""
    (vertex, group), counts, volume = graph.tally(sources, groups)
    assert np.all(np.diff(vertex * graph.n + group) > 0) and np.all(counts >= 1)
    dense = np.zeros((graph.n, graph.n), dtype=np.int64)
    dense[vertex, group] = counts
    return dense, volume


def _tally_cases():
    rng = np.random.default_rng(17)
    isolated = Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (2, 3)])  # 4-6 isolated
    yield isolated, np.arange(7), np.zeros(7, dtype=np.int64)  # a single group
    yield isolated, np.array([6, 4, 2, 0]), np.array([6, 6, 1, 6])
    yield isolated, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    yield Graph.from_edges(0, []), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    for trial in range(12):
        n = int(rng.integers(2, 40))
        g = er_graph(n, float(rng.uniform(0.02, 0.4)), seed=trial)
        sources = rng.permutation(n)[:rng.integers(0, n + 1)]
        groups = rng.integers(0, n, size=sources.size)
        groups[:1] = n - 1   # the largest group id a tally takes
        yield g, sources, groups


def test_tally_matches_degree_to_cell():
    for g, sources, groups in _tally_cases():
        dense, volume = _tally_dense(g, sources, groups)
        want = np.zeros_like(dense)
        for group in np.unique(groups):
            cell = sources[groups == group]
            want[:, group] = [degree_to_cell(g, v, cell) for v in range(g.n)]
        assert np.array_equal(dense, want)
        assert volume == int(g.degrees[sources].sum())


def test_tally_over_every_vertex_matches_degree_vector():
    rng = np.random.default_rng(5)
    for trial in range(8):
        n = int(rng.integers(1, 50))
        g = er_graph(n, float(rng.uniform(0.02, 0.3)), seed=100 + trial)
        part = Partition.from_membership(rng.integers(0, int(rng.integers(1, n + 1)), n))
        dense, volume = _tally_dense(g, np.arange(n), part.membership)
        for v in range(n):
            assert dense[v, :len(part)].tolist() == degree_vector(g, v, part).tolist()
        assert not dense[:, len(part):].any() and volume == 2 * g.m


def test_edge_list_roundtrip():
    g, labels = load_edge_list(["a b", "b c", "c a", "d a"])
    buf = io.StringIO()
    save_edge_list(g, labels, buf)
    buf.seek(0)
    g2, labels2 = load_edge_list(buf)
    assert g2 == g
    assert labels2.labels == labels.labels


def test_label_map_roundtrip_and_validation():
    # a repeated label keeps its first id; the file lists every id once
    labels = VertexLabelMap(["x", "y", "x", "z", "y"])
    assert labels.labels == ("x", "y", "z") and len(labels) == 3
    assert label_of(labels, 1) == "y" and labels.labels is labels.labels
    buf = io.StringIO()
    labels.write(buf)
    assert buf.getvalue() == "0\tx\n1\ty\n2\tz\n"
    empty = io.StringIO()
    VertexLabelMap().write(empty)
    assert empty.getvalue() == ""


@pytest.mark.parametrize("n", [0, 1, 10, 1_001])
def test_decimal_labels_are_the_str_of_each_id(n):
    got, want = VertexLabelMap.decimal(n), VertexLabelMap(str(v) for v in range(n))
    assert got.labels == want.labels and got._pool == want._pool
    assert got._offsets.tolist() == want._offsets.tolist()
    assert got.ranks().tolist() == want.ranks().tolist()


# any text, lone surrogates included, and labels that differ only past a
# word, by a NUL, by a prefix, or in the planes UTF-8 encodes differently
_TEXT = st.text(st.characters(exclude_categories=()), max_size=12)
_EDGY = st.sampled_from(["", "\x00", "a", "a\x00", "a\x00b", "ab", "aaaaaaaa",
                         "aaaaaaaa\x00", "aaaaaaaab", "\x7f", "\x80", "\uffff",
                         "\U0001f600", "\ud800", "\udfff", "\ue000", "\ud83d\ude00"])


@settings(max_examples=300, deadline=None)
@given(labels=st.lists(st.one_of(_TEXT, _EDGY), max_size=40))
def test_label_ranks_follow_str_order(labels):
    # ranks come from the UTF-8 bytes alone; repeats keep id order
    table = VertexLabelMap._table(labels)
    assert table.labels == tuple(labels)
    order = sorted(range(len(labels)), key=lambda i: (labels[i], i))
    assert table.ranks()[order].tolist() == list(range(len(labels)))


def _write_both(write, ref, *args) -> tuple[str, str]:
    got, want = io.StringIO(), io.StringIO()
    write(*args, got)
    ref(*args, want)
    return got.getvalue(), want.getvalue()


@settings(max_examples=200, deadline=None)
@given(labels=st.lists(st.one_of(_TEXT, _EDGY, st.text(min_size=20, max_size=90)),
                       max_size=30),
       data=st.data())
@example(labels=[], data=None)      # an empty graph and map
def test_label_and_edge_writers_match_per_line_references(labels, data):
    # chunks of 1 and 3 lines cut between every pair of lines, and labels
    # of up to 90 characters take many words each
    label_map = VertexLabelMap(labels)
    n = len(label_map)
    pairs = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=50)
    graph = Graph.from_edges(n, data.draw(pairs) if n else [])   # isolated ends too
    for chunk in (1, 3, netpos.textio._CHUNK):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(netpos.textio, "_CHUNK", chunk)
            got, want = _write_both(lambda fh: label_map.write(fh),
                                    lambda fh: write_labels_ref(label_map, fh))
            assert got == want
            got, want = _write_both(save_edge_list, save_edge_list_ref, graph, label_map)
            assert got == want


def test_writers_match_references_on_a_label_wider_than_a_chunk():
    names = ["x" * 100_000, "\u00e9" * 30_000, "b", "\U0001f600" * 5_000]
    label_map = VertexLabelMap(names + [f"v{i}" for i in range(20_000)])
    graph = Graph.from_edges(len(label_map), [(0, 1), (1, 2), (0, 3), (3, 20_003)]
                             + [(4 + i, 5 + i) for i in range(19_998)])
    got, want = _write_both(lambda fh: label_map.write(fh),
                            lambda fh: write_labels_ref(label_map, fh))
    assert got == want
    got, want = _write_both(save_edge_list, save_edge_list_ref, graph, label_map)
    assert got == want


class _Discard:
    def write(self, text: str) -> int:
        return len(text)


def test_loaded_labels_hold_their_bytes_and_offsets_alone():
    # 100k distinct labels: the graph, the UTF-8 bytes and about 8 B of
    # offsets a label stay allocated, and no str per label
    text = io.StringIO("".join(f"u{i} v{i}\n" for i in range(50_000)))
    (graph, labels), held, _ = traced(lambda: load_edge_list(text))
    pool = sum(len(label.encode()) for label in labels.labels)
    csr = graph.indptr.nbytes + graph.indices.nbytes
    assert len(labels) == 100_000
    assert held < csr + pool + 16 * len(labels)


def test_label_map_write_peak_does_not_grow_with_labels():
    peaks = []
    for n in (3 * netpos.textio._CHUNK, 30 * netpos.textio._CHUNK):
        label_map = VertexLabelMap(f"label{i}" for i in range(n))
        peaks.append(traced(lambda: label_map.write(_Discard()))[2])
    assert peaks[1] < 1.2 * peaks[0]


def test_graph_hash_distinguishes_graphs():
    g1 = Graph.from_edges(3, [(0, 1)])
    g2 = Graph.from_edges(3, [(0, 2)])
    assert g1.content_hash() != g2.content_hash()
    assert g1.content_hash() == Graph.from_edges(3, [(1, 0)]).content_hash()


# --- snapshots --------------------------------------------------------------


def test_build_snapshots_cutoff_filter():
    log = load_temporal_edge_list(["a b 10", "b c 20"], directed=False)
    graphs, labels = build_snapshots(log, SnapshotSpec((15, 25)))
    g1, g2 = graphs
    assert g1.n == 2 and g1.m == 1
    assert g2.n == 3 and g2.m == 2
    assert labels.labels.index("a") == 0 and labels.labels.index("c") == 2


def test_build_snapshots_empty_prefix():
    log = load_temporal_edge_list(["a b 10"], directed=False)
    graphs, _ = build_snapshots(log, SnapshotSpec((5,)))
    assert graphs[0].n == 0 and graphs[0].m == 0


def test_snapshots_are_nested():
    rng = np.random.default_rng(4)
    lines = [f"v{rng.integers(30)} v{rng.integers(30)} {rng.integers(0, 1000)}"
             for _ in range(200)]
    log = load_temporal_edge_list(lines, directed=False)
    graphs, _ = build_snapshots(log, SnapshotSpec((100, 400, 700, 1000)))
    for early, late in zip(graphs, graphs[1:]):
        assert early.n <= late.n
        early_edges = edge_set(early)
        late_edges = edge_set(late)
        assert early_edges <= late_edges
    # every snapshot vertex touches a retained edge (no isolated padding)
    for g in graphs:
        if g.n:
            assert int(g.degrees.min()) >= 1


def test_snapshot_vertices_are_dense_prefix():
    log = load_temporal_edge_list(["x y 1", "p q 50", "x q 99"], directed=False)
    graphs, labels = build_snapshots(log, SnapshotSpec((10, 100)))
    assert graphs[0].n == 2
    assert graphs[1].n == 4
    assert label_of(labels, 0) == "x" and label_of(labels, 3) == "q"


def test_build_snapshots_matches_reference():
    # ties, self-loops, repeated and unreciprocated links, labels whose str
    # order differs from their order of appearance (a trailing NUL included,
    # which numpy 'U' arrays drop), and cutoffs before and after every event
    # or (odd trials) a few that cut the log short
    rng = np.random.default_rng(21)
    names = ["b", "a10", "x\x00", "a2", "Z", "\u00e9", "x", "10", "9"]
    for trial in range(300):
        pool = names[:int(rng.integers(1, len(names) + 1))]
        rows = [(pool[int(rng.integers(len(pool)))], pool[int(rng.integers(len(pool)))],
                 int(rng.integers(0, 11))) for _ in range(int(rng.integers(0, 25)))]
        cutoffs = (tuple(range(-1, 12)) if trial % 2 == 0 else
                   tuple(sorted(rng.choice(13, int(rng.integers(1, 4)),
                                           replace=False).tolist())))
        lines = [f"{s} {t} {ts}" for s, t, ts in rows]
        for directed in (True, False):
            log = load_temporal_edge_list(lines, directed=directed)
            want = rows
            if directed:
                log, want = reciprocal_projection(log), reciprocal_reference(rows)
                assert log_rows(log) == want
            graphs, labels = build_snapshots(log, SnapshotSpec(cutoffs))
            want_graphs, want_labels = snapshots_reference(want, cutoffs)
            assert labels.labels == want_labels
            assert graphs == want_graphs


def _same_log(got: TemporalEdgeLog, want: TemporalEdgeLog) -> bool:
    return (got.labels.labels == want.labels.labels and got.directed == want.directed
            and all(np.array_equal(getattr(got, c), getattr(want, c))
                    for c in ("source", "target", "timestamp")))


def test_ordering_matches_lexsort_reference_with_repeated_labels():
    # a label table that repeats labels (only a hand-built log can), so that
    # pairs and ties whose labels are equal are ordered by id; in a third of
    # the trials every event shares one timestamp
    rng = np.random.default_rng(19)
    table = ("b", "a", "b", "x\x00", "x", "a", "", "b", "10", "9")
    for trial in range(300):
        k = int(rng.integers(1, len(table) + 1))
        size = int(rng.integers(0, 60))
        times = (np.full(size, 7) if trial % 3 == 0 else rng.integers(0, 9, size))
        log = TemporalEdgeLog(rng.integers(0, k, size), rng.integers(0, k, size),
                              times, table[:k])
        cutoffs = tuple(sorted(rng.choice(10, int(rng.integers(1, 4)),
                                          replace=False).tolist()))
        projected = reciprocal_projection(log)
        assert _same_log(projected, reciprocal_projection_lexsort(log)), trial
        for cut in (log, projected):
            graphs, labels = build_snapshots(cut, SnapshotSpec(cutoffs))
            assert (graphs, labels.labels) == snapshots_lexsort(cut, SnapshotSpec(cutoffs))


@pytest.mark.parametrize("resolution", [1, 86_400])
def test_snapshot_pipeline_matches_reference_at_scale(resolution):
    # 200k directed events over 50k labels, a third of them answering an
    # earlier link; timestamps in seconds tie rarely, in whole days almost
    # always, so both the timestamp sort and the label ranking of ties carry
    # the order
    rng = np.random.default_rng(23)
    k, asked, answered = 50_000, 100_000, 60_000
    a, b = rng.integers(0, k, asked), rng.integers(0, k, asked)
    t = rng.integers(10**9, 10**9 + 10**8, asked)
    back = rng.choice(asked, answered, replace=False)
    noise = asked - answered
    source = np.concatenate([a, b[back], rng.integers(0, k, noise)])
    target = np.concatenate([b, a[back], rng.integers(0, k, noise)])
    times = np.concatenate([t, t[back] + rng.integers(0, 10**6, answered),
                            rng.integers(10**9, 10**9 + 10**8, noise)])
    times -= times % resolution
    perm = rng.permutation(source.size)
    labels = tuple(f"u{x}" for x in rng.permutation(k).tolist())
    log = TemporalEdgeLog(source[perm], target[perm], times[perm], labels)
    names = np.array(labels, dtype=object)
    rows = list(zip(names[log.source], names[log.target], log.timestamp.tolist()))
    projected = reciprocal_projection(log)
    want = reciprocal_reference(rows)
    assert len(want) > 50_000
    assert log_rows(projected) == want
    cutoffs = tuple(int(np.quantile(times, q)) for q in (0.3, 0.6)) + (int(times.max()),)
    graphs, label_map = build_snapshots(projected, SnapshotSpec(cutoffs))
    assert (graphs, label_map.labels) == snapshots_reference(want, cutoffs)


@pytest.fixture(scope="module")
def directed_log_text():
    """About 100k directed events over 25k labels, 30k of them answering an
    earlier link, as text, built as in the at-scale pipeline test above; and
    cutoffs at 30%, 60% and 100% of the timestamps."""
    rng = np.random.default_rng(29)
    k, asked, answered = 25_000, 50_000, 30_000
    a, b = rng.integers(0, k, asked), rng.integers(0, k, asked)
    t = rng.integers(10**9, 10**9 + 10**8, asked)
    back = rng.choice(asked, answered, replace=False)
    noise = asked - answered
    source = np.concatenate([a, b[back], rng.integers(0, k, noise)])
    target = np.concatenate([b, a[back], rng.integers(0, k, noise)])
    times = np.concatenate([t, t[back] + rng.integers(0, 10**6, answered),
                            rng.integers(10**9, 10**9 + 10**8, noise)])
    perm = rng.permutation(source.size)
    text = "".join(f"u{s} u{d} {x}\n" for s, d, x in
                   zip(source[perm].tolist(), target[perm].tolist(), times[perm].tolist()))
    cutoffs = tuple(int(np.quantile(times, q)) for q in (0.3, 0.6)) + (int(times.max()),)
    return text, SnapshotSpec(cutoffs)


def _csr_bytes(graph: Graph) -> int:
    return graph.indptr.nbytes + graph.indices.nbytes


def _label_bytes(labels: VertexLabelMap) -> int:
    return len(labels._pool) + labels._offsets.nbytes


@pytest.mark.parametrize("stage, bound", [
    ("load_temporal_edge_list", 3.2), ("reciprocal_projection", 1.55),
    ("build_snapshots", 2.5), ("load_edge_list", 3.2), ("run_refinement", 4.2)])
def test_snapshot_path_stage_peaks(directed_log_text, stage, bound):
    # each stage keeps one live copy of each input-sized array, so its peak
    # above its start stays under ``bound`` times the size named below
    text, spec = directed_log_text
    log = load_temporal_edge_list(io.StringIO(text))    # its label ranks not yet kept
    if stage == "load_temporal_edge_list":      # over the log's columns
        stream = io.StringIO(text)
        peak = traced(lambda: load_temporal_edge_list(stream))[2]
        size = 3 * log.source.nbytes
    elif stage == "reciprocal_projection":      # over its input's columns
        peak = traced(lambda: reciprocal_projection(log))[2]
        size = 3 * log.source.nbytes
    elif stage == "build_snapshots":            # over the graphs and labels
        projected = reciprocal_projection(log)
        (graphs, labels), _, peak = traced(lambda: build_snapshots(projected, spec))
        size = sum(map(_csr_bytes, graphs)) + _label_bytes(labels)
    else:
        graphs, labels = build_snapshots(reciprocal_projection(log), spec)
        edges = io.StringIO()
        save_edge_list(graphs[-1], labels, edges)
        stream = io.StringIO(edges.getvalue())
        if stage == "load_edge_list":           # over the graph and labels
            (graph, labels), _, peak = traced(lambda: load_edge_list(stream))
            size = _csr_bytes(graph) + _label_bytes(labels)
        else:                                   # at eps 2, over the CSR arrays
            graph, _ = load_edge_list(stream)
            peak = traced(lambda: run_refinement(graph, 2))[2]
            size = _csr_bytes(graph)
    assert peak < bound * size, (stage, peak / size)


def test_temporal_log_validation():
    for source, target, times, message in [
            ([0, 2], [1, 0], [1, 1], "label id outside"),
            ([0, 1], [-1, 0], [1, 1], "label id outside"),
            ([0, 1], [1, 0], [1, -1], "negative timestamp"),
            ([0], [1, 0], [1, 1], "differ in length")]:
        with pytest.raises(ValueError, match=message):
            TemporalEdgeLog(source, target, times, ("a", "b"))
    assert len(TemporalEdgeLog([], [], [], ())) == 0


def test_snapshot_spec_validation():
    with pytest.raises(ValueError):
        SnapshotSpec(())
    with pytest.raises(ValueError):
        SnapshotSpec((5, 5))


# --- reciprocal projection --------------------------------------------------


def test_reciprocal_basic_rule():
    out = reciprocal_projection(load_temporal_edge_list(["a b 10", "b a 30"]))
    assert len(out) == 1
    assert log_rows(out)[0] + (out.directed,) == ("a", "b", 30, False)


def test_reciprocal_unreciprocated_dropped():
    log = load_temporal_edge_list(["a b 10"])
    assert len(reciprocal_projection(log)) == 0


def test_reciprocal_duplicate_events_collapse():
    log = load_temporal_edge_list(["a b 10", "b a 30", "a b 50"])
    out = reciprocal_projection(log)
    assert log_rows(out) == [("a", "b", 30)]


def _reciprocal_oracle(events):
    """Brute force: for each unordered pair scan all events for both directions."""
    pairs = {}
    names = sorted({s for s, _, _ in events} | {t for _, t, _ in events})
    for a, b in itertools.combinations(names, 2):
        fwd = [ts for s, t, ts in events if (s, t) == (a, b)]
        rev = [ts for s, t, ts in events if (s, t) == (b, a)]
        if fwd and rev:
            pairs[(a, b)] = max(min(fwd), min(rev))
    return pairs


def test_reciprocal_matches_bruteforce_oracle():
    rng = np.random.default_rng(11)
    for _ in range(30):
        events = [(f"u{rng.integers(8)}", f"u{rng.integers(8)}", int(rng.integers(0, 50)))
                  for _ in range(60)]
        log = load_temporal_edge_list([f"{s} {t} {ts}" for s, t, ts in events])
        got = {(s, t): ts for s, t, ts in log_rows(reciprocal_projection(log))}
        want = _reciprocal_oracle([e for e in events if e[0] != e[1]])
        assert got == want


def test_reciprocal_invariant_to_event_order():
    rng = np.random.default_rng(2)
    lines = [f"u{rng.integers(6)} u{rng.integers(6)} {rng.integers(0, 40)}"
             for _ in range(40)]
    base = log_rows(reciprocal_projection(load_temporal_edge_list(lines)))
    for _ in range(5):
        rng.shuffle(lines)
        assert log_rows(reciprocal_projection(load_temporal_edge_list(lines))) == base
    # every event reversed: each pair keeps both directions' first times
    swapped = [f"{t} {s} {ts}" for s, t, ts in map(str.split, lines)]
    assert log_rows(reciprocal_projection(load_temporal_edge_list(swapped))) == base


def test_reciprocal_matches_reference_on_many_labels():
    # many labels, whose str order differs from their ids, so that the
    # orientation and the canonical order rest on the label ranks
    rng = np.random.default_rng(31)
    for trial in range(20):
        k = int(rng.integers(2, 120))
        rows = [(f"v{int(a)}", f"v{int(b)}", int(t)) for a, b, t in
                zip(rng.integers(0, k, 1500), rng.integers(0, k, 1500),
                    rng.integers(0, 60, 1500))]
        log = load_temporal_edge_list([f"{s} {t} {ts}" for s, t, ts in rows])
        assert log_rows(reciprocal_projection(log)) == reciprocal_reference(rows)


def test_reciprocal_requires_directed():
    log = load_temporal_edge_list(["a b 1"], directed=False)
    with pytest.raises(ValueError):
        reciprocal_projection(log)


# --- generator ---------------------------------------------------------------


def test_generator_deterministic():
    cfg = GeneratorConfig(1000, 2.9, seed=42)
    g1 = generate_power_law(cfg)
    g2 = generate_power_law(cfg)
    assert g1 == g2
    assert np.array_equal(g1.indices, g2.indices)


def test_generator_two_vertices():
    g = generate_power_law(GeneratorConfig(2, 2.0, seed=0))
    assert g.n == 2 and g.m in (0, 1)
    validate_graph(g)


def test_generator_rejects_tiny_or_bad_config():
    with pytest.raises(ValueError):
        generate_power_law(GeneratorConfig(1, 2.5))
    with pytest.raises(ValueError):
        GeneratorConfig(10, 1.0)
    with pytest.raises(ValueError):
        GeneratorConfig(0, 2.0)


def test_generator_output_is_simple():
    g = generate_power_law(GeneratorConfig(3000, 2.1, seed=9))
    validate_graph(g)
    assert int(g.degrees.sum()) == 2 * g.m


def test_generator_exponent_fit():
    # oracle: standard continuous MLE with the half-step discreteness
    # correction, fitted on the tail (x_min = 4) where the continuous
    # approximation of the discrete law is sound
    g = generate_power_law(GeneratorConfig(10_000, 2.5, seed=42))
    d = g.degrees.astype(float)
    tail = d[d >= 4]
    alpha = 1.0 + tail.size / np.log(tail / 3.5).sum()
    assert abs(alpha - 2.5) < 0.3
