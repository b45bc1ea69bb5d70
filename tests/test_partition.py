import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import netpos.partition
from netpos import (GeneratorConfig, Graph, ParseError, Partition,
                    SignatureCollisionError, SnapshotSpec, build_snapshots,
                    degree_partition, epsilon_spread, equitable_oracle, fast_eep,
                    generate_power_law, load_temporal_edge_list,
                    read_partition_file, reciprocal_projection,
                    write_partition_file)
from netpos.textio import _blocks

from helpers import (complete_graph, degree, discrete_partition, edge_set, er_graph,
                     neighbors, path_graph, star_graph, traced, unit_partition)
from oracles import (ActiveList, degree_to_cell, degree_vector,
                     epsilon_spread_dense, equitable_oracle_dense,
                     read_partition_file_ref, split, write_partition_file_ref)

P4 = path_graph(4)          # 0-1-2-3
STAR = star_graph(3)        # center 0, leaves 1..3


# --- Partition model ---------------------------------------------------------


def test_partition_from_cells_normalizes():
    p = Partition([[3, 1], [2], [0]])
    assert p.cells == ((1, 3), (2,), (0,))
    assert p.membership.tolist() == [2, 0, 1, 0]
    assert len(p) == 3 and p.n_vertices == 4


def test_partition_rejects_bad_cells():
    with pytest.raises(ValueError):
        Partition([[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        Partition([[1], []])


def test_partition_canonical_sorts_by_min_member():
    p = Partition([[5, 6], [1, 2], [3]])
    assert p.canonical().cells == ((1, 2), (3,), (5, 6))


def test_partition_unit_discrete():
    assert unit_partition(3).cells == ((0, 1, 2),)
    assert unit_partition(0).cells == ()
    disc = discrete_partition([2, 0, 1])
    assert disc.cells == ((0,), (1,), (2,)) and len(disc) == disc.n_vertices


def test_membership_array_requires_dense():
    p = Partition([[0, 2], [1]])
    assert list(p.membership_array(3)) == [0, 1, 0]
    with pytest.raises(ValueError):
        Partition([[5]]).membership_array(1)


# --- ActiveList ---------------------------------------------------------------


def test_active_list_pops_minimum():
    al = ActiveList([4, 1, 3])
    assert al.pop_min() == 1
    assert al.pop_min() == 3
    assert al.indices == (4,)


def test_active_list_rejects_duplicates():
    with pytest.raises(ValueError):
        ActiveList([1, 1])


def test_active_list_update_rule():
    # cells 0,1,2; cell 1 fragments into (1,2), cell 2 shifts to 3
    smap = {0: (0,), 1: (1, 2), 2: (3,)}
    assert ActiveList([2, 1]).updated(smap).indices == (3, 1, 2)
    # fragment of a cell not on the list is appended
    assert ActiveList([2]).updated(smap).indices == (3, 1, 2)
    # fragments of several absent cells append in ascending order
    smap2 = {0: (0, 1), 1: (2,), 2: (3, 4)}
    assert ActiveList([1]).updated(smap2).indices == (2, 0, 1, 3, 4)


# --- degree operations --------------------------------------------------------


def _degree_oracle(graph, u, cell):
    cell = set(cell)
    return sum(1 for w in neighbors(graph, u) if int(w) in cell)


def test_degree_to_cell_p4_example():
    # deg(vertex 1, {0, 3}) on the path 0-1-2-3
    assert degree_to_cell(P4, 1, {0, 3}) == 1
    assert degree_to_cell(P4, 1, {0, 3}) == _degree_oracle(P4, 1, {0, 3})


def test_degree_to_cell_empty_and_full():
    assert degree_to_cell(P4, 2, set()) == 0
    for u in range(P4.n):
        assert degree_to_cell(P4, u, range(P4.n)) == degree(P4, u)


def test_degree_to_cell_validates():
    with pytest.raises(ValueError):
        degree_to_cell(P4, 9, {0})
    with pytest.raises(ValueError):
        degree_to_cell(P4, 0, {99})


def test_degree_to_cell_random_against_oracle():
    rng = np.random.default_rng(5)
    for seed in range(5):
        g = er_graph(30, 0.2, seed)
        for _ in range(50):
            u = int(rng.integers(g.n))
            cell = set(rng.choice(g.n, size=rng.integers(0, g.n), replace=False).tolist())
            assert degree_to_cell(g, u, cell) == _degree_oracle(g, u, cell)


def test_degree_vector_p4():
    p = Partition([[0, 3], [1, 2]])
    assert list(degree_vector(P4, 1, p)) == [1, 1]


def test_degree_vector_edge_cases():
    g = Graph.from_edges(3, [(0, 1)])  # vertex 2 isolated
    p = Partition([[0], [1], [2]])
    assert list(degree_vector(g, 2, p)) == [0, 0, 0]
    unit = unit_partition(3)
    assert list(degree_vector(g, 0, unit)) == [degree(g, 0)]
    for u in range(g.n):
        assert int(degree_vector(g, u, p).sum()) == degree(g, u)


# --- split ---------------------------------------------------------------------


def test_split_star_eps0():
    unit = unit_partition(4)
    f = STAR.degrees  # center 3, leaves 1
    out, smap = split(unit, f, 0)
    assert out.cells == ((1, 2, 3), (0,))  # leaves first: lower f
    assert smap == {0: (0, 1)}


def test_split_star_eps2_no_split():
    unit = unit_partition(4)
    out, smap = split(unit, STAR.degrees, 2)
    assert out.cells == unit.cells
    assert smap == {0: (0,)}


def test_split_constant_f_is_identity():
    p = Partition([[0, 1, 2], [3, 4]])
    out, smap = split(p, [7, 7, 7, 7, 7], 0)
    assert out.cells == p.cells
    assert all(len(v) == 1 for v in smap.values())


def test_split_greedy_grouping_from_group_first():
    # f = 0,1,2,3 with eps=1: groups {0,1}, {2,3} anchored at group minima
    p = unit_partition(4)
    out, _ = split(p, [0, 1, 2, 3], 1)
    assert out.cells == ((0, 1), (2, 3))
    # eps=2 -> {0,1,2},{3}
    out2, _ = split(p, [0, 1, 2, 3], 2)
    assert out2.cells == ((0, 1, 2), (3,))


def test_split_tie_break_is_vertex_id():
    p = Partition([[0, 1, 2, 3]])
    out, _ = split(p, [5, 0, 5, 0], 0)
    assert out.cells == ((1, 3), (0, 2))


def test_split_fragment_order_follows_f():
    p = Partition([[0, 1], [2, 3, 4]])
    out, smap = split(p, {0: 1, 1: 9, 2: 4, 3: 0, 4: 9}, 1)
    assert out.cells == ((0,), (1,), (3,), (2,), (4,))
    assert smap == {0: (0, 1), 1: (2, 3, 4)}


def test_split_rejects_negative_and_missing_f():
    p = unit_partition(3)
    with pytest.raises(ValueError):
        split(p, [1, -1, 0], 0)
    with pytest.raises(ValueError):
        split(p, {0: 1, 1: 2}, 0)
    with pytest.raises(ValueError):
        split(p, [1, 2], 0)


@given(st.lists(st.integers(0, 6), min_size=1, max_size=40),
       st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_split_preserves_vertex_multiset(fvals, eps):
    n = len(fvals)
    parts = unit_partition(n)
    out, smap = split(parts, fvals, eps)
    assert sorted(v for cell in out.cells for v in cell) == list(range(n))
    # refinement: every output cell sits inside one input cell
    assert set(smap[0]) == set(range(len(out)))
    # greedy rule: within each output cell, f spread from the first-sorted
    # member stays within eps
    for cell in out.cells:
        lo = min(fvals[v] for v in cell)
        assert all(fvals[v] - lo <= eps for v in cell)


# --- fast_eep -------------------------------------------------------------------


def test_fast_eep_p4():
    assert fast_eep(P4, 0).canonical().cells == ((0, 3), (1, 2))


def test_fast_eep_star_eps2_unit():
    assert fast_eep(STAR, 2).cells == ((0, 1, 2, 3),)


def test_fast_eep_edgeless():
    g = Graph.from_edges(5, [])
    for eps in (0, 1, 3):
        assert fast_eep(g, eps).cells == ((0, 1, 2, 3, 4),)


def test_fast_eep_rejects_negative_epsilon():
    with pytest.raises(ValueError):
        fast_eep(P4, -1)


def test_fast_eep_empty_graph():
    assert fast_eep(Graph.from_edges(0, []), 0).cells == ()


def test_fast_eep_matches_oracle_at_eps0():
    for seed in range(25):
        g = er_graph(24 + seed, 0.15, seed)
        assert fast_eep(g, 0).canonical() == equitable_oracle(g).canonical()


def test_fast_eep_satisfies_spread_bound():
    for seed in range(12):
        g = er_graph(40, 0.2, seed)
        for eps in (0, 1, 2, 5):
            assert epsilon_spread(g, fast_eep(g, eps)) <= eps


def test_epsilon_spread_matches_dense_matrix():
    # the graph family of acceptance criterion 2: n up to 512, ER and power law
    rng = np.random.default_rng(200)
    for trial in range(60):
        if trial % 2 == 0:
            n = int(rng.integers(4, 513))
            g = er_graph(n, float(rng.uniform(0.01, 0.15)), seed=1000 + trial)
        else:
            n = int(rng.integers(8, 513))
            g = generate_power_law(GeneratorConfig(n, float(rng.uniform(1.7, 2.9)),
                                                   seed=1000 + trial))
        labels = rng.integers(0, rng.integers(1, 12), size=g.n)
        arbitrary = Partition(
            np.flatnonzero(labels == lab) for lab in np.unique(labels))
        for part in (arbitrary, fast_eep(g, 0), fast_eep(g, 2), fast_eep(g, 8)):
            assert epsilon_spread(g, part) == epsilon_spread_dense(g, part), trial


def test_epsilon_spread_edge_cases():
    assert epsilon_spread(Graph.from_edges(5, []), unit_partition(5)) == 0
    assert epsilon_spread(STAR, unit_partition(4)) == 2
    assert epsilon_spread(STAR, Partition([[0], [1, 2, 3]])) == 0
    assert epsilon_spread(P4, Partition([[0, 1], [2, 3]])) == 1


def test_fast_eep_spread_bound_at_scale():
    g = generate_power_law(GeneratorConfig(30_000, 2.5, seed=30))
    for eps in (0, 1, 2, 5):
        assert epsilon_spread(g, fast_eep(g, eps)) <= eps


def test_fast_eep_at_paper_scale():
    # eps = 0 returns the oracle's cells in the oracle's (canonical) order
    g = generate_power_law(GeneratorConfig(200_000, 2.5, seed=7))
    assert fast_eep(g, 0) == equitable_oracle(g)
    for eps in (0, 1, 2, 5):
        assert epsilon_spread(g, fast_eep(g, eps)) <= eps


def test_fast_eep_deterministic():
    g = er_graph(60, 0.1, 3)
    assert fast_eep(g, 2).cells == fast_eep(g, 2).cells


def test_refinement_monotone_under_split():
    # each iteration only subdivides: final cells nest inside the first split
    g = er_graph(50, 0.15, 8)
    coarse = split(unit_partition(g.n), g.degrees, 1)[0]
    fine = fast_eep(g, 1)
    coarse_of = coarse.membership
    for cell in fine.cells:
        assert len({coarse_of[v] for v in cell}) == 1


# --- oracles & degree partition --------------------------------------------------


def test_equitable_oracle_examples():
    assert equitable_oracle(complete_graph(4)).cells == ((0, 1, 2, 3),)
    assert equitable_oracle(P4).cells == ((0, 3), (1, 2))
    assert equitable_oracle(STAR).cells == ((0,), (1, 2, 3))


def test_equitable_oracle_output_is_equitable():
    for seed in range(8):
        g = er_graph(30, 0.2, seed)
        assert epsilon_spread(g, equitable_oracle(g)) == 0


def _criterion_1_graphs():
    # the graph family of acceptance criterion 1: n up to 256, ER and power law
    rng = np.random.default_rng(100)
    for trial in range(200):
        if trial % 2 == 0:
            n = int(rng.integers(4, 257))
            yield er_graph(n, float(rng.uniform(0.02, 0.3)), seed=trial)
        else:
            n = int(rng.integers(8, 257))
            yield generate_power_law(GeneratorConfig(n, float(rng.uniform(1.7, 2.9)),
                                                     seed=trial))


def _snapshot_graphs():
    # a directed log over a power-law graph, 70% of edges answered later
    rng = np.random.default_rng(5)
    g = generate_power_law(GeneratorConfig(1500, 2.5, seed=5))
    lines = []
    for u, v in sorted(edge_set(g)):
        t = int(rng.integers(0, 1000))
        lines.append(f"v{u} v{v} {t}")
        if rng.random() < 0.7:
            lines.append(f"v{v} v{u} {t + int(rng.integers(0, 300))}")
    log = reciprocal_projection(load_temporal_edge_list(lines))
    return build_snapshots(log, SnapshotSpec((400, 700, 1300)))[0]


def test_equitable_oracle_matches_dense():
    graphs = list(_criterion_1_graphs())
    graphs += [generate_power_law(GeneratorConfig(2000, gamma, seed=7))
               for gamma in (2.1, 2.5)]
    graphs += _snapshot_graphs()
    # edge cases: no vertex, one vertex, no edge, isolated vertices
    graphs += [Graph.from_edges(0, []), Graph.from_edges(1, []),
               Graph.from_edges(5, []), Graph.from_edges(6, [(0, 1), (1, 2)]),
               er_graph(120, 0.01, 3)]
    assert len(graphs) == 210 and graphs[-1].degrees.min() == 0
    for i, g in enumerate(graphs):
        assert equitable_oracle(g) == equitable_oracle_dense(g), i
    assert equitable_oracle(Graph.from_edges(0, [])) == Partition(())
    assert equitable_oracle(Graph.from_edges(1, [])) == unit_partition(1)
    assert equitable_oracle(Graph.from_edges(5, [])) == unit_partition(5)
    assert (equitable_oracle(Graph.from_edges(6, [(0, 1), (1, 2)])).cells
            == ((0, 2), (1,), (3, 4, 5)))


def test_equitable_oracle_refuses_hash_collision(monkeypatch):
    # with every token weighing 0, the P4 end and middle signatures collide
    monkeypatch.setattr(netpos.partition, "_mix64", np.zeros_like)
    for refine in (equitable_oracle, lambda g: fast_eep(g, 0)):
        with pytest.raises(SignatureCollisionError, match="hash"):
            refine(P4)
    assert issubclass(SignatureCollisionError, RuntimeError)


def test_equitable_oracle_at_scale():
    g = generate_power_law(GeneratorConfig(50_000, 2.5, seed=7))
    oracle = equitable_oracle(g)
    assert oracle == fast_eep(g, 0).canonical()
    assert epsilon_spread(g, oracle) == 0


def test_degree_partition_examples():
    assert degree_partition(P4).cells == ((0, 3), (1, 2))
    assert degree_partition(complete_graph(5)).cells == ((0, 1, 2, 3, 4),)
    assert degree_partition(STAR).cells == ((1, 2, 3), (0,))  # ascending degree


# --- partition file format --------------------------------------------------------


def test_partition_file_roundtrip():
    p = fast_eep(P4, 0)
    buf = io.StringIO()
    write_partition_file(buf, p, header={"n": 4, "epsilon": 0,
                                         "algorithm": "eep",
                                         "graph_hash": P4.content_hash()})
    text = buf.getvalue()
    assert text.startswith("#")
    assert "\t" in text.splitlines()[1]
    p2, meta = read_partition_file(io.StringIO(text))
    assert p2 == p
    assert meta["n"] == "4" and meta["algorithm"] == "eep"
    assert meta["graph_hash"] == P4.content_hash()


def test_partition_file_rejects_garbage():
    with pytest.raises(ParseError):
        read_partition_file(io.StringIO("0\t1 2\n2\t3\n"))  # index gap
    with pytest.raises(ParseError):
        read_partition_file(io.StringIO("nope\n"))
    for text, line in (("0\t0 1\n1\t1 2\n", 2),   # repeated across cells
                       ("0\t3\n1\t0 1 1 2\n", 2)):  # repeated within a cell
        with pytest.raises(ParseError, match="vertex 1 appears more than once") as err:
            read_partition_file(io.StringIO(text))
        assert err.value.line_no == line
    with pytest.raises(ParseError, match="line 1: bad cell line"):   # past int64
        read_partition_file(io.StringIO(f"0\t1 {2**63}\n"))
    for text in ("0\t1 -3\n", "0\t1\n1\t-3\n"):   # the first line has no fault
        with pytest.raises(ParseError, match="negative vertex id -3") as err:
            read_partition_file(io.StringIO(text))
        assert err.value.line_no == text.count("\n")


def _partition_file_cases():
    rng = np.random.default_rng(11)
    yield Partition(())
    yield discrete_partition(range(7))
    yield unit_partition(300)
    for _ in range(20):   # sparse universes with ids up to 2**62, cells shuffled
        universe = np.unique(rng.integers(0, 2**62, size=int(rng.integers(1, 60))))
        labels = rng.integers(0, int(rng.integers(1, 9)), size=universe.size)
        yield Partition(universe[labels == lab]
                        for lab in rng.permutation(np.unique(labels)))
    g = generate_power_law(GeneratorConfig(3000, 2.5, seed=3))
    yield fast_eep(g, 0)
    yield fast_eep(g, 2)


def test_partition_file_matches_reference_writer_and_reader():
    for case, part in enumerate(_partition_file_cases()):
        header = {"n": part.n_vertices, "epsilon": 2}
        ref = io.StringIO()
        write_partition_file_ref(ref, part, header=header)
        # the writer formats a chunk of ids at a time, cells crossing chunks
        for chunk in (1, 3, netpos.partition._CHUNK_IDS):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(netpos.partition, "_CHUNK_IDS", chunk)
                buf = io.StringIO()
                write_partition_file(buf, part, header=header)
            assert buf.getvalue() == ref.getvalue(), (case, chunk)
        text = buf.getvalue()
        got, meta = read_partition_file(io.StringIO(text))
        want, want_meta = read_partition_file_ref(io.StringIO(text))
        assert got == want == part and meta == want_meta, case
        assert len(got) == len(part) and got.cells == part.cells, case


def _reader_outcome(read, text):
    """What a partition reader makes of ``text``: the partition, or its error
    message and line number."""
    try:
        return read(io.StringIO(text))[0]
    except ParseError as err:
        return str(err), err.line_no


def _expected_outcome(text):
    """The reference reader's outcome, but for ids outside [0, 2**63), which
    the reference passes. Up to its error line, the first cell line that
    holds one fails: as a bad cell line past int64, and as a negative id once
    its index is right."""
    try:
        want = _reader_outcome(read_partition_file_ref, text)
    except OverflowError:   # it parsed every line, but an id is past int64
        want = None
    last = want[1] if isinstance(want, tuple) else None
    index = 0
    for line_no, line in enumerate(text.split("\n")[:last], 1):
        try:
            head, ids = line.split("\t", 1)
            head, ids = int(head), [int(t) for t in ids.split()]
        except ValueError:
            continue    # a blank, comment or bad line
        if not -2**63 <= min(ids, default=0) <= max(ids, default=0) < 2**63:
            return f"line {line_no}: bad cell line", line_no
        if head != index:
            break
        if min(ids, default=0) < 0:
            return f"line {line_no}: negative vertex id {min(ids)}", line_no
        index += 1
    return want


@pytest.mark.parametrize("chunk", [1, 2, 5, 4096])
def test_partition_file_errors_across_id_chunks(chunk):
    # the reader parses a block of about 64K characters at a time: a fault in
    # one block must still lose to a fault on an earlier line, and win over
    # one on a later line, whichever blocks they fall in. Cells of about
    # ``chunk`` ids fill some 150K characters around one cell line longer
    # than a block
    faults = ["{i}\t91 x", "{i}\t-4 92", "{i}\t", "{j}\t93", "x{i}\t94", "{i} 95",
              "{i}\t-5 y", "{j}\t-6 z"]   # ids that no cell holds
    rng = np.random.default_rng(chunk)
    for _ in range(12):
        sizes = rng.integers(1, 2 * chunk + 1, size=150_000 // (8 * chunk + 3))
        sizes[rng.integers(sizes.size)] = 9_000        # 72K characters
        lines, first = [], 1_000_000
        for i, size in enumerate(sizes.tolist()):
            lines.append(f"{i}\t" + " ".join(map(str, range(first, first + size))))
            first += size
            if rng.random() < 0.1:
                lines.append("# k=v" if rng.random() < 0.5 else "")
        # up to three faults, in different thirds of the file; or, alone, a
        # cell that repeats the first id of cell 0, which a fault of format or
        # value on any line would beat
        thirds = rng.choice(3, int(rng.integers(0, 4)), replace=False)
        for third in thirds:
            at = int(rng.integers(third * len(lines) // 3, (third + 1) * len(lines) // 3))
            i = int(lines[at].split("\t")[0]) if "\t" in lines[at] else 0
            lines[at] = faults[int(rng.integers(len(faults)))].format(i=i, j=i + 1)
        if not thirds.size:
            at = int(rng.integers(1, len(lines)))
            if "\t" in lines[at]:
                lines[at] += " 1000000"
        text = "".join(line + "\n" for line in lines)
        want = _expected_outcome(text)
        got = _reader_outcome(read_partition_file, text)
        assert got == want, text[:200]


_SPELLED_IDS = ["007", "+5", "-0", "1_0", "\u0663", "\uff15", str(2**63 - 1),
                str(2**63), "1.5", "-3"]
_CELL_GAPS = [" ", "\t", "\u0085", "\u00a0", "\u3000", "\x1c", "\r"]


@st.composite
def _partition_text(draw):
    """Partition file text: cell lines with odd id spellings, separators and
    index fields, comments with and without '=', blank lines. No id is held
    twice, so the only faults are of format and value."""
    lines, used, fresh, index = [], set(), 100, 0
    for kind in draw(st.lists(st.sampled_from(["cell"] * 3 + ["comment", "blank"]),
                              max_size=8)):
        if kind == "comment":
            lines.append("#" + " ".join(draw(st.lists(
                st.sampled_from(["n=3", "k=v=w", "x", "=", "a=", "é=1"]), max_size=3))))
            continue
        if kind == "blank":
            lines.append("".join(draw(st.lists(st.sampled_from(_CELL_GAPS), max_size=3))))
            continue
        ids = []
        for spelled in draw(st.lists(st.sampled_from(_SPELLED_IDS + [None] * 4),
                                     max_size=5)):
            try:
                value = int(spelled)
            except (TypeError, ValueError):
                value = None
            if spelled is None or value in used:
                spelled, value, fresh = str(fresh), fresh, fresh + 1
            used.add(value)
            ids.append(spelled)
        head = draw(st.sampled_from([str(index)] * 6 + [
            f"00{index}", f"+{index}", f" {index}", f"{index} ", str(index + 1), "x",
            "", f"{index} {index}"]))
        tab = draw(st.sampled_from(["\t"] * 6 + [" ", " \t", "\t\t"]))
        gaps = draw(st.lists(st.lists(st.sampled_from(_CELL_GAPS), min_size=1, max_size=2),
                             min_size=len(ids), max_size=len(ids)))
        lines.append(head + tab + "".join("".join(g) + t for g, t in zip(gaps, ids)))
        index += 1
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(text=_partition_text())
@example(text="0\t5\n1 \x1c\t6\n")      # int() refuses 0x1C-0x1F around the index
def test_partition_reader_matches_per_line_reference(text):
    want = _expected_outcome(text)
    got = _reader_outcome(read_partition_file, text)
    assert got == want


@pytest.mark.parametrize("per_line", [200_000, 1], ids=["one-line", "id-per-line"])
def test_partition_file_read_peaks_under_96_bytes_per_id(per_line):
    ids = np.random.default_rng(4).permutation(200_000).tolist()
    text = "# n=200000\n" + "".join(
        f"{i}\t{' '.join(map(str, ids[lo:lo + per_line]))}\n"
        for i, lo in enumerate(range(0, len(ids), per_line)))
    stream = io.StringIO(text)
    (part, _), _, peak = traced(lambda: read_partition_file(stream))
    assert part.n_vertices == 200_000 and len(part) == 200_000 // per_line
    assert peak <= 96 * 200_000


def test_partition_file_with_a_cell_line_of_many_blocks_matches_reference():
    # one cell line of 130k ids spans more than 8 of the tokenizer's
    # 64K-character blocks, and ends in the middle of one
    ids = np.random.default_rng(6).permutation(130_000).tolist()
    line = "0\t" + " ".join(map(str, ids)) + "\n"
    assert len(line) >= 8 << 16
    text = "# n=130001 note=long\n" + line + "1\t130000"
    blocks = list(_blocks(io.StringIO(text).read))
    assert blocks == ["# n=130001 note=long\n", line, "1\t130000\n"]
    got, meta = read_partition_file(io.StringIO(text))
    want, want_meta = read_partition_file_ref(io.StringIO(text))
    assert got == want and meta == want_meta
    assert len(got) == 2 and got.n_vertices == 130_001


def test_partition_file_errors_match_reference():
    texts = ["0\t1 2\n2\t3\n", "nope\n", "1\t1\n", "0\t1 2\n0\t3\n",
             "0\t\n", "0\t1 x\n", "x\t1\n", "0\t1.5\n",
             "# n=3\n\n0\t1 2\n1\t2 3\n",
             "0\t0 1\n1\t1 2\n", "0\t3\n1\t0 1 1 2\n",
             "0\t5 1\n1\t9 9\n2\t1\n",     # line 2, although vertex 1 repeats later
             "0\t7 7\n1\t1\n2\t1\n", "0\t4 5\n1\t6 6 4\n", "0\t2 1\n1\t4 3 2\n2\t1\n"]
    rng = np.random.default_rng(5)
    for _ in range(200):   # repeats only: random cells over a small id range
        cells = [rng.integers(0, 30, size=int(rng.integers(1, 6))) for _ in range(6)]
        texts.append("".join(f"{i}\t{' '.join(map(str, c))}\n"
                             for i, c in enumerate(cells)))
    failures = 0
    for text in texts:
        try:
            want = read_partition_file_ref(io.StringIO(text))[0]
        except ParseError as ref_err:
            failures += 1
            with pytest.raises(ParseError) as err:
                read_partition_file(io.StringIO(text))
            got = (str(err.value), err.value.line_no)
            assert got == (str(ref_err), ref_err.line_no), text
        else:
            assert read_partition_file(io.StringIO(text))[0] == want, text
    assert failures > len(texts) // 2
