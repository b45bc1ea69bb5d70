import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netpos import (GeneratorConfig, Graph, Partition, degree_partition,
                    epsilon_spread, equitable_oracle, fast_eep,
                    generate_power_law, read_partition_file,
                    write_partition_file)

from helpers import complete_graph, er_graph, path_graph, star_graph
from oracles import (ActiveList, degree_to_cell, degree_vector,
                     epsilon_spread_dense, split)

P4 = path_graph(4)          # 0-1-2-3
STAR = star_graph(3)        # center 0, leaves 1..3


# --- Partition model ---------------------------------------------------------


def test_partition_from_cells_normalizes():
    p = Partition.from_cells([[3, 1], [2], [0]])
    assert p.cells == ((1, 3), (2,), (0,))
    assert p.membership.tolist() == [2, 0, 1, 0]
    assert len(p) == 3 and p.n_vertices == 4


def test_partition_rejects_bad_cells():
    with pytest.raises(ValueError):
        Partition.from_cells([[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        Partition.from_cells([[1], []])


def test_partition_canonical_sorts_by_min_member():
    p = Partition.from_cells([[5, 6], [1, 2], [3]])
    assert p.canonical().cells == ((1, 2), (3,), (5, 6))


def test_partition_unit_discrete():
    assert Partition.unit(3).cells == ((0, 1, 2),)
    assert Partition.unit(0).cells == ()
    assert Partition.discrete([2, 0, 1]).is_discrete()


def test_membership_array_requires_dense():
    p = Partition.from_cells([[0, 2], [1]])
    assert list(p.membership_array(3)) == [0, 1, 0]
    with pytest.raises(ValueError):
        Partition.from_cells([[5]]).membership_array(1)


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
    return sum(1 for w in graph.neighbors(u) if int(w) in cell)


def test_degree_to_cell_p4_example():
    # deg(vertex 1, {0, 3}) on the path 0-1-2-3
    assert degree_to_cell(P4, 1, {0, 3}) == 1
    assert degree_to_cell(P4, 1, {0, 3}) == _degree_oracle(P4, 1, {0, 3})


def test_degree_to_cell_empty_and_full():
    assert degree_to_cell(P4, 2, set()) == 0
    for u in range(P4.n):
        assert degree_to_cell(P4, u, range(P4.n)) == P4.degree(u)


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
    p = Partition.from_cells([[0, 3], [1, 2]])
    assert list(degree_vector(P4, 1, p)) == [1, 1]


def test_degree_vector_edge_cases():
    g = Graph.from_edges(3, [(0, 1)])  # vertex 2 isolated
    p = Partition.from_cells([[0], [1], [2]])
    assert list(degree_vector(g, 2, p)) == [0, 0, 0]
    unit = Partition.unit(3)
    assert list(degree_vector(g, 0, unit)) == [g.degree(0)]
    for u in range(g.n):
        assert int(degree_vector(g, u, p).sum()) == g.degree(u)


# --- split ---------------------------------------------------------------------


def test_split_star_eps0():
    unit = Partition.unit(4)
    f = STAR.degrees  # center 3, leaves 1
    out, smap = split(unit, f, 0)
    assert out.cells == ((1, 2, 3), (0,))  # leaves first: lower f
    assert smap == {0: (0, 1)}


def test_split_star_eps2_no_split():
    unit = Partition.unit(4)
    out, smap = split(unit, STAR.degrees, 2)
    assert out.cells == unit.cells
    assert smap == {0: (0,)}


def test_split_constant_f_is_identity():
    p = Partition.from_cells([[0, 1, 2], [3, 4]])
    out, smap = split(p, [7, 7, 7, 7, 7], 0)
    assert out.cells == p.cells
    assert all(len(v) == 1 for v in smap.values())


def test_split_greedy_grouping_from_group_first():
    # f = 0,1,2,3 with eps=1: groups {0,1}, {2,3} anchored at group minima
    p = Partition.unit(4)
    out, _ = split(p, [0, 1, 2, 3], 1)
    assert out.cells == ((0, 1), (2, 3))
    # eps=2 -> {0,1,2},{3}
    out2, _ = split(p, [0, 1, 2, 3], 2)
    assert out2.cells == ((0, 1, 2), (3,))


def test_split_tie_break_is_vertex_id():
    p = Partition.from_cells([[0, 1, 2, 3]])
    out, _ = split(p, [5, 0, 5, 0], 0)
    assert out.cells == ((1, 3), (0, 2))


def test_split_fragment_order_follows_f():
    p = Partition.from_cells([[0, 1], [2, 3, 4]])
    out, smap = split(p, {0: 1, 1: 9, 2: 4, 3: 0, 4: 9}, 1)
    assert out.cells == ((0,), (1,), (3,), (2,), (4,))
    assert smap == {0: (0, 1), 1: (2, 3, 4)}


def test_split_rejects_negative_and_missing_f():
    p = Partition.unit(3)
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
    parts = Partition.unit(n)
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
        arbitrary = Partition.from_cells(
            np.flatnonzero(labels == lab) for lab in np.unique(labels))
        for part in (arbitrary, fast_eep(g, 0), fast_eep(g, 2), fast_eep(g, 8)):
            assert epsilon_spread(g, part) == epsilon_spread_dense(g, part), trial


def test_epsilon_spread_edge_cases():
    assert epsilon_spread(Graph.from_edges(5, []), Partition.unit(5)) == 0
    assert epsilon_spread(STAR, Partition.unit(4)) == 2
    assert epsilon_spread(STAR, Partition.from_cells([[0], [1, 2, 3]])) == 0
    assert epsilon_spread(P4, Partition.from_cells([[0, 1], [2, 3]])) == 1


def test_fast_eep_spread_bound_at_scale():
    g = generate_power_law(GeneratorConfig(30_000, 2.5, seed=30))
    for eps in (0, 1, 2, 5):
        assert epsilon_spread(g, fast_eep(g, eps)) <= eps


def test_fast_eep_deterministic():
    g = er_graph(60, 0.1, 3)
    assert fast_eep(g, 2).cells == fast_eep(g, 2).cells


def test_refinement_monotone_under_split():
    # each iteration only subdivides: final cells nest inside the first split
    g = er_graph(50, 0.15, 8)
    coarse = split(Partition.unit(g.n), g.degrees, 1)[0]
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
    from netpos import ParseError
    with pytest.raises(ParseError):
        read_partition_file(io.StringIO("0\t1 2\n2\t3\n"))  # index gap
    with pytest.raises(ParseError):
        read_partition_file(io.StringIO("nope\n"))
    for text, line in (("0\t0 1\n1\t1 2\n", 2),   # repeated across cells
                       ("0\t3\n1\t0 1 1 2\n", 2)):  # repeated within a cell
        with pytest.raises(ParseError, match="vertex 1 appears more than once") as err:
            read_partition_file(io.StringIO(text))
        assert err.value.line_no == line
