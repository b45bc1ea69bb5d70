import functools
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import netpos.partition
from netpos import (EngineConfig, GeneratorConfig, Graph, IterationLimitError,
                    Partition, SignatureCollisionError, VertexLabelMap,
                    coevolution_report, compute_measures,
                    epsilon_spread, fast_eep, generate_power_law, load_edge_list,
                    overlap_matrix, pair_difference_histogram, read_partition_file,
                    run_refinement, same_position_pairs, write_partition_file)

from helpers import (edge_set, er_graph, pa_snapshots, path_graph, star_graph,
                     unit_partition)
from oracles import ActiveList, degree_to_cell, split

P4 = path_graph(4)


# --- EngineConfig.workers, which has no effect on the cells -----------------------


def test_parallel_single_worker_equals_serial():
    g = er_graph(80, 0.1, 5)
    for eps in (0, 2):
        assert run_refinement(g, eps, EngineConfig(workers=1))[0].cells == \
            fast_eep(g, eps).cells


def test_parallel_p4():
    assert run_refinement(P4, 0, EngineConfig(workers=4))[0].canonical().cells == \
        ((0, 3), (1, 2))


def test_parallel_matches_serial_across_worker_counts():
    g = generate_power_law(GeneratorConfig(10_000, 2.5, seed=7))
    want = fast_eep(g, 5).cells
    for p in (1, 2, 4, 8):
        assert run_refinement(g, 5, EngineConfig(workers=p))[0].cells == want


# --- run_refinement -----------------------------------------------------------------


def test_iteration_cap_raises_with_diagnostics():
    g = er_graph(64, 0.3, 9)
    # at eps = 0 the cap counts rounds, and this graph settles in two
    for eps, cap in ((1, 2), (0, 1)):
        with pytest.raises(IterationLimitError) as err:
            run_refinement(g, eps, EngineConfig(workers=1, iteration_cap=cap))
        assert err.value.iterations == cap
        assert err.value.cells >= 1


def test_path_settles_one_layer_per_round():
    # each eps = 0 round splits off the next pair of mirror vertices {i, n-1-i}
    n = 20_000
    part, stats = run_refinement(path_graph(n), 0)
    assert part.cells == tuple((i, n - 1 - i) for i in range(n // 2))
    assert stats.iterations == n // 2


def test_stats_and_work_metric():
    g = er_graph(60, 0.15, 4)
    part, stats = run_refinement(g, 1, EngineConfig(collect_work=True))
    assert stats.cells == len(part)
    # the first active cell is the unit cell, whose volume is all 2m entries
    assert stats.map_work >= 2 * g.m > 0
    _, quiet = run_refinement(g, 1)
    assert quiet.map_work == 0 and quiet.iterations == stats.iterations


def test_split_counters():
    g = generate_power_law(GeneratorConfig(3000, 2.5, seed=2))
    for eps in (0, 2):
        part, stats = run_refinement(g, eps)
        assert stats.splits > 1 and stats.fragments > stats.splits
        assert stats.cells == len(part) == 1 + stats.fragments - stats.splits


def test_progress_log_is_key_value(capsys):
    g = er_graph(40, 0.2, 6)
    run_refinement(g, 0, EngineConfig(workers=1, progress_interval=1))
    lines = capsys.readouterr().err.splitlines()
    assert lines
    msg = lines[0]
    assert msg.startswith("iter=") and "active=" in msg and "cells=" in msg \
        and "elapsed_ms=" in msg


def _disjoint_union(a, b):
    shifted = [(u + a.n, w + a.n) for u, w in sorted(edge_set(b))]
    return Graph.from_edges(a.n + b.n, sorted(edge_set(a)) + shifted)


def test_public_map_reduce_loop_matches_fast_eep():
    # an independent refinement loop built from the per-vertex reference pieces;
    # the later inputs have active cells that split several cells at once, some
    # fully touched and some partly, and isolated vertices (er_graph(60, ...));
    # the last two revisit the first cell, whose degrees run_refinement keeps
    # by subtraction, after it lost at most eps members
    cases = [(er_graph(30, 0.2, seed), (0, 1, 2)) for seed in range(6)]
    sparse = er_graph(60, 0.03, 2)
    assert (sparse.degrees == 0).sum() > 0
    for g in (star_graph(12), _disjoint_union(path_graph(9), star_graph(7)), sparse,
              generate_power_law(GeneratorConfig(300, 2.3, seed=5)),
              generate_power_law(GeneratorConfig(200, 2.5, seed=2)),
              generate_power_law(GeneratorConfig(400, 2.5, seed=3))):
        cases.append((g, (0, 1, 2, 3)))
    few_left = 0   # revisits of the first cell after it lost 1 to eps members
    for case, (g, epsilons) in enumerate(cases):
        for eps in epsilons:
            part = unit_partition(g.n)
            active = ActiveList([0])
            steps = volume = 0
            first = None   # the first cell's size at its last visit
            while active and len(part) < g.n:
                index = active.pop_min()
                ca = part.cells[index]
                if index == 0 and eps:
                    if first is not None and case >= len(cases) - 2:
                        few_left += 1 <= first - len(ca) <= eps
                    first = len(ca)
                f = [degree_to_cell(g, v, ca) for v in range(g.n)]
                part, split_map = split(part, f, eps)
                active = active.updated(split_map)
                steps += 1
                volume += int(g.degrees[list(ca)].sum())
                assert steps < 16 * g.n
            got, stats = run_refinement(g, eps, EngineConfig(collect_work=True))
            assert got == fast_eep(g, eps), (case, eps)
            if eps == 0:   # rounds: the same cells, in canonical order
                assert part.canonical() == got, case
                continue
            assert part == got, (case, eps)
            assert (stats.iterations, stats.map_work) == (steps, volume), (case, eps)
    assert few_left >= 2


@pytest.mark.parametrize("eps", [1, 2, 5])
def test_small_active_cells_skip_the_gather(monkeypatch, eps):
    # no vertex has more neighbours in the active cell than the cell has
    # members, so an active cell of at most eps members cannot split a cell
    # and is never gathered; the vertices that left the first cell, whose
    # adjacency is gathered on its revisits, may be fewer
    cells, gathered = [], []
    classes, adjacent = netpos.partition._epsilon_classes, Graph.adjacent

    def recording_classes(graph, perm, start, cell_of, cell_end, *rest):
        cells.append(np.sort(perm[start:cell_end[start]]))
        return classes(graph, perm, start, cell_of, cell_end, *rest)

    def counting_adjacent(self, vertices):
        if np.array_equal(np.sort(vertices), cells[-1]):   # the active cell
            gathered.append(len(vertices))
        return adjacent(self, vertices)

    g = generate_power_law(GeneratorConfig(2000, 2.3, seed=3))
    monkeypatch.setattr(netpos.partition, "_epsilon_classes", recording_classes)
    monkeypatch.setattr(Graph, "adjacent", counting_adjacent)
    stats = run_refinement(g, eps, EngineConfig(collect_work=True))[1]
    assert len(cells) == stats.iterations and min(map(len, cells)) <= eps
    assert gathered and min(gathered) > eps
    # the iterations that gather nothing still count their active cell's volume
    assert stats.map_work == sum(int(g.degrees[cell].sum()) for cell in cells)


# --- refinement order, pinned -------------------------------------------------------
# (graph, eps, iterations, map_work, cells, SHA-256 of the cells in partition order,
# SHA-256 of the cells in canonical order). The eps > 0 rows were recorded from the
# earlier list-based loop (stable cell ids, an active list popped at its lowest
# position) and every loop since must reproduce them. The canonical digests were
# recorded from the one-cell-per-iteration loop before eps = 0 moved to rounds;
# the rounds re-recorded only the eps = 0 order digest (now the canonical one),
# iterations (now rounds) and map_work.
PINNED = [
    ("power_law-2000-2.1", 0, 6, 14225, 977,
     "c841c695730c28809bc5492548b421f06c8440c0275608f40059c661007390cf",
     "c841c695730c28809bc5492548b421f06c8440c0275608f40059c661007390cf"),
    ("power_law-2000-2.1", 1, 104, 14979, 94,
     "bab897e559ff9a14ac912ffd11eee85c8881fafd49dd6849f2a0e6661695e4f3",
     "e94ad3fb22108400e179a0550e8fcbfcd4b8bc0fa5d550123291f71203d3906d"),
    ("power_law-2000-2.1", 2, 54, 14113, 50,
     "5cb83f8a8234076544dec58bbf38f1dcf4ab7d1437d1dfd9d85e62a5e53ed75d",
     "118f94bc5f1c9d3b27953ffeba40f620142c5b3d9ac8f5941a4944506b4ed795"),
    ("power_law-2000-2.1", 5, 24, 11224, 23,
     "fd4a24633190257100dd13bd8ada579f4dd6bfb73e5c0931fb627262744be8d6",
     "e5aac0acc4cc58f4e3df7f1d5bff026aa09c0e74f79f9da4afd7e7cb3108af53"),
    ("power_law-2000-2.5", 0, 6, 8453, 623,
     "8ab676555b8f6d49f036df5f059960a77ded029b7918277474ad5d40ae143a7b",
     "8ab676555b8f6d49f036df5f059960a77ded029b7918277474ad5d40ae143a7b"),
    ("power_law-2000-2.5", 1, 57, 8854, 51,
     "1d751e80958c152e0e0167d55a8ef55e54f100ed25eeeda547821d25660da9ff",
     "1c816846e6cda36037847f20a4635fa79cdd6e35a38f4e97a22e33e36444ba32"),
    ("power_law-2000-2.5", 2, 24, 7113, 22,
     "1b5edd787204fab258e6eace7e26eccfdce84828fdbf67efb5211121efeaa8f0",
     "35bc0a9c8ca5d861c288caeee67d06bcfba3ff126313caf328ec29d669876315"),
    ("power_law-2000-2.5", 5, 10, 6772, 9,
     "8fa911f158b5f2ded1f6ad1638914e22dd71f39e3ccdd8f68e13ff4c261bbe2d",
     "474b85884340252e3cc049b503b0dab4ad2fcebc10ebdd01e25715c735c2e98d"),
    ("power_law-5000-2.1", 0, 7, 40229, 2440,
     "94a11b8e7a17f7cc2e9563a8bcce27ceddad055298b52e5a74c0472a00a33c0c",
     "94a11b8e7a17f7cc2e9563a8bcce27ceddad055298b52e5a74c0472a00a33c0c"),
    ("power_law-5000-2.1", 1, 185, 55626, 170,
     "58f96e85436d987d4e43673349dbc20df64228112203220f238e091082938f0e",
     "d34c0174d6b53cc82579d4ce09beeae052a6a2c7c1d75ea5bf5572014c6fa04c"),
    ("power_law-5000-2.1", 2, 85, 37975, 82,
     "226fc0c0a63daf5ccb7836ce8a164ac04311ae0283b262aa091232757753e2a4",
     "3ab39b69eaf862500981bfb037397070ddae22a525942e594cce53e98314b721"),
    ("power_law-5000-2.1", 5, 37, 30964, 36,
     "56f4855d4d9b7070b465954e68b0a314d68769561322d465c29496d25345b612",
     "e8b0558c975c0bf9bcf4ac3765ddc5f4b9791ca7b0901735fb8fde01189af10f"),
    ("power_law-5000-2.5", 0, 7, 22669, 1611,
     "42feabd4cc7fd409bb9194a1e9c8a33e1e93771abbd7a9cace8f09d621a451fa",
     "42feabd4cc7fd409bb9194a1e9c8a33e1e93771abbd7a9cace8f09d621a451fa"),
    ("power_law-5000-2.5", 1, 99, 34490, 88,
     "bab443c3e8f1706a2f03aed3ff7cce8a07cbf07a9b2049d568c36df617747d5a",
     "936fb8c151a365582bb8e78d82e1ae7573144246444ccf52f7aa92ca2570b51b"),
    ("power_law-5000-2.5", 2, 36, 23466, 34,
     "1c8064f10afe09c051b2ccd64a015c60df279323448e59813ca3cdb9fe731796",
     "fdcebadf471a6f09cfa374a0e72292503831d35ec9146e4b4ac35f57a930bc50"),
    ("power_law-5000-2.5", 5, 17, 24534, 15,
     "a66f256d9fd80391e0d8298327c36b6c43b8d3e0e79fe93ab7dca8cf7703144e",
     "a6a4960869607dd6b379d1d091d4ab1d93c9fa34b7fc784315e4aeddf48a0e36"),
    ("er-400-0.004", 0, 6, 2337, 293,
     "8d73284a45be33e2e755bb7b3a056e23018f7d8095d27215aac988be6d700b19",
     "8d73284a45be33e2e755bb7b3a056e23018f7d8095d27215aac988be6d700b19"),
    ("er-400-0.004", 1, 27, 2449, 20,
     "216e48344307a0745bf74f6b595f9e5b83e7c58752067c1ea25a1da712f5ec6e",
     "e1e5d323ac8ac87dc999e5e463091d7eb41f0b51fb3adf5a4c3d68c3cd102415"),
    ("er-400-0.004", 2, 9, 1680, 7,
     "745974ffdd1e130a909e5c9f1ed6eccee248bc91bf621afda0402d855cd5f829",
     "333b0bb63ca13202637a6250e3233f2d195e0e78dea2b42b164b9ddec3f924a5"),
]


@functools.lru_cache(maxsize=None)
def _pinned_graph(name):
    kind, n, param = name.split("-")
    if kind == "power_law":
        return generate_power_law(GeneratorConfig(int(n), float(param), seed=11))
    g = er_graph(int(n), float(param), 3)
    assert (g.degrees == 0).sum() > 0   # isolated vertices
    return g


def _cells_digest(part):
    text = "\n".join(" ".join(map(str, cell)) for cell in part.cells)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name, eps, iterations, map_work, cells, digest, canonical",
                         PINNED, ids=[f"{name}-eps{eps}" for name, eps, *_ in PINNED])
def test_refinement_order_pinned(name, eps, iterations, map_work, cells, digest,
                                 canonical):
    part, stats = run_refinement(_pinned_graph(name), eps,
                                 EngineConfig(collect_work=True))
    assert _cells_digest(part.canonical()) == canonical
    assert _cells_digest(part) == digest
    assert (stats.iterations, stats.map_work, stats.cells) == \
        (iterations, map_work, cells)
    assert stats.cells == len(part) == 1 + stats.fragments - stats.splits


# (eps, iterations, map_work, cells, splits, fragments, SHA-256 of the membership
# array as little-endian int64) on the 200k-vertex power-law graph. The eps > 0
# rows were recorded before the degrees toward the first cell were kept by
# subtraction; the first cell holds most vertices there and is revisited many
# times. The eps = 0 row was recorded while round 1 still tallied its 2m entries
AT_200K = [
    (0, 8, 1071194, 66197, 6008, 72204,
     "3343513de33ea12bf5d726ed423fcf3f6306a2417ea03247671ca1c7538fe478"),
    (1, 1475, 4118915, 1360, 1009, 2368,
     "940bca70217d5b07db1aa1ef0b217300fe084afb06347c7caf054584e120e401"),
    (2, 513, 1380635, 497, 325, 821,
     "8878021a1a0fda2cd3c1707c3a513464eb20462d7c2f327cb703763b57d52fe7"),
    (5, 126, 1036701, 124, 54, 177,
     "d1c0930fbe7f78cb4f5f66772338a7790e1c1417d2ecf49445fed2101cb4f29c"),
]


def test_refinement_at_200k_pinned():
    g = generate_power_law(GeneratorConfig(200_000, 2.5, seed=7))
    for eps, *counters, digest in AT_200K:
        part, stats = run_refinement(g, eps, EngineConfig(collect_work=True))
        assert [stats.iterations, stats.map_work, stats.cells, stats.splits,
                stats.fragments] == counters, eps
        memb = np.ascontiguousarray(part.membership, "<i8")
        assert hashlib.sha256(memb).hexdigest() == digest, eps
        assert epsilon_spread(g, part) <= eps


# --- round 1 at eps = 0: the degree classes, without a tally ----------------------


def _unit_state(n):
    """perm, cell_of, cell_end and pending of the unit partition, as refinement starts."""
    cell_end = np.zeros(n, dtype=np.int64)
    cell_end[0] = n
    return np.arange(n), np.zeros(n, dtype=np.int64), cell_end, np.zeros(1, dtype=np.int64)


def _tallied_round(graph):
    """The touched vertices, classes and volume of a round over the unit cell,
    counted as every later round counts them: ``Graph.tally``, then
    ``_signature_classes`` over the (splitter, count) lists."""
    perm, cell_of, _, _ = _unit_state(graph.n)
    (touched, token), count, volume = graph.tally(perm, cell_of)
    bounds = np.arange(touched.size + 1)   # one (splitter 0, count) pair each
    label = netpos.partition._signature_classes(cell_of[touched],
                                                token * (graph.n + 1) + count, bounds)
    order = label.argsort(kind="stable")
    return touched[order], label[order], volume


def _classes(touched, label):
    """The vertex set of each class, in class order; classes must be contiguous."""
    bounds = np.flatnonzero(np.diff(label, prepend=-1, append=-1))
    assert np.unique(label).size == bounds.size - 1
    return [sorted(touched[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]


def _cycle(n):
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


@pytest.mark.parametrize("name", ["er-400-0.004", "cycle-300", "power_law-2000-2.1"])
def test_round_one_is_the_tallied_round(monkeypatch, name):
    g = _cycle(300) if name == "cycle-300" else _pinned_graph(name)
    touched, label, volume = netpos.partition._splitter_classes(g, *_unit_state(g.n))
    want_touched, want_label, want_volume = _tallied_round(g)
    assert volume == want_volume == g.indices.size
    assert _classes(touched, label) == _classes(want_touched, want_label)
    assert label.tolist() == sorted(label.tolist())
    # isolated vertices are untouched; a cycle is one class
    assert touched.size == int((g.degrees > 0).sum())
    assert len(_classes(touched, label)) == np.unique(g.degrees[g.degrees > 0]).size
    # with every token weighing 0, distinct degrees share a digest
    monkeypatch.setattr(netpos.partition, "_mix64", np.zeros_like)
    if name == "cycle-300":
        assert _classes(*netpos.partition._splitter_classes(g, *_unit_state(g.n))[:2]) \
            == [list(range(g.n))]
    else:
        with pytest.raises(SignatureCollisionError, match="hash"):
            netpos.partition._splitter_classes(g, *_unit_state(g.n))


# --- Graph.tally over one cell, the map phase of an eps > 0 iteration --------------


def _dense_degrees(graph, cell):
    """The tally's sparse (touched, counts) output as a length-n f, and the volume."""
    (touched, group), counts, volume = graph.tally(cell, np.zeros_like(cell))
    assert np.all(np.diff(touched) > 0) and np.all(counts >= 1)
    assert not group.any()
    f = np.zeros(graph.n, dtype=np.int64)
    f[touched] = counts
    return f, volume


def test_map_degrees_p4_example():
    f, volume = _dense_degrees(P4, np.array([0, 3]))
    assert f[1:3].tolist() == [1, 1] and f.tolist() == [0, 1, 1, 0]
    assert volume == 2


def test_map_degrees_empty_cell_zero():
    f, volume = _dense_degrees(P4, np.array([], dtype=np.int64))
    assert f.tolist() == [0, 0, 0, 0] and volume == 0


def test_map_degrees_full_universe_gives_degrees():
    f, volume = _dense_degrees(P4, np.arange(4))
    assert f.tolist() == [1, 2, 2, 1] and volume == 6


def test_map_degrees_matches_serial_degree_to_cell():
    rng = np.random.default_rng(0)
    g = er_graph(40, 0.2, 1)
    for _ in range(20):
        cell = np.sort(rng.choice(g.n, size=rng.integers(1, g.n), replace=False))
        f, _ = _dense_degrees(g, cell)
        assert len(f) == g.n
        for v in range(g.n):
            assert f[v] == degree_to_cell(g, v, cell)


def test_sharded_computer_matches_scatter_computer():
    # the per-vertex oracle stands where the sharded computer used to
    g = er_graph(100, 0.1, 12)
    rng = np.random.default_rng(3)
    shuffle = np.random.default_rng(4)  # cells reach the scatter in any order
    for _ in range(10):
        cell = np.sort(rng.choice(g.n, size=rng.integers(1, g.n), replace=False))
        f, volume = _dense_degrees(g, shuffle.permutation(cell))
        assert f.tolist() == [degree_to_cell(g, v, cell) for v in range(g.n)]
        assert volume == int(g.degrees[cell].sum())


def test_perfbench_call_shapes(tmp_path):
    # the library calls perfbench/tracing.py makes for its traced run
    early, late = pa_snapshots(40, 60, 0)
    part, stats = run_refinement(early, 1, EngineConfig(workers=1, collect_work=True))
    assert stats.iterations >= 1 and stats.cells == len(part)
    part, stats = run_refinement(early, 1, EngineConfig(workers=1))
    assert stats.cells == len(part)
    # the coevolve-hist replay passes the pair array straight on
    measures = ("degree", "betweenness", "triangles", "shapley")
    scores = {m: (compute_measures(early, [m])[m].scores,
                  compute_measures(late, [m])[m].scores) for m in measures}
    population = sum(len(c) * (len(c) - 1) // 2 for c in part.cells)
    for cap in (population // 3, population):
        pairs = same_position_pairs(part, range(early.n), cap=cap, seed=0)
        assert len(pairs) == min(cap, population)
        report = coevolution_report(pairs, scores, sampling={
            "population_pairs": population, "cap": cap,
            "sampled": len(pairs) < population, "seed": 0})
        rebuilt = {m: pair_difference_histogram(pairs, *scores[m], measure=m).counts[m]
                   for m in measures}
        assert rebuilt == report.counts
        assert all(sum(c) == len(pairs) for c in report.counts.values())
    matrix = overlap_matrix([early, late], epsilons=range(9),
                            include_equitable=True, include_degree=True, workers=1)
    assert matrix.methods == tuple(f"eep:{e}" for e in range(9)) + ("ep", "degree")
    assert set(matrix.values) == {(0, 1)}
    for name in ("degree", "betweenness", "triangles", "shapley"):
        assert len(compute_measures(early, [name])[name].scores) == early.n
    # the Partition calls of the benchmark's checks and self-test
    part = fast_eep(early, 0)
    assert len(part.cells) >= 3
    merged = Partition((tuple(sorted(part.cells[0] + part.cells[1])),) + part.cells[2:])
    assert len(merged) == len(part) - 1 and merged.n_vertices == early.n
    memb = part.membership_array(early.n)
    assert memb.shape == (early.n,) and memb.tolist() == [
        next(i for i, c in enumerate(part.cells) if v in c) for v in range(early.n)]
    assert part.canonical() == Partition(part.cells[::-1]).canonical()
    assert not merged.canonical() == part.canonical()
    population = sum(len(c) * (len(c) - 1) // 2 for c in part.cells)
    assert population == len(same_position_pairs(part, range(early.n)))
    # the label maps the benchmark's generator and replays save, by str and Path
    VertexLabelMap(str(x) for x in range(early.n)).save(tmp_path / "G.labels")
    assert (tmp_path / "G.labels").read_text(encoding="utf-8") == "".join(
        f"{v}\t{v}\n" for v in range(early.n))
    _, labels = load_edge_list(["b a", "c b 7"])
    labels.save(str(tmp_path / "G.part.labels"))
    text = (tmp_path / "G.part.labels").read_text(encoding="utf-8")
    assert text == "0\tb\n1\ta\n2\tc\n"
    # a written partition file reads back to the same cells (tracing's _same_cells)
    for eps in (0, 2):
        part = fast_eep(early, eps)
        path = tmp_path / f"G.{eps}.part"
        with open(path, "w", encoding="utf-8") as fh:
            write_partition_file(fh, part, header={
                "n": early.n, "epsilon": eps, "algorithm": "eep",
                "graph_hash": early.content_hash()})
        with open(path, encoding="utf-8") as fh:
            back = read_partition_file(fh)[0]
        assert back.canonical() == part.canonical() and back == part


def test_perfbench_tracing_imports():
    # the benchmark's traced replay imports its netpos names in a process of its
    # own, so a library cut that breaks it shows here and not only in a bench run
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run([sys.executable, "-B", "-c", "import tracing"],
                            cwd=root / "perfbench", env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
