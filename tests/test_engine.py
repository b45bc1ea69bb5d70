import functools
import hashlib
import logging

import numpy as np
import pytest

from netpos import (EngineConfig, GeneratorConfig, IterationLimitError,
                    Partition, compute_measures, fast_eep, generate_power_law,
                    overlap_matrix, parallel_eep, run_refinement,
                    same_position_pairs)
from netpos.partition import _active_cell_degrees

from helpers import er_graph, pa_snapshots, path_graph
from oracles import ActiveList, degree_to_cell, split

P4 = path_graph(4)


# --- parallel_eep, the alias of run_refinement ------------------------------------


def test_parallel_single_worker_equals_serial():
    g = er_graph(80, 0.1, 5)
    for eps in (0, 2):
        assert parallel_eep(g, eps, EngineConfig(workers=1)).cells == \
            fast_eep(g, eps).cells


def test_parallel_p4():
    assert parallel_eep(P4, 0, EngineConfig(workers=4)).canonical().cells == \
        ((0, 3), (1, 2))


def test_parallel_matches_serial_across_worker_counts():
    g = generate_power_law(GeneratorConfig(10_000, 2.5, seed=7))
    want = fast_eep(g, 5).cells
    for p in (1, 2, 4, 8):
        assert parallel_eep(g, 5, EngineConfig(workers=p)).cells == want


# --- run_refinement -----------------------------------------------------------------


def test_iteration_cap_raises_with_diagnostics():
    g = er_graph(64, 0.3, 9)
    with pytest.raises(IterationLimitError) as err:
        run_refinement(g, 0, EngineConfig(workers=1, iteration_cap=2))
    assert err.value.iterations == 2
    assert err.value.cells >= 1


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


def test_progress_log_is_key_value(caplog):
    g = er_graph(40, 0.2, 6)
    with caplog.at_level(logging.INFO, logger="netpos.engine"):
        run_refinement(g, 0, EngineConfig(workers=1, progress_interval=1))
    assert caplog.records
    msg = caplog.records[0].getMessage()
    assert msg.startswith("iter=") and "active=" in msg and "cells=" in msg \
        and "elapsed_ms=" in msg


def test_public_map_reduce_loop_matches_fast_eep():
    # an independent refinement loop built from the per-vertex reference pieces
    for seed in range(6):
        g = er_graph(30, 0.2, seed)
        for eps in (0, 1, 2):
            part = Partition.unit(g.n)
            active = ActiveList([0])
            steps = volume = 0
            while active and not part.is_discrete():
                ca = part.cells[active.pop_min()]
                f = [degree_to_cell(g, v, ca) for v in range(g.n)]
                part, split_map = split(part, f, eps)
                active = active.updated(split_map)
                steps += 1
                volume += int(g.degrees[list(ca)].sum())
                assert steps < 16 * g.n
            got, stats = run_refinement(g, eps, EngineConfig(collect_work=True))
            assert part == got == fast_eep(g, eps), (seed, eps)
            assert (stats.iterations, stats.map_work) == (steps, volume), (seed, eps)


# --- refinement order, pinned -------------------------------------------------------
# (graph, eps, iterations, map_work, cells, SHA-256 of the cells in partition order),
# recorded from the earlier list-based loop (stable cell ids, an active list popped
# at its lowest position); the permutation-array loop must reproduce every value.
PINNED = [
    ("power_law-2000-2.1", 0, 1709, 167781, 977,
     "e95ba0ad8d166b119b5ef40df23cf20f7cdd31bf086b3ef42d5e2973064c2725"),
    ("power_law-2000-2.1", 1, 104, 14979, 94,
     "bab897e559ff9a14ac912ffd11eee85c8881fafd49dd6849f2a0e6661695e4f3"),
    ("power_law-2000-2.1", 2, 54, 14113, 50,
     "5cb83f8a8234076544dec58bbf38f1dcf4ab7d1437d1dfd9d85e62a5e53ed75d"),
    ("power_law-2000-2.1", 5, 24, 11224, 23,
     "fd4a24633190257100dd13bd8ada579f4dd6bfb73e5c0931fb627262744be8d6"),
    ("power_law-2000-2.5", 0, 1109, 64642, 623,
     "e43ec51e0916561eb4affad63e73576051bdd880953d8220bb68a61d2512b653"),
    ("power_law-2000-2.5", 1, 57, 8854, 51,
     "1d751e80958c152e0e0167d55a8ef55e54f100ed25eeeda547821d25660da9ff"),
    ("power_law-2000-2.5", 2, 24, 7113, 22,
     "1b5edd787204fab258e6eace7e26eccfdce84828fdbf67efb5211121efeaa8f0"),
    ("power_law-2000-2.5", 5, 10, 6772, 9,
     "8fa911f158b5f2ded1f6ad1638914e22dd71f39e3ccdd8f68e13ff4c261bbe2d"),
    ("power_law-5000-2.1", 0, 4350, 912026, 2440,
     "fd3b270730b536d5cc80461c5627ecf65e0a57bf44fe7b1cb45a6d7f19b1e3e0"),
    ("power_law-5000-2.1", 1, 185, 55626, 170,
     "58f96e85436d987d4e43673349dbc20df64228112203220f238e091082938f0e"),
    ("power_law-5000-2.1", 2, 85, 37975, 82,
     "226fc0c0a63daf5ccb7836ce8a164ac04311ae0283b262aa091232757753e2a4"),
    ("power_law-5000-2.1", 5, 37, 30964, 36,
     "56f4855d4d9b7070b465954e68b0a314d68769561322d465c29496d25345b612"),
    ("power_law-5000-2.5", 0, 2873, 403412, 1611,
     "309e9edb340bfa4e0fa3cf3b4737c81057bc17d497b06959aeed8485fb3f2880"),
    ("power_law-5000-2.5", 1, 99, 34490, 88,
     "bab443c3e8f1706a2f03aed3ff7cce8a07cbf07a9b2049d568c36df617747d5a"),
    ("power_law-5000-2.5", 2, 36, 23466, 34,
     "1c8064f10afe09c051b2ccd64a015c60df279323448e59813ca3cdb9fe731796"),
    ("power_law-5000-2.5", 5, 17, 24534, 15,
     "a66f256d9fd80391e0d8298327c36b6c43b8d3e0e79fe93ab7dca8cf7703144e"),
    ("er-400-0.004", 0, 492, 6219, 293,
     "8e2f05c83af7fa5c5e2fd3cd4f033eb6c8a0fae8ba4eff2d1e6518b615b30f32"),
    ("er-400-0.004", 1, 27, 2449, 20,
     "216e48344307a0745bf74f6b595f9e5b83e7c58752067c1ea25a1da712f5ec6e"),
    ("er-400-0.004", 2, 9, 1680, 7,
     "745974ffdd1e130a909e5c9f1ed6eccee248bc91bf621afda0402d855cd5f829"),
]


@functools.lru_cache(maxsize=None)
def _pinned_graph(name):
    kind, n, param = name.split("-")
    if kind == "power_law":
        return generate_power_law(GeneratorConfig(int(n), float(param), seed=11))
    g = er_graph(int(n), float(param), 3)
    assert (g.degrees == 0).sum() > 0   # isolated vertices
    return g


@pytest.mark.parametrize("name, eps, iterations, map_work, cells, digest", PINNED,
                         ids=[f"{name}-eps{eps}" for name, eps, *_ in PINNED])
def test_refinement_order_pinned(name, eps, iterations, map_work, cells, digest):
    part, stats = run_refinement(_pinned_graph(name), eps,
                                 EngineConfig(collect_work=True))
    text = "\n".join(" ".join(map(str, cell)) for cell in part.cells)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert (stats.iterations, stats.map_work, stats.cells) == \
        (iterations, map_work, cells)
    assert stats.cells == len(part) == 1 + stats.fragments - stats.splits


# --- the active-cell scatter, which replaced the per-shard map phase --------------


def _dense_degrees(graph, cell):
    """The scatter's sparse (touched, counts) output as a length-n f, and the volume."""
    touched, counts, volume = _active_cell_degrees(graph, cell)
    assert np.all(np.diff(touched) > 0) and np.all(counts >= 1)
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


def test_perfbench_call_shapes():
    # the library calls perfbench/tracing.py makes for its traced run
    early, late = pa_snapshots(40, 60, 0)
    part, stats = run_refinement(early, 1, EngineConfig(workers=1, collect_work=True))
    assert stats.iterations >= 1 and stats.cells == len(part)
    part, stats = run_refinement(early, 1, EngineConfig(workers=1))
    assert stats.cells == len(part)
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
