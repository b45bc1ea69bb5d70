import logging

import numpy as np
import pytest

from netpos import (EngineConfig, GeneratorConfig, IterationLimitError,
                    Partition, compute_measures, fast_eep, generate_power_law,
                    overlap_matrix, parallel_eep, run_refinement)
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


# --- the active-cell scatter, which replaced the per-shard map phase --------------


def test_map_degrees_p4_example():
    f, volume = _active_cell_degrees(P4, np.array([0, 3]))
    assert f[1:3].tolist() == [1, 1] and f.tolist() == [0, 1, 1, 0]
    assert volume == 2


def test_map_degrees_empty_cell_zero():
    f, volume = _active_cell_degrees(P4, np.array([], dtype=np.int64))
    assert f.tolist() == [0, 0, 0, 0] and volume == 0


def test_map_degrees_full_universe_gives_degrees():
    f, volume = _active_cell_degrees(P4, np.arange(4))
    assert f.tolist() == [1, 2, 2, 1] and volume == 6


def test_map_degrees_matches_serial_degree_to_cell():
    rng = np.random.default_rng(0)
    g = er_graph(40, 0.2, 1)
    for _ in range(20):
        cell = np.sort(rng.choice(g.n, size=rng.integers(1, g.n), replace=False))
        f, _ = _active_cell_degrees(g, cell)
        assert len(f) == g.n
        for v in range(g.n):
            assert f[v] == degree_to_cell(g, v, cell)


def test_sharded_computer_matches_scatter_computer():
    # the per-vertex oracle stands where the sharded computer used to
    g = er_graph(100, 0.1, 12)
    rng = np.random.default_rng(3)
    for _ in range(10):
        cell = np.sort(rng.choice(g.n, size=rng.integers(1, g.n), replace=False))
        f, volume = _active_cell_degrees(g, cell)
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
