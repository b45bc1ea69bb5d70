"""Seeded input generator for the benchmark.

Every file is a pure function of the workload parameters and the seed, so two
runs with the same seed write byte-identical files.

Each workload's graph comes from ``netpos.generate_power_law`` with a fixed
generator seed, ``GRAPH_SEED``. The run's seed permutes the vertex ids and
drives the order of the lines and the timestamps, and so which edges each
snapshot holds. In directed logs, each link's direction and whether it is
reciprocated are part of the fixed structure. The structure stays fixed
because, at the sizes a run can afford, the cost of
betweenness and of the dense oracle depends on the few largest hubs of a
power-law graph; with a fresh structure per seed, the median time of the
coevolve workload varied by an interquartile range of 36-58% of its median
across seeds, more than any bound the benchmark could set.

Edge lists are written with ``netpos.save_edge_list``, the code path behind
``netpos gen``.
"""

from __future__ import annotations

import numpy as np

from netpos import (GeneratorConfig, Graph, VertexLabelMap, generate_power_law,
                    save_edge_list)

GAMMA = 2.5
GRAPH_SEED = 2014
T0 = 1_000_000_000          # first possible timestamp (unix seconds)
SPAN = 100_000_000          # timestamps fall in [T0, T0 + SPAN)
REPLY_DELAY = 1_000_000     # a reciprocating event follows within this delay


def power_law(n: int) -> Graph:
    """The fixed n-vertex graph behind a workload's inputs."""
    return generate_power_law(GeneratorConfig(n=n, gamma=GAMMA, seed=GRAPH_SEED))


def _edges(n: int, seed: int, reciprocated: float = 0.0):
    """The links of ``power_law(n)`` for one seed.

    Returns (source, target, reciprocated?) per link and the seed's random
    generator. Each link's direction and whether it is reciprocated are
    fixed by ``GRAPH_SEED``; the seed permutes the ids and shuffles the order.
    """
    graph = power_law(n)
    rows = np.repeat(np.arange(graph.n, dtype=np.int64), graph.degrees)
    keep = graph.indices > rows
    a, b = rows[keep], graph.indices[keep]
    fixed = np.random.default_rng(GRAPH_SEED)
    flip = fixed.random(a.size) < 0.5
    a, b = np.where(flip, b, a), np.where(flip, a, b)
    back = fixed.random(a.size) < reciprocated
    rng = np.random.default_rng(seed)
    perm = rng.permutation(graph.n)
    order = rng.permutation(a.size)
    return perm[a][order], perm[b][order], back[order], rng


def write_graph(path, n: int, seed: int) -> dict:
    """Write a power-law edge list; return its descriptors."""
    a, b, _, _ = _edges(n, seed)
    graph = Graph.from_edges(n, np.column_stack([a, b]))
    labels = VertexLabelMap(str(x) for x in range(graph.n))
    with open(path, "w", encoding="utf-8") as fh:
        save_edge_list(graph, labels, fh)
    return {"n": graph.n, "m": graph.m, "events": 0, "cutoffs": []}


def write_log(path, n: int, seed: int, *, directed: bool,
              reciprocated: float, cut_fractions: tuple[float, ...]) -> dict:
    """Write a timestamped log derived from a power-law graph.

    ``cut_fractions`` place all cutoffs but the last at that share of the
    edges that the snapshots will contain, ordered by the time each edge
    appears; the last cutoff is the latest such time, so the last snapshot
    holds every edge. Returns the descriptors of the log.
    """
    a, b, back, rng = _edges(n, seed, reciprocated if directed else 0.0)
    t = T0 + rng.integers(0, SPAN, size=a.size)
    t_back = t[back] + rng.integers(1, REPLY_DELAY, size=int(back.sum()))
    src = np.concatenate([a, b[back]])
    dst = np.concatenate([b, a[back]])
    ts = np.concatenate([t, t_back])
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{s} {d} {x}\n" for s, d, x in
                      zip(src.tolist(), dst.tolist(), ts.tolist()))

    # only reciprocated links survive the projection of a directed log
    appears = np.sort(t_back if directed else t)
    cutoffs = [int(appears[max(0, int(f * appears.size) - 1)])
               for f in cut_fractions] + [int(appears[-1])]
    if any(y <= x for x, y in zip(cutoffs, cutoffs[1:])):
        raise ValueError(f"cutoffs not strictly ascending: {cutoffs}")
    return {"n": n, "m": int(appears.size), "events": int(src.size),
            "cutoffs": cutoffs}
