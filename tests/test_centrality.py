import itertools
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

import netpos.centrality
from netpos import (GeneratorConfig, Graph, betweenness_centrality,
                    degree_centrality, generate_power_law, shapley_centrality,
                    triangle_counts)
from netpos.centrality import compute_measures

from helpers import complete_graph, er_graph, neighbors, path_graph, star_graph
from oracles import betweenness_centrality_exact, triangle_counts_ref

STAR = star_graph(3)


# --- oracles -------------------------------------------------------------------


def bfs_dist_sigma(graph, s):
    dist = {s: 0}
    sigma = {v: 0 for v in range(graph.n)}
    sigma[s] = 1
    q = deque([s])
    while q:
        v = q.popleft()
        for w in neighbors(graph, v):
            w = int(w)
            if w not in dist:
                dist[w] = dist[v] + 1
                q.append(w)
            if dist[w] == dist[v] + 1:
                sigma[w] += sigma[v]
    return dist, sigma


def betweenness_oracle(graph):
    """Pair-by-pair shortest-path counting; exact rationals; unordered pairs."""
    n = graph.n
    dist = {}
    sigma = {}
    for s in range(n):
        dist[s], sigma[s] = bfs_dist_sigma(graph, s)
    scores = [Fraction(0)] * n
    for s, t in itertools.combinations(range(n), 2):
        if t not in dist[s]:
            continue
        d_st = dist[s][t]
        for v in range(n):
            if v in (s, t) or v not in dist[s] or v not in dist[t]:
                continue
            if dist[s][v] + dist[t][v] == d_st:
                scores[v] += Fraction(sigma[s][v] * sigma[t][v], sigma[s][t])
    return scores


def triangle_oracle(graph):
    counts = [0] * graph.n
    adj = [set(int(w) for w in neighbors(graph, v)) for v in range(graph.n)]
    for a, b, c in itertools.combinations(range(graph.n), 3):
        if b in adj[a] and c in adj[a] and c in adj[b]:
            counts[a] += 1
            counts[b] += 1
            counts[c] += 1
    return counts


def shapley_permutation_oracle(graph, permutations, seed):
    """Monte Carlo marginal contributions of v(S) = |S union N(S)|."""
    n = graph.n
    closed = [1 << v for v in range(n)]
    for v in range(n):
        for w in neighbors(graph, v):
            closed[v] |= 1 << int(w)
    rng = np.random.default_rng(seed)
    totals = np.zeros(n)
    for _ in range(permutations):
        covered = 0
        for v in rng.permutation(n):
            v = int(v)
            gained = closed[v] & ~covered
            totals[v] += gained.bit_count()
            covered |= closed[v]
    return totals / permutations


# --- degree ---------------------------------------------------------------------


def test_degree_examples():
    assert list(degree_centrality(complete_graph(4)).scores) == [3, 3, 3, 3]
    assert list(degree_centrality(STAR).scores) == [3, 1, 1, 1]
    assert list(degree_centrality(Graph.from_edges(3, [])).scores) == [0, 0, 0]


# --- betweenness -----------------------------------------------------------------


def test_betweenness_p3():
    g = path_graph(3)
    assert list(betweenness_centrality(g).scores) == [0.0, 1.0, 0.0]


def test_betweenness_k4_zero():
    assert betweenness_centrality(complete_graph(4)).scores.sum() == 0.0


def test_betweenness_star():
    assert list(betweenness_centrality(STAR).scores) == [3.0, 0.0, 0.0, 0.0]


def test_betweenness_exact_equals_oracle():
    for seed in range(12):
        g = er_graph(int(np.random.default_rng(seed).integers(6, 24)), 0.2, seed)
        assert betweenness_centrality_exact(g) == betweenness_oracle(g)


def test_betweenness_float_close_to_exact():
    for seed in range(6):
        g = er_graph(20, 0.25, seed)
        got = betweenness_centrality(g).scores
        want = np.array([float(x) for x in betweenness_centrality_exact(g)])
        assert np.allclose(got, want, atol=1e-9)


def test_betweenness_disconnected():
    g = Graph.from_edges(5, [(0, 1), (1, 2)])  # 3, 4 isolated
    assert list(betweenness_centrality(g).scores) == [0.0, 1.0, 0.0, 0.0, 0.0]


def _tree(rng, size):
    """Edges of a random recursive tree on [0, size)."""
    return [(v, int(rng.integers(v))) for v in range(1, size)]


def _with_pendants(rng, size, core_edges):
    """``core_edges`` on [0, size) with random trees hung from core vertices."""
    n, edges = size, list(core_edges)
    for _ in range(int(rng.integers(1, 4))):
        t = int(rng.integers(1, 6))
        edges.append((int(rng.integers(size)), n))
        edges += [(n + u, n + v) for u, v in _tree(rng, t)]
        n += t
    return n, edges


def _union(rng, *parts):
    """Disjoint union of (size, edges) parts under a random relabelling."""
    n, edges = 0, []
    for size, part in parts:
        edges += [(u + n, v + n) for u, v in part]
        n += size
    perm = rng.permutation(n)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def _shattering_cases():
    """(graph, is_forest) over the shapes the peel and the core search meet."""
    rng = np.random.default_rng(12)
    cycle = lambda c: (c, [(i, (i + 1) % c) for i in range(c)])
    clique = lambda c: (c, list(itertools.combinations(range(c), 2)))
    yield Graph.from_edges(0, []), True
    yield Graph.from_edges(1, []), True
    yield Graph.from_edges(2, [(0, 1)]), True
    yield Graph.from_edges(6, [(4, 1)]), True
    for n in range(2, 12):
        yield path_graph(n), True
        yield star_graph(n), True
    for _ in range(15):
        size = int(rng.integers(1, 30))
        yield _union(rng, (size, _tree(rng, size))), True
        sizes = rng.integers(1, 9, size=int(rng.integers(2, 6)))
        yield _union(rng, *[(int(t), _tree(rng, int(t))) for t in sizes]), True
    for c in range(3, 8):
        yield _union(rng, _with_pendants(rng, *cycle(c))), False
        yield _union(rng, _with_pendants(rng, *clique(c))), False
    for _ in range(10):
        trees = [(int(t), _tree(rng, int(t))) for t in rng.integers(1, 7, size=3)]
        cores = [_with_pendants(rng, *cycle(int(rng.integers(3, 9)))),
                 _with_pendants(rng, *clique(int(rng.integers(3, 6))))]
        yield _union(rng, *trees, *cores, (4, [])), False


def test_betweenness_shattering_matches_exact():
    for g, forest in _shattering_cases():
        got = betweenness_centrality(g).scores
        want = betweenness_centrality_exact(g)
        if forest:
            assert [float(x) for x in got] == want
        else:
            assert np.allclose(got, [float(x) for x in want], rtol=1e-12, atol=1e-12)


def test_betweenness_matches_networkx_power_law():
    nx = pytest.importorskip("networkx")
    g = generate_power_law(GeneratorConfig(n=2000, gamma=2.5, seed=7))
    tails = np.repeat(np.arange(g.n), g.degrees)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(zip(tails.tolist(), g.indices.tolist()))
    want = nx.betweenness_centrality(nxg, normalized=False)
    got = betweenness_centrality(g).scores
    assert np.allclose(got, [want[v] for v in range(g.n)], rtol=1e-12, atol=1e-9)


# --- triangles -------------------------------------------------------------------


def test_triangles_k3_k4_tree():
    assert list(triangle_counts(complete_graph(3)).scores) == [1, 1, 1]
    assert list(triangle_counts(complete_graph(4)).scores) == [3, 3, 3, 3]
    assert list(triangle_counts(path_graph(6)).scores) == [0] * 6


def test_triangles_match_triple_enumeration():
    for seed in range(10):
        g = er_graph(30, 0.25, seed)
        assert list(triangle_counts(g).scores) == triangle_oracle(g)


def test_triangle_handshake():
    g = er_graph(40, 0.2, 5)
    total3 = int(triangle_counts(g).scores.sum())
    assert total3 % 3 == 0
    assert total3 // 3 == sum(triangle_oracle(g)) // 3


@pytest.mark.parametrize("n, gamma", [(3000, 2.1), (200_000, 2.5), (20_000, 2.9)])
def test_triangles_match_per_edge_reference_on_power_law(n, gamma):
    g = generate_power_law(GeneratorConfig(n, gamma, seed=7))
    want = triangle_counts_ref(g)
    assert want.sum() > 0
    assert np.array_equal(triangle_counts(g).scores, want)


@pytest.mark.parametrize("wedges", [1, 3])
def test_triangles_in_tiny_wedge_chunks(monkeypatch, wedges):
    # a chunk of 1 or 3 wedges gives many chunks, one-edge chunks and empty ones
    monkeypatch.setattr(netpos.centrality, "_TRIANGLE_WEDGES", wedges)
    for g in (generate_power_law(GeneratorConfig(400, 2.1, seed=3)),
              complete_graph(6), er_graph(30, 0.3, 2)):
        assert np.array_equal(triangle_counts(g).scores, triangle_counts_ref(g))


@pytest.mark.parametrize("n", [0, 1, 5])
def test_triangles_without_edges(n):
    scores = triangle_counts(Graph.from_edges(n, [])).scores
    assert scores.tolist() == [0] * n and scores.dtype == np.int64


# --- shapley ---------------------------------------------------------------------


def test_shapley_star_closed_form():
    scores = shapley_centrality(STAR).scores
    assert scores[0] == pytest.approx(0.25 + 3 * 0.5)
    assert scores[1] == pytest.approx(0.5 + 0.25)
    assert scores.sum() == pytest.approx(4.0, abs=1e-9)


def test_shapley_complete_and_edgeless():
    assert np.allclose(shapley_centrality(complete_graph(5)).scores, 1.0)
    assert np.allclose(shapley_centrality(Graph.from_edges(4, [])).scores, 1.0)


def test_shapley_efficiency_random():
    for seed in range(8):
        g = er_graph(50, 0.1, seed)
        assert shapley_centrality(g).scores.sum() == pytest.approx(g.n, abs=1e-9)


def test_shapley_matches_permutation_sampling():
    g = er_graph(16, 0.25, 7)
    got = shapley_centrality(g).scores
    mc = shapley_permutation_oracle(g, 20_000, seed=1)
    assert np.abs(got - mc).max() < 0.05


# --- dispatch ---------------------------------------------------------------------


def test_compute_measures_selects():
    out = compute_measures(STAR, ["degree", "shapley"])
    assert set(out) == {"degree", "shapley"}
    with pytest.raises(ValueError):
        compute_measures(STAR, ["nope"])


def test_scores_read_only():
    vec = degree_centrality(STAR)
    with pytest.raises(ValueError):
        vec.scores[0] = 99
