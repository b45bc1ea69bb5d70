import itertools
import math

import numpy as np
import pytest

from netpos import (GeneratorConfig, Partition, SnapshotSpec, TemporalEdgeLog,
                    build_snapshots, coevolution_report, generate_power_law,
                    overlap_matrix, pair_difference_histogram, same_position_pairs)
from netpos.coevolution import _unrank_pair, bin_values

from helpers import discrete_partition, pa_snapshots, pair_difference_values, traced
from oracles import same_position_pairs_reference


# --- pair extraction -----------------------------------------------------------


def test_pairs_basic():
    p = Partition([[1, 2, 3], [4]])
    pairs = same_position_pairs(p)
    assert pairs.dtype == np.int64 and pairs.shape == (3, 2)
    assert pairs.tolist() == [[1, 2], [1, 3], [2, 3]]


def test_pairs_discrete_empty():
    pairs = same_position_pairs(discrete_partition(range(5)))
    assert pairs.dtype == np.int64 and pairs.shape == (0, 2)


def test_pairs_respect_common_restriction():
    p = Partition([[0, 1, 2], [3, 4]])
    assert same_position_pairs(p, common={0, 2, 3}).tolist() == [[0, 2]]


def test_full_listing_peak_memory():
    # 1,999,000 pairs of one cell: the listing may hold at most 3.6 times
    # its 30.5-MiB result at once
    p = Partition.from_membership(np.zeros(2000, dtype=np.int64))
    pairs, _, peak = traced(lambda: same_position_pairs(p))
    assert pairs.shape == (1_999_000, 2) and pairs.flags.c_contiguous
    assert pairs[0].tolist() == [0, 1] and pairs[-1].tolist() == [1998, 1999]
    assert peak <= 3.6 * pairs.nbytes


def test_full_listing_in_chunks_peak_memory():
    # unranking runs on fixed chunks of ranks, so listing the 1,999,000
    # pairs of one 2,000-vertex cell (488 chunks) costs little beyond its result
    p = Partition.from_membership(np.zeros(2000, dtype=np.int64))
    pairs, _, peak = traced(lambda: same_position_pairs(p))
    first = np.repeat(np.arange(2000), np.arange(1999, -1, -1))
    second = np.concatenate([np.arange(a + 1, 2000) for a in range(2000)])
    assert np.array_equal(pairs, np.column_stack([first, second]))
    assert peak <= 1.1 * pairs.nbytes


def test_unrank_pair_exhaustive():
    for size in (2, 3, 7, 19, 40):
        want = list(itertools.combinations(range(size), 2))
        i, j = _unrank_pair(np.arange(len(want)), np.full(len(want), size))
        assert list(zip(i.tolist(), j.tolist())) == want
    with pytest.raises(ValueError):
        _unrank_pair(np.array([3]), np.array([3]))


@pytest.mark.parametrize("size", [10**7, 2**26 + 3, 3 * 10**8 + 7])
def test_unrank_pair_exact_for_huge_cells(size):
    # the rows' first and last pairs are where a float square root would
    # land one row off; the closed-form rank of (i, j) must give k back
    rng = np.random.default_rng(size % 1000)
    rows = np.concatenate(([0, 1, size - 3, size - 2], rng.integers(0, size - 1, 60)))
    i = np.repeat(rows, 2)
    j = np.where(np.arange(i.size) % 2, size - 1, i + 1)
    c2 = lambda x: x * (x - 1) // 2
    k = c2(size) - c2(size - i) + j - i - 1
    got_i, got_j = _unrank_pair(k, np.full(k.size, size))
    assert got_i.tolist() == i.tolist() and got_j.tolist() == j.tolist()


def _reference_cases():
    cells = [list(range(0, 60)), list(range(60, 61)), list(range(61, 100)),
             list(range(100, 250, 3))]
    p = Partition(cells)
    population = sum(len(c) * (len(c) - 1) // 2 for c in cells)
    for seed in (0, 7, 2014):
        # population // 8 keeps the chosen ranks in a mask, one less in a
        # sorted array
        for cap in (1, population - 1, population // 2, population // 8,
                    population // 8 - 1):
            yield p, None, cap, seed
    common = [v for v in range(250) if v % 5]
    yield p, common, 700, 3
    yield p, common, None, 0
    # a multi-member cell that ``common`` empties adds no pairs
    yield p, [v for v in range(250) if not 61 <= v < 100], 700, 3
    yield p, [v for v in range(250) if not 61 <= v < 100], None, 0
    yield discrete_partition(range(9)), None, 5, 0
    yield discrete_partition(range(9)), None, None, 0
    yield Partition([]), None, 5, 0
    yield p, None, None, 0
    yield p, None, population, 0


def test_pairs_match_set_sampler_reference():
    # the vectorised sampler returns the reference's exact rows: the same
    # draws, dedupe order, cut at cap and unranking
    for partition, common, cap, seed in _reference_cases():
        got = same_position_pairs(partition, common, cap=cap, seed=seed)
        want = same_position_pairs_reference(partition, common, cap=cap, seed=seed)
        assert got.shape == (len(want), 2)
        assert list(map(tuple, got.tolist())) == want


def test_pair_sampling_needs_several_batches():
    # at cap = population - 1 the first batch of 1.25 * cap + 16 draws has
    # too few distinct ranks, so the sampler must draw again
    p = Partition([list(range(50))])
    population = 50 * 49 // 2
    cap = population - 1
    first = np.random.default_rng(0).integers(0, population, cap + cap // 4 + 16)
    assert np.unique(first).size < cap
    got = same_position_pairs(p, cap=cap, seed=0).tolist()
    assert list(map(tuple, got)) == same_position_pairs_reference(p, cap=cap, seed=0)


def test_pair_sampling_redraws_on_both_sides_of_the_mask(monkeypatch):
    # draws folded onto 600 ranks repeat often, so both the mask (cap 467)
    # and the sorted array (cap 466) must drop ranks chosen in earlier batches
    default_rng = np.random.default_rng

    class Folded:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def integers(self, low, high, size):
            return self.rng.integers(low, high, size) % 600

    monkeypatch.setattr(np.random, "default_rng", Folded)
    p = next(_reference_cases())[0]
    for cap in (466, 467):
        got = same_position_pairs(p, cap=cap, seed=5).tolist()
        assert list(map(tuple, got)) == same_position_pairs_reference(p, cap=cap, seed=5)


def test_pair_sampling_contract():
    p = Partition([list(range(1000))])
    sample = same_position_pairs(p, cap=10_000, seed=3)
    assert len(sample) == 10_000
    assert len(np.unique(sample, axis=0)) == 10_000
    assert np.all(sample[:, 0] < sample[:, 1])
    # reproducible per seed; different seed differs
    assert np.array_equal(sample, same_position_pairs(p, cap=10_000, seed=3))
    assert not np.array_equal(sample, same_position_pairs(p, cap=10_000, seed=4))


def test_pair_sampling_spans_cells():
    p = Partition([list(range(100)), list(range(100, 300))])
    sample = same_position_pairs(p, cap=500, seed=0)
    memb = p.membership
    cells_hit = {memb[a] for a, _ in sample}
    assert cells_hit == {0, 1}
    for a, b in sample:
        assert memb[a] == memb[b]


# --- pair differences ------------------------------------------------------------


def test_pair_difference_parallel_evolution_is_zero():
    vals = pair_difference_values([(0, 1)], [5.0, 3.0], [7.0, 5.0])
    assert vals[0] == 0.0


def test_pair_difference_arithmetic():
    vals = pair_difference_values([(0, 1)], [5.0, 3.0], [9.0, 3.0])
    assert vals[0] == 4.0


def test_pair_difference_symmetric():
    rng = np.random.default_rng(0)
    st = rng.normal(size=20)
    s2 = rng.normal(size=20)
    a = pair_difference_values([(3, 11)], st, s2)[0]
    b = pair_difference_values([(11, 3)], st, s2)[0]
    assert a == b


def test_pair_difference_in_place_peak_memory():
    # the differences are taken in place: a pair peaks at three floats, the
    # result among them, where four were live before
    rng = np.random.default_rng(1)
    st, sl = rng.normal(size=(2, 5000))
    pairs = rng.integers(0, 5000, size=(1_000_000, 2))
    values, _, peak = traced(lambda: pair_difference_values(pairs, st, sl))
    assert peak <= 26 * len(pairs)
    a, b = pairs[:, 0], pairs[:, 1]
    assert np.array_equal(values, np.abs((st[a] - st[b]) - (sl[a] - sl[b])))


def test_report_bins_in_chunks_peak_memory():
    # the differences are binned chunk by chunk: beyond the 16 MB of pairs
    # the report holds one chunk's arrays, where a whole measure's were live
    rng = np.random.default_rng(2)
    scores = {m: rng.normal(size=(2, 5000)) for m in ("x", "y")}
    pairs = rng.integers(0, 5000, size=(1_000_000, 2))
    edges = (-3.0, -0.5, 0.0, 0.25, 1.0, 2.0)
    report, _, peak = traced(lambda: coevolution_report(pairs, scores, bin_edges=edges))
    assert peak <= pairs.nbytes / 4
    for m, (st, sl) in scores.items():
        values = pair_difference_values(pairs, st, sl)
        want = np.histogram(values, bins=list(edges) + [np.inf])[0]
        assert report.counts[m] == tuple(want.tolist())
        assert report.percentages[m] == tuple(100.0 * c / len(pairs) for c in want)


def test_pair_difference_missing_score_names_vertex():
    with pytest.raises(ValueError, match="vertex 9"):
        pair_difference_values([(0, 9)], [1.0] * 5, [1.0] * 10)
    with pytest.raises(ValueError, match="vertex 2"):
        pair_difference_values([(0, 2)], [1.0, 0.0, 0.5], [1.0])


def test_pair_difference_rejects_negative_ids():
    # a negative id would otherwise index the scores from the end
    with pytest.raises(ValueError, match="vertex -1 has no score"):
        pair_difference_values([(0, -1)], [1, 5, 9], [1, 2, 3])
    with pytest.raises(ValueError, match="vertex -4 has no score"):
        coevolution_report(np.array([[1, 2], [-4, 0]]), {"m": ([1, 5, 9], [1, 2, 3])})


def test_pair_difference_rejects_malformed_pairs():
    scores = [1.0] * 10
    for pairs in ([0, 1, 2, 3], np.zeros((4, 3), dtype=np.int64), [[[0, 1]]]):
        with pytest.raises(ValueError, match="shape"):
            pair_difference_values(pairs, scores, scores)
        with pytest.raises(ValueError, match="shape"):
            coevolution_report(pairs, {"m": (scores, scores)})


def test_zero_evolution_identity():
    rng = np.random.default_rng(5)
    scores = rng.normal(size=30)
    pairs = [(i, j) for i in range(10) for j in range(i + 1, 10)]
    assert np.all(pair_difference_values(pairs, scores, scores) == 0.0)


# --- binning ----------------------------------------------------------------------


def test_bin_edges_lower_inclusive():
    counts = bin_values(np.array([0.0, 0.9, 1.0, 2.0, 7.5]), [0, 1, 2])
    # bins: [0,1) [1,2) [2,inf)
    assert list(counts) == [2, 1, 2]


def test_bin_rejects_below_range_and_bad_edges():
    with pytest.raises(ValueError):
        bin_values(np.array([-0.5]), [0, 1])
    with pytest.raises(ValueError):
        bin_values(np.array([1.0]), [0, 0])


def test_histogram_totals_match_recount():
    rng = np.random.default_rng(8)
    pairs = [(i, i + 1) for i in range(0, 200, 2)]
    st = rng.uniform(0, 20, size=201)
    s2 = rng.uniform(0, 20, size=201)
    report = coevolution_report(pairs, {"m": (st, s2)}, bin_edges=range(11))
    assert sum(report.counts["m"]) == len(pairs)
    assert sum(report.percentages["m"]) == pytest.approx(100.0)
    # recount one bin by brute force
    vals = pair_difference_values(pairs, st, s2)
    assert report.counts["m"][2] == int(((vals >= 2) & (vals < 3)).sum())
    # overflow bin holds everything at or past the last edge
    assert report.counts["m"][-1] == int((vals >= 10).sum())


def test_single_measure_histogram_wrapper():
    report = pair_difference_histogram([(0, 1), (2, 3)], [5., 3., 1., 1.],
                                       [9., 3., 1., 1.], bin_edges=[0, 1, 5],
                                       measure="deg")
    assert report.counts["deg"] == (1, 1, 0)  # values 4 and 0
    assert report.total_pairs == 2


def test_report_csv_rows_shape():
    report = coevolution_report([(0, 1)], {"deg": ([1.0, 2.0], [1.0, 2.0])},
                                bin_edges=[0, 1, 2])
    rows = report.csv_rows()
    assert len(rows) == 3
    assert rows[-1][1] == math.inf
    assert {r[2] for r in rows} == {"deg"}


# --- overlap matrix ----------------------------------------------------------------


def test_overlap_identical_snapshots_is_100():
    g, _ = pa_snapshots(60, 80, seed=1)
    matrix = overlap_matrix([g, g], epsilons=[0, 2], include_degree=True,
                            include_equitable=True)
    for score in matrix.values[(0, 1)].values():
        assert score == pytest.approx(100.0)


def test_overlap_restricts_later_partition():
    from netpos import fast_eep, restrict_partition, similarity_score
    g1, g2 = pa_snapshots(50, 90, seed=3)
    matrix = overlap_matrix([g1, g2], epsilons=[1])
    got = matrix.values[(0, 1)]["eep:1"]
    # scoring must only see vertices present in the earlier snapshot
    p1 = fast_eep(g1, 1)
    p2 = restrict_partition(fast_eep(g2, 1), range(g1.n))
    want = 100.0 * similarity_score(p1, p2).value
    assert got == pytest.approx(want, abs=1e-12)
    assert 0.0 <= got <= 100.0


def test_overlap_matrix_all_pairs():
    g1, g2 = pa_snapshots(40, 60, seed=2)
    g3 = pa_snapshots(40, 80, seed=2)[1]
    matrix = overlap_matrix([g1, g2, g3], epsilons=[1])
    assert set(matrix.values) == {(0, 1), (0, 2), (1, 2)}


def test_overlap_scores_a_repeated_epsilon_once(monkeypatch):
    import netpos.coevolution as coevolution
    g1, g2 = pa_snapshots(40, 60, seed=2)
    calls = []
    refine = coevolution.fast_eep
    monkeypatch.setattr(coevolution, "fast_eep",
                        lambda graph, eps: calls.append(eps) or refine(graph, eps))
    matrix = overlap_matrix([g1, g2], epsilons=[2, 0, 2, 0, 1])
    assert matrix.methods == ("eep:2", "eep:0", "eep:1")
    assert list(matrix.values[(0, 1)]) == ["eep:2", "eep:0", "eep:1"]
    assert calls == [2, 2, 0, 0, 1, 1]  # one refinement per snapshot and epsilon


@pytest.mark.parametrize("bad", [1.5, -1, float("inf"), float("nan")])
def test_overlap_rejects_a_non_integer_or_negative_epsilon(monkeypatch, bad):
    import netpos.coevolution as coevolution
    g1, g2 = pa_snapshots(40, 60, seed=2)
    calls = []
    monkeypatch.setattr(coevolution, "fast_eep", lambda graph, eps: calls.append(eps))
    with pytest.raises(ValueError, match="epsilon must be a non-negative integer"):
        overlap_matrix([g1, g2], epsilons=[1, bad])
    assert calls == []   # refused before any refinement


def test_overlap_holds_one_method_at_a_time():
    # three nested snapshots of a 20k-vertex power-law graph, its edges
    # appearing in a seeded order: scored one method at a time, the whole
    # grid peaks near one method, not at eleven methods' partitions
    g = generate_power_law(GeneratorConfig(20_000, 2.5, seed=7))
    rows = np.repeat(np.arange(g.n), g.degrees)
    keep = g.indices > rows
    times = np.random.default_rng(3).permutation(int(keep.sum()))
    log = TemporalEdgeLog(rows[keep], g.indices[keep], times,
                          [str(v) for v in range(g.n)], directed=False)
    m = times.size
    snapshots, _ = build_snapshots(log, SnapshotSpec((m // 3, 2 * m // 3, m - 1)))
    assert snapshots[0].n < snapshots[1].n < snapshots[2].n
    one = traced(lambda: overlap_matrix(snapshots, epsilons=[1]))[2]
    grid = traced(lambda: overlap_matrix(snapshots, epsilons=range(9),
                                         include_equitable=True, include_degree=True))[2]
    assert grid <= 2 * one, grid / one


def test_overlap_requires_growing_snapshots():
    g1, g2 = pa_snapshots(40, 60, seed=2)
    with pytest.raises(ValueError):
        overlap_matrix([g2, g1], epsilons=[1])


def test_overlap_requires_some_method():
    g1, g2 = pa_snapshots(40, 60, seed=2)
    with pytest.raises(ValueError):
        overlap_matrix([g1, g2])


@pytest.mark.parametrize("epsilons", [[1, 0, 3], [1, 3]], ids=["eps0-in-grid",
                                                               "eps0-not-in-grid"])
def test_overlap_ep_is_the_equitable_oracles_score(epsilons):
    from netpos import equitable_oracle, restrict_partition, similarity_score
    g1, g2 = pa_snapshots(60, 110, seed=5)
    g3 = pa_snapshots(60, 160, seed=5)[1]
    graphs = [g1, g2, g3]
    matrix = overlap_matrix(graphs, epsilons=epsilons, include_equitable=True)
    assert matrix.methods[-1] == "ep"
    for (i, j), scores in matrix.values.items():
        pi = equitable_oracle(graphs[i])
        pj = restrict_partition(equitable_oracle(graphs[j]), range(graphs[i].n))
        assert scores["ep"] == 100.0 * similarity_score(pi, pj).value
