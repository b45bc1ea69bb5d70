import itertools
import math

import numpy as np
import pytest

from netpos import (Partition, coevolution_report, overlap_matrix,
                    pair_difference_histogram, pair_difference_records,
                    pair_difference_values, same_position_pairs)
from netpos.coevolution import _unrank_pair, bin_values

from helpers import pa_snapshots


# --- pair extraction -----------------------------------------------------------


def test_pairs_basic():
    p = Partition.from_cells([[1, 2, 3], [4]])
    assert same_position_pairs(p) == [(1, 2), (1, 3), (2, 3)]


def test_pairs_discrete_empty():
    assert same_position_pairs(Partition.discrete(range(5))) == []


def test_pairs_respect_common_restriction():
    p = Partition.from_cells([[0, 1, 2], [3, 4]])
    assert same_position_pairs(p, common={0, 2, 3}) == [(0, 2)]


def test_unrank_pair_exhaustive():
    for size in (2, 3, 7, 19, 40):
        want = list(itertools.combinations(range(size), 2))
        got = [_unrank_pair(k, size) for k in range(len(want))]
        assert got == want


def test_pair_sampling_contract():
    p = Partition.from_cells([list(range(1000))])
    sample = same_position_pairs(p, cap=10_000, seed=3)
    assert len(sample) == 10_000
    assert len(set(sample)) == 10_000
    assert all(a < b for a, b in sample)
    # reproducible per seed; different seed differs
    assert sample == same_position_pairs(p, cap=10_000, seed=3)
    assert sample != same_position_pairs(p, cap=10_000, seed=4)


def test_pair_sampling_spans_cells():
    p = Partition.from_cells([list(range(100)), list(range(100, 300))])
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


def test_pair_difference_missing_score_names_vertex():
    with pytest.raises(ValueError, match="vertex 9"):
        pair_difference_values([(0, 9)], [1.0] * 5, [1.0] * 10)
    with pytest.raises(ValueError, match="vertex 2"):
        pair_difference_values([(0, 2)], {0: 1.0, 2: 0.5}, {0: 1.0})


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


def test_pair_difference_records_tagging():
    records = list(pair_difference_records([(0, 1)], [5., 3.], [9., 3.], "deg"))
    assert records == [(0, 1, "deg", 4.0)]
    assert records[0].measure == "deg"


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


def test_overlap_requires_growing_snapshots():
    g1, g2 = pa_snapshots(40, 60, seed=2)
    with pytest.raises(ValueError):
        overlap_matrix([g2, g1], epsilons=[1])


def test_overlap_requires_some_method():
    g1, g2 = pa_snapshots(40, 60, seed=2)
    with pytest.raises(ValueError):
        overlap_matrix([g1, g2])
