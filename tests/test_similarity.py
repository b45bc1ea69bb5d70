import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netpos import (Partition, UniverseMismatchError, restrict_partition,
                    similarity_score)

from helpers import discrete_partition, partition_intersection, partitions_equal
from oracles import (intersection_cardinality_cellpairs, partition_intersection_ref,
                     partitions_equal_ref, restrict_partition_ref,
                     similarity_value_ref)

# the appendix worked examples, used throughout
PI1 = Partition([[1, 2, 3], [4, 5], [6, 7, 8]])
PI2 = Partition([[1, 2], [3, 4, 5], [6, 7], [8]])
DIS1 = Partition([[1, 2, 3], [4, 5]])
DIS2 = Partition([[1, 4], [3, 5], [2]])


def random_partition(rng, universe, max_cells=8):
    labels = rng.integers(0, rng.integers(1, max_cells + 1), size=len(universe))
    cells = {}
    for v, lab in zip(universe, labels):
        cells.setdefault(int(lab), []).append(int(v))
    return Partition(cells.values())


# --- equality -------------------------------------------------------------------


def test_equality_ignores_cell_and_member_order():
    p1 = Partition([[1, 2, 3, 4], [5, 6], [7], [8, 9, 10]])
    p2 = Partition([[6, 5], [3, 2, 4, 1], [9, 8, 10], [7]])
    assert partitions_equal(p1, p2)


def test_equality_self():
    assert partitions_equal(PI1, Partition(PI1.cells))


def test_equality_distinguishes():
    a = Partition([[1], [2]])
    b = Partition([[1, 2]])
    assert not partitions_equal(a, b)


def test_universe_mismatch_raises():
    a = Partition([[1, 2]])
    b = Partition([[1, 2, 3]])
    for fn in (partitions_equal, partition_intersection,
               intersection_cardinality_cellpairs, similarity_score):
        with pytest.raises(UniverseMismatchError):
            fn(a, b)


# --- intersection ----------------------------------------------------------------


def test_intersection_worked_example():
    got = partition_intersection(PI1, PI2)
    assert got.cells == ((1, 2), (3,), (4, 5), (6, 7), (8,))


def test_intersection_idempotent():
    assert partition_intersection(PI1, PI1).canonical() == PI1.canonical()


def test_intersection_of_dissimilar_is_discrete():
    got = partition_intersection(DIS1, DIS2)
    assert len(got) == got.n_vertices == 5


def test_intersection_refines_both_inputs():
    rng = np.random.default_rng(7)
    universe = list(range(40))
    for _ in range(50):
        p1 = random_partition(rng, universe)
        p2 = random_partition(rng, universe)
        inter = partition_intersection(p1, p2)
        m1, m2 = p1.membership, p2.membership
        for cell in inter.cells:
            assert len({m1[v] for v in cell}) == 1
            assert len({m2[v] for v in cell}) == 1


# --- cell-pair cardinality ---------------------------------------------------------


def test_cellpair_cardinality_worked_examples():
    assert intersection_cardinality_cellpairs(PI1, PI2) == 5
    assert intersection_cardinality_cellpairs(DIS1, DIS2) == 5


def test_cellpair_diagonal():
    assert intersection_cardinality_cellpairs(PI1, PI1) == len(PI1)


def test_cellpair_equals_direct_method_randomized():
    rng = np.random.default_rng(1)
    universe = list(range(60))
    for _ in range(200):
        p1 = random_partition(rng, universe)
        p2 = random_partition(rng, universe)
        assert intersection_cardinality_cellpairs(p1, p2) == \
            len(partition_intersection(p1, p2))


# --- similarity score ----------------------------------------------------------------


def test_score_identical_partitions():
    score = similarity_score(PI1, Partition(PI1.cells))
    assert score.value == 1.0


def test_score_dissimilar_pair_is_zero():
    score = similarity_score(DIS1, DIS2)
    assert score.value == 0.0
    assert score.cells_intersection == 5 and score.universe_size == 5


def test_score_worked_example():
    score = similarity_score(PI1, PI2)
    assert score.value == pytest.approx(0.675, abs=1e-12)
    assert (score.cells_a, score.cells_b) == (3, 4)
    assert score.cells_intersection == 5 and score.universe_size == 8
    assert abs(score.direct_form - score.harmonic_form) <= 1e-12


def test_score_discrete_input_zero_unless_equal():
    disc = discrete_partition(range(4))
    other = Partition([[0, 1], [2, 3]])
    assert similarity_score(disc, other).value == 0.0
    assert similarity_score(disc, discrete_partition(range(4))).value == 1.0


def test_score_symmetric_and_bounded():
    rng = np.random.default_rng(3)
    universe = list(range(30))
    for _ in range(300):
        p1 = random_partition(rng, universe)
        p2 = random_partition(rng, universe)
        s12 = similarity_score(p1, p2)
        s21 = similarity_score(p2, p1)
        assert s12.value == pytest.approx(s21.value, abs=1e-12)
        assert 0.0 <= s12.value <= 1.0


def test_score_one_iff_equal_when_not_discrete():
    rng = np.random.default_rng(4)
    universe = list(range(20))
    for _ in range(200):
        p1 = random_partition(rng, universe, max_cells=5)
        p2 = random_partition(rng, universe, max_cells=5)
        if len(p1) == len(universe) or len(p2) == len(universe):
            continue
        equal = partitions_equal(p1, p2)
        assert (similarity_score(p1, p2).value == 1.0) == equal


@given(st.integers(2, 60), st.integers(0, 10 ** 6))
@settings(max_examples=300, deadline=None)
def test_score_forms_agree(n, seed):
    rng = np.random.default_rng(seed)
    universe = list(range(n))
    p1 = random_partition(rng, universe)
    p2 = random_partition(rng, universe)
    score = similarity_score(p1, p2)
    assert abs(score.direct_form - score.harmonic_form) <= 1e-12


# --- restriction ----------------------------------------------------------------------


def test_restrict_basic():
    p = Partition([[1, 2], [3]])
    assert restrict_partition(p, {1, 3}).cells == ((1,), (3,))


def test_restrict_full_universe_noop():
    assert restrict_partition(PI1, PI1.universe) == PI1


def test_restrict_to_empty():
    assert restrict_partition(PI1, set()).cells == ()


def test_restrict_rejects_foreign_vertices():
    with pytest.raises(ValueError):
        restrict_partition(PI1, {999})


# --- membership arrays against the cell-tuple references ---------------------------


def _reference_cases(rng):
    """Random partitions of dense, gapped and single-vertex universes, plus the
    empty, unit and discrete partitions of each."""
    for universe in (list(range(12)), list(range(1, 9)), [3, 7, 40, 41, 90], [5]):
        yield Partition([universe]), discrete_partition(universe)
        for _ in range(40):
            yield (random_partition(rng, universe, max_cells=4),
                   random_partition(rng, universe, max_cells=len(universe)))
    yield Partition(()), Partition(())


def test_array_forms_match_cell_tuple_references():
    rng = np.random.default_rng(11)
    for p1, p2 in _reference_cases(rng):
        for a, b in ((p1, p2), (p2, p1), (p1, p1)):
            assert partitions_equal(a, b) == partitions_equal_ref(a, b)
            assert partition_intersection(a, b) == partition_intersection_ref(a, b)
            score = similarity_score(a, b)
            assert score.value == pytest.approx(similarity_value_ref(a, b), abs=1e-12)
            assert score.cells_intersection == len(partition_intersection_ref(a, b)) \
                or score.value == 1.0
        universe = p1.universe.tolist()
        for keep in (set(), set(universe),
                     {v for v in universe if rng.random() < 0.5}):
            assert restrict_partition(p1, keep) == restrict_partition_ref(p1, keep)
            assert restrict_partition(p1, np.array(sorted(keep), dtype=np.int64)) == \
                restrict_partition_ref(p1, keep)


def test_array_forms_match_references_on_universe_mismatch():
    pairs = [(Partition([[1, 2], [3]]), Partition([[1, 2, 4]])),
             (Partition([[1, 2]]), Partition(())),
             (Partition([[0, 1]]), Partition([[1], [2]]))]
    for a, b in pairs:
        with pytest.raises(UniverseMismatchError) as want:
            partition_intersection_ref(a, b)
        for fn in (partitions_equal, partition_intersection, similarity_score,
                   partitions_equal_ref):
            with pytest.raises(UniverseMismatchError) as got:
                fn(a, b)
            assert str(got.value) == str(want.value)
    for keep in ({0}, {1, 9}, range(5)):
        with pytest.raises(ValueError, match="outside the partition universe"):
            restrict_partition(PI1, keep)
        with pytest.raises(ValueError, match="outside the partition universe"):
            restrict_partition_ref(PI1, keep)
