"""Confusion tallies, TPR/PPV/ACC, and the hardware-efficiency ratio."""

import numpy as np
import pytest

import oracles
from wavescat.errors import DataError, UndefinedMetricError
from wavescat.metrics import (
    BinaryTally,
    ConfusionMatrix,
    acc,
    binary_tally,
    confusion_from_predictions,
    efficiency,
    multiclass_accuracy,
    ppv,
    tpr,
)

FIVE = ("nest", "kite", "textile", "plastic", "background")

# A 5-class matrix whose "nest" one-vs-rest tally lands on known-good
# hand counts: tp=332, fn=19, fp=26, tn=736, total 1113.
FIELD_MATRIX = ConfusionMatrix(FIVE, np.array([
    [332, 7, 5, 4, 3],
    [0, 180, 2, 1, 0],
    [0, 3, 150, 2, 0],
    [0, 1, 2, 140, 1],
    [26, 2, 3, 4, 245],
]))


def test_confusion_from_pairs_direct_count():
    m = confusion_from_predictions([("A", "A"), ("A", "B"), ("B", "B")], ("A", "B"))
    assert m.counts.tolist() == [[1, 1], [0, 1]]
    assert m.total == 3


def test_confusion_empty_input_all_zero():
    m = confusion_from_predictions([], ("A", "B"))
    assert np.array_equal(m.counts, np.zeros((2, 2), dtype=np.int64))
    assert m.total == 0


def test_confusion_rejects_unknown_labels():
    with pytest.raises(DataError, match="unknown actual label 'C'"):
        confusion_from_predictions([("C", "A")], ("A", "B"))
    with pytest.raises(DataError, match="unknown predicted label 'C'"):
        confusion_from_predictions([("A", "C")], ("A", "B"))
    with pytest.raises(DataError, match="unknown class 'C'"):
        binary_tally(confusion_from_predictions([], ("A", "B")), "C")


def test_random_pairs_match_brute_tally_loop():
    rng = np.random.default_rng(30)
    labels = ("a", "b", "c", "d")
    pairs = [(labels[i], labels[j])
             for i, j in rng.integers(0, 4, size=(1000, 2))]
    m = confusion_from_predictions(pairs, labels)
    assert m.total == 1000
    for k, name in enumerate(labels):
        t = binary_tally(m, name)
        assert (t.tp, t.fp, t.fn, t.tn) == oracles.brute_tally(pairs, name)
        assert m.counts[k, :].sum() == sum(1 for a, _ in pairs if a == name)
        assert m.counts[:, k].sum() == sum(1 for _, p in pairs if p == name)


def test_field_matrix_nest_tally():
    t = binary_tally(FIELD_MATRIX, "nest")
    assert (t.tp, t.fn, t.fp, t.tn) == (332, 19, 26, 736)
    assert FIELD_MATRIX.total == 1113
    assert abs(tpr(t) - 332 / 351) == 0.0
    assert round(tpr(t), 4) == 0.9459


def test_identity_matrix_tally():
    m = ConfusionMatrix(("x", "y"), np.diag([5, 5]))
    t = binary_tally(m, "x")
    assert (t.tp, t.fp, t.fn, t.tn) == (5, 0, 0, 5)
    assert tpr(t) == ppv(t) == acc(t) == 1.0


def test_all_zero_matrix_tally():
    m = ConfusionMatrix(("x", "y"), np.zeros((2, 2), dtype=np.int64))
    t = binary_tally(m, "x")
    assert (t.tp, t.fp, t.fn, t.tn) == (0, 0, 0, 0)


def test_tally_invariants_on_random_matrices():
    rng = np.random.default_rng(31)
    labels = tuple("abcde")
    for _ in range(50):
        m = ConfusionMatrix(labels, rng.integers(0, 40, size=(5, 5)))
        tallies = [binary_tally(m, name) for name in labels]
        for t in tallies:
            assert t.tp + t.fp + t.fn + t.tn == m.total
        assert sum(t.tp for t in tallies) == int(np.trace(m.counts))


def test_metrics_match_brute_ratios_exactly():
    rng = np.random.default_rng(32)
    labels = ("p", "q", "r")
    pairs = [(labels[i], labels[j]) for i, j in rng.integers(0, 3, size=(300, 2))]
    m = confusion_from_predictions(pairs, labels)
    for name in labels:
        t = binary_tally(m, name)
        btp, bfp, bfn, btn = oracles.brute_tally(pairs, name)
        assert tpr(t) == btp / (btp + bfn)
        assert ppv(t) == btp / (btp + bfp)
        assert acc(t) == (btp + btn) / (btp + bfp + bfn + btn)
        for v in (tpr(t), ppv(t), acc(t)):
            assert 0.0 <= v <= 1.0


def test_perfect_and_degenerate_rates():
    assert tpr(BinaryTally(7, 0, 0, 3)) == 1.0
    assert ppv(BinaryTally(7, 0, 0, 3)) == 1.0
    assert acc(BinaryTally(7, 0, 0, 3)) == 1.0
    assert tpr(BinaryTally(0, 4, 9, 3)) == 0.0


def test_zero_denominators_raise_undefined():
    with pytest.raises(UndefinedMetricError, match="TPR"):
        tpr(BinaryTally(0, 5, 0, 5))
    with pytest.raises(UndefinedMetricError, match="PPV"):
        ppv(BinaryTally(0, 0, 5, 5))
    with pytest.raises(UndefinedMetricError, match="ACC"):
        acc(BinaryTally(0, 0, 0, 0))
    with pytest.raises(UndefinedMetricError, match="accuracy"):
        multiclass_accuracy(ConfusionMatrix(("a",), np.zeros((1, 1), dtype=np.int64)))


def test_undefined_metric_is_a_numeric_error():
    from wavescat.errors import NumericError
    assert issubclass(UndefinedMetricError, NumericError)


def test_multiclass_accuracy_is_trace_over_total():
    assert multiclass_accuracy(FIELD_MATRIX) == (332 + 180 + 150 + 140 + 245) / 1113
    # one-vs-rest ACC of a class is a different number in the multiclass case
    assert acc(binary_tally(FIELD_MATRIX, "nest")) != multiclass_accuracy(FIELD_MATRIX)


def test_matrix_validation():
    with pytest.raises(DataError, match="shape"):
        ConfusionMatrix(("a", "b"), np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(DataError, match="non-negative"):
        ConfusionMatrix(("a", "b"), np.array([[1, 0], [0, -1]]))
    with pytest.raises(DataError, match="non-negative"):
        BinaryTally(1, 1, -1, 1)


def test_efficiency_table_values():
    assert round(efficiency(66.7, 472e9), 3) == 0.141
    assert round(efficiency(149.3, 3000e9), 3) == 0.050
    assert efficiency(0.0, 1e9) == 0.0


def test_efficiency_guards():
    with pytest.raises(DataError, match="peak"):
        efficiency(10.0, 0.0)
    with pytest.raises(DataError, match="peak"):
        efficiency(10.0, -1e9)
    for peak in (float("nan"), float("inf")):
        with pytest.raises(DataError, match="finite and positive"):
            efficiency(10.0, peak)
    with pytest.raises(DataError, match="fps"):
        efficiency(-1.0, 1e9)
