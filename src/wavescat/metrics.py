"""Confusion matrices, one-vs-rest tallies, and the derived metrics.

counts[actual][predicted] throughout.  Per-class TPR/PPV/ACC come from the
one-vs-rest reduction: the class under test is positive, everything else
negative.  Multiclass accuracy (trace/total) is a different number from any
single class's one-vs-rest ACC; both are exposed.

Zero denominators raise UndefinedMetricError instead of returning a
sentinel, so aggregate reports cannot silently absorb 0/0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, UndefinedMetricError


@dataclass(frozen=True)
class ConfusionMatrix:
    labels: tuple[str, ...]
    counts: np.ndarray  # counts[actual][predicted]

    def __post_init__(self):
        c = self.counts
        n = len(self.labels)
        if c.shape != (n, n):
            raise DataError(f"counts shape {c.shape} does not match {n} labels")
        if (c < 0).any():
            raise DataError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class BinaryTally:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise DataError("tally entries must be non-negative")


def confusion_from_predictions(pairs, labels) -> ConfusionMatrix:
    """Count (actual, predicted) pairs into a matrix over `labels`."""
    labels = tuple(labels)
    index = {name: i for i, name in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for actual, predicted in pairs:
        if actual not in index:
            raise DataError(f"unknown actual label {actual!r}")
        if predicted not in index:
            raise DataError(f"unknown predicted label {predicted!r}")
        counts[index[actual], index[predicted]] += 1
    return ConfusionMatrix(labels, counts)


def binary_tally(matrix: ConfusionMatrix, positive_class: str) -> BinaryTally:
    """One-vs-rest reduction for one class."""
    if positive_class not in matrix.labels:
        raise DataError(f"unknown class {positive_class!r}")
    p = matrix.labels.index(positive_class)
    c = matrix.counts
    tp = int(c[p, p])
    fn = int(c[p, :].sum()) - tp
    fp = int(c[:, p].sum()) - tp
    tn = matrix.total - tp - fn - fp
    return BinaryTally(tp=tp, fp=fp, fn=fn, tn=tn)


def tpr(t: BinaryTally) -> float:
    """Recall TP/(TP+FN)."""
    if t.tp + t.fn == 0:
        raise UndefinedMetricError("TPR undefined: no positive samples (TP+FN=0)")
    return t.tp / (t.tp + t.fn)


def ppv(t: BinaryTally) -> float:
    """Precision TP/(TP+FP)."""
    if t.tp + t.fp == 0:
        raise UndefinedMetricError("PPV undefined: no positive predictions (TP+FP=0)")
    return t.tp / (t.tp + t.fp)


def acc(t: BinaryTally) -> float:
    """One-vs-rest accuracy (TP+TN)/(TP+FP+FN+TN)."""
    total = t.tp + t.fp + t.fn + t.tn
    if total == 0:
        raise UndefinedMetricError("ACC undefined: empty tally")
    return (t.tp + t.tn) / total


def multiclass_accuracy(matrix: ConfusionMatrix) -> float:
    """trace/total: fraction of samples on the diagonal."""
    if matrix.total == 0:
        raise UndefinedMetricError("accuracy undefined: empty matrix")
    return float(np.trace(matrix.counts)) / matrix.total


def check_peak(peak_flops: float) -> float:
    """Return a device peak in FLOPS after checking it is finite and positive."""
    if not 0 < peak_flops < np.inf:
        raise DataError(f"device peak must be finite and positive, got {peak_flops}")
    return peak_flops


def efficiency(fps: float, peak_flops: float) -> float:
    """Hardware-match ratio: FPS per GFLOPS of device peak."""
    check_peak(peak_flops)
    if fps < 0:
        raise DataError(f"fps must be non-negative, got {fps}")
    return fps / (peak_flops / 1e9)
