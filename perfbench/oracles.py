"""Output checks computed apart from the package under test.

Each function re-derives a figure the program reports, from first
principles and without calling the program's own implementation of it.
"""
from __future__ import annotations

import numpy as np


def coherent_matches(labels) -> int:
    """Most frames one coherent relabeling of `labels` can agree with.

    A coherent relabeling lays each present label's footprint out as one
    contiguous block; the block order is free. The block starting at frame
    s depends only on which labels come before it, so a dynamic program over
    subsets of present labels is exact in O(2^n * n) for n present labels.
    """
    labels = np.asarray(labels, dtype=np.int64)
    present = np.unique(labels)
    n = len(present)
    counts = [int((labels == k).sum()) for k in present]
    prefix = [np.concatenate(([0], np.cumsum(labels == k))) for k in present]
    full = 1 << n
    start = [0] * full
    best = [-1] * full
    best[0] = 0
    for subset in range(full):
        if best[subset] < 0:
            continue
        pos = start[subset]
        for j in range(n):
            bit = 1 << j
            if subset & bit:
                continue
            end = pos + counts[j]
            value = best[subset] + int(prefix[j][end] - prefix[j][pos])
            nxt = subset | bit
            start[nxt] = end
            if value > best[nxt]:
                best[nxt] = value
    return best[full - 1]


def tc_score(label_sequences) -> float:
    """Mean best-coherent-match accuracy, the TC measure of the paper."""
    return float(np.mean([coherent_matches(l) / len(l) for l in label_sequences]))


def naive_mae(train_frames, test_frames, frame_period_s: float = 1.0) -> float:
    """MAE of the median-duration guess max(t_median - t, 0), per video first.

    `train_frames` and `test_frames` are frame counts; durations and times
    are in minutes.
    """
    minutes = frame_period_s / 60.0
    t_median = float(np.median([n * minutes for n in train_frames]))
    errs = []
    for n in test_frames:
        elapsed = np.arange(n) * minutes
        remaining = n * minutes - elapsed
        errs.append(np.mean(np.abs(np.maximum(t_median - elapsed, 0.0) - remaining)))
    return float(np.mean(errs))


def one_to_one_accuracy(predicted, reference) -> float:
    """Pooled frame accuracy under the best one-to-one (Hungarian) label map."""
    from scipy.optimize import linear_sum_assignment

    predicted = np.asarray(predicted, dtype=np.int64)
    reference = np.asarray(reference, dtype=np.int64)
    table = np.zeros((predicted.max() + 1, reference.max() + 1), dtype=np.int64)
    np.add.at(table, (predicted, reference), 1)
    rows, cols = linear_sum_assignment(table, maximize=True)
    return float(table[rows, cols].sum() / len(predicted))
