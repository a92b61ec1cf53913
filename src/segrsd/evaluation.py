"""Evaluation metrics and plain-text report tables."""
from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .core import VideoSequence


def mae_minutes(
    predictions: Mapping[str, np.ndarray],
    videos: Sequence[VideoSequence],
    target=VideoSequence.remaining_min,
) -> float:
    """Mean absolute error against target(video), by default the remaining
    minutes, averaged per video first."""
    if not videos:
        raise ValueError("no videos to evaluate")
    errs = []
    for video in videos:
        pred = np.asarray(predictions[video.id], dtype=np.float64)
        if pred.shape != (video.n_frames,):
            raise ValueError(
                f"{video.id}: prediction length {pred.shape} != {video.n_frames} frames"
            )
        errs.append(float(np.mean(np.abs(pred - target(video)))))
    return float(np.mean(errs))


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Indices where each run of equal values begins in a sorted 1-d array."""
    new = np.ones(len(ordered), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    return np.flatnonzero(new)


def label_match_accuracy(predicted: np.ndarray, reference: np.ndarray):
    """Accuracy under the best many-to-one mapping of predicted onto reference.

    Each predicted label is mapped to the reference label it co-occurs with
    most often (ties to the smaller reference label). Returns (mapping,
    accuracy). This is the usual protocol for comparing an unsupervised
    labelling against ground truth when cluster identities are arbitrary.
    """
    predicted = np.asarray(predicted)
    reference = np.asarray(reference)
    if predicted.shape != reference.shape or predicted.ndim != 1 or not predicted.size:
        raise ValueError("label arrays must be 1-d, non-empty and equally long")
    # sorted distinct labels and dense codes by sorting (np.unique would
    # import numpy.ma); memory stays linear in the frames whatever the values
    values = []
    for labels in (predicted, reference):
        ordered = np.sort(labels)
        values.append(ordered[_run_starts(ordered)])
    pred_values, ref_values = values
    n_ref = len(ref_values)
    pairs = np.sort(
        np.searchsorted(pred_values, predicted) * n_ref + np.searchsorted(ref_values, reference)
    )
    starts = _run_starts(pairs)
    counts = np.diff(starts, append=len(pairs))
    p, r = np.divmod(pairs[starts], n_ref)
    # per predicted label the largest count first; the stable sort keeps
    # equal counts in ascending reference order
    order = np.lexsort((-counts, p))
    best = order[_run_starts(p[order])]
    mapping = {int(pred_values[p[i]]): int(ref_values[r[i]]) for i in best}
    return mapping, int(counts[best].sum()) / len(predicted)


def corpus_label_accuracy(
    predicted: Mapping[str, np.ndarray], reference: Mapping[str, np.ndarray]
) -> float:
    """Pooled frame accuracy over a corpus with one shared label mapping."""
    ids = sorted(predicted)
    if sorted(reference) != ids:
        raise ValueError("prediction and reference cover different videos")
    pred = np.concatenate([np.asarray(predicted[i]) for i in ids])
    ref = np.concatenate([np.asarray(reference[i]) for i in ids])
    _, acc = label_match_accuracy(pred, ref)
    return acc


def summarize(values: Sequence[float]) -> str:
    """"0.1234" for one value, "0.1234 (±0.0056)" for repeats."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 1:
        return f"{arr[0]:.4f}"
    return f"{arr.mean():.4f} (±{arr.std(ddof=1):.4f})"


def format_table(rows: Sequence[str], cols: Sequence[str], cells: dict) -> str:
    """Aligned text table; cells maps (row, col) to an already-formatted string."""
    col_width = max(
        [len(c) for c in cols]
        + [len(cells.get((r, c), "-")) for r in rows for c in cols]
    )
    row_width = max(len(r) for r in rows) if rows else 0
    lines = [" " * row_width + "  " + "  ".join(c.rjust(col_width) for c in cols)]
    for r in rows:
        cells_fmt = "  ".join(cells.get((r, c), "-").rjust(col_width) for c in cols)
        lines.append(r.ljust(row_width) + "  " + cells_fmt)
    return "\n".join(lines) + "\n"


def format_csv(rows: Sequence[str], cols: Sequence[str], cells: dict) -> str:
    lines = ["," + ",".join(cols)]
    for r in rows:
        lines.append(r + "," + ",".join(cells.get((r, c), "") for c in cols))
    return "\n".join(lines) + "\n"
