"""Alternating trainer: appearance model vs. generative temporal model.

Each iteration trains the classifier on the current pseudo-labels with the
staged layer mask, runs it once over every training video, refreshes the
order/length models from the current segmentations, resamples every training
video's segmentation from the classifier's probabilities, and records a
checkpoint scored by the temporal coherence (TC) of the same probabilities.
The best checkpoint inside a trailing iteration window is the one handed to
downstream training.

Fixed settings: the order and length models keep their default priors,
temporal.NU0, R0 and ALPHA0 (R0 also disperses the initial orders), the
classifier trains with TrainConfig's defaults at each stage's epochs and
seed, and the sampler proposes a birth or death with probability
temporal.BIRTH_DEATH_PROB.
"""
from __future__ import annotations

import copy
import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .appearance import (
    AppearanceParams,
    TrainConfig,
    forward,
    init_appearance,
    mean_cross_entropy,
    staged_mask,
    tc_pretrain,
    train_appearance,
)
from .core import Corpus, Segmentation, derived_rng, segmentation_to_labels
from .errors import NumericalError
from .temporal import (
    LengthModel,
    MallowsModel,
    R0,
    estimate_rho,
    inversions_to_order,
    mallows_sample,
    partial_order_inversions,
    sample_segmentation,
    update_theta,
)

logger = logging.getLogger("segrsd")

# the exact TC search takes O(2^n * n) time and O(2^n) memory for n labels
MAX_COHERENT_LABELS = 16


@dataclass
class SegTrainConfig:
    n_subactivities: int = 10
    iterations: int = 8
    epochs_per_iteration: int = 5
    selection_window: tuple[int, int] = (6, 8)
    sweeps_per_iteration: int = 25
    hidden_dim: int = 32
    tc_pretrain_epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.n_subactivities > MAX_COHERENT_LABELS:
            raise ValueError(
                f"n_subactivities above {MAX_COHERENT_LABELS}, the exact TC search's limit"
            )
        a, b = self.selection_window
        if not (1 <= a <= b <= self.iterations) and self.iterations > 0:
            raise ValueError(
                f"selection window {self.selection_window} outside 1..{self.iterations}"
            )


@dataclass
class SegCheckpoint:
    iteration: int
    appearance: AppearanceParams
    mallows: MallowsModel
    lengths: LengthModel
    labels: dict[str, np.ndarray]
    tc_score: float


# ---------------------------------------------------------------------------
# initial labels

def uniform_labels(video, n_subactivities: int) -> np.ndarray:
    """Identity-order segmentation with near-equal lengths (earlier segments longer)."""
    seg = Segmentation(
        tuple(zip(range(n_subactivities), _uniform_lengths(video.n_frames, n_subactivities))),
        n_subactivities,
    )
    return segmentation_to_labels(seg)


def _uniform_lengths(n_frames: int, n_parts: int) -> list[int]:
    if n_frames < n_parts:
        raise ValueError(f"{n_frames} frames cannot host {n_parts} segments")
    base, extra = divmod(n_frames, n_parts)
    return [base + 1 if i < extra else base for i in range(n_parts)]


def init_labels(videos: Sequence, n_subactivities: int, rng) -> dict[str, Segmentation]:
    """Uniform lengths; subactivity order drawn from the Mallows prior at rho = R0."""
    prior = MallowsModel.with_constant_rho(n_subactivities, R0)
    out = {}
    for video in videos:
        order = inversions_to_order(mallows_sample(prior, rng))
        lengths = _uniform_lengths(video.n_frames, n_subactivities)
        out[video.id] = Segmentation(tuple(zip(order, lengths)), n_subactivities)
    return out


# ---------------------------------------------------------------------------
# temporal coherence measure

@dataclass(frozen=True)
class CoherentMatch:
    order: tuple[int, ...]
    accuracy: float


def best_coherent_match(pred_labels, n_subactivities: int) -> CoherentMatch:
    """Best agreement between the predictions and one coherent relabeling.

    A coherent relabeling keeps each present label's total footprint as one
    contiguous block; the search is over block orders. The labels S laid
    out last start at frame T - |S| (|S| their frame count), so the subset
    dynamic program best[S] = max over first label j of best[S - j] + the
    frames of j in its block is exact in O(2^n * n) for n present labels
    (Held & Karp 1962). Taking the smallest j on ties at every step yields
    the lexicographically smallest optimal order.
    """
    labels = np.asarray(pred_labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("predictions must be a non-empty 1-d label sequence")
    n_frames = labels.size
    if labels.min() < 0 or labels.max() >= n_subactivities:
        raise ValueError("labels outside [0, K)")
    present = np.flatnonzero(np.bincount(labels)).tolist()
    n = len(present)
    if n > MAX_COHERENT_LABELS:
        raise ValueError(
            f"{n} labels present, the exact TC search takes at most {MAX_COHERENT_LABELS}"
        )
    counts, gain = [], []  # gain[j][s]: frames of label j in its block at frame s
    for k in present:
        prefix = np.concatenate(([0], np.cumsum(labels == k)))
        counts.append(int(prefix[-1]))
        gain.append((prefix[counts[-1]:] - prefix[:-counts[-1]]).tolist())

    full = (1 << n) - 1
    start, best, first = [n_frames] * (full + 1), [0] * (full + 1), [0] * (full + 1)
    members = [(j, 1 << j, gain[j]) for j in range(n)]
    for subset in range(1, full + 1):
        low = subset & -subset
        pos = start[subset] = start[subset ^ low] - counts[low.bit_length() - 1]
        top = -1
        for j, bit, frames in members:
            if subset & bit:
                value = best[subset ^ bit] + frames[pos]
                if value > top:
                    top, first[subset] = value, j
        best[subset] = top

    order, subset = [], full
    while subset:
        order.append(present[first[subset]])
        subset ^= 1 << first[subset]
    return CoherentMatch(tuple(order), best[full] / n_frames)


def tc_from_labels(label_sequences, n_subactivities: int) -> float:
    """Mean best-coherent-match accuracy over the given label sequences."""
    scores = [
        best_coherent_match(labels, n_subactivities).accuracy
        for labels in label_sequences
    ]
    return float(np.mean(scores))


def tc_measure(params: AppearanceParams, videos: Sequence) -> float:
    """Temporal coherence of the classifier's argmax predictions."""
    preds = [np.argmax(forward(params, v), axis=1) for v in videos]
    return tc_from_labels(preds, params.n_classes)


def select_checkpoint(checkpoints: Sequence[SegCheckpoint], window: tuple[int, int]) -> SegCheckpoint:
    """Highest TC inside the iteration window; ties go to the latest iteration."""
    a, b = window
    eligible = [c for c in checkpoints if a <= c.iteration <= b]
    if not eligible:
        raise ValueError(f"no checkpoints inside iteration window {window}")
    best = eligible[0]
    for cand in eligible[1:]:
        if cand.tc_score >= best.tc_score:
            best = cand
    return best


# ---------------------------------------------------------------------------
# the alternating loop

def run(corpus: Corpus, config: SegTrainConfig, verbose: bool = True) -> list[SegCheckpoint]:
    """Alternate classifier training and segmentation resampling.

    One classifier pass per iteration gives every training video's
    probability table; the sampler, the iteration's cross-entropy against
    the labels it trained on and its TC all read those tables. Returns one
    checkpoint per completed iteration, whose labels the next iteration
    trains on; a non-finite training loss ends the run early with the
    checkpoints gathered so far.
    """
    videos = corpus.by_split("train")
    if not videos:
        raise ValueError("corpus has no training videos")
    k = config.n_subactivities
    segs = init_labels(videos, k, derived_rng(config.seed, "init"))
    params = init_appearance(
        derived_rng(config.seed, "weights"),
        corpus.feature_dim,
        [config.hidden_dim],
        k,
    )
    if config.tc_pretrain_epochs > 0:
        pre_cfg = TrainConfig(
            epochs=config.tc_pretrain_epochs,
            seed=int(derived_rng(config.seed, "tc").integers(2 ** 31)),
        )
        params = tc_pretrain(videos, params, pre_cfg)
    mallows = MallowsModel.with_constant_rho(k, R0)
    length_model = LengthModel.uniform(k)

    labels = {vid: segmentation_to_labels(seg) for vid, seg in segs.items()}
    checkpoints: list[SegCheckpoint] = []
    for iteration in range(1, config.iterations + 1):
        params.trainable_mask = staged_mask(iteration, len(params.layers))
        train_cfg = TrainConfig(
            epochs=config.epochs_per_iteration,
            seed=int(derived_rng(config.seed, "train", iteration).integers(2 ** 31)),
        )
        try:
            params = train_appearance(videos, labels, params, train_cfg)
        except NumericalError as err:
            logger.error("iteration %d aborted: %s", iteration, err)
            break
        probs = {v.id: forward(params, v) for v in videos}

        counts = np.zeros(k)
        for vid in labels:
            counts += np.bincount(labels[vid], minlength=k)
        length_model = LengthModel(k, update_theta(counts, length_model))
        observed = [partial_order_inversions(segs[v.id].order, k) for v in videos]
        mallows = MallowsModel(k, estimate_rho(observed, mallows))

        segs = {
            v.id: sample_segmentation(
                probs[v.id], mallows, length_model, segs[v.id],
                derived_rng(config.seed, "sample", iteration, v.id),
                sweeps=config.sweeps_per_iteration,
            )
            for v in videos
        }

        ce = mean_cross_entropy(probs, labels)
        tc = tc_from_labels([np.argmax(p, axis=1) for p in probs.values()], k)
        labels = {vid: segmentation_to_labels(seg) for vid, seg in segs.items()}
        if verbose:
            print(f"iter={iteration} ce={ce:.6f} tc={tc:.6f}")
        checkpoints.append(
            SegCheckpoint(
                iteration=iteration,
                appearance=copy.deepcopy(params),
                mallows=mallows,  # immutable, as are the lengths
                lengths=length_model,
                labels=labels,
                tc_score=tc,
            )
        )
    return checkpoints
