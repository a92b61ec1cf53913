"""Remaining-duration regression with corridor-weighted robust losses.

The regressor reuses the appearance embedding and causal context; the head
maps [embedding, context, elapsed minutes] through one tanh layer to an
output in the model's own units: output_scale times its target. The target
is the remaining minutes (output_scale 0.05 by default), or for the
self-supervised progress source prog(t) below (output_scale 1). Training
losses compare outputs with targets in those units:

    smooth_l1(x) = 0.5 x^2 / beta        for |x| < beta,
                   |x| - 0.5 beta        otherwise,

optionally weighted by the corridor factor pi(y, t). The corridor runs from
the ground truth gt(t) to a border c(t) that blends gt with the naive
median-based guess n(t) = max(t_median - t, 0):

    prog(t)  = t / (gt + t)
    alpha(t) = 1 - 2 / (1 + exp(5 * prog))
    c(t)     = alpha * gt + (1 - alpha) * n(t)
    pi(y, t) = ((y - gt) / (c - gt))^2 inside the corridor, else 1.

pi is computed on minute values (it is scale-invariant), carries no
gradient and weighs the remaining-minutes target only. A batch loss is the
sum of its rows' terms under per-row weights (appearance._trunk_source);
rsd_loss_and_grads is that loss on all of one video's frames. Four pipelines
consume an upstream segmentation result: frozen feature extraction,
low-rate pretraining transfer, joint training with an auxiliary head
(regularization), and a from-scratch single-task baseline.
"""
from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .appearance import (
    CONTEXT_LAMBDA,
    DenseLayer,
    TrainConfig,
    _check_lambda,
    _trunk_blocks,
    _trunk_source,
    init_appearance,
    init_dense,
    softmax_cross_entropy,
    train_appearance,
)
from .core import Corpus, VideoSequence
from .errors import DataFormatError, NumericalError
from .evaluation import mae_minutes
from .optim import minibatch_epochs
from .segtrain import SegCheckpoint, uniform_labels

logger = logging.getLogger("segrsd")

PIPELINES = ("feature_extraction", "pretraining", "regularization", "single_task")
AUX_TASKS = ("none", "learned_seg", "uniform", "progress", "phase")
LOSSES = ("smoothl1", "corr")
AUX_KINDS = ("none", "classes", "progress")  # what an RSD model's aux head predicts
# the per-video target of each target kind, which the loss and the val MAE read
TARGETS = {
    "duration": VideoSequence.remaining_min,
    "progress": lambda video: progress(video.elapsed_min(), video.remaining_min()),
}


# ---------------------------------------------------------------------------
# losses

def smooth_l1(y, target, beta: float = 1.0):
    """Huber-style loss; quadratic inside |y - target| < beta, linear outside."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    x = np.abs(np.asarray(y, dtype=np.float64) - np.asarray(target, dtype=np.float64))
    out = np.where(x < beta, 0.5 * x * x / beta, x - 0.5 * beta)
    return float(out) if out.ndim == 0 else out


def smooth_l1_grad(y, target, beta: float = 1.0):
    """d smooth_l1 / d y."""
    x = np.asarray(y, dtype=np.float64) - np.asarray(target, dtype=np.float64)
    out = np.where(np.abs(x) < beta, x / beta, np.sign(x))
    return float(out) if out.ndim == 0 else out


def progress(t_elapsed, gt_remaining):
    """Fraction of the procedure elapsed: t / (gt + t), in [0, 1]."""
    t = np.asarray(t_elapsed, dtype=np.float64)
    gt = np.asarray(gt_remaining, dtype=np.float64)
    if np.any(t < 0) or np.any(gt < 0):
        raise ValueError("elapsed and remaining times must be non-negative")
    total = t + gt
    if np.any(total <= 0):
        raise ValueError("progress undefined at t = gt = 0")
    out = t / total
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class CorridorParams:
    t_median: float
    scale: float = 0.05
    beta: float = 1.0

    def __post_init__(self):
        if self.t_median <= 0 or self.scale <= 0 or self.beta <= 0:
            raise ValueError("corridor parameters must be positive")

    @classmethod
    def from_corpus(cls, corpus: Corpus):
        durations = np.sort([v.duration_min for v in corpus.by_split("train")])
        n = len(durations)
        # the middle value or the mean of the middle two: np.median's value,
        # without the numpy.ma import np.median makes on first use
        middle = durations[(n - 1) // 2:n // 2 + 1]
        return cls(float(middle.sum() / len(middle)))


def naive_prediction(t_elapsed, params: CorridorParams):
    """Median-based guess n(t) = max(t_median - t, 0)."""
    out = np.maximum(params.t_median - np.asarray(t_elapsed, dtype=np.float64), 0.0)
    return float(out) if out.ndim == 0 else out


def corridor_border(t_elapsed, gt_remaining, params: CorridorParams):
    """Corridor edge c(t): early in a procedure it leans on the naive guess."""
    prog = progress(t_elapsed, gt_remaining)
    alpha = 1.0 - 2.0 / (1.0 + np.exp(5.0 * np.asarray(prog)))
    naive = naive_prediction(t_elapsed, params)
    out = alpha * np.asarray(gt_remaining, dtype=np.float64) + (1.0 - alpha) * naive
    return float(out) if out.ndim == 0 else out


def corridor_weight(y, t_elapsed, gt_remaining, params: CorridorParams):
    """pi(y, t): quadratic ramp from 0 at gt to 1 at the corridor border.

    Outside the corridor (and when the corridor is degenerate, c = gt) the
    weight is 1. Inputs are minute values; the weight is scale-invariant.
    """
    y = np.asarray(y, dtype=np.float64)
    gt = np.asarray(gt_remaining, dtype=np.float64)
    border = np.asarray(corridor_border(t_elapsed, gt_remaining, params))
    span = border - gt
    inside = (y - gt) * (y - border) <= 0
    safe = np.where(span == 0, 1.0, span)
    ramp = ((y - gt) / safe) ** 2
    out = np.where(inside & (span != 0), ramp, 1.0)
    return float(out) if out.ndim == 0 else out


def corr_smooth_l1(y, t_elapsed, gt_remaining, params: CorridorParams):
    """Corridor-weighted smooth L1 on scaled values; pi carries no gradient."""
    pi = corridor_weight(y, t_elapsed, gt_remaining, params)
    base = smooth_l1(
        params.scale * np.asarray(y, dtype=np.float64),
        params.scale * np.asarray(gt_remaining, dtype=np.float64),
        params.beta,
    )
    out = np.asarray(pi) * np.asarray(base)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# model

@dataclass
class PipelineMode:
    pipeline: str
    aux_task: str = "none"

    def __post_init__(self):
        if self.pipeline not in PIPELINES:
            raise ValueError(f"unknown pipeline {self.pipeline!r}")
        if self.aux_task not in AUX_TASKS:
            raise ValueError(f"unknown aux task {self.aux_task!r}")
        if self.pipeline == "single_task" and self.aux_task != "none":
            raise ValueError("single_task takes no auxiliary task")
        if self.pipeline != "single_task" and self.aux_task == "none":
            raise ValueError(f"{self.pipeline} needs an auxiliary task as its source")

    @property
    def transfers(self) -> bool:
        """Whether the pipeline starts from an upstream embedding."""
        return self.pipeline in ("feature_extraction", "pretraining")


@dataclass
class RsdParams:
    """Embedding stack + context, two-layer duration head, optional aux head."""

    embed: list[DenseLayer]
    context_lambda: float
    head1: DenseLayer               # (head_dim, 2*emb + 1), tanh
    head2: DenseLayer               # (1, head_dim), linear
    aux_head: DenseLayer | None = None
    aux_kind: str = "none"          # one of AUX_KINDS
    trainable_mask: list[bool] = field(default_factory=list)
    output_scale: float = 0.05

    def __post_init__(self):
        _check_lambda(self.context_lambda)
        scale = self.output_scale
        if isinstance(scale, bool) or not isinstance(scale, (int, float)) or not 0 < scale < np.inf:
            raise ValueError(f"output_scale is not a finite positive number: {scale!r}")
        emb_dim = self.embed[-1].out_dim
        if self.head1.in_dim != 2 * emb_dim + 1:
            raise ValueError("duration head must take [embedding, context, elapsed]")
        if self.head2.in_dim != self.head1.out_dim or self.head2.out_dim != 1:
            raise ValueError("output layer shape mismatch")
        if not self.trainable_mask:
            self.trainable_mask = [True] * len(self.layer_list())
        if len(self.trainable_mask) != len(self.layer_list()):
            raise ValueError(f"trainable_mask needs one entry per layer: {self.trainable_mask!r}")
        if self.aux_kind not in AUX_KINDS:
            raise ValueError(f"unknown aux kind {self.aux_kind!r}")
        if (self.aux_head is None) != (self.aux_kind == "none"):
            raise ValueError("aux head and aux kind must agree")

    def layer_list(self) -> list[DenseLayer]:
        layers = [*self.embed, self.head1, self.head2]
        if self.aux_head is not None:
            layers.append(self.aux_head)
        return layers


@dataclass
class AuxInit:
    """Transferable upstream state: embedding stack and optional frame labels."""

    embed: list[DenseLayer]
    context_lambda: float
    labels: dict[str, np.ndarray] | None = None

    @classmethod
    def from_checkpoint(cls, ckpt: SegCheckpoint) -> "AuxInit":
        app = ckpt.appearance
        return cls(copy.deepcopy(app.layers[:-1]), app.context_lambda, dict(ckpt.labels))


def init_rsd(
    rng: np.random.Generator,
    n_features: int,
    hidden_dim: int = 32,
    head_dim: int = 16,
    context_lambda: float = CONTEXT_LAMBDA,
    aux_kind: str = "none",
    aux_dim: int = 0,
    output_scale: float = 0.05,
    embed: Sequence[DenseLayer] | None = None,
) -> RsdParams:
    embed_layers = (
        copy.deepcopy(list(embed))
        if embed is not None
        else [init_dense(rng, n_features, hidden_dim)]
    )
    emb_dim = embed_layers[-1].out_dim
    head1 = init_dense(rng, 2 * emb_dim + 1, head_dim)
    head2 = init_dense(rng, head_dim, 1)
    aux = init_dense(rng, emb_dim, aux_dim) if aux_kind != "none" else None
    return RsdParams(
        embed_layers, context_lambda, head1, head2, aux, aux_kind,
        output_scale=output_scale,
    )


def _duration_head(params: RsdParams, emb: np.ndarray, ctx: np.ndarray, elapsed: np.ndarray):
    """The duration head on rows of [emb, ctx, elapsed minutes]; (inp, hidden,
    scaled), scaled the output before output_scale."""
    inp = np.concatenate([emb, ctx, elapsed[:, None]], axis=1)
    hidden = inp @ params.head1.weights.T
    hidden += params.head1.bias
    np.tanh(hidden, out=hidden)
    scaled = hidden @ params.head2.weights.T
    scaled += params.head2.bias
    return inp, hidden, scaled[:, 0]


def predict_video(params: RsdParams, video: VideoSequence) -> np.ndarray:
    """Predicted remaining minutes at every frame, with the head computed
    block by block on _trunk_blocks."""
    elapsed = video.elapsed_min()
    out = np.empty(video.n_frames)
    for start, emb, ctx in _trunk_blocks(params.embed, params.context_lambda, video.features):
        rows = slice(start, start + len(emb))
        scaled = _duration_head(params, emb, ctx, elapsed[rows])[2]
        np.divide(scaled, params.output_scale, out=out[rows])
    return out


# the name under which the acceptance gates import it
rsd_forward = predict_video


def rsd_loss_and_grads(params: RsdParams, video: VideoSequence, loss_name: str,
                       corridor: CorridorParams):
    """Mean duration loss over a video's frames, with analytic gradients:
    train_rsd's batch loss (_trunk_source with _stacked_loss on the remaining
    minutes, no aux term) on a batch of all the video's frames. Returns
    (loss, grads) with grads aligned to params.layer_list() through the
    duration head; frozen embedding layers get None.
    """
    head_loss = _stacked_loss(params, [video], loss_name, "duration", corridor, None, 1.0)
    batch_loss = _trunk_source(params.embed, params.trainable_mask[:len(params.embed)],
                               params.context_lambda, [video.features], head_loss)
    return batch_loss(np.arange(video.n_frames))


def _stacked_loss(params: RsdParams, videos, loss_name, target_kind, corridor,
                  aux_targets, aux_weight):
    """head_loss(emb, ctx, rows, weights) of appearance._trunk_source on
    videos' frames stacked in order, with the objective fixed here once: the
    target in the model's units, params.output_scale times
    TARGETS[target_kind], and for corr the remaining minutes the corridor
    weight reads. It returns _rsd_loss's (loss, d_phi, head_grads)."""
    if loss_name not in LOSSES:
        raise ValueError(f"unknown loss {loss_name!r}")
    if target_kind not in TARGETS:
        raise ValueError(f"unknown target kind {target_kind!r}")
    corr = loss_name == "corr"
    if corr and target_kind != "duration":
        raise ValueError(f"corr: the corridor weighs remaining minutes only, not {target_kind}")
    elapsed = np.concatenate([v.elapsed_min() for v in videos])
    target = params.output_scale * np.concatenate([TARGETS[target_kind](v) for v in videos])
    remaining = np.concatenate([v.remaining_min() for v in videos]) if corr else None
    aux = None if aux_targets is None else np.concatenate([aux_targets[v.id] for v in videos])

    def head_loss(emb, ctx, rows, weights):
        return _rsd_loss(params, emb, ctx, elapsed[rows], target[rows],
                         None if remaining is None else remaining[rows], corridor,
                         None if aux is None else aux[rows], weights, aux_weight)

    return head_loss


def _rsd_loss(params: RsdParams, emb, ctx, elapsed, target, remaining, corridor, aux_target,
              weights, aux_weight):
    """The heads and losses of train_rsd on [emb, ctx] and the elapsed
    minutes, targets, remaining minutes if corridor-weighted, aux targets and
    per-row weights at the same rows, each loss the weighted sum of its rows'
    terms. Returns (loss, d_phi, head_grads): the gradient at the rows of
    [emb, ctx], then [d_w, d_b] of head1, head2 and the aux head if any."""
    inp, hidden, pred = _duration_head(params, emb, ctx, elapsed)
    pi = 1.0
    if remaining is not None:
        pi = corridor_weight(pred / params.output_scale, elapsed, remaining, corridor)
    loss = float((weights * (pi * smooth_l1(pred, target, corridor.beta))).sum())
    dpred = weights * pi * smooth_l1_grad(pred, target, corridor.beta)

    # backward through the duration head
    dhidden = dpred[:, None] * params.head2.weights
    grad_h2 = [dpred[None, :] @ hidden, np.array([dpred.sum()])]
    dpre1 = dhidden * (1.0 - hidden * hidden)
    grads = [[dpre1.T @ inp, dpre1.sum(axis=0)], grad_h2]
    dinp = dpre1 @ params.head1.weights

    h = emb.shape[1]
    if params.aux_head is not None and aux_target is not None:
        z = emb @ params.aux_head.weights.T + params.aux_head.bias
        aux_w = aux_weight * weights
        if params.aux_kind == "classes":
            aux_loss, dz = softmax_cross_entropy(z, aux_target, aux_w)
        else:
            aux_loss = float((aux_w * smooth_l1(z[:, 0], aux_target, corridor.beta)).sum())
            dz = np.reshape(aux_w, (-1, 1)) * smooth_l1_grad(z, aux_target[:, None], corridor.beta)
        loss += aux_loss
        grads.append([dz.T @ inp[:, :h], dz.sum(axis=0)])
        dinp[:, :h] += dz @ params.aux_head.weights
    return loss, dinp[:, :2 * h], grads


# ---------------------------------------------------------------------------
# training

def default_train_config(pipeline: str, seed: int = 0) -> TrainConfig:
    """Adam for most pipelines; the pretraining transfer uses plain SGD longer."""
    if pipeline == "pretraining":
        return TrainConfig(learning_rate=1e-1, epochs=250, l2_weight=1e-5, optimizer="sgd",
                           seed=seed)
    return TrainConfig(l2_weight=1e-5, seed=seed)


def _resolve_aux_targets(
    corpus: Corpus, task: str, init: AuxInit | None, n_subactivities: int
):
    """Per-video targets of an auxiliary task: (targets, aux kind, output width)."""
    videos = corpus.by_split("train")
    if task == "learned_seg":
        if init is None or init.labels is None:
            raise DataFormatError("learned_seg regularization needs checkpoint labels")
        corpus.check_labels(init.labels, "checkpoint", [v.id for v in videos])
        targets = {v.id: np.asarray(init.labels[v.id], dtype=np.int64) for v in videos}
    elif task == "phase":
        missing = [v.id for v in videos if v.phase_labels is None]
        if missing:
            raise DataFormatError(f"phase task needs phase labels; missing for {missing}")
        targets = {v.id: v.phase_labels for v in videos}
    elif task == "uniform":
        targets = {v.id: uniform_labels(v, n_subactivities) for v in videos}
    elif task == "progress":
        return {v.id: TARGETS["progress"](v) for v in videos}, "progress", 1
    else:
        raise ValueError(f"aux task {task!r} has no targets")
    return targets, "classes", int(max(t.max() for t in targets.values())) + 1


def mae_of(params: RsdParams, videos: Sequence[VideoSequence]) -> float:
    """Macro-averaged MAE (per-video mean first) of the predicted remaining minutes."""
    return mae_minutes({v.id: predict_video(params, v) for v in videos}, videos)


def train_rsd(
    corpus: Corpus,
    init: AuxInit | None,
    mode: PipelineMode,
    loss_name: str,
    config: TrainConfig,
    corridor: CorridorParams,
    hidden_dim: int = 32,
    aux_weight: float = 1.0,
    n_subactivities: int = 10,
    target_kind: str = "duration",
    verbose: bool = False,
):
    """Train one pipeline; returns (best-val params, history rows).

    History rows are (epoch, train_loss, val_mae); training prints nothing,
    and the caller reports the history (verbose is accepted and ignored, for
    callers written when training printed it). The returned parameters
    are the snapshot with the lowest validation MAE. A non-finite loss stops
    training and returns the best parameters seen so far. Each epoch's val
    MAE is mae_minutes over predict_video of the val videos (of the train
    videos if there are none), against the trained target. With the whole
    embedding frozen (feature_extraction), every train frame's [emb, ctx] is
    computed once per call and each batch runs the heads once on its rows.
    """
    if mode.transfers and init is None:
        raise ValueError(f"{mode.pipeline} needs an upstream embedding to transfer")

    rng = np.random.default_rng(config.seed)
    aux_targets, aux_kind, aux_dim = None, "none", 0
    if mode.pipeline == "regularization":
        aux_targets, aux_kind, aux_dim = _resolve_aux_targets(
            corpus, mode.aux_task, init, n_subactivities
        )
    params = init_rsd(
        rng,
        corpus.feature_dim,
        hidden_dim=hidden_dim,
        context_lambda=init.context_lambda if mode.transfers else CONTEXT_LAMBDA,
        aux_kind=aux_kind,
        aux_dim=aux_dim,
        output_scale=1.0 if target_kind == "progress" else corridor.scale,
        embed=init.embed if mode.transfers else None,
    )
    n_embed = len(params.embed)
    lr_mult = [1.0] * len(params.layer_list())
    if mode.pipeline == "feature_extraction":
        for i in range(n_embed):
            params.trainable_mask[i] = False
    elif mode.pipeline == "pretraining":
        for i in range(n_embed - 1):
            params.trainable_mask[i] = False
        lr_mult[n_embed - 1] = 0.1

    train_videos = corpus.by_split("train")
    val_set = corpus.by_split("val") or train_videos
    history: list[tuple[int, float, float]] = []
    best = copy.deepcopy(params)
    best_mae = np.inf
    batch_loss = _trunk_source(
        params.embed, params.trainable_mask[:n_embed], params.context_lambda,
        [v.features for v in train_videos],
        _stacked_loss(params, train_videos, loss_name, target_kind, corridor, aux_targets,
                      aux_weight),
    )
    epochs = minibatch_epochs(
        params.layer_list(), params.trainable_mask, sum(v.n_frames for v in train_videos),
        config, rng, batch_loss, lr_mult,
    )
    try:
        for epoch, loss in enumerate(epochs):
            preds = {v.id: predict_video(params, v) for v in val_set}
            mae = mae_minutes(preds, val_set, TARGETS[target_kind])
            history.append((epoch, loss, mae))
            if mae < best_mae:
                best_mae = mae
                best = copy.deepcopy(params)
    except NumericalError as err:
        logger.error("%s; stopping with best params", err)
    return best, history


def build_aux_init(
    corpus: Corpus,
    aux_task: str,
    n_subactivities: int = 10,
    hidden_dim: int = 32,
    config: TrainConfig | None = None,
    corridor: CorridorParams | None = None,
) -> AuxInit:
    """Produce the transferable embedding for a given auxiliary task.

    uniform and phase train a classifier on their respective labels; progress
    trains a regressor on prog(t). learned_seg transfers from a segmentation
    checkpoint instead, through AuxInit.from_checkpoint.
    """
    videos = corpus.by_split("train")
    config = config or TrainConfig(epochs=40)
    if aux_task in ("uniform", "phase"):
        labels, _, n_classes = _resolve_aux_targets(corpus, aux_task, None, n_subactivities)
        params = init_appearance(
            np.random.default_rng(config.seed), corpus.feature_dim, [hidden_dim], n_classes,
        )
        params = train_appearance(videos, labels, params, config)
        return AuxInit(copy.deepcopy(params.layers[:-1]), params.context_lambda, labels)
    if aux_task == "progress":
        corridor = corridor or CorridorParams.from_corpus(corpus)
        mode = PipelineMode("single_task", "none")
        params, _ = train_rsd(
            corpus, None, mode, "smoothl1", config, corridor,
            hidden_dim=hidden_dim, target_kind="progress",
        )
        return AuxInit(copy.deepcopy(params.embed), params.context_lambda, None)
    raise ValueError(f"aux task {aux_task!r} does not define a transfer")
