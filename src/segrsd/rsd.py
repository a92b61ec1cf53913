"""Remaining-duration regression with corridor-weighted robust losses.

The regressor reuses the appearance embedding and causal context; the head
maps [embedding, context, elapsed minutes] through one tanh layer to a
scaled duration output (scale 0.05 by default). Training losses compare
scaled values:

    smooth_l1(x) = 0.5 x^2 / beta        for |x| < beta,
                   |x| - 0.5 beta        otherwise,

optionally weighted by the corridor factor pi(y, t). The corridor runs from
the ground truth gt(t) to a border c(t) that blends gt with the naive
median-based guess n(t) = max(t_median - t, 0):

    prog(t)  = t / (gt + t)
    alpha(t) = 1 - 2 / (1 + exp(5 * prog))
    c(t)     = alpha * gt + (1 - alpha) * n(t)
    pi(y, t) = ((y - gt) / (c - gt))^2 inside the corridor, else 1.

pi is computed on minute values (it is scale-invariant) and carries no
gradient. Four pipelines consume an upstream segmentation result: frozen
feature extraction, low-rate pretraining transfer, joint training with an
auxiliary head (regularization), and a from-scratch single-task baseline.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .appearance import (
    CONTEXT_LAMBDA,
    DenseLayer,
    TrainConfig,
    _selected_backward,
    _trunk,
    _trunk_source,
    init_appearance,
    init_dense,
    softmax_cross_entropy,
    train_appearance,
)
from .core import Corpus, VideoSequence
from .errors import DataFormatError, NumericalError
from .optim import minibatch_epochs
from .segtrain import SegCheckpoint, uniform_labels

logger = logging.getLogger("segrsd")

PIPELINES = ("feature_extraction", "pretraining", "regularization", "single_task")
AUX_TASKS = ("none", "learned_seg", "uniform", "progress", "phase")
LOSSES = ("smoothl1", "corr")


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
        if not n:
            raise ValueError("corpus has no training videos")
        # the middle value or the mean of the middle two: np.median's value,
        # without the numpy.ma import np.median makes on first use
        middle = durations[(n - 1) // 2:n // 2 + 1]
        return cls(float(middle.sum() / len(middle)))


def _progress_of(video: VideoSequence) -> np.ndarray:
    return progress(video.elapsed_min(), video.remaining_min())


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


@dataclass
class RsdParams:
    """Embedding stack + context, two-layer duration head, optional aux head."""

    embed: list[DenseLayer]
    context_lambda: float
    head1: DenseLayer               # (head_dim, 2*emb + 1), tanh
    head2: DenseLayer               # (1, head_dim), linear
    aux_head: DenseLayer | None = None
    aux_kind: str = "none"          # none | classes | progress
    trainable_mask: list[bool] = field(default_factory=list)
    output_scale: float = 0.05

    def __post_init__(self):
        emb_dim = self.embed[-1].out_dim
        if self.head1.in_dim != 2 * emb_dim + 1:
            raise ValueError("duration head must take [embedding, context, elapsed]")
        if self.head2.in_dim != self.head1.out_dim or self.head2.out_dim != 1:
            raise ValueError("output layer shape mismatch")
        if not self.trainable_mask:
            self.trainable_mask = [True] * len(self.layer_list())
        if len(self.trainable_mask) != len(self.layer_list()):
            raise ValueError("trainable_mask must cover every layer")
        if self.aux_kind not in ("none", "classes", "progress"):
            raise ValueError(f"unknown aux kind {self.aux_kind!r}")
        if (self.aux_head is None) != (self.aux_kind == "none"):
            raise ValueError("aux head and aux kind must agree")

    def layer_list(self) -> list[DenseLayer]:
        layers = [*self.embed, self.head1, self.head2]
        if self.aux_head is not None:
            layers.append(self.aux_head)
        return layers

    def copy(self) -> "RsdParams":
        return RsdParams(
            [layer.copy() for layer in self.embed],
            self.context_lambda,
            self.head1.copy(),
            self.head2.copy(),
            self.aux_head.copy() if self.aux_head is not None else None,
            self.aux_kind,
            list(self.trainable_mask),
            self.output_scale,
        )


@dataclass
class AuxInit:
    """Transferable upstream state: embedding stack and optional frame labels."""

    embed: list[DenseLayer]
    context_lambda: float
    labels: dict[str, np.ndarray] | None = None

    @classmethod
    def from_checkpoint(cls, ckpt: SegCheckpoint) -> "AuxInit":
        app = ckpt.appearance
        return cls([l.copy() for l in app.layers[:-1]], app.context_lambda, dict(ckpt.labels))


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
        [layer.copy() for layer in embed]
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
    """The duration head on rows of [emb, ctx, elapsed minutes]; (inp, hidden, scaled).

    scaled is the output before output_scale.
    """
    inp = np.hstack([emb, ctx, elapsed[:, None]])
    hidden = np.tanh(inp @ params.head1.weights.T + params.head1.bias)
    scaled = hidden @ params.head2.weights.T + params.head2.bias
    return inp, hidden, scaled[:, 0]


def _minutes(params: RsdParams, emb: np.ndarray, ctx: np.ndarray, video: VideoSequence):
    """Predicted remaining minutes at every frame of video from its (emb, ctx)."""
    return _duration_head(params, emb, ctx, video.elapsed_min())[2] / params.output_scale


def predict_video(params: RsdParams, video: VideoSequence) -> np.ndarray:
    """Predicted remaining minutes at every frame."""
    _, emb, ctx = _trunk(params.embed, params.context_lambda, video.features)
    return _minutes(params, emb, ctx, video)


# the name under which the acceptance gates import it
rsd_forward = predict_video


def rsd_loss_and_grads(
    params: RsdParams,
    video: VideoSequence,
    loss_name: str,
    corridor: CorridorParams,
    frame_indices=None,
    aux_target=None,
    aux_weight: float = 1.0,
    weight: float = 1.0,
    target_kind: str = "duration",
):
    """Per-video losses (mean over selected frames) with analytic gradients.

    target_kind "duration" regresses scaled remaining minutes; "progress"
    regresses prog(t) directly (used to pretrain transfer embeddings).
    frame_indices are sorted distinct frames (default: every frame). The
    embedding runs through the last selected frame, the context and the
    heads on the selected rows only. Returns (loss, grads) with grads
    aligned to params.layer_list(); frozen embedding layers get None.
    """
    idx = np.arange(video.n_frames) if frame_indices is None else np.asarray(frame_indices)
    trunk = _trunk(params.embed, params.context_lambda, video.features, idx)
    return _rsd_loss(params, video, idx, trunk, loss_name, corridor,
                     aux_target, aux_weight, weight, target_kind)


def _rsd_loss(params: RsdParams, video, idx, trunk, loss_name, corridor,
              aux_target, aux_weight, weight, target_kind):
    """The heads and losses of rsd_loss_and_grads on trunk = (back, emb, ctx)
    at rows idx; back may be None when the whole embedding is frozen."""
    back, emb, ctx = trunk
    elapsed = video.elapsed_min()[idx]
    remaining = video.remaining_min()[idx]
    inp, hidden, pred = _duration_head(params, emb, ctx, elapsed)

    pi = np.ones(len(idx))
    if target_kind == "duration":
        target = corridor.scale * remaining
        if loss_name == "corr":
            minutes = pred / params.output_scale
            pi = np.asarray(
                corridor_weight(minutes, elapsed, remaining, corridor), dtype=np.float64
            )
        elif loss_name != "smoothl1":
            raise ValueError(f"unknown loss {loss_name!r}")
    elif target_kind == "progress":
        target = progress(elapsed, remaining)
    else:
        raise ValueError(f"unknown target kind {target_kind!r}")

    loss = weight * float(np.mean(pi * smooth_l1(pred, target, corridor.beta)))
    dpred = weight / len(idx) * pi * smooth_l1_grad(pred, target, corridor.beta)

    # backward through the duration head
    dhidden = dpred[:, None] * params.head2.weights
    grad_h2 = [dpred[None, :] @ hidden, np.array([dpred.sum()])]
    dpre1 = dhidden * (1.0 - hidden * hidden)
    grad_h1 = [dpre1.T @ inp, dpre1.sum(axis=0)]
    dinp = dpre1 @ params.head1.weights

    h = emb.shape[1]
    aux_grad = None
    if params.aux_head is not None and aux_target is not None:
        z = emb @ params.aux_head.weights.T + params.aux_head.bias
        tgt = np.asarray(aux_target)[idx]
        aux_w = aux_weight * weight
        if params.aux_kind == "classes":
            aux_loss, dz = softmax_cross_entropy(z, tgt, aux_w)
        else:
            aux_loss = aux_w * float(np.mean(smooth_l1(z[:, 0], tgt, corridor.beta)))
            dz = aux_w / len(idx) * smooth_l1_grad(z, tgt[:, None], corridor.beta)
        loss += aux_loss
        aux_grad = [dz.T @ inp[:, :h], dz.sum(axis=0)]
        dinp[:, :h] += dz @ params.aux_head.weights

    n_embed = len(params.embed)
    grads = _selected_backward(
        params.embed, params.trainable_mask[:n_embed], back, dinp[:, :2 * h],
    )
    grads.append(grad_h1)
    grads.append(grad_h2)
    if aux_grad is not None:
        grads.append(aux_grad)
    return loss, grads


# ---------------------------------------------------------------------------
# training

def default_train_config(pipeline: str, seed: int = 0) -> TrainConfig:
    """Adam for most pipelines; the pretraining transfer uses plain SGD longer."""
    if pipeline == "pretraining":
        return TrainConfig(learning_rate=1e-1, epochs=250, batch_size=384,
                           l2_weight=1e-5, optimizer="sgd", seed=seed)
    return TrainConfig(learning_rate=1e-2, epochs=200, batch_size=384,
                       l2_weight=1e-5, optimizer="adam", seed=seed)


def _resolve_aux_targets(
    corpus: Corpus, task: str, init: AuxInit | None, n_subactivities: int
):
    """Per-video targets of an auxiliary task: (targets, aux kind, output width)."""
    videos = corpus.by_split("train")
    if task == "learned_seg":
        if init is None or init.labels is None:
            raise DataFormatError("learned_seg regularization needs checkpoint labels")
        missing = [v.id for v in videos if v.id not in init.labels]
        if missing:
            raise DataFormatError(f"checkpoint lacks labels for videos {missing}")
        targets = {v.id: np.asarray(init.labels[v.id], dtype=np.int64) for v in videos}
    elif task == "phase":
        missing = [v.id for v in videos if v.phase_labels is None]
        if missing:
            raise DataFormatError(f"phase task needs phase labels; missing for {missing}")
        targets = {v.id: v.phase_labels for v in videos}
    elif task == "uniform":
        targets = {v.id: uniform_labels(v, n_subactivities) for v in videos}
    elif task == "progress":
        return {v.id: _progress_of(v) for v in videos}, "progress", 1
    else:
        raise ValueError(f"aux task {task!r} has no targets")
    return targets, "classes", int(max(t.max() for t in targets.values())) + 1


def mae_of(params: RsdParams, videos: Sequence[VideoSequence],
           target=VideoSequence.remaining_min) -> float:
    """Macro-averaged MAE (per-video mean first) of the output against target(video)."""
    return _macro_mae((predict_video(params, v) for v in videos), videos, target)


def _macro_mae(preds, videos, target) -> float:
    """mae_of from each video's predictions."""
    errs = [float(np.mean(np.abs(p - target(v)))) for p, v in zip(preds, videos)]
    return float(np.mean(errs))


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
    verbose: bool = True,
):
    """Train one pipeline; returns (best-val params, history rows).

    History rows are (epoch, train_loss, val_mae). The returned parameters
    are the snapshot with the lowest validation MAE. A non-finite loss stops
    training and returns the best parameters seen so far. With the whole
    embedding frozen (feature_extraction), each train and val video's
    [emb, ctx] is computed once per call and every batch and val MAE reads it.
    """
    if loss_name not in LOSSES:
        raise ValueError(f"unknown loss {loss_name!r}")
    transfer = mode.pipeline in ("feature_extraction", "pretraining")
    if transfer and init is None:
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
        context_lambda=init.context_lambda if transfer else CONTEXT_LAMBDA,
        aux_kind=aux_kind,
        aux_dim=aux_dim,
        output_scale=1.0 if target_kind == "progress" else corridor.scale,
        embed=init.embed if transfer else None,
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
    val_videos = corpus.by_split("val")
    if not train_videos:
        raise ValueError("corpus has no training videos")
    history: list[tuple[int, float, float]] = []
    best = params.copy()
    best_mae = np.inf
    val_set = val_videos or train_videos
    val_target = _progress_of if target_kind == "progress" else VideoSequence.remaining_min
    all_videos = [*train_videos, *val_videos]
    trunk = _trunk_source(
        params.embed, params.trainable_mask[:n_embed], params.context_lambda, all_videos,
    )

    def video_loss(vi, idx, weight):
        video = train_videos[vi]
        aux_target = aux_targets[video.id] if aux_targets else None
        return _rsd_loss(params, video, idx, trunk(vi, idx), loss_name, corridor,
                         aux_target, aux_weight, weight, target_kind)

    def val_mae():
        first = len(all_videos) - len(val_set)  # val_set ends all_videos
        preds = (_minutes(params, *trunk(j)[1:], v) for j, v in enumerate(val_set, first))
        return _macro_mae(preds, val_set, val_target)

    epochs = minibatch_epochs(
        params.layer_list(), params.trainable_mask, [v.n_frames for v in train_videos],
        config, rng, video_loss, lr_mult,
    )
    try:
        for epoch, loss in enumerate(epochs):
            mae = val_mae()
            history.append((epoch, loss, mae))
            if verbose:
                print(f"epoch={epoch} loss={loss:.6f} val_mae={mae:.6f}")
            if mae < best_mae:
                best_mae = mae
                best = params.copy()
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
    config = config or TrainConfig(learning_rate=1e-2, epochs=40, seed=0)
    if aux_task in ("uniform", "phase"):
        labels, _, n_classes = _resolve_aux_targets(corpus, aux_task, None, n_subactivities)
        params = init_appearance(
            np.random.default_rng(config.seed), corpus.feature_dim, [hidden_dim], n_classes,
        )
        params = train_appearance(videos, labels, params, config)
        return AuxInit([l.copy() for l in params.layers[:-1]], params.context_lambda, labels)
    if aux_task == "progress":
        corridor = corridor or CorridorParams.from_corpus(corpus)
        mode = PipelineMode("single_task", "none")
        params, _ = train_rsd(
            corpus, None, mode, "smoothl1", config, corridor,
            hidden_dim=hidden_dim, target_kind="progress", verbose=False,
        )
        return AuxInit([l.copy() for l in params.embed], params.context_lambda, None)
    raise ValueError(f"aux task {aux_task!r} does not define a transfer")
