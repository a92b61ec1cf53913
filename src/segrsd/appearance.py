"""Discriminative appearance model over per-frame features.

A stack of tanh dense layers embeds each frame; a causal exponential
accumulator c_t = lam * c_{t-1} + (1 - lam) * e_t (c_0 = e_0) summarizes the
past; the softmax head classifies [e_t, c_t] into subactivities. Training
supports per-layer freezing, which the alternating trainer uses to unfreeze
one extra layer per iteration, and a temporal-coherence objective pretrains
the embedding before the first iteration.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy.signal import lfilter

from .errors import NumericalError
from .optim import add_l2, make_optimizer, minibatch_epochs

logger = logging.getLogger("segrsd")

# train_appearance logs a warning when training raises the mean cross-entropy
# by more than this
CE_TOLERANCE = 0.05


@dataclass
class DenseLayer:
    weights: np.ndarray = field(repr=False)  # (out_dim, in_dim)
    bias: np.ndarray = field(repr=False)     # (out_dim,)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    def copy(self) -> "DenseLayer":
        return DenseLayer(self.weights.copy(), self.bias.copy())


def init_dense(rng: np.random.Generator, in_dim: int, out_dim: int) -> DenseLayer:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / np.sqrt(in_dim)
    return DenseLayer(
        rng.uniform(-bound, bound, size=(out_dim, in_dim)),
        rng.uniform(-bound, bound, size=out_dim),
    )


@dataclass
class AppearanceParams:
    """Embedding stack (all but last layer, tanh) plus linear softmax head.

    The head consumes the embedding concatenated with its causal context, so
    its input width is twice the embedding width.
    """

    layers: list[DenseLayer]
    trainable_mask: list[bool]
    context_lambda: float = 0.9

    def __post_init__(self):
        if len(self.layers) < 2:
            raise ValueError("need at least one embedding layer and a head")
        if len(self.trainable_mask) != len(self.layers):
            raise ValueError("trainable_mask must have one entry per layer")
        if not 0.0 <= self.context_lambda < 1.0:
            raise ValueError(f"context_lambda outside [0, 1): {self.context_lambda}")
        emb_dim = self.layers[-2].out_dim
        if self.layers[-1].in_dim != 2 * emb_dim:
            raise ValueError("head input width must be twice the embedding width")

    @property
    def embedding_dim(self) -> int:
        return self.layers[-2].out_dim

    @property
    def n_classes(self) -> int:
        return self.layers[-1].out_dim

    @property
    def feature_dim(self) -> int:
        return self.layers[0].in_dim

    def copy(self) -> "AppearanceParams":
        return AppearanceParams(
            [layer.copy() for layer in self.layers],
            list(self.trainable_mask),
            self.context_lambda,
        )


def init_appearance(
    rng: np.random.Generator,
    n_features: int,
    hidden_dims: Sequence[int],
    n_classes: int,
    context_lambda: float = 0.9,
) -> AppearanceParams:
    dims = [n_features, *hidden_dims]
    layers = [init_dense(rng, dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
    layers.append(init_dense(rng, 2 * dims[-1], n_classes))
    return AppearanceParams(layers, [True] * len(layers), context_lambda)


@dataclass
class TrainConfig:
    learning_rate: float = 1e-2
    epochs: int = 200
    batch_size: int = 384
    l2_weight: float = 1e-4
    optimizer: str = "adam"
    seed: int = 0


# ---------------------------------------------------------------------------
# forward pieces

def context_accumulate(features, lam: float) -> np.ndarray:
    """Causal exponential average: c_0 = f_0, c_t = lam*c_{t-1} + (1-lam)*f_t."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise ValueError(f"expected (frames, dims) input, got shape {feats.shape}")
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lambda outside [0, 1): {lam}")
    if lam == 0.0:
        return feats.copy()
    # IIR filter with initial state chosen so the first output equals f_0
    zi = lam * feats[:1]
    out, _ = lfilter([1.0 - lam], [1.0, -lam], feats, axis=0, zi=zi)
    return out


def context_backward(grad_ctx: np.ndarray, lam: float) -> np.ndarray:
    """Adjoint of context_accumulate: gradient w.r.t. the raw inputs."""
    if lam == 0.0:
        return grad_ctx.copy()
    acc = lfilter([1.0], [1.0, -lam], grad_ctx[::-1], axis=0)[::-1]
    out = (1.0 - lam) * acc
    out[0] = acc[0]  # c_0 copies f_0 with unit weight
    return out


def softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _embed_chain(layers: Sequence[DenseLayer], feats: np.ndarray) -> list[np.ndarray]:
    acts = [np.asarray(feats, dtype=np.float64)]
    for layer in layers:
        acts.append(np.tanh(acts[-1] @ layer.weights.T + layer.bias))
    return acts


def _features_of(video) -> np.ndarray:
    return video.features if hasattr(video, "features") else np.asarray(video, float)


def _context_cache(params: AppearanceParams, feats: np.ndarray):
    acts = _embed_chain(params.layers[:-1], feats)
    emb = acts[-1]
    ctx = context_accumulate(emb, params.context_lambda)
    return acts, emb, ctx, np.hstack([emb, ctx])


def forward(params: AppearanceParams, video) -> np.ndarray:
    """Per-frame class probabilities, shape (n_frames, n_classes)."""
    _, _, _, phi = _context_cache(params, _features_of(video))
    head = params.layers[-1]
    return softmax(phi @ head.weights.T + head.bias)


def _embed_backward(layers, acts, d_embedding):
    """Backprop a gradient at the embedding output through the tanh stack."""
    grads = [None] * len(layers)
    d = d_embedding
    for i in range(len(layers) - 1, -1, -1):
        a = acts[i + 1]
        dpre = d * (1.0 - a * a)
        grads[i] = [dpre.T @ acts[i], dpre.sum(axis=0)]
        d = dpre @ layers[i].weights
    return grads


def softmax_cross_entropy(logits, labels, idx, weight: float = 1.0):
    """weight * mean cross-entropy of softmax(logits[idx]) against labels[idx].

    Returns (loss, dlogits); dlogits has the shape of logits and is zero on
    rows outside idx.
    """
    targets = np.asarray(labels, dtype=np.int64)[idx]
    rows = np.arange(len(idx))
    lp = log_softmax(logits[idx])
    loss = -weight * float(lp[rows, targets].mean())
    dsel = np.exp(lp)
    dsel[rows, targets] -= 1.0
    dsel *= weight / len(idx)
    dlogits = np.zeros_like(logits)
    dlogits[idx] = dsel
    return loss, dlogits


def cross_entropy_loss_and_grads(
    params: AppearanceParams,
    feats: np.ndarray,
    labels: np.ndarray,
    frame_indices=None,
    l2_weight: float = 0.0,
    weight: float = 1.0,
):
    """Mean cross-entropy over the selected frames, with analytic gradients.

    Gradients flow through the context accumulator, so earlier frames of the
    sequence contribute even when only later frames are selected. Returns
    (loss, grads) with grads aligned to params.layers.
    """
    acts, emb, ctx, phi = _context_cache(params, feats)
    head = params.layers[-1]
    logits = phi @ head.weights.T + head.bias
    idx = np.arange(len(labels)) if frame_indices is None else np.asarray(frame_indices)
    loss, dlogits = softmax_cross_entropy(logits, labels, idx, weight)

    grad_head = [dlogits.T @ phi, dlogits.sum(axis=0)]
    dphi = dlogits @ head.weights
    h = emb.shape[1]
    d_emb = dphi[:, :h] + context_backward(dphi[:, h:], params.context_lambda)
    grads = _embed_backward(params.layers[:-1], acts, d_emb)
    grads.append(grad_head)
    if l2_weight:
        loss = add_l2(params.layers, grads, loss, l2_weight)
    return loss, grads


def mean_cross_entropy(params, videos, labels: Mapping[str, np.ndarray]) -> float:
    """Mean per-frame cross-entropy pooled over all frames of all videos."""
    total, count = 0.0, 0
    for video in videos:
        _, _, _, phi = _context_cache(params, video.features)
        head = params.layers[-1]
        lp = log_softmax(phi @ head.weights.T + head.bias)
        y = np.asarray(labels[video.id], dtype=np.int64)
        total -= float(lp[np.arange(len(y)), y].sum())
        count += len(y)
    return total / count


def staged_mask(iteration: int, n_layers: int) -> list[bool]:
    """Iteration 1 trains the head only; each later iteration unfreezes one deeper layer."""
    if iteration < 1:
        raise ValueError(f"iteration must be >= 1, got {iteration}")
    return [i >= n_layers - iteration for i in range(n_layers)]


# ---------------------------------------------------------------------------
# cross-entropy training

def train_appearance(
    videos: Sequence,
    labels: Mapping[str, np.ndarray],
    params: AppearanceParams,
    config: TrainConfig,
) -> AppearanceParams:
    """Minibatch training on frame labels; returns updated copy of params.

    Batches come from `optim.minibatch_epochs`: frames drawn without
    replacement within each epoch, each touched video weighted equally and
    run in full so context gradients stay exact. Deterministic given
    (params, config, data).
    """
    for video in videos:
        if video.id not in labels:
            raise ValueError(f"missing labels for video {video.id!r}")
        if len(labels[video.id]) != video.n_frames:
            raise ValueError(f"label length mismatch for video {video.id!r}")
    out = params.copy()
    if config.epochs <= 0 or not any(out.trainable_mask):
        return out

    labs = [np.asarray(labels[v.id], dtype=np.int64) for v in videos]

    def video_loss(vi, idx, weight):
        return cross_entropy_loss_and_grads(
            out, videos[vi].features, labs[vi], idx, weight=weight
        )

    ce_start = mean_cross_entropy(out, videos, labels)
    for _ in minibatch_epochs(
        out.layers, out.trainable_mask, [v.n_frames for v in videos], config,
        np.random.default_rng(config.seed), video_loss,
    ):
        pass
    ce_end = mean_cross_entropy(out, videos, labels)
    if ce_end > ce_start + CE_TOLERANCE:
        logger.warning(
            "training cross-entropy increased: %.6f -> %.6f", ce_start, ce_end
        )
    return out


# ---------------------------------------------------------------------------
# temporal-coherence pretraining

def sample_distant_pairs(n_frames: int, n_pairs: int, gap: int, rng) -> np.ndarray:
    """Uniform (t, u) pairs with |t - u| > gap; empty when none exist."""
    if n_frames < gap + 2:
        return np.zeros((0, 2), dtype=np.int64)
    pairs = []
    for _ in range(n_pairs):
        t = left = right = 0
        for _attempt in range(1000):
            t = int(rng.integers(n_frames))
            left = max(0, t - gap)
            right = max(0, n_frames - 1 - (t + gap))
            if left + right:
                break
        else:
            continue
        r = int(rng.integers(left + right))
        u = r if r < left else t + gap + 1 + (r - left)
        pairs.append((t, u))
    return np.asarray(pairs, dtype=np.int64)


def temporal_coherence_loss_and_grads(
    params: AppearanceParams,
    feats: np.ndarray,
    pairs: np.ndarray,
    margin: float = 1.0,
    l2_weight: float = 0.0,
):
    """Slowness + second-order steadiness + margin repulsion on the embedding.

    L = mean_t ||e_{t+1} - e_t||^2
      + mean_t ||(e_{t+2} - e_{t+1}) - (e_{t+1} - e_t)||^2
      + mean_pairs max(0, margin - ||e_t - e_u||)^2

    Gradients cover the embedding layers only (the head is untouched).
    """
    embed = params.layers[:-1]
    acts = _embed_chain(embed, feats)
    e = acts[-1]
    n = len(e)
    d_emb = np.zeros_like(e)
    loss = 0.0
    if n >= 2:
        d1 = e[1:] - e[:-1]
        loss += float((d1 * d1).sum()) / (n - 1)
        g = (2.0 / (n - 1)) * d1
        d_emb[1:] += g
        d_emb[:-1] -= g
    if n >= 3:
        d2 = e[2:] - 2.0 * e[1:-1] + e[:-2]
        loss += float((d2 * d2).sum()) / (n - 2)
        g = (2.0 / (n - 2)) * d2
        d_emb[2:] += g
        d_emb[1:-1] -= 2.0 * g
        d_emb[:-2] += g
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if len(pairs):
        ti, ui = pairs[:, 0], pairs[:, 1]
        diff = e[ti] - e[ui]
        # epsilon keeps the gradient defined when two embeddings coincide
        dist = np.sqrt((diff * diff).sum(axis=1) + 1e-12)
        viol = np.maximum(0.0, margin - dist)
        loss += float((viol * viol).sum()) / len(pairs)
        coef = np.where(viol > 0, -2.0 * viol / dist, 0.0) / len(pairs)
        gp = coef[:, None] * diff
        np.add.at(d_emb, ti, gp)
        np.add.at(d_emb, ui, -gp)
    grads = _embed_backward(embed, acts, d_emb)
    if l2_weight:
        loss = add_l2(embed, grads, loss, l2_weight)
    return loss, grads


def tc_pretrain(
    videos: Sequence,
    params: AppearanceParams,
    config: TrainConfig,
    margin: float = 1.0,
    gap: int = 30,
) -> AppearanceParams:
    """Pretrain the embedding so nearby frames embed smoothly and distant ones apart."""
    out = params.copy()
    embed_mask = out.trainable_mask[:-1]
    if config.epochs <= 0 or not any(embed_mask):
        return out
    rng = np.random.default_rng(config.seed)
    opt = make_optimizer(config)
    embed = out.layers[:-1]
    for epoch in range(config.epochs):
        for vi in rng.permutation(len(videos)):
            video = videos[int(vi)]
            pairs = sample_distant_pairs(video.n_frames, video.n_frames, gap, rng)
            loss, grads = temporal_coherence_loss_and_grads(
                out, video.features, pairs, margin, l2_weight=config.l2_weight
            )
            if not np.isfinite(loss):
                raise NumericalError(f"non-finite coherence loss at epoch {epoch}")
            opt.step(embed, grads, embed_mask)
    return out
