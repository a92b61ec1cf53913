"""Discriminative appearance model over per-frame features.

A stack of tanh dense layers embeds each frame; a causal exponential
accumulator c_t = lam * c_{t-1} + (1 - lam) * e_t (c_0 = e_0) summarizes the
past; the softmax head classifies [e_t, c_t] into subactivities. Whole-video
passes compute the accumulator by a log-step scan over every frame
(context_accumulate); a training batch computes it at its rows only
(_row_context) and backpropagates through its exact adjoint. Training
supports per-layer freezing, which the alternating trainer uses to unfreeze
one extra layer per iteration, and a temporal-coherence objective pretrains
the embedding before the first iteration.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import NumericalError
from .optim import add_l2, make_optimizer, minibatch_epochs
from .temporal import LOG_FLOOR

# decay of the causal context of every model built from scratch
CONTEXT_LAMBDA = 0.9


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
    context_lambda: float = CONTEXT_LAMBDA

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
    context_lambda: float = CONTEXT_LAMBDA,
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

def _decay_scan(y: np.ndarray, lam: float) -> np.ndarray:
    """In place, y_t += lam * y_{t-1} down the rows; returns y.

    A log-step scan (Hillis & Steele 1986): after the add with shift k each
    row holds its 2k nearest terms, weighted lam**j. The loop stops once
    lam**k is below eps**2: every farther term is then below rounding, and
    the squared weights would soon be subnormal numbers, which are slow.
    """
    eps = np.finfo(np.float64).eps
    k, p = 1, lam
    while k < y.shape[0] and p > eps * eps:
        y[k:] += p * y[:-k]
        k, p = 2 * k, p * p
    return y


def context_accumulate(features, lam: float) -> np.ndarray:
    """Causal exponential average: c_0 = f_0, c_t = lam*c_{t-1} + (1-lam)*f_t."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise ValueError(f"expected (frames, dims) input, got shape {feats.shape}")
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lambda outside [0, 1): {lam}")
    out = (1.0 - lam) * feats
    out[:1] = feats[:1]  # c_0 copies f_0 with unit weight
    return _decay_scan(out, lam)


# _row_plan's dense form is used while its weight matrix has at most this many
# entries. Plan, context and adjoint of the two forms cost the same at 24k-33k
# entries for 16-128 rows (h = 32); below that the dense form's two matrix
# products beat the segment form's many small steps, 1.7-4x at 180 frames.
# End to end the fork pays: with the segment form alone (a threshold of 0),
# perfbench many-stages segment_s, train_rsd_s and wall_s grew 28/23/26 %.
_DENSE_ROW_WEIGHTS = 24576


def _row_plan(rows, lam: float):
    """Bookkeeping of the context at sorted distinct rows i_1 < ... < i_K.

    context_accumulate gives ctx_t = (1-lam) sum_{s<=t} lam**(t-s) e_s
    + lam**(t+1) e_0. Split frames 0..i_K into the segments (i_{k-1}, i_k] and
    let S_k = sum over segment k of lam**(i_k-s) e_s; then C_k =
    sum_{j<=k} lam**(i_k-i_j) S_j is a scan over the K rows only, and
    ctx[i_k] = (1-lam) C_k + lam**(i_k+1) e_0. Returns (rows, form). On a
    short prefix form is the K x (i_K + 1) matrix of this linear map.
    Otherwise it is (lengths, weights, lam, head, steps): the segments' frame
    counts, the lam**(i_k-s) of every frame, lam, the (K, 1) lam**(i_k+1),
    and the (shift m, factors lam**(i_k - i_{k-m})) of a log-step scan over
    the rows, which stops as _decay_scan does. Every power comes from one
    call, and those below eps**2 are flushed to 0 as in _decay_scan. Built
    once per video and batch, the plan serves _row_context and its adjoint.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 1 or not len(rows):
        raise ValueError("rows must be a non-empty 1-d array of frame indices")
    lengths = rows.copy()
    lengths[0] += 1
    lengths[1:] -= rows[:-1]
    if lengths.min() < 1:
        raise ValueError("rows must be sorted, distinct and non-negative")
    tiny = np.finfo(np.float64).eps ** 2
    n = int(rows[-1]) + 1
    if len(rows) * n <= _DENSE_ROW_WEIGHTS:
        # lam**d at d = i_k - s; the zero upper half serves d < 0 (s after i_k)
        powers = np.zeros(2 * n)
        powers[:n] = np.power(lam, np.arange(n), dtype=np.float64)
        powers[powers < tiny] = 0.0
        matrix = powers[rows[:, None] - np.arange(n)]
        matrix[:, 1:] *= 1.0 - lam
        return rows, matrix
    shifts, m = [], 1
    while m < len(rows) and lam ** m > tiny:
        shifts.append(m)
        m *= 2
    span = int(lengths.max())
    powers = np.power(
        lam,
        np.concatenate([np.arange(span), rows + 1, *(rows[m:] - rows[:-m] for m in shifts)]),
        dtype=np.float64,
    )
    powers[powers < tiny] = 0.0
    # frame s of segment k sits i_k - s frames before its row
    weights = powers[np.repeat(rows, lengths) - np.arange(n)]
    head = powers[span:span + len(rows), None]
    steps, at = [], span + len(rows)
    for m in shifts:
        steps.append((m, powers[at:at + len(rows) - m, None]))
        at += len(rows) - m
    return rows, (lengths, weights, lam, head, steps)


def _row_context(plan, e: np.ndarray) -> np.ndarray:
    """context_accumulate(e, lam)[rows] for e over frames 0..i_K; (K, dims).

    The dense form is one matrix product. In the segment form one weighted
    reduceat over the prefix gives the segment sums, and a log-step scan
    (Hillis & Steele 1986) over the K rows combines them.
    """
    rows, form = plan
    if isinstance(form, np.ndarray):
        return form @ e
    lengths, weights, lam, head, steps = form
    c = np.add.reduceat(weights[:, None] * e, rows - lengths + 1, axis=0)
    for m, f in steps:
        c[m:] += f * c[:-m]
    c *= 1.0 - lam
    c += head * e[0]
    return c


def _row_context_adjoint(plan, grad_ctx: np.ndarray) -> np.ndarray:
    """Adjoint of _row_context: the gradient at frames 0..i_K of e from the
    gradient at the rows of its context."""
    _, form = plan
    if isinstance(form, np.ndarray):
        return form.T @ grad_ctx
    lengths, weights, lam, head, steps = form
    g = (1.0 - lam) * grad_ctx
    for m, f in reversed(steps):
        g[:-m] += f * g[m:]
    out = np.repeat(g, lengths, axis=0)
    out *= weights[:, None]
    out[0] += head[:, 0] @ grad_ctx
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
        # in place: one frames-sized array per layer, not three
        z = acts[-1] @ layer.weights.T
        z += layer.bias
        acts.append(np.tanh(z, out=z))
    return acts


def _trunk(layers: Sequence[DenseLayer], lam: float, feats: np.ndarray, rows=None):
    """Embedding chain and causal context of feats; (back, emb, ctx).

    Without rows, emb and ctx cover every frame and back is None. With rows
    (sorted distinct frame indices) the chain runs through frame max(rows)
    only, since the context is causal, emb and ctx are taken at rows, and the
    context is computed there alone (_row_context); back = (acts, plan) holds
    the chain's activations, input first, and the rows' plan for
    _selected_backward.
    """
    if rows is None:
        emb = _embed_chain(layers, feats)[-1]
        return None, emb, context_accumulate(emb, lam)
    plan = _row_plan(rows, lam)
    rows = plan[0]
    acts = _embed_chain(layers, feats[:rows[-1] + 1])
    return (acts, plan), acts[-1][rows], _row_context(plan, acts[-1])


def _trunk_source(layers, mask, lam, videos):
    """trunk(vi, rows=None): _trunk's (back, emb, ctx) of videos[vi] under the
    live layers. With no embedding layer training, each video's whole-video
    [emb, ctx] is computed once here and read at rows, with back None."""
    if any(mask):
        return lambda vi, rows=None: _trunk(layers, lam, videos[vi].features, rows)
    whole = [_trunk(layers, lam, video.features)[1:] for video in videos]

    def trunk(vi, rows=None):
        emb, ctx = whole[vi]
        return (None, emb, ctx) if rows is None else (None, emb[rows], ctx[rows])

    return trunk


def _logits(head: DenseLayer, emb: np.ndarray, ctx: np.ndarray):
    """The softmax head on [emb, ctx]; returns (phi, logits)."""
    phi = np.hstack([emb, ctx])
    return phi, phi @ head.weights.T + head.bias


def forward(params: AppearanceParams, video) -> np.ndarray:
    """Per-frame class probabilities, shape (n_frames, n_classes)."""
    _, emb, ctx = _trunk(params.layers[:-1], params.context_lambda, video.features)
    return softmax(_logits(params.layers[-1], emb, ctx)[1])


def _embed_backward(layers, mask, acts, d_embedding):
    """Backprop a gradient at the embedding output through the tanh stack.

    Frozen layers (mask False) get None. The pass stops at the first
    trainable layer, so nothing flows on to the input features.
    """
    grads = [None] * len(layers)
    first = next((i for i, m in enumerate(mask) if m), len(layers))
    d = d_embedding
    for i in range(len(layers) - 1, first - 1, -1):
        a = acts[i + 1]
        # d * (1 - a*a), in place: one frames-sized array, not three
        dpre = a * a
        np.subtract(1.0, dpre, out=dpre)
        dpre *= d
        if mask[i]:
            grads[i] = [dpre.T @ acts[i], dpre.sum(axis=0)]
        if i > first:
            d = dpre @ layers[i].weights
    return grads


def _selected_backward(layers, mask, back, d_phi):
    """Backprop a gradient at the batch rows of [embedding, context].

    back = (acts, plan) comes from _trunk with rows; the context's adjoint
    reaches frames 0..max(rows) only. A wholly frozen embedding gets
    [None, ...] and may come without back.
    """
    if not any(mask):
        return [None] * len(layers)
    acts, plan = back
    h = acts[-1].shape[1]
    d = _row_context_adjoint(plan, d_phi[:, h:])
    d[plan[0]] += d_phi[:, :h]
    return _embed_backward(layers, mask, acts, d)


def softmax_cross_entropy(logits, labels, weight: float = 1.0):
    """weight * mean cross-entropy of softmax(logits) against labels, row by row.

    Returns (loss, dlogits); dlogits has the shape of logits.
    """
    targets = np.asarray(labels, dtype=np.int64)
    rows = np.arange(len(targets))
    lp = log_softmax(logits)
    loss = -weight * float(lp[rows, targets].mean())
    dlogits = np.exp(lp)
    dlogits[rows, targets] -= 1.0
    dlogits *= weight / len(targets)
    return loss, dlogits


def cross_entropy_loss_and_grads(
    params: AppearanceParams,
    feats: np.ndarray,
    labels: np.ndarray,
    frame_indices=None,
    weight: float = 1.0,
):
    """Mean cross-entropy over the selected frames, with analytic gradients.

    frame_indices are sorted distinct frames (default: every frame).
    Gradients flow through the context accumulator, so earlier frames of the
    sequence contribute even when only later frames are selected. Frames
    after the last selected one reach no loss, so the embedding runs through
    that frame only, the context is computed at the selected rows only, and
    the head runs on those rows. Returns (loss, grads) with grads aligned to
    params.layers; frozen embedding layers get None.
    """
    idx = np.arange(len(labels)) if frame_indices is None else np.asarray(frame_indices)
    trunk = _trunk(params.layers[:-1], params.context_lambda, feats, idx)
    return _cross_entropy(params, trunk, np.asarray(labels)[idx], weight)


def _cross_entropy(params: AppearanceParams, trunk, labels, weight):
    """The head and loss of cross_entropy_loss_and_grads on trunk = (back, emb,
    ctx) at the batch rows; back may be None when the whole embedding is frozen."""
    back, emb, ctx = trunk
    head = params.layers[-1]
    phi, logits = _logits(head, emb, ctx)
    loss, dlogits = softmax_cross_entropy(logits, labels, weight)
    grads = _selected_backward(
        params.layers[:-1], params.trainable_mask[:-1], back, dlogits @ head.weights,
    )
    grads.append([dlogits.T @ phi, dlogits.sum(axis=0)])
    return loss, grads


def mean_cross_entropy(
    probs: Mapping[str, np.ndarray], labels: Mapping[str, np.ndarray]
) -> float:
    """Mean per-frame cross-entropy of per-video probability tables, pooled
    over all frames; the log of a zero probability is floored at LOG_FLOOR."""
    total, count = 0.0, 0
    for vid, table in probs.items():
        y = np.asarray(labels[vid], dtype=np.int64)
        picked = table[np.arange(len(y)), y]
        logs = np.log(picked, out=np.full(len(y), LOG_FLOOR), where=picked > 0.0)
        total -= float(logs.sum())
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
    run through its last selected frame, so context gradients stay exact.
    With the whole embedding frozen, each video's [emb, ctx] is computed once
    per call and every batch reads it. Only trains: the caller measures the
    result. Deterministic given (params, config, data).
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
    trunk = _trunk_source(
        out.layers[:-1], out.trainable_mask[:-1], out.context_lambda, videos
    )

    def video_loss(vi, idx, weight):
        return _cross_entropy(out, trunk(vi, idx), labs[vi][idx], weight)

    for _ in minibatch_epochs(
        out.layers, out.trainable_mask, [v.n_frames for v in videos], config,
        np.random.default_rng(config.seed), video_loss,
    ):
        pass
    return out


# ---------------------------------------------------------------------------
# temporal-coherence pretraining

def sample_distant_pairs(n_frames: int, n_pairs: int, gap: int, rng) -> np.ndarray:
    """n_pairs (t, u) with |t - u| > gap, t uniform over the frames that have
    such a partner u, u uniform over t's partners; empty when none exist."""
    if n_frames < gap + 2:
        return np.zeros((0, 2), dtype=np.int64)
    frames = np.arange(n_frames)
    left = np.maximum(0, frames - gap)
    right = np.maximum(0, n_frames - 1 - (frames + gap))
    valid = np.flatnonzero(left + right)
    t = valid[rng.integers(len(valid), size=n_pairs)]
    r = rng.integers(left[t] + right[t])
    u = np.where(r < left[t], r, t + gap + 1 + (r - left[t]))
    return np.stack([t, u], axis=1)


def _add_rows_at(out: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """np.add.at(out, rows, values) for a C-contiguous 2-d out, rows repeating.

    It makes the same additions in the same order, on the flat array at
    indices row * width + column, which np.add.at handles several times faster.
    """
    if not out.flags.c_contiguous:
        # reshape would add into a copy and drop every addition
        raise ValueError("out must be C-contiguous")
    width = out.shape[1]
    flat_idx = (rows[:, None] * width + np.arange(width)).reshape(-1)
    np.add.at(out.reshape(-1), flat_idx, values.reshape(-1))


def temporal_coherence_loss_and_grads(
    params: AppearanceParams,
    feats: np.ndarray,
    pairs: np.ndarray,
    margin: float = 1.0,
):
    """Slowness + second-order steadiness + margin repulsion on the embedding.

    L = mean_t ||e_{t+1} - e_t||^2
      + mean_t ||(e_{t+2} - e_{t+1}) - (e_{t+1} - e_t)||^2
      + mean_pairs max(0, margin - ||e_t - e_u||)^2

    Gradients cover the trainable embedding layers only (the head and
    frozen layers get none).
    """
    embed = params.layers[:-1]
    acts = _embed_chain(embed, feats)
    e = acts[-1]
    n = len(e)
    d_emb = np.zeros(e.shape)
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
        _add_rows_at(d_emb, ti, gp)
        _add_rows_at(d_emb, ui, -gp)
    return loss, _embed_backward(embed, params.trainable_mask[:-1], acts, d_emb)


def tc_pretrain(
    videos: Sequence,
    params: AppearanceParams,
    config: TrainConfig,
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
            loss, grads = temporal_coherence_loss_and_grads(out, video.features, pairs)
            loss = add_l2(embed, grads, loss, config.l2_weight)
            if not np.isfinite(loss):
                raise NumericalError(f"non-finite coherence loss at epoch {epoch}")
            opt.step(embed, grads, embed_mask)
    return out
