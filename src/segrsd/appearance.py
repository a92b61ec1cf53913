"""Discriminative appearance model over per-frame features.

A stack of tanh dense layers embeds each frame; a causal exponential
accumulator c_t = lam * c_{t-1} + (1 - lam) * e_t (c_0 = e_0) summarizes the
past; the softmax head classifies [e_t, c_t] into subactivities. Whole-video
passes run in blocks of frames (_trunk_blocks), each in arrays of its own:
a block's accumulator is a log-step scan started from the previous block's
last value, and the head runs per block, so a long video allocates no
frames-sized temporaries. A training batch on live layers stacks its touched
videos' prefixes through their last rows and runs one embedding chain, one
head pass and one backward pass over the stack (_trunk_source), in buffers
held for the training call; it computes each video's accumulator at its rows
only (_row_context) and backpropagates through its exact adjoint. Every
frame loss is that batch loss with per-row weights: the per-video
cross_entropy_loss_and_grads runs it on a batch of all of one video's frames.
Training supports per-layer freezing, which the alternating trainer uses to
unfreeze one extra layer per iteration, and a temporal-coherence objective
pretrains the embedding before the first iteration.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericalError
from .optim import add_l2, make_optimizer, minibatch_epochs
from .temporal import LOG_FLOOR

# decay of the causal context of every model built from scratch
CONTEXT_LAMBDA = 0.9
# TC pretraining pushes apart frame pairs more than this many frames apart
TC_GAP = 30


def _check_lambda(value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value < 1:
        raise ValueError(f"context_lambda outside [0, 1): {value!r}")


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
            raise ValueError(f"trainable_mask needs one entry per layer: {self.trainable_mask!r}")
        _check_lambda(self.context_lambda)
        emb_dim = self.layers[-2].out_dim
        if self.layers[-1].in_dim != 2 * emb_dim:
            raise ValueError("head input width must be twice the embedding width")

    @property
    def n_classes(self) -> int:
        return self.layers[-1].out_dim

    @property
    def feature_dim(self) -> int:
        return self.layers[0].in_dim


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
    products = np.empty_like(y)  # one array for every step's product
    while k < y.shape[0] and p > eps * eps:
        y[k:] += np.multiply(p, y[:-k], out=products[k:])
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

# Whole-video passes (_trunk_blocks) run in blocks of this many frames.
# Predicting the eight 1711-1849 frame videos of perfbench long-videos (seed
# 11, hidden width 32, one BLAS thread, 2 cores) cost 0.63 / 0.53 / 0.53 /
# 0.77 us per frame with blocks of 128 / 256 / 512 / 1024 rows (medians of 5
# runs); a pass took no minor page faults up to 512 rows and 2,320 at 1024,
# against 0.96 us and 4,281 faults for one whole-array pass.
_BLOCK_ROWS = 512

# A live training batch stacks its touched videos' prefixes in groups of at
# most this many frames (_trunk_source); a longer video forms its own group.
# In process, perfbench seed 41 (hidden width 32, one BLAS thread, 2 cores,
# medians of 5 rounds): train-rsd single + regularize took 0.29 / 0.27 /
# 0.26 s on walkthrough (about 2,160 train frames) with bounds of 1024 /
# 2048 / 4096, against 0.48 s for one trunk per touched video, and 0.27 /
# 0.25 / 0.26 s on many-stages (0.38 s). On long-videos (1,711-1,849 frames
# per video) this bound pairs whole videos, at 0-5 % more per batch than one
# video per group.
_STACK_ROWS = 4096


def _decay_table(lam: float, n: int):
    """(powers, toeplitz) for rows of up to n frames. powers[d] = lam**d, from
    one call and flushed to 0 below eps**2 as in _decay_scan; toeplitz is the
    read-only lower-triangular n x n view toeplitz[r, s] = (1-lam) powers[r-s]
    (0 for s > r) over one array of 2n - 1 entries, so a dense row plan is a
    gather of rows from it."""
    powers = np.power(lam, np.arange(n), dtype=np.float64)
    powers[powers < np.finfo(np.float64).eps ** 2] = 0.0
    flat = np.zeros(2 * n - 1)
    np.multiply(powers, 1.0 - lam, out=flat[n - 1:])
    return powers, sliding_window_view(flat, n)[:, ::-1]


def _row_plan(rows, lam: float, table):
    """Bookkeeping of the context at sorted distinct rows i_1 < ... < i_K.

    context_accumulate gives ctx_t = (1-lam) sum_{s<=t} lam**(t-s) e_s
    + lam**(t+1) e_0. Split frames 0..i_K into the segments (i_{k-1}, i_k] and
    let S_k = sum over segment k of lam**(i_k-s) e_s; then C_k =
    sum_{j<=k} lam**(i_k-i_j) S_j is a scan over the K rows only, and
    ctx[i_k] = (1-lam) C_k + lam**(i_k+1) e_0. Returns (rows, form). On a
    short prefix form is the K x (i_K + 1) matrix of this linear map, rows of
    table = _decay_table(lam, n), which the caller builds once for some
    n > i_K (_trunk_source: the longest video).
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
        powers, toeplitz = table
        # (1-lam) lam**(i_k-s) for s <= i_k, 0 after; frame 0 weighs lam**i_k
        matrix = toeplitz[rows, :n]
        matrix[:, 0] = powers[rows]
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


def _row_context_adjoint(plan, grad_ctx: np.ndarray, out=None) -> np.ndarray:
    """Adjoint of _row_context: the gradient at frames 0..i_K of e from the
    gradient at the rows of its context, written into out if given."""
    _, form = plan
    if isinstance(form, np.ndarray):
        return np.matmul(form.T, grad_ctx, out=out)
    lengths, weights, lam, head, steps = form
    g = (1.0 - lam) * grad_ctx
    for m, f in reversed(steps):
        g[:-m] += f * g[m:]
    out = np.multiply(np.repeat(g, lengths, axis=0), weights[:, None], out=out)
    out[0] += head[:, 0] @ grad_ctx
    return out


def softmax(z: np.ndarray, out=None) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return np.divide(e, e.sum(axis=-1, keepdims=True), out=out)


def log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _embed_chain(layers: Sequence[DenseLayer], feats: np.ndarray, out=None) -> list[np.ndarray]:
    """Input and activations of each layer; layer i writes into out[i] if given."""
    acts = [np.asarray(feats, dtype=np.float64)]
    for i, layer in enumerate(layers):
        # in place: one frames-sized array per layer, not three
        z = np.matmul(acts[-1], layer.weights.T, out=None if out is None else out[i][:len(feats)])
        z += layer.bias
        acts.append(np.tanh(z, out=z))
    return acts


def _trunk(layers: Sequence[DenseLayer], lam: float, parts, table, bufs):
    """Embedding chain and causal context of videos at their rows; (back, emb, ctx).

    parts are the (feats, rows) of videos, rows sorted distinct frame
    indices. Since the context is causal, each video's frames 0..max(rows)
    are stacked in order (one video's are used where they are) and one chain
    runs over the stack; emb and ctx hold every video's rows in turn, each
    video's context computed at its rows alone from a plan of its own
    (_row_plan, dense plans from table). back = (acts, plans, bufs), the
    chain's activations, input first, and the plans, stays with
    _trunk_source, the only caller, for _selected_backward. The stack, the
    chain and the backward pass write into the leading rows of bufs
    (_FrameBuffers), and table (_decay_table) serves every dense plan;
    _trunk_source makes both once per training call. Whole-video passes go
    through _trunk_blocks.
    """
    plans = [_row_plan(rows, lam, table) for _, rows in parts]
    ends = [0]
    for rows, _ in plans:
        ends.append(ends[-1] + int(rows[-1]) + 1)
    if len(parts) == 1:
        feats, rows = parts[0][0][:ends[1]], plans[0][0]
    else:
        feats = np.concatenate([f[:end - at] for (f, _), at, end in zip(parts, ends, ends[1:])],
                               out=bufs.feats[:ends[-1]])
        rows = np.concatenate([at + rows for at, (rows, _) in zip(ends, plans)])
    acts = _embed_chain(layers, feats, bufs.acts)
    e = acts[-1]
    ctx = [_row_context(plan, e[at:end]) for plan, at, end in zip(plans, ends, ends[1:])]
    return (acts, plans, bufs), e[rows], ctx[0] if len(ctx) == 1 else np.concatenate(ctx)


def _trunk_blocks(layers: Sequence[DenseLayer], lam: float, feats: np.ndarray):
    """Embedding chain and causal context of every frame, in row blocks.

    Yields (start, emb, ctx) for frames start..start + len(emb) - 1, blocks
    of _BLOCK_ROWS frames in order, each in arrays of its own, so every
    yielded block stays valid. The first block's context is
    context_accumulate's; each later one continues it through the block's
    first row, c_s = lam c_{s-1} + (1-lam) e_s, which the scan carries on. A
    video of one block thus runs one whole-array pass's operations.
    """
    for start in range(0, len(feats), _BLOCK_ROWS):
        emb = _embed_chain(layers, feats[start:start + _BLOCK_ROWS])[-1]
        if start:
            c = (1.0 - lam) * emb
            c[0] += lam * ctx[-1]  # the last context row of the block before
            ctx = _decay_scan(c, lam)
        else:
            ctx = context_accumulate(emb, lam)
        yield start, emb, ctx


def _video_shares(counts: np.ndarray) -> np.ndarray:
    """Per-row weights of a batch with counts[v] rows of video v: each touched
    video weighs 1/touched, split equally over its rows."""
    counts = counts[counts > 0]
    return np.repeat(1.0 / len(counts) / counts, counts)


def _trunk_source(layers, mask, lam, feats, head_loss):
    """optim.minibatch_epochs' batch loss over videos under the live layers:
    the one loss path of both trainers and of the per-video loss functions,
    which call it on one video.

    feats are the videos' (frames, features) arrays. batch_loss(rows) takes
    sorted rows of the videos' frames stacked in order and returns (loss,
    grads), grads the layers' and then head_grads. head_loss(emb, ctx, rows,
    weights) sees [emb, ctx] at rows, weights (1/touched)/n_v on the n_v rows
    of each touched video, and returns (loss, d_phi, head_grads): the
    gradient at those rows of [emb, ctx] (n, 2h) and the head layers'
    [d_w, d_b]. On live layers the touched videos are taken in order, in
    groups whose prefixes through their last rows stack to at most
    _STACK_ROWS frames (a longer video forms a group of its own); each group
    runs one _trunk, one head_loss on its rows and one _selected_backward of
    its d_phi, and the groups' losses and grads are summed (a frozen layer's
    None stays None). The dense plans' powers table and the frames-sized
    arrays of the stack are made once here, sized for the longest video and
    the largest group.
    With no embedding layer training, every frame's [emb, ctx] is computed
    once here, block by block, into one (frames, h) pair; a batch gathers its
    rows from it, runs head_loss once and gives each layer None.
    """
    offsets = np.cumsum([0, *(len(f) for f in feats)])
    if any(mask):
        longest = max(len(f) for f in feats)
        table = _decay_table(lam, longest)
        bufs = _FrameBuffers(layers, min(offsets[-1], max(_STACK_ROWS, longest)))

        def live_batch(rows):
            cuts = np.searchsorted(rows, offsets)
            counts = np.diff(cuts)
            weights = _video_shares(counts)
            groups, size = [], _STACK_ROWS
            for vi in np.flatnonzero(counts):
                n = rows[cuts[vi + 1] - 1] - offsets[vi] + 1
                if size + n > _STACK_ROWS:
                    groups.append([])
                    size = 0
                groups[-1].append(vi)
                size += n
            loss, total = 0.0, None
            for group in groups:
                parts = [(feats[vi], rows[cuts[vi]:cuts[vi + 1]] - offsets[vi])
                         for vi in group]
                at = slice(cuts[group[0]], cuts[group[-1] + 1])
                back, emb, ctx = _trunk(layers, lam, parts, table, bufs)
                part, d_phi, head_grads = head_loss(emb, ctx, rows[at], weights[at])
                grads = _selected_backward(layers, mask, back, d_phi) + head_grads
                loss += part
                if total is None:
                    total = grads
                else:
                    for acc, g in zip(total, grads):
                        if acc is not None:
                            acc[0] += g[0]
                            acc[1] += g[1]
            return loss, total

        return live_batch
    emb, ctx = np.empty((2, offsets[-1], layers[-1].out_dim))
    for f, at in zip(feats, offsets):
        for start, e, c in _trunk_blocks(layers, lam, f):
            rows = slice(at + start, at + start + len(e))
            emb[rows], ctx[rows] = e, c

    def cached_batch(rows):
        weights = _video_shares(np.diff(np.searchsorted(rows, offsets)))
        loss, _, head_grads = head_loss(emb[rows], ctx[rows], rows, weights)
        return loss, [None] * len(layers) + head_grads

    return cached_batch


def _logits(head: DenseLayer, emb: np.ndarray, ctx: np.ndarray):
    """The softmax head on [emb, ctx]; returns (phi, logits)."""
    phi = np.concatenate([emb, ctx], axis=1)
    z = phi @ head.weights.T
    z += head.bias
    return phi, z


def forward(params: AppearanceParams, video) -> np.ndarray:
    """Per-frame class probabilities, shape (n_frames, n_classes)."""
    head = params.layers[-1]
    out = np.empty((video.n_frames, head.out_dim))
    for start, emb, ctx in _trunk_blocks(params.layers[:-1], params.context_lambda, video.features):
        softmax(_logits(head, emb, ctx)[1], out=out[start:start + len(emb)])
    return out


def _embed_backward(layers, mask, acts, d_embedding, dpre_out, down_out):
    """Backprop a gradient at the embedding output through the tanh stack.

    Frozen layers (mask False) get None. The pass stops at the first
    trainable layer, so nothing flows on to the input features. Layer i
    writes its pre-activation gradient into the leading rows of dpre_out[i]
    and the gradient it passes down into those of down_out[i - 1].
    """
    grads = [None] * len(layers)
    first = next((i for i, m in enumerate(mask) if m), len(layers))
    n = len(d_embedding)
    d = d_embedding
    for i in range(len(layers) - 1, first - 1, -1):
        a = acts[i + 1]
        # d * (1 - a*a), in place: one frames-sized array, not three
        dpre = np.multiply(a, a, out=dpre_out[i][:n])
        np.subtract(1.0, dpre, out=dpre)
        dpre *= d
        if mask[i]:
            grads[i] = [dpre.T @ acts[i], dpre.sum(axis=0)]
        if i > first:
            d = np.matmul(dpre, layers[i].weights, out=down_out[i - 1][:n])
    return grads


def _selected_backward(layers, mask, back, d_phi):
    """Backprop a gradient at the batch rows of [embedding, context].

    back = (acts, plans, bufs) comes from _trunk, and d_phi has its rows in
    the same order. Each video's context adjoint reaches its frames
    0..max(rows) only, in the leading rows of bufs.d_emb; then one pass runs
    back through the stacked chain. _trunk_source's live batches are the
    only caller, so some layer of mask trains.
    """
    acts, plans, bufs = back
    n, h = acts[-1].shape
    d = bufs.d_emb[:n]
    at = k = 0
    for plan in plans:
        rows = plan[0]
        grad = d_phi[k:k + len(rows)]
        _row_context_adjoint(plan, grad[:, h:], out=d[at:at + rows[-1] + 1])
        d[at + rows] += grad[:, :h]
        at, k = at + rows[-1] + 1, k + len(rows)
    return _embed_backward(layers, mask, acts, d, bufs.dpre, bufs.down)


def softmax_cross_entropy(logits, labels, weights):
    """Cross-entropy of softmax(logits) against labels, row by row, summed
    with per-row weights. Returns (loss, dlogits); dlogits has the shape of
    logits."""
    targets = np.asarray(labels, dtype=np.int64)
    rows = np.arange(len(targets))
    lp = log_softmax(logits)
    loss = float((weights * lp[rows, targets]).sum())
    dlogits = np.exp(lp)
    dlogits[rows, targets] -= 1.0
    dlogits *= np.reshape(weights, (-1, 1))
    return -loss, dlogits


def cross_entropy_loss_and_grads(params: AppearanceParams, feats: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over a video's frames, with analytic gradients.

    It is train_appearance's batch loss on a batch of all the video's frames:
    _trunk_source over [feats], each row weighted 1/n_frames. Gradients flow
    through the context accumulator. Returns (loss, grads) with grads aligned
    to params.layers; frozen embedding layers get None.
    """
    labels = np.asarray(labels)
    batch_loss = _trunk_source(
        params.layers[:-1], params.trainable_mask[:-1], params.context_lambda, [feats],
        lambda emb, ctx, rows, weights: _cross_entropy(params, emb, ctx, labels[rows], weights),
    )
    return batch_loss(np.arange(len(labels)))


def _cross_entropy(params: AppearanceParams, emb, ctx, labels, weights):
    """The head and loss of cross_entropy_loss_and_grads on [emb, ctx] at the
    batch rows, with their per-row weights: head_loss of _trunk_source,
    returning (loss, d_phi, [head's [d_w, d_b]])."""
    head = params.layers[-1]
    phi, logits = _logits(head, emb, ctx)
    loss, dlogits = softmax_cross_entropy(logits, labels, weights)
    return loss, dlogits @ head.weights, [[dlogits.T @ phi, dlogits.sum(axis=0)]]


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
    With the whole embedding frozen, every frame's [emb, ctx] is computed
    once per call and each batch runs the head once on its rows. Only trains:
    the caller measures the result. Deterministic given (params, config, data).
    """
    for video in videos:
        if video.id not in labels:
            raise ValueError(f"missing labels for video {video.id!r}")
        if len(labels[video.id]) != video.n_frames:
            raise ValueError(f"label length mismatch for video {video.id!r}")
    out = copy.deepcopy(params)
    if config.epochs <= 0 or not any(out.trainable_mask):
        return out

    labs = np.concatenate([np.asarray(labels[v.id], dtype=np.int64) for v in videos])

    def head_loss(emb, ctx, rows, weights):
        return _cross_entropy(out, emb, ctx, labs[rows], weights)

    batch_loss = _trunk_source(
        out.layers[:-1], out.trainable_mask[:-1], out.context_lambda,
        [v.features for v in videos], head_loss,
    )
    for _ in minibatch_epochs(
        out.layers, out.trainable_mask, len(labs), config,
        np.random.default_rng(config.seed), batch_loss,
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


def _add_rows_at(out: np.ndarray, rows: np.ndarray, values: np.ndarray, flat_idx=None) -> None:
    """np.add.at(out, rows, values) for a C-contiguous 2-d out, rows repeating.

    It makes the same additions in the same order, on the flat array at
    indices row * width + column, which np.add.at handles several times
    faster. Those indices go into flat_idx, (len(rows), width) int64, if given.
    """
    if not out.flags.c_contiguous:
        # reshape would add into a copy and drop every addition
        raise ValueError("out must be C-contiguous")
    width = out.shape[1]
    flat_idx = np.add(rows[:, None] * width, np.arange(width), out=flat_idx)
    np.add.at(out.reshape(-1), flat_idx.reshape(-1), values.reshape(-1))


class _FrameBuffers:
    """The frames-sized arrays of a training call, for up to n_rows frames and
    as many pairs: the stacked input of _trunk, the embedding chain and its
    backward pass, and _tc_step's differences. A batch or step writes into
    their leading rows, so one set serves every batch of the call without a
    fresh allocation (and its page faults); rows it never writes are never
    touched."""

    def __init__(self, embed: Sequence[DenseLayer], n_rows: int):
        widths = [layer.out_dim for layer in embed]
        h = widths[-1]
        self.feats = np.empty((n_rows, embed[0].in_dim))
        self.acts = [np.empty((n_rows, w)) for w in widths]
        self.dpre = [np.empty((n_rows, w)) for w in widths]
        self.down = [np.empty((n_rows, w)) for w in widths[:-1]]
        self.d_emb = np.empty((n_rows, h))
        # a difference (slowness, steadiness, pair) and the squares or second
        # operand that go with it
        self.diff = np.empty((n_rows, h))
        self.aux = np.empty((n_rows, h))
        self.flat_idx = np.empty((n_rows, h), dtype=np.int64)


def _tc_step(embed, mask, feats, pairs, margin: float, bufs: _FrameBuffers):
    """temporal_coherence_loss_and_grads of embed on feats and int64 (P, 2)
    pairs, computed in bufs (at least max(len(feats), P) rows).

    Only the pairs inside the margin are scattered into the embedding
    gradient: every other pair's gradient row is zero, and adding it would
    change no bit. A pair row outside the video raises IndexError.
    """
    acts = _embed_chain(embed, feats, bufs.acts)
    e = acts[-1]
    n = len(e)
    d_emb = bufs.d_emb[:n]
    d_emb.fill(0.0)
    loss = 0.0
    if n >= 2:
        d1 = np.subtract(e[1:], e[:-1], out=bufs.diff[:n - 1])
        loss += float(np.multiply(d1, d1, out=bufs.aux[:n - 1]).sum()) / (n - 1)
        g = np.multiply(2.0 / (n - 1), d1, out=d1)
        d_emb[1:] += g
        d_emb[:-1] -= g
    if n >= 3:
        # e[2:] - 2 e[1:-1] + e[:-2], left to right
        d2 = np.multiply(2.0, e[1:-1], out=bufs.diff[:n - 2])
        np.subtract(e[2:], d2, out=d2)
        d2 += e[:-2]
        loss += float(np.multiply(d2, d2, out=bufs.aux[:n - 2]).sum()) / (n - 2)
        g = np.multiply(2.0 / (n - 2), d2, out=d2)
        d_emb[2:] += g
        d_emb[1:-1] -= np.multiply(2.0, g, out=bufs.aux[:n - 2])
        d_emb[:-2] += g
    p = len(pairs)
    if p:
        if pairs.min() < -n or pairs.max() >= n:
            raise IndexError(f"pair row outside the video's {n} frames")
        ti, ui = pairs[:, 0], pairs[:, 1]
        # mode="wrap" gathers straight into the buffer ("raise" copies out);
        # the rows are in bounds, so it reads negative rows as e[ti] does
        diff = e.take(ti, axis=0, out=bufs.diff[:p], mode="wrap")
        diff -= e.take(ui, axis=0, out=bufs.aux[:p], mode="wrap")
        # epsilon keeps the gradient defined when two embeddings coincide
        dist = np.sqrt(np.multiply(diff, diff, out=bufs.aux[:p]).sum(axis=1) + 1e-12)
        viol = np.maximum(0.0, margin - dist)
        loss += float((viol * viol).sum()) / p
        active = np.flatnonzero(viol > 0)
        a = len(active)
        coef = -2.0 * viol[active] / dist[active] / p
        gp = np.multiply(coef[:, None], diff[active], out=bufs.aux[:a])
        _add_rows_at(d_emb, ti[active], gp, bufs.flat_idx[:a])
        _add_rows_at(d_emb, ui[active], np.negative(gp, out=gp), bufs.flat_idx[:a])
    return loss, _embed_backward(embed, mask, acts, d_emb, bufs.dpre, bufs.down)


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
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    bufs = _FrameBuffers(embed, max(len(feats), len(pairs)))
    return _tc_step(embed, params.trainable_mask[:-1], feats, pairs, margin, bufs)


def tc_pretrain(
    videos: Sequence,
    params: AppearanceParams,
    config: TrainConfig,
) -> AppearanceParams:
    """Pretrain the embedding so nearby frames embed smoothly and distant ones apart.

    Each epoch visits the videos in a random order and takes one optimizer
    step on each: the temporal-coherence loss with margin 1 on n_frames
    pairs more than TC_GAP frames apart, plus L2. Every step computes in one
    set of buffers sized for the longest video, allocated once per call and
    freed on return.
    """
    out = copy.deepcopy(params)
    embed_mask = out.trainable_mask[:-1]
    if config.epochs <= 0 or not any(embed_mask):
        return out
    rng = np.random.default_rng(config.seed)
    opt = make_optimizer(config)
    embed = out.layers[:-1]
    bufs = _FrameBuffers(embed, max((video.n_frames for video in videos), default=0))
    for epoch in range(config.epochs):
        for vi in rng.permutation(len(videos)):
            video = videos[int(vi)]
            pairs = sample_distant_pairs(video.n_frames, video.n_frames, TC_GAP, rng)
            loss, grads = _tc_step(embed, embed_mask, video.features, pairs, 1.0, bufs)
            loss = add_l2(embed, grads, loss, config.l2_weight)
            if not np.isfinite(loss):
                raise NumericalError(f"non-finite coherence loss at epoch {epoch}")
            opt.step(embed, grads, embed_mask)
    return out
