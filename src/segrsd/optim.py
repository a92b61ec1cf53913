"""Minimal SGD and Adam over lists of dense layers, and the minibatch trainer.

Gradients arrive as (d_weights, d_bias) pairs aligned with the layer list.
Frozen embedding layers get no gradient at all (None in place of the pair),
and the optimizers skip every frozen layer (mask False), so their parameters
stay bit-identical and no optimizer state is made for them.
`minibatch_epochs` is the one frame minibatch loop; the classifier and the
duration regressor differ only in the per-video loss they hand it. Those
losses embed a video through its last selected frame and compute the causal
context at the selected frames only, so a batch never scans a whole prefix.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericalError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Sgd:
    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def step(self, layers, grads, mask, lr_multipliers=None):
        for i, layer in enumerate(layers):
            if not mask[i]:
                continue
            lr = self.learning_rate * (lr_multipliers[i] if lr_multipliers else 1.0)
            layer.weights -= lr * grads[i][0]
            layer.bias -= lr * grads[i][1]


class Adam:
    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self.t = 0
        self._state: dict[int, list[np.ndarray]] = {}

    def _update(self, moments, grad, lr):
        m, v = moments
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m / (1.0 - ADAM_BETA1 ** self.t)
        v_hat = v / (1.0 - ADAM_BETA2 ** self.t)
        return lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    def step(self, layers, grads, mask, lr_multipliers=None):
        self.t += 1
        for i, layer in enumerate(layers):
            if not mask[i]:
                continue
            if i not in self._state:
                self._state[i] = [
                    np.zeros_like(layer.weights), np.zeros_like(layer.weights),
                    np.zeros_like(layer.bias), np.zeros_like(layer.bias),
                ]
            st = self._state[i]
            lr = self.learning_rate * (lr_multipliers[i] if lr_multipliers else 1.0)
            layer.weights -= self._update(st[0:2], grads[i][0], lr)
            layer.bias -= self._update(st[2:4], grads[i][1], lr)


def make_optimizer(config):
    if config.optimizer == "adam":
        return Adam(config.learning_rate)
    if config.optimizer == "sgd":
        return Sgd(config.learning_rate)
    raise ValueError(f"unknown optimizer {config.optimizer!r}")


def add_l2(layers, grads, loss, l2_weight):
    """Add 0.5 * l2_weight * ||W||^2 per layer to loss; grads gain l2_weight * W in place.

    The loss counts every layer, frozen or not, so reported losses do not
    depend on the mask; a layer without gradient (None) gains none.
    """
    if not l2_weight:
        return loss
    for layer, grad in zip(layers, grads):
        loss += 0.5 * l2_weight * float((layer.weights ** 2).sum())
        if grad is not None:
            grad[0] += l2_weight * layer.weights
    return loss


def minibatch_epochs(
    layers, mask, n_frames_per_video, config, rng, loss_and_grads, lr_multipliers=None
):
    """Train `layers` on frame minibatches; yields each epoch's mean batch loss.

    Every epoch draws all frames once without replacement and cuts the draw
    into batches of config.batch_size frames. For each video a batch touches,
    in increasing video order, it calls loss_and_grads(video_index,
    sorted_frame_indices, weight) with weight = 1 / (videos touched), so the
    batch loss is the mean over touched videos of each video's mean frame
    loss, the same average the evaluation MAE takes. The grads are summed
    (a frozen layer's None stays None), the L2 term is added once, and the
    optimizer steps. A non-finite batch loss raises NumericalError before
    the step.
    """
    opt = make_optimizer(config)
    video_of = np.repeat(np.arange(len(n_frames_per_video)), n_frames_per_video)
    frame_of = np.concatenate([np.arange(n) for n in n_frames_per_video])
    for epoch in range(config.epochs):
        perm = rng.permutation(len(video_of))
        batch_losses = []
        for start in range(0, len(perm), config.batch_size):
            batch = perm[start:start + config.batch_size]
            batch_videos = video_of[batch]
            touched = np.flatnonzero(np.bincount(batch_videos))
            loss, total = 0.0, None
            for vi in touched:
                idx = np.sort(frame_of[batch[batch_videos == vi]])
                part, grads = loss_and_grads(int(vi), idx, 1.0 / len(touched))
                loss += part
                if total is None:
                    total = grads
                else:
                    for acc, g in zip(total, grads):
                        if acc is not None:
                            acc[0] += g[0]
                            acc[1] += g[1]
            loss = add_l2(layers, total, loss, config.l2_weight)
            if not np.isfinite(loss):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}, batch start {start}"
                )
            opt.step(layers, total, mask, lr_multipliers)
            batch_losses.append(loss)
        yield float(np.mean(batch_losses))
