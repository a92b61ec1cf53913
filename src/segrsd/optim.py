"""Minimal SGD and Adam over lists of dense layers, and the minibatch trainer.

Gradients arrive as (d_weights, d_bias) pairs aligned with the layer list;
frozen layers (mask False) are skipped entirely so their parameters and any
optimizer state stay bit-identical. `minibatch_epochs` is the one frame
minibatch loop; the classifier and the duration regressor differ only in the
per-video loss they hand it.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericalError


class Sgd:
    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def step(self, layers, grads, mask, lr_multipliers=None):
        for i, layer in enumerate(layers):
            if not mask[i] or grads[i] is None:
                continue
            lr = self.learning_rate * (lr_multipliers[i] if lr_multipliers else 1.0)
            layer.weights -= lr * grads[i][0]
            layer.bias -= lr * grads[i][1]


class Adam:
    def __init__(self, learning_rate: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._state: dict[int, list[np.ndarray]] = {}

    def _update(self, moments, grad, lr):
        m, v = moments
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        m_hat = m / (1.0 - self.beta1 ** self.t)
        v_hat = v / (1.0 - self.beta2 ** self.t)
        return lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def step(self, layers, grads, mask, lr_multipliers=None):
        self.t += 1
        for i, layer in enumerate(layers):
            if not mask[i] or grads[i] is None:
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
    """Add 0.5 * l2_weight * ||W||^2 per layer to loss; grads gain l2_weight * W in place."""
    for layer, grad in zip(layers, grads):
        loss += 0.5 * l2_weight * float((layer.weights ** 2).sum())
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
    loss, the same average the evaluation MAE takes. The grads are summed,
    the L2 term is added once, and the optimizer steps. A non-finite batch
    loss raises NumericalError before the step.
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
            touched = np.unique(batch_videos)
            loss, total = 0.0, None
            for vi in touched:
                idx = np.sort(frame_of[batch[batch_videos == vi]])
                part, grads = loss_and_grads(int(vi), idx, 1.0 / len(touched))
                loss += part
                if total is None:
                    total = grads
                else:
                    for acc, g in zip(total, grads):
                        acc[0] += g[0]
                        acc[1] += g[1]
            if config.l2_weight:
                loss = add_l2(layers, total, loss, config.l2_weight)
            if not np.isfinite(loss):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}, batch start {start}"
                )
            opt.step(layers, total, mask, lr_multipliers)
            batch_losses.append(loss)
        yield float(np.mean(batch_losses))
