"""Minimal SGD and Adam over lists of dense layers, and the minibatch trainer.

Gradients arrive as (d_weights, d_bias) pairs aligned with the layer list.
Frozen embedding layers get no gradient at all (None in place of the pair),
and the optimizers skip every frozen layer (mask False), so their parameters
stay bit-identical and no optimizer state is made for them.
`minibatch_epochs` is the one frame minibatch loop: it calls its batch loss
once per batch, on the batch's rows of the training frames stacked in video
order. The classifier and the duration regressor differ only in the head and
loss they hand `appearance._trunk_source`, which returns that batch loss: on
live layers it stacks the touched videos' frames through each one's last
selected frame, runs one embedding pass, one head pass and one backward pass
per group of them, and computes the causal context at the selected frames
only, so a batch never scans a whole prefix; on a frozen embedding it reads
every row from one cache of the training frames and runs the head once. The
per-video loss functions, appearance.cross_entropy_loss_and_grads and
rsd.rsd_loss_and_grads, are that batch loss on all of one video's frames.
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
    layers, mask, n_frames, config, rng, batch_loss, lr_multipliers=None
):
    """Train `layers` on frame minibatches; yields each epoch's mean batch loss.

    The training videos' frames are stacked in video order, n_frames rows in
    all. Every epoch draws all rows once without replacement and cuts the
    draw into batches of config.batch_size rows. Each batch makes one call,
    batch_loss(rows) with its rows sorted, which groups them by video; the
    trainers' batch loss (appearance._trunk_source) is the mean over touched
    videos of each video's mean frame loss, the same average the evaluation
    MAE takes. The L2 term is added once to the batch's (loss, grads), and the
    optimizer steps. A non-finite batch loss raises NumericalError before the
    step.
    """
    opt = make_optimizer(config)
    for epoch in range(config.epochs):
        perm = rng.permutation(n_frames)
        batch_losses = []
        for start in range(0, n_frames, config.batch_size):
            loss, grads = batch_loss(np.sort(perm[start:start + config.batch_size]))
            loss = add_l2(layers, grads, loss, config.l2_weight)
            if not np.isfinite(loss):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}, batch start {start}"
                )
            opt.step(layers, grads, mask, lr_multipliers)
            batch_losses.append(loss)
        yield float(np.mean(batch_losses))
