import tracemalloc

import numpy as np
import pytest

from segrsd import optim
from segrsd.appearance import _BLOCK_ROWS as B, context_accumulate
from segrsd.core import Corpus, VideoSequence


def finite_difference_grads(loss_fn, layers, step=1e-5):
    """Central differences of loss_fn() w.r.t. every layer's weights and bias.

    loss_fn takes no arguments and reads the (mutable) layers; returns the
    same [d_weights, d_bias] structure as the analytic gradient code.
    """
    grads = []
    for layer in layers:
        layer_grads = []
        for arr in (layer.weights, layer.bias):
            g = np.zeros_like(arr)
            flat = arr.reshape(-1)
            gf = g.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                up = loss_fn()
                flat[i] = orig - step
                down = loss_fn()
                flat[i] = orig
                gf[i] = (up - down) / (2 * step)
            layer_grads.append(g)
        grads.append(layer_grads)
    return grads


def grad_rel_error(analytic, numeric):
    """Norm-relative error across a list of per-layer [gw, gb] gradients."""
    a = np.concatenate(
        [np.ravel(part) for layer in analytic for part in layer]
    )
    n = np.concatenate(
        [np.ravel(part) for layer in numeric for part in layer]
    )
    denom = max(np.linalg.norm(n), 1e-12)
    return np.linalg.norm(a - n) / denom


def per_video_epochs(layers, mask, n_frames_per_video, config, rng, video_loss):
    """The minibatch loop as it was before one call per batch: for each video
    a batch touches, in increasing order, video_loss(video_index,
    sorted_frame_indices, 1 / touched); grads summed, L2 added, one step.
    Yields each epoch's mean batch loss."""
    opt = optim.make_optimizer(config)
    video_of = np.repeat(np.arange(len(n_frames_per_video)), n_frames_per_video)
    frame_of = np.concatenate([np.arange(n) for n in n_frames_per_video])
    for _ in range(config.epochs):
        perm = rng.permutation(len(video_of))
        batch_losses = []
        for start in range(0, len(perm), config.batch_size):
            batch = perm[start:start + config.batch_size]
            batch_videos = video_of[batch]
            touched = np.flatnonzero(np.bincount(batch_videos))
            loss, total = 0.0, None
            for vi in touched:
                idx = np.sort(frame_of[batch[batch_videos == vi]])
                part, grads = video_loss(int(vi), idx, 1.0 / len(touched))
                loss += part
                if total is None:
                    total = grads
                else:
                    for acc, g in zip(total, grads):
                        if acc is not None:
                            acc[0] += g[0]
                            acc[1] += g[1]
            loss = optim.add_l2(layers, total, loss, config.l2_weight)
            opt.step(layers, total, mask, [1.0] * len(layers))
            batch_losses.append(loss)
        yield float(np.mean(batch_losses))


def make_video(vid="v0", n_frames=20, n_features=4, seed=0, period=1.0, phases=None):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n_frames, n_features))
    return VideoSequence(
        id=vid, features=feats, frame_period_s=period, phase_labels=phases
    )


def frame_subset(n_frames, kind):
    """Sorted frame indices of one kind: "single" frame, an "early" subset
    that ends well before the last frame, or None for "all" frames."""
    if kind == "all":
        return None
    if kind == "single":
        return np.array([n_frames // 3])
    stop = max(1, n_frames // 2)
    rng = np.random.default_rng(n_frames)
    return np.sort(rng.choice(stop, size=max(1, stop // 4), replace=False))


@pytest.fixture
def tiny_corpus():
    videos = [make_video(f"v{i}", n_frames=15 + i, seed=i) for i in range(4)]
    split = {"v0": "train", "v1": "train", "v2": "val", "v3": "test"}
    return Corpus(videos, split)


# one frame, a video of one block and one of several, with a partial last block
BLOCK_FRAMES = [2, B - 1, B, B + 1, 3 * B + 7]


def whole_array_trunk(layers, lam, feats):
    """[emb, ctx] of every frame in one pass over the whole array."""
    emb = feats
    for layer in layers:
        emb = np.tanh(emb @ layer.weights.T + layer.bias)
    return emb, context_accumulate(emb, lam)


def assert_block_close(got, want, n_frames):
    """Bit-identical for a video of one block, else within 1e-15 relative."""
    if n_frames <= B:
        np.testing.assert_array_equal(got, want)
    else:
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def peak_bytes(fn, *args):
    """fn(*args) and the peak memory traced during the call, net of what was
    allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak
