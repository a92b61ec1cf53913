import numpy as np
import pytest

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
