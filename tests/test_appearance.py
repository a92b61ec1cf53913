import numpy as np
import pytest

from segrsd.appearance import (
    AppearanceParams,
    DenseLayer,
    TrainConfig,
    context_accumulate,
    context_backward,
    cross_entropy_loss_and_grads,
    forward,
    init_appearance,
    mean_cross_entropy,
    sample_distant_pairs,
    staged_mask,
    softmax,
    tc_pretrain,
    temporal_coherence_loss_and_grads,
    train_appearance,
)
from segrsd.core import VideoSequence
from segrsd.errors import NumericalError

from conftest import finite_difference_grads, grad_rel_error, make_video


class TestContextAccumulate:
    def test_lambda_zero_is_identity(self):
        f = np.random.default_rng(0).standard_normal((7, 3))
        np.testing.assert_array_equal(context_accumulate(f, 0.0), f)

    def test_constant_input_fixed_point(self):
        f = np.full((10, 2), 3.5)
        np.testing.assert_allclose(context_accumulate(f, 0.5), f, atol=1e-12)

    def test_hand_recurrence(self):
        f = np.array([[1.0], [0.0], [0.0]])
        np.testing.assert_allclose(
            context_accumulate(f, 0.5), [[1.0], [0.5], [0.25]], atol=1e-12
        )

    def test_causality(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((12, 2))
        base = context_accumulate(f, 0.8)
        g = f.copy()
        g[9:] += 100.0
        changed = context_accumulate(g, 0.8)
        np.testing.assert_array_equal(base[:9], changed[:9])
        assert not np.allclose(base[9:], changed[9:])

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            context_accumulate(np.zeros((3, 1)), 1.0)

    def test_backward_is_adjoint(self):
        # <A f, g> == <f, A^T g> for the linear accumulator A
        rng = np.random.default_rng(4)
        f = rng.standard_normal((9, 3))
        g = rng.standard_normal((9, 3))
        lhs = float((context_accumulate(f, 0.7) * g).sum())
        rhs = float((f * context_backward(g, 0.7)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestForward:
    def _zero_params(self, d=3, h=2, k=4):
        layers = [
            DenseLayer(np.zeros((h, d)), np.zeros(h)),
            DenseLayer(np.zeros((k, 2 * h)), np.zeros(k)),
        ]
        return AppearanceParams(layers, [True, True], 0.9)

    def test_zero_weights_uniform(self):
        params = self._zero_params(k=4)
        v = make_video(n_features=3)
        probs = forward(params, v)
        np.testing.assert_allclose(probs, 0.25, atol=1e-12)

    def test_hand_softmax(self):
        params = self._zero_params(k=2)
        params.layers[-1].bias[:] = [np.log(3.0), 0.0]
        probs = forward(params, make_video(n_features=3))
        np.testing.assert_allclose(probs, [[0.75, 0.25]] * 20, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        params = init_appearance(rng, 4, [6], 5)
        probs = forward(params, make_video(n_features=4))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert probs.min() > 0


class TestStagedMask:
    def test_first_iteration_head_only(self):
        assert staged_mask(1, 2) == [False, True]

    def test_second_iteration_all(self):
        assert staged_mask(2, 2) == [True, True]

    def test_saturates(self):
        assert staged_mask(99, 2) == [True, True]

    def test_deeper_stack(self):
        assert staged_mask(1, 4) == [False, False, False, True]
        assert staged_mask(2, 4) == [False, False, True, True]
        assert staged_mask(4, 4) == [True, True, True, True]


class TestCrossEntropyGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            d, h, k, t = rng.integers(2, 5, size=4)
            params = init_appearance(rng, int(d), [int(h)], int(k), 0.8)
            feats = rng.standard_normal((int(t) + 4, int(d)))
            labels = rng.integers(0, int(k), size=int(t) + 4)
            idx = np.sort(
                rng.choice(int(t) + 4, size=int(t) + 1, replace=False)
            )

            _, grads = cross_entropy_loss_and_grads(
                params, feats, labels, idx, l2_weight=1e-3
            )
            fd = finite_difference_grads(
                lambda: cross_entropy_loss_and_grads(
                    params, feats, labels, idx, l2_weight=1e-3
                )[0],
                params.layers,
            )
            assert grad_rel_error(grads, fd) < 1e-4

    def test_selected_frames_only(self):
        rng = np.random.default_rng(12)
        params = init_appearance(rng, 3, [3], 2)
        feats = rng.standard_normal((10, 3))
        labels = rng.integers(0, 2, size=10)
        full, _ = cross_entropy_loss_and_grads(params, feats, labels)
        probs = forward(params, feats)
        expected = -np.mean(np.log(probs[np.arange(10), labels]))
        assert full == pytest.approx(expected, rel=1e-12)


class TestCoherenceLoss:
    def test_constant_features_only_repulsion(self):
        params = init_appearance(np.random.default_rng(0), 3, [4], 2)
        feats = np.ones((40, 3))
        pairs = np.array([[0, 35], [2, 39]])
        loss, _ = temporal_coherence_loss_and_grads(params, feats, pairs, margin=1.0)
        # identical embeddings: coherence terms vanish, each pair violates
        # the margin fully, so the mean hinge is margin^2 = 1
        assert loss == pytest.approx(1.0, abs=1e-5)

    def test_linear_embedding_zero_steadiness(self):
        # identity layer + arctanh inputs make the embedding exactly linear
        # in t, so only the slowness term contributes (T < gap+2: no pairs)
        a, b = 0.03, -0.1
        t = np.arange(10, dtype=np.float64)
        feats = np.arctanh(a * t + b)[:, None]
        layers = [
            DenseLayer(np.eye(1), np.zeros(1)),
            DenseLayer(np.zeros((2, 2)), np.zeros(2)),
        ]
        params = AppearanceParams(layers, [True, True], 0.9)
        loss, _ = temporal_coherence_loss_and_grads(
            params, feats, np.zeros((0, 2)), margin=1.0
        )
        assert loss == pytest.approx(a * a, rel=1e-9)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        for trial in range(5):
            params = init_appearance(rng, 3, [4], 2)
            feats = rng.standard_normal((12, 3))
            pairs = np.array([[0, 10], [1, 11], [3, 9]])
            _, grads = temporal_coherence_loss_and_grads(
                params, feats, pairs, margin=1.0, l2_weight=1e-3
            )
            fd = finite_difference_grads(
                lambda: temporal_coherence_loss_and_grads(
                    params, feats, pairs, margin=1.0, l2_weight=1e-3
                )[0],
                params.layers[:-1],
            )
            assert grad_rel_error(grads, fd) < 1e-4


class TestSampleDistantPairs:
    def test_empty_when_too_short(self):
        rng = np.random.default_rng(0)
        assert len(sample_distant_pairs(20, 10, 30, rng)) == 0

    def test_respects_gap(self):
        rng = np.random.default_rng(1)
        pairs = sample_distant_pairs(100, 500, 30, rng)
        assert len(pairs) == 500
        assert (np.abs(pairs[:, 0] - pairs[:, 1]) > 30).all()
        assert pairs.min() >= 0 and pairs.max() < 100


class TestTrainAppearance:
    def _setup(self, seed=0):
        videos = [make_video(f"v{i}", n_frames=18, n_features=3, seed=seed + i)
                  for i in range(2)]
        labels = {v.id: np.array([0] * 9 + [1] * 9) for v in videos}
        params = init_appearance(np.random.default_rng(seed), 3, [4], 2)
        return videos, labels, params

    def test_zero_epochs_unchanged(self):
        videos, labels, params = self._setup()
        out = train_appearance(videos, labels, params, TrainConfig(epochs=0))
        for a, b in zip(params.layers, out.layers):
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.bias, b.bias)

    def test_all_frozen_unchanged(self):
        videos, labels, params = self._setup()
        params.trainable_mask = [False, False]
        out = train_appearance(videos, labels, params, TrainConfig(epochs=3))
        for a, b in zip(params.layers, out.layers):
            np.testing.assert_array_equal(a.weights, b.weights)

    def test_frozen_layer_bit_identical(self):
        videos, labels, params = self._setup()
        params.trainable_mask = [False, True]
        out = train_appearance(videos, labels, params, TrainConfig(epochs=4))
        np.testing.assert_array_equal(params.layers[0].weights, out.layers[0].weights)
        np.testing.assert_array_equal(params.layers[0].bias, out.layers[0].bias)
        assert not np.array_equal(params.layers[1].weights, out.layers[1].weights)

    def test_deterministic(self):
        videos, labels, params = self._setup()
        cfg = TrainConfig(epochs=5, seed=3)
        a = train_appearance(videos, labels, params, cfg)
        b = train_appearance(videos, labels, params, cfg)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)

    def test_separable_toy_reaches_full_accuracy(self):
        rng = np.random.default_rng(7)
        feats = np.vstack([
            np.array([3.0, 0.0]) + 0.1 * rng.standard_normal((15, 2)),
            np.array([-3.0, 0.0]) + 0.1 * rng.standard_normal((15, 2)),
        ])
        video = VideoSequence(id="toy", features=feats)
        labels = {"toy": np.array([0] * 15 + [1] * 15)}
        params = init_appearance(np.random.default_rng(0), 2, [3], 2)
        out = train_appearance(
            [video], labels, params,
            TrainConfig(learning_rate=1e-2, epochs=200, seed=0),
        )
        pred = forward(out, video).argmax(axis=1)
        assert (pred == labels["toy"]).mean() == 1.0

    def test_missing_labels_rejected(self):
        videos, labels, params = self._setup()
        del labels["v1"]
        with pytest.raises(ValueError):
            train_appearance(videos, labels, params, TrainConfig(epochs=1))

    def test_cross_entropy_decreases(self):
        videos, labels, params = self._setup()
        before = mean_cross_entropy(params, videos, labels)
        out = train_appearance(
            videos, labels, params, TrainConfig(epochs=30, seed=1)
        )
        after = mean_cross_entropy(out, videos, labels)
        assert after < before

    def test_batch_weights_each_video_equally(self):
        # one batch holds every frame of an 18- and a 30-frame video; each
        # video's mean frame loss counts 1/2, whatever its length
        videos = [make_video("short", n_frames=18, n_features=3, seed=1),
                  make_video("long", n_frames=30, n_features=3, seed=2)]
        labels = {"short": np.array([0] * 9 + [1] * 9),
                  "long": np.array([0] * 12 + [1] * 18)}
        params = init_appearance(np.random.default_rng(0), 3, [4], 2)
        cfg = TrainConfig(learning_rate=0.5, epochs=1, batch_size=64,
                          l2_weight=0.0, optimizer="sgd", seed=0)
        out = train_appearance(videos, labels, params, cfg)
        per_video = [
            cross_entropy_loss_and_grads(params, v.features, labels[v.id], weight=1.0)[1]
            for v in videos
        ]
        for i, layer in enumerate(params.layers):
            for part, got in enumerate((out.layers[i].weights, out.layers[i].bias)):
                before = (layer.weights, layer.bias)[part]
                mean_grad = 0.5 * (per_video[0][i][part] + per_video[1][i][part])
                np.testing.assert_allclose(got, before - cfg.learning_rate * mean_grad,
                                           rtol=1e-12, atol=1e-14)

    def test_non_finite_loss_raises(self):
        # SGD with learning_rate * l2_weight = 1000 multiplies the weights by
        # -999 per step until the L2 term overflows
        videos, labels, params = self._setup()
        cfg = TrainConfig(learning_rate=1e3, epochs=50, batch_size=8,
                          l2_weight=1.0, optimizer="sgd", seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError):
                train_appearance(videos, labels, params, cfg)


class TestTcPretrain:
    def test_changes_embedding_not_head(self):
        videos = [make_video("a", n_frames=50, n_features=3)]
        params = init_appearance(np.random.default_rng(2), 3, [4], 2)
        out = tc_pretrain(videos, params, TrainConfig(epochs=3, seed=0), gap=10)
        assert not np.array_equal(params.layers[0].weights, out.layers[0].weights)
        np.testing.assert_array_equal(params.layers[-1].weights, out.layers[-1].weights)

    def test_deterministic(self):
        videos = [make_video("a", n_frames=50, n_features=3)]
        params = init_appearance(np.random.default_rng(2), 3, [4], 2)
        cfg = TrainConfig(epochs=3, seed=5)
        a = tc_pretrain(videos, params, cfg, gap=10)
        b = tc_pretrain(videos, params, cfg, gap=10)
        np.testing.assert_array_equal(a.layers[0].weights, b.layers[0].weights)
