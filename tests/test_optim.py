import numpy as np
import pytest

from segrsd.appearance import DenseLayer, TrainConfig
from segrsd.errors import NumericalError
from segrsd.optim import minibatch_epochs


def _layers():
    return [DenseLayer(np.ones((2, 3)), np.zeros(2))]


class TestMinibatchEpochs:
    def _run(self, n_frames, batch_size, epochs=2, part_loss=1.0):
        """Returns the yielded losses and, per epoch, the (video, idx, weight) calls."""
        layers = _layers()
        calls = []

        def loss_and_grads(vi, idx, weight):
            calls[-1].append((vi, idx.copy(), weight))
            return weight * part_loss, [[np.zeros((2, 3)), np.zeros(2)]]

        cfg = TrainConfig(learning_rate=0.1, epochs=epochs, batch_size=batch_size,
                          l2_weight=0.0, optimizer="sgd", seed=4)
        epochs_iter = minibatch_epochs(layers, [True], n_frames, cfg,
                                       np.random.default_rng(cfg.seed), loss_and_grads)
        losses = []
        while True:
            calls.append([])
            try:
                losses.append(next(epochs_iter))
            except StopIteration:
                calls.pop()
                return losses, calls

    def test_each_frame_once_per_epoch_grouped_by_video(self):
        n_frames = [5, 7, 3]
        losses, calls = self._run(n_frames, batch_size=4, epochs=2)
        assert len(losses) == len(calls) == 2
        for epoch_calls in calls:
            seen = {vi: [] for vi in range(3)}
            for vi, idx, _ in epoch_calls:
                assert list(idx) == sorted(idx)
                seen[vi].extend(idx.tolist())
            assert {vi: sorted(t) for vi, t in seen.items()} == {
                vi: list(range(n)) for vi, n in enumerate(n_frames)
            }

    def test_touched_videos_share_the_batch_equally(self):
        _, calls = self._run([5, 7, 3], batch_size=4, epochs=1)
        sizes, i = [], 0
        while i < len(calls[0]):
            n = round(1.0 / calls[0][i][2])
            batch = calls[0][i:i + n]
            assert [w for _, _, w in batch] == [1.0 / n] * n
            touched = [vi for vi, _, _ in batch]
            assert touched == sorted(set(touched))
            sizes.append(sum(len(idx) for _, idx, _ in batch))
            i += n
        assert sizes == [4, 4, 4, 3]

    def test_yields_mean_batch_loss(self):
        losses, _ = self._run([5, 7, 3], batch_size=4, part_loss=2.5)
        assert losses == [pytest.approx(2.5)] * 2

    def test_non_finite_batch_loss_raises_before_the_step(self):
        layers = _layers()
        cfg = TrainConfig(learning_rate=0.1, epochs=1, batch_size=4,
                          l2_weight=0.0, optimizer="sgd", seed=0)

        def loss_and_grads(vi, idx, weight):
            return float("nan"), [[np.ones((2, 3)), np.ones(2)]]

        with pytest.raises(NumericalError):
            list(minibatch_epochs(layers, [True], [6], cfg, np.random.default_rng(0),
                                  loss_and_grads))
        np.testing.assert_array_equal(layers[0].weights, np.ones((2, 3)))

