import numpy as np
import pytest

from segrsd import appearance
from segrsd.appearance import DenseLayer, TrainConfig, _trunk_source
from segrsd.errors import NumericalError
from segrsd.optim import add_l2, minibatch_epochs

from conftest import finite_difference_grads, grad_rel_error, make_video


def _layers():
    return [DenseLayer(np.ones((2, 3)), np.zeros(2))]


class TestMinibatchEpochs:
    N_FRAMES = [5, 7, 3]

    def _run(self, n_frames, batch_size, epochs=2, batch_loss=None, part_loss=1.0):
        """Returns the yielded losses and, per epoch, the rows of each call."""
        layers = _layers()
        calls = []

        def record(rows):
            calls[-1].append(rows.copy())
            if batch_loss is not None:
                return batch_loss(rows)
            return part_loss, [[np.zeros((2, 3)), np.zeros(2)]]

        cfg = TrainConfig(learning_rate=0.1, epochs=epochs, batch_size=batch_size,
                          l2_weight=0.0, optimizer="sgd", seed=4)
        epochs_iter = minibatch_epochs(layers, [True], n_frames, cfg,
                                       np.random.default_rng(cfg.seed), record)
        losses = []
        while True:
            calls.append([])
            try:
                losses.append(next(epochs_iter))
            except StopIteration:
                calls.pop()
                return losses, calls

    def test_each_frame_once_per_epoch_grouped_by_video(self):
        starts = np.cumsum([0, *self.N_FRAMES])
        losses, calls = self._run(starts[-1], batch_size=4, epochs=2)
        assert len(losses) == len(calls) == 2
        for epoch_calls in calls:
            seen = {vi: [] for vi in range(3)}
            for rows in epoch_calls:
                # sorted rows of the stack hold each video's frames together, in order
                assert list(rows) == sorted(rows)
                videos = np.searchsorted(starts, rows, side="right") - 1
                for vi in range(3):
                    seen[vi].extend((rows[videos == vi] - starts[vi]).tolist())
            assert {vi: sorted(t) for vi, t in seen.items()} == {
                vi: list(range(n)) for vi, n in enumerate(self.N_FRAMES)
            }

    def test_touched_videos_share_the_batch_equally(self, monkeypatch):
        # the trainers' batch loss makes one head call per batch, with per-row
        # weights (1/touched)/n_v on the n_v rows of each touched video; live
        # layers make one per group of touched videos, in order, whose
        # prefixes through their last rows stack to at most _STACK_ROWS frames
        videos = [make_video(f"v{i}", n_frames=n, n_features=3, seed=i)
                  for i, n in enumerate(self.N_FRAMES)]
        starts = np.cumsum([0, *self.N_FRAMES])
        for frozen, bound in ((True, None), (False, None), (False, 8)):
            if bound is not None:
                monkeypatch.setattr(appearance, "_STACK_ROWS", bound)
            heads = []

            def head_loss(trunk, rows, weight):
                heads[-1].append((rows.copy(), weight))
                return 0.0, [[np.zeros((2, 3)), np.zeros(2)]]

            trunk_batch_loss = _trunk_source(
                [DenseLayer(np.ones((2, 3)), np.zeros(2))], [not frozen], 0.9,
                [v.features for v in videos], head_loss,
            )

            def batch_loss(rows):
                heads.append([])
                return trunk_batch_loss(rows)

            _, calls = self._run(starts[-1], batch_size=4, epochs=1, batch_loss=batch_loss)
            assert len(heads) == len(calls[0])
            for rows, batch in zip(calls[0], heads):
                video_of = np.searchsorted(starts, rows, side="right") - 1
                touched = sorted(set(video_of.tolist()))
                np.testing.assert_array_equal(np.concatenate([r for r, _ in batch]), rows)
                weight = np.concatenate([w for _, w in batch])
                for vi in touched:
                    share = weight[video_of == vi]
                    assert (share == 1.0 / len(touched) / len(share)).all()
                if bound is None:
                    assert len(batch) == 1
                for group, _ in batch:
                    owner = np.searchsorted(starts, group, side="right") - 1
                    prefixes = [group[owner == vi].max() - starts[vi] + 1 for vi in set(owner)]
                    assert len(prefixes) == 1 or sum(prefixes) <= appearance._STACK_ROWS
            assert [len(rows) for rows in calls[0]] == [4, 4, 4, 3]
            if bound is not None:
                assert max(len(batch) for batch in heads) > 1

    def test_yields_mean_batch_loss(self):
        losses, _ = self._run(15, batch_size=4, part_loss=2.5)
        assert losses == [pytest.approx(2.5)] * 2

    def test_non_finite_batch_loss_raises_before_the_step(self):
        layers = _layers()
        cfg = TrainConfig(learning_rate=0.1, epochs=1, batch_size=4,
                          l2_weight=0.0, optimizer="sgd", seed=0)

        def batch_loss(rows):
            return float("nan"), [[np.ones((2, 3)), np.ones(2)]]

        with pytest.raises(NumericalError):
            list(minibatch_epochs(layers, [True], 6, cfg, np.random.default_rng(0),
                                  batch_loss))
        np.testing.assert_array_equal(layers[0].weights, np.ones((2, 3)))

    def test_frozen_layer_without_gradient(self):
        # a frozen layer's gradient is None in every call; it is left out of
        # the step, and its L2 term still counts in the loss
        layers = [DenseLayer(np.ones((2, 3)), np.zeros(2)),
                  DenseLayer(2.0 * np.ones((2, 3)), np.zeros(2))]

        def batch_loss(rows):
            return 0.0, [None, [np.zeros((2, 3)), np.zeros(2)]]

        cfg = TrainConfig(learning_rate=0.0, epochs=1, batch_size=4,
                          l2_weight=0.5, optimizer="adam", seed=0)
        [loss] = minibatch_epochs(layers, [False, True], 8, cfg,
                                  np.random.default_rng(0), batch_loss)
        assert loss == 0.25 * (6.0 + 24.0)
        np.testing.assert_array_equal(layers[0].weights, np.ones((2, 3)))


def test_add_l2_counts_a_layer_without_gradient_in_the_loss_only():
    layers = [DenseLayer(np.full((2, 3), 3.0), np.zeros(2)),
              DenseLayer(np.ones((1, 2)), np.zeros(1))]
    grads = [None, [np.zeros((1, 2)), np.zeros(1)]]
    assert add_l2(layers, grads, 0.5, 0.2) == pytest.approx(0.5 + 0.1 * (54.0 + 2.0))
    assert grads[0] is None
    np.testing.assert_array_equal(grads[1][0], 0.2 * layers[1].weights)


def test_add_l2_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    layers = [DenseLayer(rng.standard_normal((3, 4)), rng.standard_normal(3)),
              DenseLayer(rng.standard_normal((2, 3)), rng.standard_normal(2))]

    def loss_and_grads():
        grads = [[np.zeros_like(l.weights), np.zeros_like(l.bias)] for l in layers]
        return add_l2(layers, grads, 0.5, 0.3), grads

    loss, grads = loss_and_grads()
    assert loss == pytest.approx(0.5 + 0.15 * sum((l.weights ** 2).sum() for l in layers))
    fd = finite_difference_grads(lambda: loss_and_grads()[0], layers)
    assert grad_rel_error(grads, fd) < 1e-8
