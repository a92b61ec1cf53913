import itertools

import numpy as np
import pytest

from segrsd import appearance
from segrsd.appearance import forward, init_appearance
from segrsd.core import Corpus, Segmentation, VideoSequence, derived_rng, segmentation_to_labels
from segrsd.segtrain import (
    SegCheckpoint,
    SegTrainConfig,
    best_coherent_match,
    init_labels,
    run,
    select_checkpoint,
    tc_from_labels,
    tc_measure,
    uniform_labels,
)

from conftest import make_video


def brute_force_match(labels, _k):
    """Exhaustive search over orderings of the present labels; ties go to
    the lexicographically smallest order."""
    labels = np.asarray(labels)
    present = sorted(set(labels.tolist()))
    counts = {p: int((labels == p).sum()) for p in present}
    best_acc, best_order = -1.0, None
    for perm in itertools.permutations(present):
        blocks = np.concatenate([np.full(counts[p], p, dtype=np.int64) for p in perm])
        acc = float((blocks == labels).mean())
        if acc > best_acc:
            best_acc, best_order = acc, perm
    return best_order, best_acc


class TestUniformLabels:
    def test_even_split(self):
        v = make_video(n_frames=10)
        assert uniform_labels(v, 2).tolist() == [0] * 5 + [1] * 5

    def test_remainder_goes_first(self):
        v = make_video(n_frames=5)
        assert uniform_labels(v, 2).tolist() == [0, 0, 0, 1, 1]

    def test_unit_segments(self):
        v = make_video(n_frames=4)
        assert uniform_labels(v, 4).tolist() == [0, 1, 2, 3]

    def test_too_many_classes_rejected(self):
        with pytest.raises(ValueError):
            uniform_labels(make_video(n_frames=3), 4)


class TestInitLabels:
    def test_valid_and_deterministic(self):
        videos = [make_video(f"v{i}", n_frames=20 + i) for i in range(3)]
        a = init_labels(videos, 4, derived_rng(0, "init"))
        b = init_labels(videos, 4, derived_rng(0, "init"))
        assert set(a) == {"v0", "v1", "v2"}
        for vid, video in zip(("v0", "v1", "v2"), videos):
            assert a[vid] == b[vid]
            assert a[vid].n_frames == video.n_frames
            assert len(a[vid].segments) == 4

    def test_orders_vary_across_videos(self):
        videos = [make_video(f"v{i}", n_frames=30) for i in range(30)]
        segs = init_labels(videos, 5, derived_rng(1, "init"))
        orders = {s.order for s in segs.values()}
        assert len(orders) > 1


class TestBestCoherentMatch:
    def test_already_coherent(self):
        match = best_coherent_match(np.array([0, 0, 1, 1]), 2)
        assert match.order == (0, 1)
        assert match.accuracy == 1.0

    def test_alternating_ties_break_lexicographically(self):
        match = best_coherent_match(np.array([0, 1, 0, 1]), 2)
        assert match.accuracy == 0.5
        assert match.order == (0, 1)

    def test_reversed_order(self):
        match = best_coherent_match(np.array([1, 1, 0]), 2)
        assert match.order == (1, 0)
        assert match.accuracy == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            k = int(rng.integers(2, 8))
            n = int(rng.integers(4, 31))
            labels = rng.integers(0, k, size=n)
            match = best_coherent_match(labels, k)
            order, acc = brute_force_match(labels, k)
            assert match.accuracy == pytest.approx(acc, abs=1e-12)
            assert match.order == order

    def test_absent_labels_ignored(self):
        match = best_coherent_match(np.array([3, 3, 1, 1]), 6)
        assert match.order == (3, 1)
        assert match.accuracy == 1.0

    def test_nine_labels_exact(self):
        # 19/60 and this order come from brute force over all 9! orders with
        # integer prefix sums (ties to the lexicographically smallest order);
        # 2-opt local search from 16 random restarts stops at 17/60 here
        labels = np.random.default_rng(5).integers(0, 9, size=60)
        match = best_coherent_match(labels, 9)
        assert match.accuracy == 19 / 60
        assert match.order == (6, 4, 3, 0, 2, 5, 8, 1, 7)

    def test_label_bound(self):
        assert best_coherent_match(np.arange(16), 16).accuracy == 1.0
        with pytest.raises(ValueError, match="17 labels present"):
            best_coherent_match(np.arange(17), 17)


class TestTcMeasure:
    def test_coherent_predictions_score_one(self):
        assert tc_from_labels([np.array([0, 0, 1, 1]), np.array([2, 2, 2])], 3) == 1.0

    def test_alternating_brute_force(self):
        for n in range(4, 9):
            labels = np.arange(n) % 2
            got = tc_from_labels([labels], 2)
            _, want = brute_force_match(labels, 2)
            assert got == pytest.approx(want, abs=1e-12)
            assert got == pytest.approx(0.5, abs=0.2)

    def test_matches_oracle_on_model_predictions(self):
        rng = np.random.default_rng(4)
        videos = [make_video(f"v{i}", n_frames=25, n_features=3, seed=i) for i in range(4)]
        params = init_appearance(rng, 3, [4], 3)
        got = tc_measure(params, videos)
        accs = []
        for v in videos:
            pred = forward(params, v).argmax(axis=1)
            accs.append(brute_force_match(pred, 3)[1])
        assert got == pytest.approx(np.mean(accs), abs=1e-12)


def _ckpt(iteration, tc):
    return SegCheckpoint(
        iteration=iteration, appearance=None, mallows=None, lengths=None,
        labels={}, tc_score=tc,
    )


class TestSelectCheckpoint:
    def test_argmax_in_window(self):
        ckpts = [_ckpt(i, s) for i, s in enumerate(
            (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 0.7), start=1)]
        assert select_checkpoint(ckpts, (6, 8)).iteration == 7

    def test_ties_take_latest(self):
        ckpts = [_ckpt(i, 0.5) for i in range(1, 9)]
        assert select_checkpoint(ckpts, (6, 8)).iteration == 8

    def test_single_iteration_window(self):
        ckpts = [_ckpt(1, 0.2), _ckpt(2, 0.9)]
        assert select_checkpoint(ckpts, (1, 1)).iteration == 1

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            select_checkpoint([_ckpt(1, 0.5)], (2, 3))


def _oracle_corpus(seed=0, k=2, n_videos=4, n_frames=40, eps=0.05):
    """Features are one-hot ground-truth labels plus small noise."""
    rng = np.random.default_rng(seed)
    videos = []
    split = {}
    for i in range(n_videos):
        cut = int(rng.integers(n_frames // 4, 3 * n_frames // 4))
        labels = np.array([0] * cut + [1] * (n_frames - cut))
        feats = np.eye(k)[labels] + eps * rng.standard_normal((n_frames, k))
        vid = f"v{i}"
        videos.append(VideoSequence(id=vid, features=feats, phase_labels=labels))
        split[vid] = "train"
    return Corpus(videos, split)


class TestRun:
    def test_zero_iterations_empty(self):
        corpus = _oracle_corpus()
        config = SegTrainConfig(n_subactivities=2, iterations=0, selection_window=(1, 1))
        assert run(corpus, config, verbose=False) == []

    def test_deterministic(self):
        corpus = _oracle_corpus()
        config = SegTrainConfig(
            n_subactivities=2, iterations=2, epochs_per_iteration=2,
            selection_window=(1, 2), sweeps_per_iteration=5,
            hidden_dim=4, tc_pretrain_epochs=2, seed=9,
        )
        a = run(corpus, config, verbose=False)
        b = run(corpus, config, verbose=False)
        assert [c.tc_score for c in a] == [c.tc_score for c in b]
        for ca, cb in zip(a, b):
            for la, lb in zip(ca.appearance.layers, cb.appearance.layers):
                np.testing.assert_array_equal(la.weights, lb.weights)
            for vid in ca.labels:
                np.testing.assert_array_equal(ca.labels[vid], cb.labels[vid])

    def test_near_oracle_features_track_coherence(self):
        corpus = _oracle_corpus()
        config = SegTrainConfig(
            n_subactivities=2, iterations=1, epochs_per_iteration=5,
            selection_window=(1, 1), sweeps_per_iteration=10,
            hidden_dim=4, tc_pretrain_epochs=0, seed=0,
        )
        ckpts = run(corpus, config, verbose=False)
        assert len(ckpts) == 1
        assert ckpts[0].tc_score >= 0.9

    def test_first_iteration_freezes_embedding(self):
        corpus = _oracle_corpus()
        config = SegTrainConfig(
            n_subactivities=2, iterations=1, epochs_per_iteration=3,
            selection_window=(1, 1), sweeps_per_iteration=5,
            hidden_dim=4, tc_pretrain_epochs=0, seed=4,
        )
        ckpts = run(corpus, config, verbose=False)
        fresh = init_appearance(
            derived_rng(config.seed, "weights"), corpus.feature_dim, [config.hidden_dim], 2,
        )
        trained = ckpts[0].appearance
        np.testing.assert_array_equal(trained.layers[0].weights, fresh.layers[0].weights)
        np.testing.assert_array_equal(trained.layers[0].bias, fresh.layers[0].bias)
        assert not np.array_equal(trained.layers[1].weights, fresh.layers[1].weights)

    def test_checkpoint_labels_cover_train_split(self):
        corpus = _oracle_corpus()
        config = SegTrainConfig(
            n_subactivities=2, iterations=2, epochs_per_iteration=2,
            selection_window=(1, 2), sweeps_per_iteration=5,
            hidden_dim=4, tc_pretrain_epochs=0, seed=1,
        )
        for ckpt in run(corpus, config, verbose=False):
            assert set(ckpt.labels) == {v.id for v in corpus.by_split("train")}
            for v in corpus.by_split("train"):
                assert len(ckpt.labels[v.id]) == v.n_frames
            assert 0.0 <= ckpt.tc_score <= 1.0

    def test_progress_lines(self, capsys):
        corpus = _oracle_corpus()
        config = SegTrainConfig(
            n_subactivities=2, iterations=2, epochs_per_iteration=1,
            selection_window=(1, 2), sweeps_per_iteration=2,
            hidden_dim=4, tc_pretrain_epochs=0, seed=0,
        )
        run(corpus, config, verbose=True)
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("iter=1 ce=")
        assert " tc=" in lines[0]

    def _three_iterations(self):
        corpus = _oracle_corpus(n_videos=5)
        config = SegTrainConfig(
            n_subactivities=2, iterations=3, epochs_per_iteration=2,
            selection_window=(1, 3), sweeps_per_iteration=3,
            hidden_dim=4, tc_pretrain_epochs=1, seed=2,
        )
        return corpus, config

    def test_one_classifier_pass_per_iteration(self, monkeypatch):
        # whole-video trunk passes: one per video per iteration, which the
        # sampler, the CE and the TC share, plus iteration 1's frozen cache
        corpus, config = self._three_iterations()
        blocks, whole = appearance._trunk_blocks, []

        def counted(layers, lam, feats):
            whole.append(len(feats))
            return blocks(layers, lam, feats)

        monkeypatch.setattr(appearance, "_trunk_blocks", counted)
        assert len(run(corpus, config, verbose=False)) == 3
        assert len(whole) == 5 * 3 + 5

    def test_checkpoint_tc_is_tc_measure(self):
        corpus, config = self._three_iterations()
        videos = corpus.by_split("train")
        for ckpt in run(corpus, config, verbose=False):
            assert ckpt.tc_score == tc_measure(ckpt.appearance, videos)
