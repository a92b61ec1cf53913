import copy
import dataclasses
import itertools

import numpy as np
import pytest

from segrsd import appearance, optim, rsd
from segrsd.appearance import TrainConfig, _trunk_source, init_dense
from segrsd.core import Corpus, VideoSequence
from segrsd.errors import DataFormatError
from segrsd.optim import minibatch_epochs
from segrsd.rsd import (
    AuxInit,
    CorridorParams,
    PipelineMode,
    RsdParams,
    build_aux_init,
    corr_smooth_l1,
    corridor_border,
    corridor_weight,
    default_train_config,
    init_rsd,
    mae_of,
    naive_prediction,
    predict_video,
    progress,
    rsd_forward,
    rsd_loss_and_grads,
    smooth_l1,
    smooth_l1_grad,
    train_rsd,
)

from conftest import (
    BLOCK_FRAMES,
    assert_block_close,
    finite_difference_grads,
    frame_subset,
    grad_rel_error,
    make_video,
    peak_bytes,
    per_video_epochs,
    whole_array_trunk,
)

B = appearance._BLOCK_ROWS


CORR = CorridorParams(t_median=40.0)


class TestSmoothL1:
    def test_pins(self):
        assert smooth_l1(3.0, 3.0) == 0.0
        assert smooth_l1(3.5, 3.0) == pytest.approx(0.125)
        assert smooth_l1(5.0, 3.0) == pytest.approx(1.5)
        assert smooth_l1(1.0, 3.0) == pytest.approx(1.5)

    def test_beta_scales_quadratic_zone(self):
        # |x| = 1 is linear for beta=1 but quadratic for beta=2
        assert smooth_l1(1.0, 0.0, beta=1.0) == pytest.approx(0.5)
        assert smooth_l1(1.0, 0.0, beta=2.0) == pytest.approx(0.25)

    def test_grad_matches_finite_difference(self):
        for y in (-2.0, -0.3, 0.0, 0.4, 1.7):
            g = smooth_l1_grad(y, 0.0)
            h = 1e-6
            num = (smooth_l1(y + h, 0.0) - smooth_l1(y - h, 0.0)) / (2 * h)
            assert g == pytest.approx(num, abs=1e-6)

    def test_vectorized(self):
        out = smooth_l1(np.array([0.0, 0.5, 2.0]), np.zeros(3))
        np.testing.assert_allclose(out, [0.0, 0.125, 1.5])

    def test_bad_beta(self):
        with pytest.raises(ValueError):
            smooth_l1(1.0, 0.0, beta=0.0)


class TestProgress:
    def test_pins(self):
        assert progress(0.0, 5.0) == 0.0
        assert progress(5.0, 0.0) == 1.0
        assert progress(1.0, 2.0) == pytest.approx(1.0 / 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            progress(-1.0, 2.0)
        with pytest.raises(ValueError):
            progress(0.0, 0.0)


class TestCorridor:
    def test_border_at_start_is_naive(self):
        assert corridor_border(0.0, 30.0, CORR) == pytest.approx(40.0)

    def test_border_pin(self):
        assert corridor_border(20.0, 40.0, CORR) == pytest.approx(33.645235805, abs=1e-6)

    def test_border_past_median_with_no_remaining(self):
        assert corridor_border(45.0, 0.0, CORR) == pytest.approx(0.0, abs=1e-9)

    def test_naive_clamps_at_zero(self):
        assert naive_prediction(50.0, CORR) == 0.0
        assert naive_prediction(10.0, CORR) == 30.0

    def test_blend_moves_toward_truth(self):
        # late in the video the border should sit close to the ground truth
        late = corridor_border(39.0, 1.0, CORR)
        assert abs(late - 1.0) < abs(naive_prediction(39.0, CORR) - 1.0) + 1e-12
        assert late == pytest.approx(1.0, abs=0.1)

    def test_weight_zero_at_truth_one_at_border(self):
        c = corridor_border(20.0, 40.0, CORR)
        assert corridor_weight(40.0, 20.0, 40.0, CORR) == 0.0
        assert corridor_weight(c, 20.0, 40.0, CORR) == pytest.approx(1.0)

    def test_weight_pin(self):
        assert corridor_weight(36.0, 20.0, 40.0, CORR) == pytest.approx(
            0.396206050, abs=1e-6
        )

    def test_weight_outside_is_one(self):
        # corridor spans [33.645, 40]; values on either side get full weight
        assert corridor_weight(50.0, 20.0, 40.0, CORR) == 1.0
        assert corridor_weight(10.0, 20.0, 40.0, CORR) == 1.0

    def test_weight_degenerate_corridor(self):
        # at t = 0 with gt = t_median the border equals the truth
        assert corridor_weight(40.0, 0.0, 40.0, CORR) == 1.0

    def test_weight_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            t = float(rng.uniform(0, 80))
            gt = float(rng.uniform(0, 80))
            y = float(rng.uniform(-10, 90))
            if t + gt == 0:
                continue
            w = corridor_weight(y, t, gt, CORR)
            assert 0.0 <= w <= 1.0 + 1e-12

    def test_corr_pin(self):
        assert corr_smooth_l1(36.0, 20.0, 40.0, CORR) == pytest.approx(
            0.007924121, abs=1e-8
        )

    def test_corr_never_exceeds_plain_loss(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            t = float(rng.uniform(0, 80))
            gt = float(rng.uniform(0.01, 80))
            y = float(rng.uniform(-10, 90))
            corr = corr_smooth_l1(y, t, gt, CORR)
            plain = smooth_l1(CORR.scale * y, CORR.scale * gt, CORR.beta)
            assert corr <= plain + 1e-12

    def test_corr_zero_at_truth(self):
        assert corr_smooth_l1(40.0, 20.0, 40.0, CORR) == 0.0

    def test_alpha_increases_with_progress(self):
        progs = np.linspace(0.0, 1.0, 50)
        alpha = 1.0 - 2.0 / (1.0 + np.exp(5.0 * progs))
        assert np.all(np.diff(alpha) > 0)
        borders = [corridor_border(p * 40, (1 - p) * 40 + 1e-9, CORR) for p in progs]
        assert borders[0] == pytest.approx(40.0)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            CorridorParams(t_median=0.0)
        with pytest.raises(ValueError):
            CorridorParams(t_median=10.0, scale=-1.0)

    def test_from_corpus_median(self, tiny_corpus):
        corr = CorridorParams.from_corpus(tiny_corpus)
        durs = [v.duration_min for v in tiny_corpus.by_split("train")]
        assert corr.t_median == pytest.approx(np.median(durs))

    @pytest.mark.parametrize("n_train", [1, 2, 5, 6])
    def test_from_corpus_median_equals_np_median(self, n_train):
        # odd and even counts, lengths in no particular order
        lengths = np.random.default_rng(n_train).integers(5, 90, size=n_train)
        videos = [make_video(f"v{i}", n_frames=int(n), period=7.0) for i, n in enumerate(lengths)]
        corpus = Corpus(videos, {v.id: "train" for v in videos})
        durs = [v.duration_min for v in videos]
        assert CorridorParams.from_corpus(corpus).t_median == float(np.median(durs))


class TestPipelineMode:
    def test_single_task_rejects_aux(self):
        with pytest.raises(ValueError):
            PipelineMode("single_task", "uniform")

    def test_transfer_requires_aux(self):
        with pytest.raises(ValueError):
            PipelineMode("regularization", "none")

    def test_unknown_names(self):
        with pytest.raises(ValueError):
            PipelineMode("finetune", "uniform")
        with pytest.raises(ValueError):
            PipelineMode("regularization", "optical_flow")

    def test_valid_combinations(self):
        PipelineMode("single_task", "none")
        for p in ("feature_extraction", "pretraining", "regularization"):
            PipelineMode(p, "learned_seg")


class TestRsdParams:
    def test_head_shape_validation(self):
        rng = np.random.default_rng(0)
        embed = [init_dense(rng, 4, 6)]
        bad_head1 = init_dense(rng, 12, 5)  # wants 2*6 + 1 = 13 inputs
        head2 = init_dense(rng, 5, 1)
        with pytest.raises(ValueError):
            RsdParams(embed, 0.9, bad_head1, head2)

    def test_aux_agreement(self):
        rng = np.random.default_rng(0)
        embed = [init_dense(rng, 4, 6)]
        head1 = init_dense(rng, 13, 5)
        head2 = init_dense(rng, 5, 1)
        with pytest.raises(ValueError):
            RsdParams(embed, 0.9, head1, head2, aux_head=None, aux_kind="classes")
        with pytest.raises(ValueError):
            RsdParams(embed, 0.9, head1, head2,
                      aux_head=init_dense(rng, 6, 3), aux_kind="none")

    def test_layer_list_order(self):
        params = init_rsd(np.random.default_rng(0), 4, hidden_dim=6, head_dim=5,
                          aux_kind="classes", aux_dim=3)
        layers = params.layer_list()
        assert layers[0] is params.embed[0]
        assert layers[-3] is params.head1
        assert layers[-2] is params.head2
        assert layers[-1] is params.aux_head
        assert len(params.trainable_mask) == 4


class TestForward:
    def test_zero_output_layer_predicts_zero(self):
        params = init_rsd(np.random.default_rng(0), 3)
        params.head2.weights[:] = 0.0
        params.head2.bias[:] = 0.0
        video = make_video(n_frames=12, n_features=3)
        np.testing.assert_array_equal(rsd_forward(params, video), np.zeros(12))

    def test_causality(self):
        params = init_rsd(np.random.default_rng(2), 3)
        a = make_video(n_frames=20, n_features=3, seed=5)
        feats = a.features.copy()
        feats[12:] = 99.0
        b = VideoSequence(id="b", features=feats, frame_period_s=a.frame_period_s)
        np.testing.assert_allclose(
            rsd_forward(params, a)[:12], rsd_forward(params, b)[:12], rtol=1e-12
        )

    def test_output_scale_divides(self):
        video = make_video(n_frames=6, n_features=3)
        a = init_rsd(np.random.default_rng(3), 3, output_scale=0.05)
        b = dataclasses.replace(a, output_scale=0.1)
        np.testing.assert_allclose(
            rsd_forward(a, video), 2.0 * rsd_forward(b, video), rtol=1e-12
        )


class TestPredictBlocks:
    """predict_video runs in row blocks and matches one whole-array pass."""

    @pytest.mark.parametrize("n_frames", BLOCK_FRAMES)
    def test_matches_whole_array_pass(self, n_frames):
        rng = np.random.default_rng(n_frames)
        params = init_rsd(rng, 3, embed=[init_dense(rng, 3, 7), init_dense(rng, 7, 5)])
        video = make_video(n_frames=n_frames, n_features=3, seed=n_frames, period=2.0)
        emb, ctx = whole_array_trunk(params.embed, params.context_lambda, video.features)
        inp = np.hstack([emb, ctx, video.elapsed_min()[:, None]])
        hidden = np.tanh(inp @ params.head1.weights.T + params.head1.bias)
        scaled = hidden @ params.head2.weights.T + params.head2.bias
        want = scaled[:, 0] / params.output_scale
        assert_block_close(predict_video(params, video), want, n_frames)

    def test_memory_is_blocks_not_frames(self):
        # a whole-array pass holds several (frames, 65) arrays at once; the
        # blocked pass holds its output, the elapsed minutes and the arrays
        # of a block or two
        params = init_rsd(np.random.default_rng(0), 4)
        width = params.head1.in_dim
        video = make_video(n_frames=20 * B, n_features=4)
        minutes, peak = peak_bytes(predict_video, params, video)
        assert peak <= minutes.nbytes + 8 * B * width * 8


def _rsd_batch(params, videos, aux_targets, loss, target_kind, scale=1.0, corridor=CORR):
    """train_rsd's batch loss over videos, with aux_weight 0.7 and every row's
    weight times scale."""
    aux = None if aux_targets[0] is None else {v.id: t for v, t in zip(videos, aux_targets)}
    head_loss = rsd._stacked_loss(params, videos, loss, target_kind, corridor, aux, 0.7)
    return _trunk_source(
        params.embed, params.trainable_mask[:len(params.embed)], params.context_lambda,
        [v.features for v in videos],
        lambda emb, ctx, rows, weights: head_loss(emb, ctx, rows, scale * weights),
    )


class TestGradients:
    def _params(self, seed, aux_kind="none", aux_dim=0):
        return init_rsd(
            np.random.default_rng(seed), 3, hidden_dim=5, head_dim=4,
            aux_kind=aux_kind, aux_dim=aux_dim,
        )

    def test_smoothl1_gradcheck(self):
        for seed in range(4):
            params = self._params(seed)
            video = make_video(n_frames=8, n_features=3, seed=seed, period=30.0)
            layers = params.layer_list()
            _, grads = rsd_loss_and_grads(params, video, "smoothl1", CORR)
            num = finite_difference_grads(
                lambda: rsd_loss_and_grads(params, video, "smoothl1", CORR)[0],
                layers,
            )
            assert grad_rel_error(grads, num) < 1e-4

    def test_corr_gradcheck_with_frozen_weight(self):
        # the corridor weight is treated as a constant by the analytic
        # gradient, so the finite-difference oracle freezes it too
        for seed in range(4):
            params = self._params(seed + 10)
            video = make_video(n_frames=8, n_features=3, seed=seed, period=30.0)
            layers = params.layer_list()
            elapsed = video.elapsed_min()
            remaining = video.remaining_min()
            loss0, grads = rsd_loss_and_grads(params, video, "corr", CORR)
            pi0 = corridor_weight(rsd_forward(params, video), elapsed, remaining, CORR)

            def frozen_loss():
                minutes = rsd_forward(params, video)
                per = pi0 * smooth_l1(
                    CORR.scale * minutes, CORR.scale * remaining, CORR.beta
                )
                return float(np.mean(per))

            assert loss0 == pytest.approx(frozen_loss(), rel=1e-12)
            num = finite_difference_grads(frozen_loss, layers)
            assert grad_rel_error(grads, num) < 1e-4

    def test_aux_classes_gradcheck(self):
        for seed in range(3):
            params = self._params(seed + 20, aux_kind="classes", aux_dim=4)
            video = make_video(n_frames=8, n_features=3, seed=seed, period=30.0)
            target = np.random.default_rng(seed).integers(0, 4, size=8)
            batch_loss = _rsd_batch(params, [video], [target], "smoothl1", "duration")
            _, grads = batch_loss(np.arange(8))
            num = finite_difference_grads(lambda: batch_loss(np.arange(8))[0],
                                          params.layer_list())
            assert grad_rel_error(grads, num) < 1e-4

    def test_aux_progress_gradcheck(self):
        params = self._params(30, aux_kind="progress", aux_dim=1)
        video = make_video(n_frames=8, n_features=3, seed=0, period=30.0)
        target = progress(video.elapsed_min(), video.remaining_min())
        batch_loss = _rsd_batch(params, [video], [target], "smoothl1", "duration")
        _, grads = batch_loss(np.arange(8))
        num = finite_difference_grads(lambda: batch_loss(np.arange(8))[0], params.layer_list())
        assert grad_rel_error(grads, num) < 1e-4

    def test_progress_target_gradcheck(self):
        params = init_rsd(np.random.default_rng(40), 3, hidden_dim=5, head_dim=4,
                          output_scale=1.0)
        video = make_video(n_frames=8, n_features=3, seed=1, period=30.0)
        batch_loss = _rsd_batch(params, [video], [None], "smoothl1", "progress")
        _, grads = batch_loss(np.arange(8))
        num = finite_difference_grads(lambda: batch_loss(np.arange(8))[0], params.layer_list())
        assert grad_rel_error(grads, num) < 1e-4

    def test_frame_subset_and_weight_scale(self):
        # per-row weights scale the loss and its row factors alike
        params = self._params(50)
        video = make_video(n_frames=10, n_features=3, seed=2, period=30.0)
        idx = np.array([1, 4, 7])
        loss1, grads1 = _rsd_batch(params, [video], [None], "smoothl1", "duration")(idx)
        loss2, grads2 = _rsd_batch(params, [video], [None], "smoothl1", "duration", 0.5)(idx)
        assert loss2 == pytest.approx(0.5 * loss1)
        for (w1, b1), (w2, b2) in zip(grads1, grads2):
            np.testing.assert_allclose(w2, 0.5 * w1, rtol=1e-12)
            np.testing.assert_allclose(b2, 0.5 * b1, rtol=1e-12)

    def test_unknown_loss_rejected(self):
        params = self._params(60)
        video = make_video(n_frames=5, n_features=3)
        with pytest.raises(ValueError):
            rsd_loss_and_grads(params, video, "l2", CORR)

    def test_target_in_output_scale_units(self):
        # a model whose output is the remaining minutes at row k has no loss
        # there: the target is output_scale times them, whatever the
        # corridor's scale
        params = init_rsd(np.random.default_rng(70), 3, hidden_dim=5, head_dim=4,
                          output_scale=1.0)
        video = make_video(n_frames=8, n_features=3, seed=0, period=30.0)
        k = 3
        params.head2.weights[:] = 0.0
        params.head2.bias[:] = video.remaining_min()[k]
        assert predict_video(params, video)[k] == video.remaining_min()[k]
        loss, _ = _rsd_batch(params, [video], [None], "smoothl1", "duration",
                             corridor=CorridorParams(5.0))(np.array([k]))
        assert loss == 0.0

    def test_corr_rejects_progress_target(self):
        params = init_rsd(np.random.default_rng(80), 3, hidden_dim=5, head_dim=4,
                          output_scale=1.0)
        video = make_video(n_frames=5, n_features=3)
        with pytest.raises(ValueError, match="remaining minutes only"):
            _rsd_batch(params, [video], [None], "corr", "progress")
        corpus = _rsd_corpus()
        with pytest.raises(ValueError, match="remaining minutes only"):
            train_rsd(corpus, None, PipelineMode("single_task"), "corr", TrainConfig(epochs=1),
                      CORR, target_kind="progress")


class TestSelectedRows:
    """Only the batch rows carry loss; the context stops at the last one."""

    # (loss, aux kind, target kind)
    CASES = [
        ("smoothl1", "none", "duration"),
        ("corr", "none", "duration"),
        ("smoothl1", "classes", "duration"),
        ("corr", "progress", "duration"),
        ("smoothl1", "none", "progress"),
    ]

    @staticmethod
    def _setup(n_frames, aux_kind, target_kind, seed=0):
        rng = np.random.default_rng(seed)
        params = init_rsd(
            rng, 3, hidden_dim=5, head_dim=4, aux_kind=aux_kind,
            aux_dim={"none": 0, "classes": 4, "progress": 1}[aux_kind],
            output_scale=1.0 if target_kind == "progress" else 0.05,
        )
        video = make_video(n_frames=n_frames, n_features=3, seed=seed, period=30.0)
        aux_target = None
        if aux_kind == "classes":
            aux_target = rng.integers(0, 4, size=n_frames)
        elif aux_kind == "progress":
            aux_target = progress(video.elapsed_min(), video.remaining_min())
        return params, video, aux_target

    @staticmethod
    def _call(params, video, loss, aux_target, target_kind, idx):
        rows = np.arange(video.n_frames) if idx is None else idx
        return _rsd_batch(params, [video], [aux_target], loss, target_kind, 0.4)(rows)

    @staticmethod
    def _reference_loss(params, video, loss, aux_target, target_kind, idx):
        """The same loss from rsd_forward over every frame, then the selected rows."""
        sel = slice(None) if idx is None else idx
        minutes = rsd_forward(params, video)
        elapsed, remaining = video.elapsed_min(), video.remaining_min()
        if target_kind == "progress":
            target = progress(elapsed, remaining)
        else:
            target = CORR.scale * remaining
        pi = (corridor_weight(minutes, elapsed, remaining, CORR)
              if loss == "corr" else np.ones(len(minutes)))
        per = pi * smooth_l1(params.output_scale * minutes, target)
        out = 0.4 * np.mean(per[sel])
        if params.aux_head is not None:
            emb = np.tanh(video.features @ params.embed[0].weights.T + params.embed[0].bias)
            z = emb @ params.aux_head.weights.T + params.aux_head.bias
            if params.aux_kind == "classes":
                logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
                aux = -logp[np.arange(len(z)), aux_target]
            else:
                aux = smooth_l1(z[:, 0], aux_target)
            out += 0.7 * 0.4 * np.mean(aux[sel])
        return out

    @pytest.mark.parametrize("n_frames", [2, 181, 1800])
    @pytest.mark.parametrize("subset", ["single", "early", "all"])
    def test_loss_matches_forward_at_selected_rows(self, n_frames, subset):
        idx = frame_subset(n_frames, subset)
        for seed, (loss, aux_kind, target_kind) in enumerate(self.CASES):
            params, video, aux_target = self._setup(n_frames, aux_kind, target_kind, seed)
            got, _ = self._call(params, video, loss, aux_target, target_kind, idx)
            want = self._reference_loss(params, video, loss, aux_target, target_kind, idx)
            assert got == pytest.approx(want, rel=1e-12), (loss, aux_kind, target_kind)

    @pytest.mark.parametrize("n_frames", [2, 181, 1800])
    @pytest.mark.parametrize("subset", ["single", "early"])
    def test_frames_after_last_selected_do_not_matter(self, n_frames, subset):
        idx = frame_subset(n_frames, subset)
        stop = idx.max() + 1
        for seed, (loss, aux_kind, target_kind) in enumerate(self.CASES):
            params, video, aux_target = self._setup(n_frames, aux_kind, target_kind, seed)
            loss1, grads1 = self._call(params, video, loss, aux_target, target_kind, idx)
            feats = video.features.copy()
            feats[stop:] = np.random.default_rng(seed).standard_normal(feats[stop:].shape)
            changed = dataclasses.replace(video, features=feats)
            loss2, grads2 = self._call(params, changed, loss, aux_target, target_kind, idx)
            assert loss1 == loss2
            for g1, g2 in zip(grads1, grads2):
                np.testing.assert_array_equal(g1[0], g2[0])
                np.testing.assert_array_equal(g1[1], g2[1])

    def test_subset_gradcheck(self):
        # the corridor weight carries no gradient, so corr is left to
        # TestGradients, whose oracle freezes it
        idx = frame_subset(181, "early")
        for seed, (loss, aux_kind, target_kind) in enumerate(self.CASES):
            if loss == "corr":
                continue
            params, video, aux_target = self._setup(181, aux_kind, target_kind, seed)
            _, grads = self._call(params, video, loss, aux_target, target_kind, idx)
            num = finite_difference_grads(
                lambda: self._call(params, video, loss, aux_target, target_kind, idx)[0],
                params.layer_list(),
            )
            assert grad_rel_error(grads, num) < 1e-6, (aux_kind, target_kind)

    def test_segment_form_gradcheck(self):
        # 1800 frames, rows in the first half: the context takes its segment
        # form and row scan, where 181 frames take the dense form
        idx = frame_subset(1800, "early")
        table = appearance._decay_table(0.9, idx[-1] + 1)
        assert not isinstance(appearance._row_plan(idx, 0.9, table)[1], np.ndarray)
        params, video, aux_target = self._setup(1800, "classes", "duration", 3)
        _, grads = self._call(params, video, "smoothl1", aux_target, "duration", idx)
        num = finite_difference_grads(
            lambda: self._call(params, video, "smoothl1", aux_target, "duration", idx)[0],
            params.layer_list(),
        )
        assert grad_rel_error(grads, num) < 1e-6

    def test_trainable_batch_scans_no_prefix(self, monkeypatch):
        # the loss computes its context at the rows alone: no whole-prefix
        # _decay_scan, which a whole-video prediction still makes
        scans = []
        scan = appearance._decay_scan
        monkeypatch.setattr(
            appearance, "_decay_scan", lambda y, lam: scans.append(len(y)) or scan(y, lam)
        )
        params, video, aux_target = self._setup(181, "classes", "duration")
        for subset in ("single", "early", "all"):
            self._call(params, video, "corr", aux_target, "duration", frame_subset(181, subset))
        assert scans == []
        predict_video(params, video)
        assert scans == [181]


class TestFrozenEmbedding:
    """A frozen embedding gets no gradient; feature_extraction embeds it once."""

    @pytest.mark.parametrize("n_frames", [2, 181, 1800])
    @pytest.mark.parametrize("subset", ["single", "early", "all"])
    def test_cached_rows_match_uncached_loss(self, n_frames, subset):
        # against the same batch on live layers, which runs no cache
        idx = frame_subset(n_frames, subset)
        for seed, (loss, aux_kind, target_kind) in enumerate(TestSelectedRows.CASES):
            params, video, aux_target = TestSelectedRows._setup(
                n_frames, aux_kind, target_kind, seed
            )
            want_loss, want = TestSelectedRows._call(
                params, video, loss, aux_target, target_kind, idx
            )
            params.trainable_mask[0] = False
            got_loss, got = TestSelectedRows._call(
                params, video, loss, aux_target, target_kind, idx
            )
            case = (loss, aux_kind, target_kind)
            assert abs(got_loss - want_loss) <= 1e-14 * abs(want_loss), case
            assert got[0] is None, case
            assert grad_rel_error(got[1:], want[1:]) <= 1e-14, case

    @pytest.mark.parametrize("case", TestSelectedRows.CASES)
    def test_one_pass_batch_matches_per_video_path(self, case):
        # a batch over videos of one block and of several, one video
        # untouched: the one head pass over the gathered rows against a
        # one-video batch per touched video, its weights scaled by 1/touched
        loss, aux_kind, target_kind = case
        setups = [TestSelectedRows._setup(n_frames, aux_kind, target_kind, seed)
                  for seed, n_frames in enumerate((181, 2, 1800, 40))]
        params = setups[0][0]
        # distinct ids: the stacked loss looks aux targets up by video id
        videos = [dataclasses.replace(video, id=f"v{i}") for i, (_, video, _) in enumerate(setups)]
        aux_targets = [aux for _, _, aux in setups]
        params.trainable_mask[0] = False
        starts = np.cumsum([0, *(v.n_frames for v in videos)])
        rng = np.random.default_rng(len(loss + aux_kind + target_kind))
        picked = [np.sort(rng.choice(v.n_frames, size=k, replace=False))
                  for v, k in zip(videos, (50, 0, 300, 40))]
        rows = np.concatenate([at + start for at, start in zip(picked, starts)])

        want_loss, want = 0.0, None
        touched = [vi for vi, at in enumerate(picked) if len(at)]
        for vi in touched:
            part, grads = _rsd_batch(params, [videos[vi]], [aux_targets[vi]], loss, target_kind,
                                     1.0 / len(touched))(picked[vi])
            want_loss += part
            want = grads if want is None else [
                None if w is None else [w[0] + g[0], w[1] + g[1]] for w, g in zip(want, grads)
            ]
        got_loss, got = _rsd_batch(params, videos, aux_targets, loss, target_kind)(rows)
        assert abs(got_loss - want_loss) <= 1e-14 * abs(want_loss), case
        assert got[0] is None and want[0] is None, case
        for g, w in zip(got[1:], want[1:]):
            assert grad_rel_error([g], [w]) <= 1e-14, case

    def test_feature_extraction_keeps_embedding_and_makes_no_adam_state(self, monkeypatch):
        made = []
        make = optim.make_optimizer
        monkeypatch.setattr(optim, "make_optimizer", lambda cfg: made.append(make(cfg)) or made[-1])
        corpus = _rsd_corpus()
        corr = CorridorParams.from_corpus(corpus)
        rng = np.random.default_rng(5)
        init = AuxInit([init_dense(rng, 3, 6), init_dense(rng, 6, 5)], context_lambda=0.9)
        cfg = TrainConfig(learning_rate=1e-2, epochs=4, seed=1)
        params, hist = train_rsd(
            corpus, init, PipelineMode("feature_extraction", "uniform"),
            "corr", cfg, corr,
        )
        for got, given in zip(params.embed, init.embed):
            np.testing.assert_array_equal(got.weights, given.weights)
            np.testing.assert_array_equal(got.bias, given.bias)
        [opt] = made
        assert isinstance(opt, optim.Adam) and set(opt._state) == {2, 3}
        # the best per-epoch val MAE is the one mae_of computes
        assert mae_of(params, corpus.by_split("val")) == min(h[2] for h in hist)


class TestLiveBatch:
    """Live layers: one stacked trunk, head pass and backward pass per group."""

    @pytest.mark.parametrize("head", [
        "classifier", ("smoothl1", "none"), ("corr", "none"), ("smoothl1", "classes"),
        ("smoothl1", "progress"),
    ], ids=["classifier", "smoothl1", "corr", "aux-classes", "aux-progress"])
    def test_grouped_batch_matches_finite_differences(self, monkeypatch, head):
        # three videos, sparse sorted rows (the second video's in the segment
        # form of the row plan), two embedding layers, and a stack bound that
        # puts the first two videos in one group and the third in another:
        # the buffered, grouped batch loss the trainers run, checked whole
        rng = np.random.default_rng(7)
        videos = [make_video(f"v{i}", n_frames=n, n_features=3, seed=i, period=30.0)
                  for i, n in enumerate((60, 1800, 40))]
        starts = np.cumsum([0, *(v.n_frames for v in videos)])
        picked = [np.sort(rng.choice(v.n_frames, size=k, replace=False))
                  for v, k in zip(videos, (8, 20, 6))]
        rows = np.concatenate([at + start for at, start in zip(picked, starts)])
        monkeypatch.setattr(appearance, "_STACK_ROWS", picked[0][-1] + picked[1][-1] + 2)
        embed = [init_dense(rng, 3, 5), init_dense(rng, 5, 4)]
        if head == "classifier":
            params = appearance.AppearanceParams(
                [*embed, init_dense(rng, 8, 3)], [True] * 3, 0.9)
            labels = [rng.integers(0, 3, size=v.n_frames) for v in videos]
            stacked = np.concatenate(labels)
            layers = params.layers
            batch_loss = _trunk_source(
                params.layers[:-1], params.trainable_mask[:-1], 0.9,
                [v.features for v in videos],
                lambda emb, ctx, rows, weights: appearance._cross_entropy(
                    params, emb, ctx, stacked[rows], weights),
            )
        else:
            loss, aux_kind = head
            params = init_rsd(rng, 3, head_dim=4, aux_kind=aux_kind,
                              aux_dim={"none": 0, "classes": 4, "progress": 1}[aux_kind],
                              embed=embed)
            aux_targets = [None] * 3
            if aux_kind == "classes":
                aux_targets = [rng.integers(0, 4, size=v.n_frames) for v in videos]
            elif aux_kind == "progress":
                aux_targets = [progress(v.elapsed_min(), v.remaining_min()) for v in videos]
            layers = params.layer_list()
            batch_loss = _rsd_batch(params, videos, aux_targets, loss, "duration")
        groups = []
        trunk = appearance._trunk
        monkeypatch.setattr(appearance, "_trunk",
                            lambda *args: groups.append(len(args[2])) or trunk(*args))
        pis = []
        if head[0] == "corr":
            # the corridor weight carries no gradient: the oracle freezes it
            weight = rsd.corridor_weight
            monkeypatch.setattr(rsd, "corridor_weight", lambda *a: pis.append(weight(*a)) or pis[-1])
        _, grads = batch_loss(rows)
        assert groups == [2, 1]
        if pis:
            frozen = itertools.cycle(pis)  # one weight per group, in order
            monkeypatch.setattr(rsd, "corridor_weight", lambda *a: next(frozen))
        num = finite_difference_grads(lambda: batch_loss(rows)[0], layers)
        assert grad_rel_error(grads, num) < 1e-4

    @pytest.mark.parametrize("bound", ["default", "split"])
    @pytest.mark.parametrize("case", TestSelectedRows.CASES)
    def test_stacked_batch_matches_per_video_path(self, monkeypatch, case, bound):
        # videos of dense and segment-form plans, one untouched; in one group,
        # or split after the first video: against a one-video batch per
        # touched video, its weights scaled by 1/touched
        loss, aux_kind, target_kind = case
        setups = [TestSelectedRows._setup(n_frames, aux_kind, target_kind, seed)
                  for seed, n_frames in enumerate((181, 2, 1800, 40))]
        params = setups[0][0]
        videos = [dataclasses.replace(video, id=f"v{i}") for i, (_, video, _) in enumerate(setups)]
        aux_targets = [aux for _, _, aux in setups]
        starts = np.cumsum([0, *(v.n_frames for v in videos)])
        rng = np.random.default_rng(len(loss + aux_kind + target_kind))
        picked = [np.sort(rng.choice(v.n_frames, size=k, replace=False))
                  for v, k in zip(videos, (50, 0, 300, 40))]
        rows = np.concatenate([at + start for at, start in zip(picked, starts)])
        if bound == "split":
            monkeypatch.setattr(appearance, "_STACK_ROWS", picked[2][-1] + picked[3][-1] + 2)

        want_loss, want = 0.0, None
        for vi in (0, 2, 3):
            part, grads = _rsd_batch(params, [videos[vi]], [aux_targets[vi]], loss, target_kind,
                                     1.0 / 3)(picked[vi])
            want_loss += part
            want = grads if want is None else [[w[0] + g[0], w[1] + g[1]]
                                               for w, g in zip(want, grads)]
        groups = []
        trunk = appearance._trunk
        monkeypatch.setattr(appearance, "_trunk",
                            lambda *args: groups.append(len(args[2])) or trunk(*args))
        got_loss, got = _rsd_batch(params, videos, aux_targets, loss, target_kind)(rows)
        assert groups == ([3] if bound == "default" else [1, 2]), case
        assert abs(got_loss - want_loss) <= 1e-14 * abs(want_loss), case
        for g, w in zip(got, want):
            assert grad_rel_error([g], [w]) <= 1e-14, case


def _rsd_corpus(seed=0, n_videos=8, period=6.0, frames=(20, 41)):
    """Remaining time is linearly decodable from the first feature column;
    frame counts are drawn from the half-open range frames."""
    rng = np.random.default_rng(seed)
    videos = []
    split = {}
    names = ["train"] * (n_videos - 4) + ["train", "train", "val", "test"]
    for i in range(n_videos):
        n_frames = int(rng.integers(*frames))
        vid = f"v{i}"
        video = make_video(vid, n_frames=n_frames, n_features=3, seed=100 + i,
                           period=period)
        remaining = video.remaining_min()
        feats = video.features.copy()
        feats[:, 0] = remaining / 4.0 + 0.02 * rng.standard_normal(n_frames)
        videos.append(VideoSequence(id=vid, features=feats, frame_period_s=period))
        split[vid] = names[i]
    return Corpus(videos, split)


class TestTrainRsd:
    def test_default_configs(self):
        pre = default_train_config("pretraining")
        assert pre.optimizer == "sgd" and pre.epochs == 250
        reg = default_train_config("regularization", seed=7)
        assert reg.optimizer == "adam" and reg.seed == 7

    def test_zero_epochs_returns_init(self):
        corpus = _rsd_corpus()
        corr = CorridorParams.from_corpus(corpus)
        cfg = TrainConfig(learning_rate=1e-2, epochs=0, seed=3)
        mode = PipelineMode("single_task", "none")
        a, hist = train_rsd(corpus, None, mode, "smoothl1", cfg, corr)
        b, _ = train_rsd(corpus, None, mode, "smoothl1", cfg, corr)
        assert hist == []
        for la, lb in zip(a.layer_list(), b.layer_list()):
            np.testing.assert_array_equal(la.weights, lb.weights)

    def test_transfer_requires_init(self):
        corpus = _rsd_corpus()
        corr = CorridorParams.from_corpus(corpus)
        cfg = TrainConfig(learning_rate=1e-2, epochs=1)
        with pytest.raises(ValueError):
            train_rsd(corpus, None, PipelineMode("feature_extraction", "uniform"),
                      "smoothl1", cfg, corr)

    def test_feature_extraction_freezes_embedding(self):
        corpus = _rsd_corpus()
        corr = CorridorParams.from_corpus(corpus)
        rng = np.random.default_rng(5)
        init = AuxInit([init_dense(rng, 3, 6)], context_lambda=0.9)
        cfg = TrainConfig(learning_rate=1e-2, epochs=2, seed=1)
        params, _ = train_rsd(
            corpus, init, PipelineMode("feature_extraction", "uniform"),
            "smoothl1", cfg, corr,
        )
        np.testing.assert_array_equal(params.embed[0].weights, init.embed[0].weights)
        np.testing.assert_array_equal(params.embed[0].bias, init.embed[0].bias)
        assert params.trainable_mask[0] is False
        assert params.context_lambda == 0.9

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_whole_video_trunk_passes(self, monkeypatch, epochs):
        # feature_extraction embeds each train video once per call; both
        # pipelines embed the val video once per epoch for its MAE, and
        # single_task a train video only at batch rows
        corpus = _rsd_corpus()
        corr = CorridorParams.from_corpus(corpus)
        train, [val] = corpus.by_split("train"), corpus.by_split("val")
        blocks, whole = appearance._trunk_blocks, []

        def counted(layers, lam, feats):
            whole.append(next(v.id for v in corpus.videos if v.features is feats))
            return blocks(layers, lam, feats)

        monkeypatch.setattr(appearance, "_trunk_blocks", counted)
        monkeypatch.setattr(rsd, "_trunk_blocks", counted)
        init = AuxInit([init_dense(np.random.default_rng(5), 3, 6)], context_lambda=0.9)
        cfg = TrainConfig(learning_rate=1e-2, epochs=epochs, seed=1)
        _, hist = train_rsd(corpus, init, PipelineMode("feature_extraction", "uniform"),
                            "smoothl1", cfg, corr)
        assert len(hist) == epochs
        assert sorted(whole) == sorted(v.id for v in [*train, *[val] * epochs])
        whole.clear()
        _, hist = train_rsd(corpus, None, PipelineMode("single_task", "none"),
                            "smoothl1", cfg, corr)
        assert len(hist) == epochs
        assert whole == [val.id] * epochs

    def test_pretraining_frees_last_embed_layer_only(self):
        corpus = _rsd_corpus()
        corr = CorridorParams.from_corpus(corpus)
        rng = np.random.default_rng(6)
        init = AuxInit([init_dense(rng, 3, 6), init_dense(rng, 6, 5)],
                       context_lambda=0.8)
        cfg = TrainConfig(learning_rate=1e-1, epochs=2, optimizer="sgd", seed=2)
        params, _ = train_rsd(
            corpus, init, PipelineMode("pretraining", "uniform"),
            "smoothl1", cfg, corr,
        )
        np.testing.assert_array_equal(params.embed[0].weights, init.embed[0].weights)
        assert not np.array_equal(params.embed[1].weights, init.embed[1].weights)
        assert params.context_lambda == 0.8

    def test_regularization_learned_seg_needs_labels(self):
        corpus = _rsd_corpus()
        corr = CorridorParams.from_corpus(corpus)
        rng = np.random.default_rng(7)
        init = AuxInit([init_dense(rng, 3, 6)], 0.9, labels=None)
        cfg = TrainConfig(learning_rate=1e-2, epochs=1)
        with pytest.raises(DataFormatError):
            train_rsd(corpus, init, PipelineMode("regularization", "learned_seg"),
                      "smoothl1", cfg, corr)

    def test_regularization_phase_needs_phase_labels(self):
        corpus = _rsd_corpus()  # videos carry no phase labels
        corr = CorridorParams.from_corpus(corpus)
        cfg = TrainConfig(learning_rate=1e-2, epochs=1)
        with pytest.raises(DataFormatError):
            train_rsd(corpus, None, PipelineMode("regularization", "phase"),
                      "smoothl1", cfg, corr)

    def test_regularization_uniform_builds_aux_head(self):
        corpus = _rsd_corpus()
        corr = CorridorParams.from_corpus(corpus)
        cfg = TrainConfig(learning_rate=1e-2, epochs=2, seed=4)
        params, hist = train_rsd(
            corpus, None, PipelineMode("regularization", "uniform"),
            "smoothl1", cfg, corr, n_subactivities=5,
        )
        assert params.aux_kind == "classes"
        assert params.aux_head.out_dim == 5
        assert len(hist) == 2

    def test_returned_params_match_best_val_epoch(self):
        corpus = _rsd_corpus()
        corr = CorridorParams.from_corpus(corpus)
        cfg = TrainConfig(learning_rate=1e-2, epochs=8, seed=5)
        params, hist = train_rsd(
            corpus, None, PipelineMode("single_task", "none"),
            "smoothl1", cfg, corr,
        )
        val = corpus.by_split("val")
        assert mae_of(params, val) == pytest.approx(min(h[2] for h in hist))
        assert [h[0] for h in hist] == list(range(8))

    @pytest.mark.parametrize("pipeline", ["single_task", "feature_extraction"])
    def test_best_val_mae_is_mae_of_on_videos_of_several_blocks(self, pipeline):
        # the per-epoch val MAE runs predict_video, on live layers or on a
        # frozen embedding, so it agrees with mae_of exactly
        corpus = _rsd_corpus(n_videos=6, frames=(B + 1, 3 * B))
        [val] = corpus.by_split("val")
        assert val.n_frames > B
        corr = CorridorParams.from_corpus(corpus)
        if pipeline == "single_task":
            init, mode = None, PipelineMode(pipeline, "none")
        else:
            init = AuxInit([init_dense(np.random.default_rng(5), 3, 6)], context_lambda=0.9)
            mode = PipelineMode(pipeline, "uniform")
        cfg = TrainConfig(learning_rate=1e-2, epochs=3, seed=2)
        params, hist = train_rsd(corpus, init, mode, "smoothl1", cfg, corr)
        assert params.trainable_mask[0] == (pipeline == "single_task")
        assert mae_of(params, [val]) == min(h[2] for h in hist)

    def test_learned_seg_names_videos_without_labels(self):
        corpus = _rsd_corpus()
        train = corpus.by_split("train")
        labels = {v.id: np.zeros(v.n_frames, dtype=np.int64) for v in train[1:]}
        init = AuxInit([init_dense(np.random.default_rng(7), 3, 6)], 0.9, labels=labels)
        cfg = TrainConfig(learning_rate=1e-2, epochs=1)
        with pytest.raises(DataFormatError) as err:
            train_rsd(corpus, init, PipelineMode("regularization", "learned_seg"),
                      "smoothl1", cfg, CorridorParams.from_corpus(corpus))
        assert str(err.value) == f"checkpoint lacks labels for videos {[train[0].id]}"

    def test_training_prints_nothing(self, capsys):
        # the CLI prints the returned history (TestEndToEnd pins its lines)
        corpus = _rsd_corpus()
        corr = CorridorParams.from_corpus(corpus)
        cfg = TrainConfig(learning_rate=1e-2, epochs=2, seed=0)
        _, hist = train_rsd(corpus, None, PipelineMode("single_task", "none"),
                            "smoothl1", cfg, corr)
        assert len(hist) == 2
        assert capsys.readouterr().out == ""

    def test_non_finite_loss_returns_best_so_far(self, caplog):
        # SGD with learning_rate * l2_weight = 1000 multiplies the weights by
        # -999 per step until the L2 term overflows, some epochs in
        corpus = _rsd_corpus()
        corr = CorridorParams.from_corpus(corpus)
        cfg = TrainConfig(learning_rate=1e3, epochs=30, batch_size=64,
                          l2_weight=1.0, optimizer="sgd", seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            params, hist = train_rsd(corpus, None, PipelineMode("single_task", "none"),
                                     "smoothl1", cfg, corr)
        assert 0 < len(hist) < cfg.epochs
        assert [h[0] for h in hist] == list(range(len(hist)))
        assert all(np.isfinite(h[1]) for h in hist)
        assert mae_of(params, corpus.by_split("val")) == min(h[2] for h in hist)
        assert f"non-finite loss at epoch {len(hist)}" in caplog.text

    def test_deterministic(self):
        corpus = _rsd_corpus()
        corr = CorridorParams.from_corpus(corpus)
        cfg = TrainConfig(learning_rate=1e-2, epochs=3, seed=8)
        mode = PipelineMode("single_task", "none")
        a, ha = train_rsd(corpus, None, mode, "corr", cfg, corr)
        b, hb = train_rsd(corpus, None, mode, "corr", cfg, corr)
        assert ha == hb
        for la, lb in zip(a.layer_list(), b.layer_list()):
            np.testing.assert_array_equal(la.weights, lb.weights)

    def test_single_task_matches_the_per_video_loop(self):
        # live layers run one stacked trunk and head pass per batch, with
        # per-row weights (1/touched)/n_v: history and best-val weights match
        # the old loop's, one one-video batch per touched video, to rounding
        corpus = _rsd_corpus()
        corr = CorridorParams.from_corpus(corpus)
        cfg = TrainConfig(learning_rate=1e-2, epochs=4, batch_size=64, seed=3)
        got, got_hist = train_rsd(corpus, None, PipelineMode("single_task", "none"),
                                  "corr", cfg, corr)

        rng = np.random.default_rng(cfg.seed)
        params = init_rsd(rng, corpus.feature_dim, hidden_dim=32, output_scale=corr.scale)
        train, val = corpus.by_split("train"), corpus.by_split("val")

        def video_loss(vi, idx, weight):
            return _rsd_batch(params, [train[vi]], [None], "corr", "duration", weight, corr)(idx)

        want, want_hist = None, []
        for epoch, loss in enumerate(per_video_epochs(
            params.layer_list(), params.trainable_mask, [v.n_frames for v in train], cfg,
            rng, video_loss,
        )):
            want_hist.append((epoch, loss, mae_of(params, val)))
            if want is None or want_hist[-1][2] < min(h[2] for h in want_hist[:-1]):
                want = copy.deepcopy(params)
        assert [h[0] for h in got_hist] == [h[0] for h in want_hist]
        for (_, got_loss, got_mae), (_, want_loss, want_mae) in zip(got_hist, want_hist):
            assert abs(got_loss - want_loss) <= 1e-14 * abs(want_loss)
            assert abs(got_mae - want_mae) <= 1e-14 * abs(want_mae)
        for g, w in zip(got.layer_list(), want.layer_list()):
            for a, b in ((g.weights, w.weights), (g.bias, w.bias)):
                assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()

    def test_progress_history_scores_progress(self, monkeypatch):
        # a progress model's val_mae is its MAE against prog(t), per epoch
        corpus = _rsd_corpus()
        snapshots = []

        def spy(layers, *args):
            for loss in minibatch_epochs(layers, *args):
                snapshots.append(copy.deepcopy(layers))
                yield loss

        monkeypatch.setattr(rsd, "minibatch_epochs", spy)
        cfg = TrainConfig(learning_rate=1e-2, epochs=3, seed=2)
        params, hist = train_rsd(
            corpus, None, PipelineMode("single_task", "none"), "smoothl1", cfg,
            CorridorParams.from_corpus(corpus), target_kind="progress",
        )
        assert params.output_scale == 1.0
        assert len(hist) == len(snapshots) == 3
        val = corpus.by_split("val")
        for (_, _, val_mae), layers in zip(hist, snapshots):
            model = copy.deepcopy(params)
            for dst, src in zip(model.layer_list(), layers):
                dst.weights, dst.bias = src.weights, src.bias
            expected = np.mean([
                np.mean(np.abs(
                    predict_video(model, v) - progress(v.elapsed_min(), v.remaining_min())
                ))
                for v in val
            ])
            assert val_mae == pytest.approx(expected, rel=1e-12)

    def test_learns_decodable_signal(self):
        corpus = _rsd_corpus()
        corr = CorridorParams.from_corpus(corpus)
        cfg = TrainConfig(learning_rate=1e-2, epochs=120, batch_size=384, seed=0)
        params, _ = train_rsd(
            corpus, None, PipelineMode("single_task", "none"),
            "smoothl1", cfg, corr, hidden_dim=8,
        )
        test_videos = corpus.by_split("test")
        trained = mae_of(params, test_videos)
        naive = float(np.mean([
            np.mean(np.abs(naive_prediction(v.elapsed_min(), corr) - v.remaining_min()))
            for v in test_videos
        ]))
        assert trained < naive


class TestBuildAuxInit:
    def test_learned_seg_requires_checkpoint(self, tiny_corpus):
        with pytest.raises(ValueError):
            build_aux_init(tiny_corpus, "learned_seg")

    def test_uniform_trains_classifier(self, tiny_corpus):
        cfg = TrainConfig(learning_rate=1e-2, epochs=2, seed=0)
        init = build_aux_init(tiny_corpus, "uniform", n_subactivities=3,
                              hidden_dim=6, config=cfg)
        assert init.context_lambda == 0.9
        assert len(init.embed) == 1
        assert init.embed[0].out_dim == 6
        assert set(init.labels) == {"v0", "v1"}
        assert init.labels["v0"].tolist() == [0] * 5 + [1] * 5 + [2] * 5

    def test_progress_trains_regressor(self, tiny_corpus):
        cfg = TrainConfig(learning_rate=1e-2, epochs=2, seed=0)
        init = build_aux_init(tiny_corpus, "progress", hidden_dim=6, config=cfg)
        assert init.labels is None
        assert init.embed[0].out_dim == 6
        assert init.context_lambda == 0.9

    def test_unknown_task(self, tiny_corpus):
        with pytest.raises(ValueError):
            build_aux_init(tiny_corpus, "optical_flow")
