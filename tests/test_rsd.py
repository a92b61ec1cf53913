import dataclasses

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

from conftest import finite_difference_grads, frame_subset, grad_rel_error, make_video


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

    def test_copy_is_deep(self):
        params = init_rsd(np.random.default_rng(0), 4)
        dup = params.copy()
        dup.head2.weights += 1.0
        assert not np.array_equal(dup.head2.weights, params.head2.weights)


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
        b = a.copy()
        b.output_scale = 0.1
        np.testing.assert_allclose(
            rsd_forward(a, video), 2.0 * rsd_forward(b, video), rtol=1e-12
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
            layers = params.layer_list()
            _, grads = rsd_loss_and_grads(
                params, video, "smoothl1", CORR, aux_target=target, aux_weight=0.7,
            )
            num = finite_difference_grads(
                lambda: rsd_loss_and_grads(
                    params, video, "smoothl1", CORR, aux_target=target, aux_weight=0.7,
                )[0],
                layers,
            )
            assert grad_rel_error(grads, num) < 1e-4

    def test_aux_progress_gradcheck(self):
        params = self._params(30, aux_kind="progress", aux_dim=1)
        video = make_video(n_frames=8, n_features=3, seed=0, period=30.0)
        target = progress(video.elapsed_min(), video.remaining_min())
        layers = params.layer_list()
        _, grads = rsd_loss_and_grads(
            params, video, "smoothl1", CORR, aux_target=target, aux_weight=0.5,
        )
        num = finite_difference_grads(
            lambda: rsd_loss_and_grads(
                params, video, "smoothl1", CORR, aux_target=target, aux_weight=0.5,
            )[0],
            layers,
        )
        assert grad_rel_error(grads, num) < 1e-4

    def test_progress_target_gradcheck(self):
        params = init_rsd(np.random.default_rng(40), 3, hidden_dim=5, head_dim=4,
                          output_scale=1.0)
        video = make_video(n_frames=8, n_features=3, seed=1, period=30.0)
        layers = params.layer_list()
        _, grads = rsd_loss_and_grads(
            params, video, "smoothl1", CORR, target_kind="progress",
        )
        num = finite_difference_grads(
            lambda: rsd_loss_and_grads(
                params, video, "smoothl1", CORR, target_kind="progress",
            )[0],
            layers,
        )
        assert grad_rel_error(grads, num) < 1e-4

    def test_frame_subset_and_weight_scale(self):
        params = self._params(50)
        video = make_video(n_frames=10, n_features=3, seed=2, period=30.0)
        idx = np.array([1, 4, 7])
        loss1, grads1 = rsd_loss_and_grads(
            params, video, "smoothl1", CORR, frame_indices=idx,
        )
        loss2, grads2 = rsd_loss_and_grads(
            params, video, "smoothl1", CORR, frame_indices=idx, weight=0.5,
        )
        assert loss2 == pytest.approx(0.5 * loss1)
        for (w1, b1), (w2, b2) in zip(grads1, grads2):
            np.testing.assert_allclose(w2, 0.5 * w1, rtol=1e-12)
            np.testing.assert_allclose(b2, 0.5 * b1, rtol=1e-12)

    def test_unknown_loss_rejected(self):
        params = self._params(60)
        video = make_video(n_frames=5, n_features=3)
        with pytest.raises(ValueError):
            rsd_loss_and_grads(params, video, "l2", CORR)


class TestSelectedRows:
    """Only the selected frames carry loss; the context stops at the last one."""

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
        return rsd_loss_and_grads(
            params, video, loss, CORR, frame_indices=idx, aux_target=aux_target,
            aux_weight=0.7, weight=0.4, target_kind=target_kind,
        )

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
        assert not isinstance(appearance._row_plan(idx, 0.9)[1], np.ndarray)
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
        idx = frame_subset(n_frames, subset)
        sel = np.arange(n_frames) if idx is None else idx
        for seed, (loss, aux_kind, target_kind) in enumerate(TestSelectedRows.CASES):
            params, video, aux_target = TestSelectedRows._setup(
                n_frames, aux_kind, target_kind, seed
            )
            params.trainable_mask[0] = False
            want_loss, want = TestSelectedRows._call(
                params, video, loss, aux_target, target_kind, idx
            )
            trunk = _trunk_source(
                params.embed, params.trainable_mask[:1], params.context_lambda, [video]
            )
            got_loss, got = rsd._rsd_loss(
                params, video, sel, trunk(0, sel), loss, CORR,
                aux_target, 0.7, 0.4, target_kind,
            )
            case = (loss, aux_kind, target_kind)
            assert abs(got_loss - want_loss) <= 1e-14 * abs(want_loss), case
            assert got[0] is None and want[0] is None, case
            assert grad_rel_error(got[1:], want[1:]) <= 1e-14, case

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
            "corr", cfg, corr, verbose=False,
        )
        for got, given in zip(params.embed, init.embed):
            np.testing.assert_array_equal(got.weights, given.weights)
            np.testing.assert_array_equal(got.bias, given.bias)
        [opt] = made
        assert isinstance(opt, optim.Adam) and set(opt._state) == {2, 3}
        # the per-epoch val MAE read from the cached embedding is the one
        # mae_of computes afresh
        assert mae_of(params, corpus.by_split("val")) == min(h[2] for h in hist)


def _rsd_corpus(seed=0, n_videos=8, period=6.0):
    """Remaining time is linearly decodable from the first feature column."""
    rng = np.random.default_rng(seed)
    videos = []
    split = {}
    names = ["train"] * (n_videos - 4) + ["train", "train", "val", "test"]
    for i in range(n_videos):
        n_frames = int(rng.integers(20, 41))
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
        a, hist = train_rsd(corpus, None, mode, "smoothl1", cfg, corr, verbose=False)
        b, _ = train_rsd(corpus, None, mode, "smoothl1", cfg, corr, verbose=False)
        assert hist == []
        for la, lb in zip(a.layer_list(), b.layer_list()):
            np.testing.assert_array_equal(la.weights, lb.weights)

    def test_transfer_requires_init(self):
        corpus = _rsd_corpus()
        corr = CorridorParams.from_corpus(corpus)
        cfg = TrainConfig(learning_rate=1e-2, epochs=1)
        with pytest.raises(ValueError):
            train_rsd(corpus, None, PipelineMode("feature_extraction", "uniform"),
                      "smoothl1", cfg, corr, verbose=False)

    def test_feature_extraction_freezes_embedding(self):
        corpus = _rsd_corpus()
        corr = CorridorParams.from_corpus(corpus)
        rng = np.random.default_rng(5)
        init = AuxInit([init_dense(rng, 3, 6)], context_lambda=0.9)
        cfg = TrainConfig(learning_rate=1e-2, epochs=2, seed=1)
        params, _ = train_rsd(
            corpus, init, PipelineMode("feature_extraction", "uniform"),
            "smoothl1", cfg, corr, verbose=False,
        )
        np.testing.assert_array_equal(params.embed[0].weights, init.embed[0].weights)
        np.testing.assert_array_equal(params.embed[0].bias, init.embed[0].bias)
        assert params.trainable_mask[0] is False
        assert params.context_lambda == 0.9

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_whole_video_trunk_passes(self, monkeypatch, epochs):
        # feature_extraction embeds each train and val video once per call;
        # single_task embeds the val video once per epoch for its MAE, and a
        # train video only at batch rows
        corpus = _rsd_corpus()
        corr = CorridorParams.from_corpus(corpus)
        train, [val] = corpus.by_split("train"), corpus.by_split("val")
        trunk, whole = appearance._trunk, []

        def counted(layers, lam, feats, rows=None):
            if rows is None:
                whole.append(next(v.id for v in corpus.videos if v.features is feats))
            return trunk(layers, lam, feats, rows)

        monkeypatch.setattr(appearance, "_trunk", counted)
        init = AuxInit([init_dense(np.random.default_rng(5), 3, 6)], context_lambda=0.9)
        cfg = TrainConfig(learning_rate=1e-2, epochs=epochs, seed=1)
        _, hist = train_rsd(corpus, init, PipelineMode("feature_extraction", "uniform"),
                            "smoothl1", cfg, corr, verbose=False)
        assert len(hist) == epochs
        assert sorted(whole) == sorted(v.id for v in [*train, val])
        whole.clear()
        _, hist = train_rsd(corpus, None, PipelineMode("single_task", "none"),
                            "smoothl1", cfg, corr, verbose=False)
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
            "smoothl1", cfg, corr, verbose=False,
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
                      "smoothl1", cfg, corr, verbose=False)

    def test_regularization_phase_needs_phase_labels(self):
        corpus = _rsd_corpus()  # videos carry no phase labels
        corr = CorridorParams.from_corpus(corpus)
        cfg = TrainConfig(learning_rate=1e-2, epochs=1)
        with pytest.raises(DataFormatError):
            train_rsd(corpus, None, PipelineMode("regularization", "phase"),
                      "smoothl1", cfg, corr, verbose=False)

    def test_regularization_uniform_builds_aux_head(self):
        corpus = _rsd_corpus()
        corr = CorridorParams.from_corpus(corpus)
        cfg = TrainConfig(learning_rate=1e-2, epochs=2, seed=4)
        params, hist = train_rsd(
            corpus, None, PipelineMode("regularization", "uniform"),
            "smoothl1", cfg, corr, n_subactivities=5, verbose=False,
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
            "smoothl1", cfg, corr, verbose=False,
        )
        val = corpus.by_split("val")
        assert mae_of(params, val) == pytest.approx(min(h[2] for h in hist))
        assert [h[0] for h in hist] == list(range(8))

    def test_history_line_format(self, capsys):
        corpus = _rsd_corpus()
        corr = CorridorParams.from_corpus(corpus)
        cfg = TrainConfig(learning_rate=1e-2, epochs=2, seed=0)
        train_rsd(corpus, None, PipelineMode("single_task", "none"),
                  "smoothl1", cfg, corr, verbose=True)
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("epoch=0 loss=")
        assert " val_mae=" in lines[1]

    def test_non_finite_loss_returns_best_so_far(self, caplog):
        # SGD with learning_rate * l2_weight = 1000 multiplies the weights by
        # -999 per step until the L2 term overflows, some epochs in
        corpus = _rsd_corpus()
        corr = CorridorParams.from_corpus(corpus)
        cfg = TrainConfig(learning_rate=1e3, epochs=30, batch_size=64,
                          l2_weight=1.0, optimizer="sgd", seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            params, hist = train_rsd(corpus, None, PipelineMode("single_task", "none"),
                                     "smoothl1", cfg, corr, verbose=False)
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
        a, ha = train_rsd(corpus, None, mode, "corr", cfg, corr, verbose=False)
        b, hb = train_rsd(corpus, None, mode, "corr", cfg, corr, verbose=False)
        assert ha == hb
        for la, lb in zip(a.layer_list(), b.layer_list()):
            np.testing.assert_array_equal(la.weights, lb.weights)

    def test_progress_history_scores_progress(self, monkeypatch):
        # a progress model's val_mae is its MAE against prog(t), per epoch
        corpus = _rsd_corpus()
        snapshots = []

        def spy(layers, *args):
            for loss in minibatch_epochs(layers, *args):
                snapshots.append([layer.copy() for layer in layers])
                yield loss

        monkeypatch.setattr(rsd, "minibatch_epochs", spy)
        cfg = TrainConfig(learning_rate=1e-2, epochs=3, seed=2)
        params, hist = train_rsd(
            corpus, None, PipelineMode("single_task", "none"), "smoothl1", cfg,
            CorridorParams.from_corpus(corpus), target_kind="progress", verbose=False,
        )
        assert params.output_scale == 1.0
        assert len(hist) == len(snapshots) == 3
        val = corpus.by_split("val")
        for (_, _, val_mae), layers in zip(hist, snapshots):
            model = params.copy()
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
            "smoothl1", cfg, corr, hidden_dim=8, verbose=False,
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
