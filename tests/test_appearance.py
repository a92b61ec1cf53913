import numpy as np
import pytest

from segrsd import optim
from segrsd.appearance import (
    AppearanceParams,
    DenseLayer,
    TrainConfig,
    context_accumulate,
    cross_entropy_loss_and_grads,
    forward,
    init_appearance,
    log_softmax,
    mean_cross_entropy,
    sample_distant_pairs,
    staged_mask,
    softmax,
    tc_pretrain,
    temporal_coherence_loss_and_grads,
    train_appearance,
    _add_rows_at,
    _cross_entropy,
    _row_context,
    _row_context_adjoint,
    _row_plan,
    _trunk_source,
)
from segrsd import appearance
from segrsd.core import VideoSequence
from segrsd.errors import NumericalError
from segrsd.temporal import LOG_FLOOR

from conftest import finite_difference_grads, frame_subset, grad_rel_error, make_video


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

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_backward_is_adjoint(self, lam):
        # <A f, g> == <f, A^T g> for the accumulator A at every frame, whose
        # adjoint is the row-only one with every frame a row
        rng = np.random.default_rng(4)
        f = rng.standard_normal((9, 3))
        g = rng.standard_normal((9, 3))
        plan = _row_plan(np.arange(9), lam)
        lhs = float((context_accumulate(f, lam) * g).sum())
        rhs = float((f * _row_context_adjoint(plan, g)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("n_frames", [1, 2, 181, 1800])
    def test_matches_loop_at_video_lengths(self, n_frames, lam):
        # lengths past the scan's doubling steps and its early stop; positive
        # inputs keep every output well-conditioned for a relative tolerance
        rng = np.random.default_rng(n_frames)
        f = rng.uniform(0.5, 1.5, size=(n_frames, 3))
        expected = np.empty_like(f)
        expected[0] = f[0]
        for t in range(1, n_frames):
            expected[t] = lam * expected[t - 1] + (1.0 - lam) * f[t]
        np.testing.assert_allclose(context_accumulate(f, lam), expected, rtol=1e-12)
        if n_frames == 1800:
            # the backward pass receives a strided column slice of the head
            # gradient at the batch rows
            h = 3
            rows = np.sort(rng.choice(n_frames, size=48, replace=False))
            dphi = rng.standard_normal((len(rows), 2 * h))
            g = rng.standard_normal((rows[-1] + 1, h))
            plan = _row_plan(rows, lam)
            lhs = float((context_accumulate(g, lam)[rows] * dphi[:, h:]).sum())
            rhs = float((g * _row_context_adjoint(plan, dphi[:, h:])).sum())
            assert lhs == pytest.approx(rhs, rel=1e-12)


# (n_frames, lam, rows): a single first frame, every frame, one frame, no
# decay, gaps longer than the lam = 0.9 horizon (about 685 frames to eps**2),
# a sparse and a dense batch, and rows reaching only part of the video; the
# first half takes the plan's dense form, the second half its segment form
ROW_CASES = [
    (50, 0.9, [0]),
    (50, 0.9, list(range(50))),
    (1, 0.9, [0]),
    (60, 0.0, [0, 7, 8, 31]),
    (3001, 0.9, [0, 1500, 3000]),
    (181, 0.99, "early"),
    (4001, 0.9, [2, 700, 701, 1500, 2200, 2999, 3000, 3500, 4000]),
    (200, 0.9, list(range(200))),
    (3000, 0.0, "sparse"),
    (1800, 0.9, "sparse"),
    (1800, 0.5, "dense"),
    (1800, 0.99, "sparse"),
]


def _row_case(n_frames, lam, rows):
    rng = np.random.default_rng(n_frames + int(100 * lam))
    if rows == "sparse":
        rows = rng.choice(n_frames, size=48, replace=False)
    elif rows == "dense":
        rows = rng.choice(n_frames, size=n_frames // 2, replace=False)
    elif rows == "early":
        rows = rng.choice(n_frames // 2, size=20, replace=False)
    rows = np.sort(np.asarray(rows))
    return rng.standard_normal((n_frames, 4)), lam, rows


class TestRowContext:
    """The context at the batch rows only, against the whole-prefix scan."""

    @pytest.mark.parametrize("case", ROW_CASES)
    def test_matches_whole_context_at_rows(self, case):
        e, lam, rows = _row_case(*case)
        want = context_accumulate(e, lam)[rows]
        got = _row_context(_row_plan(rows, lam), e[:rows[-1] + 1])
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("case", ROW_CASES)
    def test_adjoint_identity(self, case):
        # <ctx(e), g> == <e, adj(g)> over frames 0..max(rows)
        e, lam, rows = _row_case(*case)
        e = e[:rows[-1] + 1]
        g = np.random.default_rng(len(rows)).standard_normal((len(rows), e.shape[1]))
        plan = _row_plan(rows, lam)
        lhs = float((_row_context(plan, e) * g).sum())
        adj = _row_context_adjoint(plan, g)
        assert adj.shape == e.shape
        assert lhs == pytest.approx(float((e * adj).sum()), rel=1e-12)

    def test_forms_cover_the_cases(self):
        dense = [isinstance(_row_plan(_row_case(*c)[2], c[1])[1], np.ndarray) for c in ROW_CASES]
        assert dense == [True] * 6 + [False] * 6

    @pytest.mark.parametrize("n_rows", [96, 97])
    def test_dense_form_up_to_its_size_limit(self, n_rows):
        # 96 rows of a 256-frame prefix fill the dense form's 24576 entries
        e, lam, _ = _row_case(256, 0.9, [0])
        rows = np.linspace(0, 255, n_rows).astype(np.int64)
        plan = _row_plan(rows, lam)
        assert isinstance(plan[1], np.ndarray) == (n_rows == 96)
        want = context_accumulate(e, lam)[rows]
        assert np.abs(_row_context(plan, e) - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("rows", [[9999], [0, 9999], "sparse", "dense"])
    def test_long_video_finite_without_subnormals(self, rows):
        e, lam, rows = _row_case(10_000, 0.9, rows)
        plan = _row_plan(rows, lam)
        ctx = _row_context(plan, e[:rows[-1] + 1])
        adj = _row_context_adjoint(plan, np.ones_like(ctx))
        form = plan[1]
        if isinstance(form, np.ndarray):
            parts = [form]
        else:
            _, weights, _, head, steps = form
            parts = [weights, head, *(f for _, f in steps)]
        for arr in (ctx, adj, *parts):
            assert np.isfinite(arr).all()
            tiny = np.abs(arr)[arr != 0.0]
            assert not len(tiny) or tiny.min() >= np.finfo(np.float64).tiny
        want = context_accumulate(e, lam)[rows]
        assert np.abs(ctx - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("rows", [[], [3, 2], [1, 1, 4], [-1, 2]])
    def test_rejects_rows_not_sorted_distinct(self, rows):
        with pytest.raises(ValueError):
            _row_plan(np.array(rows, dtype=np.int64), 0.9)

    def test_trainable_batches_scan_no_prefix(self, monkeypatch):
        # a trainable batch computes its context at the rows alone: no
        # whole-prefix _decay_scan, which a whole-video forward still makes
        scans = []
        scan = appearance._decay_scan
        monkeypatch.setattr(
            appearance, "_decay_scan", lambda y, lam: scans.append(len(y)) or scan(y, lam)
        )
        videos = [make_video(f"v{i}", n_frames=40, n_features=3, seed=i) for i in range(3)]
        labels = {v.id: np.arange(40) // 14 for v in videos}
        params = init_appearance(np.random.default_rng(0), 3, [4], 3)
        out = train_appearance(videos, labels, params, TrainConfig(epochs=2, batch_size=16))
        assert not np.array_equal(out.layers[0].weights, params.layers[0].weights)
        assert scans == []
        forward(out, videos[0])
        assert scans == [40]


class TestAddRowsAt:
    @pytest.mark.parametrize("n_rows", [1, 180, 1800])
    def test_equals_two_dim_add_at(self, n_rows):
        # repeated rows and values of mixed magnitude: any change in the
        # order of the additions would show in the last bits
        rng = np.random.default_rng(n_rows)
        rows = rng.integers(n_rows, size=n_rows)
        values = rng.standard_normal((n_rows, 32)) * 10.0 ** rng.integers(-8, 8, (n_rows, 1))
        start = rng.standard_normal((n_rows, 32))
        want = start.copy()
        np.add.at(want, rows, values)
        got = start.copy()
        _add_rows_at(got, rows, values)
        np.testing.assert_array_equal(got, want)

    def test_rejects_non_contiguous_out(self):
        out = np.zeros((4, 6))[:, ::2]
        with pytest.raises(ValueError):
            _add_rows_at(out, np.array([0, 1]), np.ones((2, 3)))


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

            _, grads = cross_entropy_loss_and_grads(params, feats, labels, idx)
            fd = finite_difference_grads(
                lambda: cross_entropy_loss_and_grads(params, feats, labels, idx)[0],
                params.layers,
            )
            assert grad_rel_error(grads, fd) < 1e-4

    def test_selected_frames_only(self):
        rng = np.random.default_rng(12)
        params = init_appearance(rng, 3, [3], 2)
        video = make_video(n_frames=10, n_features=3, seed=12)
        labels = rng.integers(0, 2, size=10)
        full, _ = cross_entropy_loss_and_grads(params, video.features, labels)
        probs = forward(params, video)
        expected = -np.mean(np.log(probs[np.arange(10), labels]))
        assert full == pytest.approx(expected, rel=1e-12)


class TestCrossEntropySelectedRows:
    """Only the selected frames carry loss; the context stops at the last one."""

    @staticmethod
    def _setup(n_frames, seed=0):
        rng = np.random.default_rng(seed)
        params = init_appearance(rng, 3, [4], 3, 0.9)
        feats = rng.standard_normal((n_frames, 3))
        labels = rng.integers(0, 3, size=n_frames)
        return params, feats, labels

    @pytest.mark.parametrize("n_frames", [2, 181, 1800])
    @pytest.mark.parametrize("subset", ["single", "early", "all"])
    def test_loss_matches_forward_at_selected_rows(self, n_frames, subset):
        idx = frame_subset(n_frames, subset)
        params, _, labels = self._setup(n_frames)
        video = make_video(n_frames=n_frames, n_features=3, seed=n_frames)
        loss, _ = cross_entropy_loss_and_grads(
            params, video.features, labels, idx, weight=0.4
        )
        sel = np.arange(n_frames) if idx is None else idx
        probs = forward(params, video)
        expected = -0.4 * np.mean(np.log(probs[sel, labels[sel]]))
        assert loss == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n_frames", [2, 181, 1800])
    @pytest.mark.parametrize("subset", ["single", "early"])
    def test_frames_after_last_selected_do_not_matter(self, n_frames, subset):
        idx = frame_subset(n_frames, subset)
        params, feats, labels = self._setup(n_frames)
        loss1, grads1 = cross_entropy_loss_and_grads(params, feats, labels, idx)
        stop = idx.max() + 1
        feats[stop:] = np.random.default_rng(1).standard_normal(feats[stop:].shape)
        loss2, grads2 = cross_entropy_loss_and_grads(params, feats, labels, idx)
        assert loss1 == loss2
        for g1, g2 in zip(grads1, grads2):
            np.testing.assert_array_equal(g1[0], g2[0])
            np.testing.assert_array_equal(g1[1], g2[1])

    def test_subset_gradcheck(self):
        idx = frame_subset(181, "early")
        params, feats, labels = self._setup(181)
        _, grads = cross_entropy_loss_and_grads(params, feats, labels, idx, weight=0.4)
        num = finite_difference_grads(
            lambda: cross_entropy_loss_and_grads(params, feats, labels, idx, weight=0.4)[0],
            params.layers,
        )
        assert grad_rel_error(grads, num) < 1e-6


class TestMeanCrossEntropy:
    """The pooled CE of probability tables against a log_softmax reference."""

    def test_matches_pooled_log_softmax(self):
        rng = np.random.default_rng(4)
        logits = {f"v{i}": 3.0 * rng.standard_normal((n, 5)) for i, n in enumerate((1, 40, 333))}
        labels = {vid: rng.integers(0, 5, size=len(z)) for vid, z in logits.items()}
        ref = -sum(
            log_softmax(z)[np.arange(len(z)), labels[vid]].sum() for vid, z in logits.items()
        ) / sum(len(z) for z in logits.values())
        got = mean_cross_entropy({vid: softmax(z) for vid, z in logits.items()}, labels)
        assert abs(got - ref) <= 1e-14 * abs(ref)

    def test_zero_probability_floored(self):
        # log_softmax keeps the CE finite at -800; the table's 0 is floored
        logits = np.array([[0.0, 0.0], [0.0, -800.0], [1.0, 0.0]])
        table = softmax(logits)
        assert table[1, 1] == 0.0
        lp = log_softmax(logits)
        want = -(lp[0, 0] + LOG_FLOOR + lp[2, 0]) / 3
        got = mean_cross_entropy({"v0": table}, {"v0": np.array([0, 1, 0])})
        assert np.isfinite(got)
        assert abs(got - want) <= 1e-14 * abs(want)


class TestFrozenEmbedding:
    """Frozen layers get no gradient; a training call embeds a frozen stack once."""

    @staticmethod
    def _setup(n_frames, mask, seed=0):
        rng = np.random.default_rng(seed)
        params = init_appearance(rng, 3, [4, 5], 3, 0.9)
        params.trainable_mask = mask
        video = make_video(n_frames=n_frames, n_features=3, seed=seed)
        return params, video, rng.integers(0, 3, size=n_frames)

    @pytest.mark.parametrize("n_frames", [2, 181, 1800])
    @pytest.mark.parametrize("subset", ["single", "early", "all"])
    def test_cached_rows_match_uncached_loss(self, n_frames, subset):
        idx = frame_subset(n_frames, subset)
        params, video, labels = self._setup(n_frames, [False, False, True])
        want_loss, want = cross_entropy_loss_and_grads(
            params, video.features, labels, idx, weight=0.4
        )
        trunk = _trunk_source(
            params.layers[:-1], params.trainable_mask[:-1], params.context_lambda, [video]
        )
        sel = np.arange(n_frames) if idx is None else idx
        got_loss, got = _cross_entropy(params, trunk(0, sel), labels[sel], 0.4)
        assert abs(got_loss - want_loss) <= 1e-14 * abs(want_loss)
        assert got[:2] == want[:2] == [None, None]
        assert grad_rel_error(got[2:], want[2:]) <= 1e-14

    def test_partly_frozen_stack_keeps_trainable_gradients(self):
        # the backward pass stops at the first trainable layer; what it
        # returns for the trainable layers does not change
        params, video, labels = self._setup(181, [True, True, True])
        idx = frame_subset(181, "early")
        pairs = sample_distant_pairs(181, 50, 30, np.random.default_rng(0))
        _, ce_full = cross_entropy_loss_and_grads(params, video.features, labels, idx)
        _, tc_full = temporal_coherence_loss_and_grads(params, video.features, pairs)
        params.trainable_mask = [False, True, True]
        _, ce_part = cross_entropy_loss_and_grads(params, video.features, labels, idx)
        _, tc_part = temporal_coherence_loss_and_grads(params, video.features, pairs)
        for part, full in ((ce_part, ce_full), (tc_part, tc_full)):
            assert part[0] is None
            for p, f in zip(part[1:], full[1:]):
                np.testing.assert_array_equal(p[0], f[0])
                np.testing.assert_array_equal(p[1], f[1])

    def test_training_keeps_frozen_layers_and_makes_no_adam_state(self, monkeypatch):
        made = []
        make = optim.make_optimizer
        monkeypatch.setattr(optim, "make_optimizer", lambda cfg: made.append(make(cfg)) or made[-1])
        videos = [make_video(f"v{i}", n_frames=30, n_features=3, seed=i) for i in range(3)]
        labels = {v.id: np.arange(30) // 10 for v in videos}
        params = init_appearance(np.random.default_rng(0), 3, [4], 3)
        params.trainable_mask = [False, True]
        out = train_appearance(videos, labels, params, TrainConfig(epochs=3, batch_size=16))
        np.testing.assert_array_equal(out.layers[0].weights, params.layers[0].weights)
        np.testing.assert_array_equal(out.layers[0].bias, params.layers[0].bias)
        assert not np.array_equal(out.layers[1].weights, params.layers[1].weights)
        [opt] = made
        assert isinstance(opt, optim.Adam) and set(opt._state) == {1}


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
            _, grads = temporal_coherence_loss_and_grads(params, feats, pairs, margin=1.0)
            fd = finite_difference_grads(
                lambda: temporal_coherence_loss_and_grads(params, feats, pairs, margin=1.0)[0],
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

    @pytest.mark.parametrize("n_frames", [32, 40, 70])
    def test_matches_exact_distribution(self, n_frames):
        # P(t, u) = 1 / (frames with a partner) * 1 / (partners of t). Below
        # 2 * gap + 2 frames some frames have no partner; at gap + 2 only two do
        gap, n_draws = 30, 200_000
        t, u = np.meshgrid(np.arange(n_frames), np.arange(n_frames), indexing="ij")
        support = (np.abs(t - u) > gap).ravel()
        partners = support.reshape(n_frames, n_frames).sum(axis=1)
        p = np.repeat(1.0 / np.maximum(partners, 1), n_frames) / np.count_nonzero(partners)
        pairs = sample_distant_pairs(n_frames, n_draws, gap, np.random.default_rng(n_frames))
        assert pairs.shape == (n_draws, 2) and pairs.dtype == np.int64
        assert pairs.min() >= 0 and pairs.max() < n_frames
        counts = np.bincount(pairs[:, 0] * n_frames + pairs[:, 1], minlength=n_frames ** 2)
        assert counts[~support].sum() == 0
        expected = n_draws * p[support]
        chi2 = float(((counts[support] - expected) ** 2 / expected).sum())
        # Wilson-Hilferty approximation of the 0.999 quantile of chi-squared(df)
        df = np.count_nonzero(support) - 1
        limit = df * (1 - 2 / (9 * df) + 3.0902 * np.sqrt(2 / (9 * df))) ** 3
        assert chi2 < limit


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
        before = mean_cross_entropy({v.id: forward(params, v) for v in videos}, labels)
        out = train_appearance(
            videos, labels, params, TrainConfig(epochs=30, seed=1)
        )
        after = mean_cross_entropy({v.id: forward(out, v) for v in videos}, labels)
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
