import copy

import numpy as np
import pytest

from segrsd import optim
from segrsd.appearance import (
    AppearanceParams,
    DenseLayer,
    TC_GAP,
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
    _tc_step,
    _FrameBuffers,
    _row_context,
    _row_context_adjoint,
    _row_plan,
    _trunk_source,
)
from segrsd import appearance
from segrsd.core import VideoSequence
from segrsd.errors import NumericalError
from segrsd.temporal import LOG_FLOOR

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


def _plan(rows, lam):
    """_row_plan of sorted rows with a powers table sized for them."""
    rows = np.asarray(rows)
    return _row_plan(rows, lam, appearance._decay_table(lam, rows[-1] + 1))


def _ce_batch(params, feats, labels, scale=1.0):
    """train_appearance's batch loss over videos' feature arrays and their
    labels, each row's weight times scale."""
    stacked = np.concatenate(labels)
    return _trunk_source(
        params.layers[:-1], params.trainable_mask[:-1], params.context_lambda, feats,
        lambda emb, ctx, rows, weights: _cross_entropy(params, emb, ctx, stacked[rows],
                                                       scale * weights),
    )


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
        plan = _plan(np.arange(9), lam)
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
            plan = _plan(rows, lam)
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
        got = _row_context(_plan(rows, lam), e[:rows[-1] + 1])
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("case", ROW_CASES)
    def test_adjoint_identity(self, case):
        # <ctx(e), g> == <e, adj(g)> over frames 0..max(rows)
        e, lam, rows = _row_case(*case)
        e = e[:rows[-1] + 1]
        g = np.random.default_rng(len(rows)).standard_normal((len(rows), e.shape[1]))
        plan = _plan(rows, lam)
        lhs = float((_row_context(plan, e) * g).sum())
        adj = _row_context_adjoint(plan, g)
        assert adj.shape == e.shape
        assert lhs == pytest.approx(float((e * adj).sum()), rel=1e-12)

    def test_forms_cover_the_cases(self):
        dense = [isinstance(_plan(_row_case(*c)[2], c[1])[1], np.ndarray) for c in ROW_CASES]
        assert dense == [True] * 6 + [False] * 6

    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 0.9, 0.99])
    def test_dense_plan_equals_the_index_gather(self, lam):
        # the dense plan gathers rows of the Toeplitz view of one powers
        # table, built for the rows or for a longer video; it is bit-equal to
        # the K x n gather through the index i_k - s that it replaced
        def index_gather(rows):
            n = rows[-1] + 1
            powers = np.zeros(2 * n)  # the zero upper half serves s after i_k
            powers[:n] = np.power(lam, np.arange(n), dtype=np.float64)
            powers[powers < np.finfo(np.float64).eps ** 2] = 0.0
            matrix = powers[rows[:, None] - np.arange(n)]
            matrix[:, 1:] *= 1.0 - lam
            return matrix

        rng = np.random.default_rng(int(100 * lam))
        for _ in range(200):
            n = int(rng.integers(1, 401))
            rows = np.sort(rng.choice(n, size=int(rng.integers(1, min(n, 60) + 1)),
                                      replace=False))
            if len(rows) * (rows[-1] + 1) > appearance._DENSE_ROW_WEIGHTS:
                continue
            want = index_gather(rows)
            exact = appearance._decay_table(lam, rows[-1] + 1)
            longer = appearance._decay_table(lam, n + int(rng.integers(0, 2000)))
            for table in (exact, longer):
                got = _row_plan(rows, lam, table)[1]
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_rows", [96, 97])
    def test_dense_form_up_to_its_size_limit(self, n_rows):
        # 96 rows of a 256-frame prefix fill the dense form's 24576 entries
        e, lam, _ = _row_case(256, 0.9, [0])
        rows = np.linspace(0, 255, n_rows).astype(np.int64)
        plan = _plan(rows, lam)
        assert isinstance(plan[1], np.ndarray) == (n_rows == 96)
        want = context_accumulate(e, lam)[rows]
        assert np.abs(_row_context(plan, e) - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("rows", [[9999], [0, 9999], "sparse", "dense"])
    def test_long_video_finite_without_subnormals(self, rows):
        e, lam, rows = _row_case(10_000, 0.9, rows)
        plan = _plan(rows, lam)
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
            _row_plan(np.array(rows, dtype=np.int64), 0.9, appearance._decay_table(0.9, 5))

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
        # the same with the flat indices written into rows of a larger buffer
        got = start.copy()
        flat_idx = np.full((n_rows + 5, 32), -1, dtype=np.int64)
        _add_rows_at(got, rows, values, flat_idx[:n_rows])
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(flat_idx[:n_rows], rows[:, None] * 32 + np.arange(32))

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


class TestWholeVideoBlocks:
    """Whole-video passes run in row blocks and match one whole-array pass."""

    @staticmethod
    def _setup(n_frames, lam):
        params = init_appearance(np.random.default_rng(n_frames), 4, [6, 5], 3, lam)
        return params, make_video(n_frames=n_frames, n_features=4, seed=n_frames)

    @pytest.mark.parametrize("lam", [0.9, 0.3])
    @pytest.mark.parametrize("n_frames", BLOCK_FRAMES)
    def test_forward(self, n_frames, lam):
        params, video = self._setup(n_frames, lam)
        emb, ctx = whole_array_trunk(params.layers[:-1], lam, video.features)
        head = params.layers[-1]
        want = softmax(np.hstack([emb, ctx]) @ head.weights.T + head.bias)
        assert_block_close(forward(params, video), want, n_frames)

    @pytest.mark.parametrize("n_frames", BLOCK_FRAMES)
    def test_frozen_trunk(self, n_frames):
        # the video sits behind another one in the frozen cache
        params, video = self._setup(n_frames, 0.9)
        embed = params.layers[:-1]
        want = whole_array_trunk(embed, 0.9, video.features)
        before = make_video(n_frames=9, n_features=4, seed=1)
        seen, head_grads = [], [[np.ones((3, 8)), np.ones(3)]]
        batch_loss = _trunk_source(
            embed, [False, False], 0.9, [before.features, video.features],
            lambda *args: seen.append(args) or (0.0, None, head_grads),
        )
        _, grads = batch_loss(9 + np.arange(n_frames))
        [(*got, rows, weight)] = seen
        # one None per embedding layer, then the head's pairs as returned
        assert len(grads) == 3 and grads[:2] == [None, None] and grads[2] is head_grads[0]
        np.testing.assert_array_equal(weight, np.full(n_frames, 1.0 / n_frames))
        for i in range(2):
            assert_block_close(got[i], want[i], n_frames)

    @pytest.mark.parametrize("n_frames", BLOCK_FRAMES)
    def test_trunk_blocks(self, n_frames):
        params, video = self._setup(n_frames, 0.9)
        embed = params.layers[:-1]
        want = whole_array_trunk(embed, 0.9, video.features)
        got = list(appearance._trunk_blocks(embed, 0.9, video.features))
        assert [start for start, _, _ in got] == list(range(0, n_frames, B))
        assert all(len(emb) == len(ctx) == min(B, n_frames - start) for start, emb, ctx in got)
        for i in range(2):
            assert_block_close(np.concatenate([b[1 + i] for b in got]), want[i], n_frames)

    def test_earlier_blocks_unchanged_by_later_ones(self):
        params, video = self._setup(3 * B + 7, 0.9)
        kept, copies = [], []
        for block in appearance._trunk_blocks(params.layers[:-1], 0.9, video.features):
            kept.append(block)
            copies.append([a.copy() for a in block[1:]])
        assert len(kept) == 4
        for (_, emb, ctx), (emb_then, ctx_then) in zip(kept, copies):
            np.testing.assert_array_equal(emb, emb_then)
            np.testing.assert_array_equal(ctx, ctx_then)

    def test_forward_memory_is_blocks_not_frames(self):
        # a whole-array pass holds several (frames, 2h) arrays at once; the
        # blocked pass holds its output and the arrays of a block or two
        h = 32
        params = init_appearance(np.random.default_rng(0), 4, [h], 5)
        video = make_video(n_frames=20 * B, n_features=4)
        probs, peak = peak_bytes(forward, params, video)
        assert peak <= probs.nbytes + 8 * B * 2 * h * 8


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

            batch_loss = _ce_batch(params, [feats], [labels])
            _, grads = batch_loss(idx)
            fd = finite_difference_grads(lambda: batch_loss(idx)[0], params.layers)
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
    """Only the batch rows carry loss; the context stops at the last one."""

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
        sel = np.arange(n_frames) if idx is None else idx
        loss, _ = _ce_batch(params, [video.features], [labels], 0.4)(sel)
        probs = forward(params, video)
        expected = -0.4 * np.mean(np.log(probs[sel, labels[sel]]))
        assert loss == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n_frames", [2, 181, 1800])
    @pytest.mark.parametrize("subset", ["single", "early"])
    def test_frames_after_last_selected_do_not_matter(self, n_frames, subset):
        idx = frame_subset(n_frames, subset)
        params, feats, labels = self._setup(n_frames)
        loss1, grads1 = _ce_batch(params, [feats], [labels])(idx)
        stop = idx.max() + 1
        feats[stop:] = np.random.default_rng(1).standard_normal(feats[stop:].shape)
        loss2, grads2 = _ce_batch(params, [feats], [labels])(idx)
        assert loss1 == loss2
        for g1, g2 in zip(grads1, grads2):
            np.testing.assert_array_equal(g1[0], g2[0])
            np.testing.assert_array_equal(g1[1], g2[1])

    def test_subset_gradcheck(self):
        idx = frame_subset(181, "early")
        params, feats, labels = self._setup(181)
        batch_loss = _ce_batch(params, [feats], [labels], 0.4)
        _, grads = batch_loss(idx)
        num = finite_difference_grads(lambda: batch_loss(idx)[0], params.layers)
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
        # against the same batch on live layers, which runs no cache
        idx = frame_subset(n_frames, subset)
        params, video, labels = self._setup(n_frames, [False, False, True])
        sel = np.arange(n_frames) if idx is None else idx
        live = copy.deepcopy(params)
        live.trainable_mask = [True, True, True]
        want_loss, want = _ce_batch(live, [video.features], [labels], 0.4)(sel)
        got_loss, got = _ce_batch(params, [video.features], [labels], 0.4)(sel)
        assert abs(got_loss - want_loss) <= 1e-14 * abs(want_loss)
        assert got[:2] == [None, None]
        assert grad_rel_error(got[2:], want[2:]) <= 1e-14

    def test_one_pass_batch_matches_per_video_path(self):
        # a batch over videos of one block and of several, one video
        # untouched: the one head pass over the gathered rows against a
        # one-video batch per touched video, its weights scaled by 1/touched
        params, _, _ = self._setup(2, [False, False, True])
        rng = np.random.default_rng(1)
        videos = [make_video(f"v{i}", n_frames=n, n_features=3, seed=i)
                  for i, n in enumerate((181, 2, 1800, 40))]
        labels = [rng.integers(0, 3, size=v.n_frames) for v in videos]
        starts = np.cumsum([0, *(v.n_frames for v in videos)])
        picked = [np.sort(rng.choice(v.n_frames, size=k, replace=False))
                  for v, k in zip(videos, (50, 0, 300, 40))]
        rows = np.concatenate([at + start for at, start in zip(picked, starts)])

        want_loss, want = 0.0, None
        for vi in (0, 2, 3):
            part, grads = _ce_batch(params, [videos[vi].features], [labels[vi]], 1.0 / 3)(
                picked[vi])
            want_loss += part
            want = grads if want is None else [
                None if w is None else [w[0] + g[0], w[1] + g[1]] for w, g in zip(want, grads)
            ]
        got_loss, got = _ce_batch(params, [v.features for v in videos], labels)(rows)
        assert abs(got_loss - want_loss) <= 1e-14 * abs(want_loss)
        assert got[:2] == want[:2] == [None, None]
        assert grad_rel_error(got[2:], want[2:]) <= 1e-14

    def test_partly_frozen_stack_keeps_trainable_gradients(self):
        # the backward pass stops at the first trainable layer; what it
        # returns for the trainable layers does not change
        params, video, labels = self._setup(181, [True, True, True])
        idx = frame_subset(181, "early")
        pairs = sample_distant_pairs(181, 50, 30, np.random.default_rng(0))
        _, ce_full = _ce_batch(params, [video.features], [labels])(idx)
        _, tc_full = temporal_coherence_loss_and_grads(params, video.features, pairs)
        params.trainable_mask = [False, True, True]
        _, ce_part = _ce_batch(params, [video.features], [labels])(idx)
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


class TestLiveBatch:
    """Live layers: one stacked trunk, head pass and backward pass per group."""

    @pytest.mark.parametrize("bound", ["default", "split"])
    def test_stacked_batch_matches_per_video_path(self, monkeypatch, bound):
        # videos of dense and segment-form plans, one untouched; in one group,
        # or split after the first video: against a one-video batch per
        # touched video, its weights scaled by 1/touched
        rng = np.random.default_rng(3)
        params = init_appearance(rng, 3, [4, 5], 3, 0.9)
        params.trainable_mask = [False, True, True]
        videos = [make_video(f"v{i}", n_frames=n, n_features=3, seed=i)
                  for i, n in enumerate((181, 2, 1800, 40))]
        starts = np.cumsum([0, *(v.n_frames for v in videos)])
        picked = [np.sort(rng.choice(v.n_frames, size=k, replace=False))
                  for v, k in zip(videos, (50, 0, 300, 40))]
        rows = np.concatenate([at + start for at, start in zip(picked, starts)])
        if bound == "split":
            monkeypatch.setattr(appearance, "_STACK_ROWS", picked[2][-1] + picked[3][-1] + 2)
        labels = [rng.integers(0, 3, size=v.n_frames) for v in videos]
        want_loss, want = 0.0, None
        for vi in (0, 2, 3):
            part, grads = _ce_batch(params, [videos[vi].features], [labels[vi]], 1.0 / 3)(
                picked[vi])
            want_loss += part
            want = grads if want is None else [
                None if w is None else [w[0] + g[0], w[1] + g[1]] for w, g in zip(want, grads)
            ]
        groups = []
        trunk = appearance._trunk
        monkeypatch.setattr(appearance, "_trunk",
                            lambda *args: groups.append(len(args[2])) or trunk(*args))
        got_loss, got = _ce_batch(params, [v.features for v in videos], labels)(rows)
        assert groups == ([3] if bound == "default" else [1, 2])
        assert abs(got_loss - want_loss) <= 1e-14 * abs(want_loss)
        assert got[0] is None and want[0] is None
        for g, w in zip(got[1:], want[1:]):
            assert grad_rel_error([g], [w]) <= 1e-14

    def test_batches_after_the_first_allocate_no_stack(self):
        # the stack, the chain and the backward pass write into buffers held
        # for the training call: a batch's peak stays below one frames-sized
        # array of the stacked prefixes
        rng = np.random.default_rng(4)
        params = init_appearance(rng, 3, [32], 3, 0.9)
        videos = [make_video(f"v{i}", n_frames=200, n_features=3, seed=i) for i in range(3)]
        # four rows of each video, its last frame among them: a 600-frame stack
        rows = np.concatenate([start + np.array([10, 50, 120, 199]) for start in (0, 200, 400)])
        labels = rng.integers(0, 3, size=600)
        batch_loss = _ce_batch(params, [v.features for v in videos], [labels])
        first = batch_loss(rows)
        again, peak = peak_bytes(batch_loss, rows)
        assert again[0] == first[0]
        assert peak < 600 * 32 * 8


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


def _reference_tc(params, feats, pairs, margin=1.0):
    """temporal_coherence_loss_and_grads as it was written before the kernel
    took its buffers from the caller: every array allocated afresh."""
    embed = params.layers[:-1]
    acts = [np.asarray(feats, dtype=np.float64)]
    for layer in embed:
        z = acts[-1] @ layer.weights.T
        z += layer.bias
        acts.append(np.tanh(z, out=z))
    e = acts[-1]
    n = len(e)
    d_emb = np.zeros(e.shape)
    loss = 0.0
    if n >= 2:
        d1 = e[1:] - e[:-1]
        loss += float((d1 * d1).sum()) / (n - 1)
        g = (2.0 / (n - 1)) * d1
        d_emb[1:] += g
        d_emb[:-1] -= g
    if n >= 3:
        d2 = e[2:] - 2.0 * e[1:-1] + e[:-2]
        loss += float((d2 * d2).sum()) / (n - 2)
        g = (2.0 / (n - 2)) * d2
        d_emb[2:] += g
        d_emb[1:-1] -= 2.0 * g
        d_emb[:-2] += g
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if len(pairs):
        ti, ui = pairs[:, 0], pairs[:, 1]
        diff = e[ti] - e[ui]
        dist = np.sqrt((diff * diff).sum(axis=1) + 1e-12)
        viol = np.maximum(0.0, margin - dist)
        loss += float((viol * viol).sum()) / len(pairs)
        coef = np.where(viol > 0, -2.0 * viol / dist, 0.0) / len(pairs)
        gp = coef[:, None] * diff
        np.add.at(d_emb, ti, gp)
        np.add.at(d_emb, ui, -gp)
    mask = params.trainable_mask[:-1]
    grads = [None] * len(embed)
    first = next((i for i, m in enumerate(mask) if m), len(embed))
    d = d_emb
    for i in range(len(embed) - 1, first - 1, -1):
        a = acts[i + 1]
        dpre = a * a
        np.subtract(1.0, dpre, out=dpre)
        dpre *= d
        if mask[i]:
            grads[i] = [dpre.T @ acts[i], dpre.sum(axis=0)]
        if i > first:
            d = dpre @ embed[i].weights
    return loss, grads


def _assert_grads_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            np.testing.assert_array_equal(g[0], w[0])
            np.testing.assert_array_equal(g[1], w[1])


class TestCoherenceKernel:
    """The buffered TC step against the allocate-everything reference: equal
    to the last bit, so pretraining and every checkpoint stay the same."""

    @staticmethod
    def _case(n_frames, with_pairs, hidden):
        rng = np.random.default_rng(n_frames)
        params = init_appearance(rng, 12, hidden, 5)
        feats = 0.3 * rng.standard_normal((n_frames, 12))
        # random pairs, more of them than frames, rows repeating and some t == u
        n_pairs = n_frames + 3 if with_pairs else 0
        pairs = rng.integers(n_frames, size=(n_pairs, 2))
        return params, feats, pairs

    @pytest.mark.parametrize("hidden", [[32], [16, 32]])
    @pytest.mark.parametrize("with_pairs", [False, True])
    @pytest.mark.parametrize("n_frames", [1, 2, 3, 31, 180, 1800])
    def test_equals_reference(self, n_frames, with_pairs, hidden):
        params, feats, pairs = self._case(n_frames, with_pairs, hidden)
        want_loss, want = _reference_tc(params, feats, pairs)
        loss, grads = temporal_coherence_loss_and_grads(params, feats, pairs)
        assert loss == want_loss
        _assert_grads_equal(grads, want)
        # the same video on buffers larger than it, right after a longer
        # video has filled them: no stale row may leak into the result
        embed, mask = params.layers[:-1], params.trainable_mask[:-1]
        bufs = _FrameBuffers(embed, 2000)
        long_feats = np.random.default_rng(0).standard_normal((1900, 12))
        long_pairs = sample_distant_pairs(1900, 1900, 30, np.random.default_rng(1))
        _tc_step(embed, mask, long_feats, long_pairs, 1.0, bufs)
        loss, grads = _tc_step(embed, mask, feats, pairs.astype(np.int64), 1.0, bufs)
        assert loss == want_loss
        _assert_grads_equal(grads, want)

    def test_partly_frozen_stack_equals_reference(self):
        params, feats, pairs = self._case(180, True, [8, 16, 32])
        params.trainable_mask = [False, True, False, True]
        want_loss, want = _reference_tc(params, feats, pairs)
        loss, grads = temporal_coherence_loss_and_grads(params, feats, pairs)
        assert loss == want_loss
        _assert_grads_equal(grads, want)

    def test_pair_outside_video_raises(self):
        params, feats, _ = self._case(31, False, [32])
        with pytest.raises(IndexError):
            temporal_coherence_loss_and_grads(params, feats, np.array([[0, 31]]))


class TestCoherenceActivePairs:
    """The TC step scatters only the pairs inside the margin, and checks every
    pair's bounds itself."""

    @pytest.mark.parametrize("margin", [1e-9, 1e9])
    def test_no_pair_or_every_pair_inside_the_margin_equals_reference(self, margin):
        params, feats, pairs = TestCoherenceKernel._case(180, True, [32])
        want_loss, want = _reference_tc(params, feats, pairs, margin)
        loss, grads = temporal_coherence_loss_and_grads(params, feats, pairs, margin)
        assert loss == want_loss
        _assert_grads_equal(grads, want)

    @pytest.mark.parametrize("pair", [[0, 31], [40, 3], [-32, 5]])
    def test_pair_outside_video_raises_outside_the_margin(self, pair):
        # at a tiny margin no pair is active, so none is scattered; the
        # pair's bounds are checked all the same
        params, feats, _ = TestCoherenceKernel._case(31, False, [32])
        with pytest.raises(IndexError):
            temporal_coherence_loss_and_grads(params, feats, np.array([pair]), margin=1e-9)

    def test_negative_pair_rows_count_from_the_end(self):
        params, feats, pairs = TestCoherenceKernel._case(31, True, [32])
        want = temporal_coherence_loss_and_grads(params, feats, pairs)
        got = temporal_coherence_loss_and_grads(params, feats, pairs - 31)
        assert got[0] == want[0]
        _assert_grads_equal(got[1], want[1])


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
            cross_entropy_loss_and_grads(params, v.features, labels[v.id])[1]
            for v in videos
        ]
        for i, layer in enumerate(params.layers):
            for part, got in enumerate((out.layers[i].weights, out.layers[i].bias)):
                before = (layer.weights, layer.bias)[part]
                mean_grad = 0.5 * (per_video[0][i][part] + per_video[1][i][part])
                np.testing.assert_allclose(got, before - cfg.learning_rate * mean_grad,
                                           rtol=1e-12, atol=1e-14)

    def test_live_layers_match_the_per_video_loop(self):
        # live layers run one stacked trunk and head pass per batch, with
        # per-row weights (1/touched)/n_v: the weights match the old loop's,
        # one one-video batch per touched video scaled by 1/touched, to rounding
        videos = [make_video(f"v{i}", n_frames=n, n_features=3, seed=i)
                  for i, n in enumerate((18, 70, 31))]
        labels = {v.id: np.arange(v.n_frames) * 3 // v.n_frames for v in videos}
        params = init_appearance(np.random.default_rng(0), 3, [4, 5], 3)
        params.trainable_mask = [False, True, True]
        cfg = TrainConfig(epochs=3, batch_size=16, seed=2)
        out = train_appearance(videos, labels, params, cfg)

        want = copy.deepcopy(params)

        def video_loss(vi, idx, weight):
            video = videos[vi]
            return _ce_batch(want, [video.features], [labels[video.id]], weight)(idx)

        for _ in per_video_epochs(want.layers, want.trainable_mask,
                                  [v.n_frames for v in videos], cfg,
                                  np.random.default_rng(cfg.seed), video_loss):
            pass
        for got, ref in zip(out.layers, want.layers):
            for g, w in ((got.weights, ref.weights), (got.bias, ref.bias)):
                assert np.abs(g - w).max() <= 1e-14 * np.abs(w).max()
        np.testing.assert_array_equal(out.layers[0].weights, params.layers[0].weights)
        assert not np.array_equal(out.layers[1].weights, params.layers[1].weights)

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
        out = tc_pretrain(videos, params, TrainConfig(epochs=3, seed=0))
        assert not np.array_equal(params.layers[0].weights, out.layers[0].weights)
        np.testing.assert_array_equal(params.layers[-1].weights, out.layers[-1].weights)

    def test_equals_reference_loop_on_mixed_lengths(self):
        # one set of buffers serves a long video between two short ones; the
        # weights equal a loop that allocates every array afresh
        videos = [make_video(f"v{n}", n_frames=n, n_features=6, seed=n) for n in (40, 400, 90)]
        params = init_appearance(np.random.default_rng(3), 6, [16], 4)
        cfg = TrainConfig(epochs=3, seed=7)
        out = tc_pretrain(videos, params, cfg)

        want = copy.deepcopy(params)
        embed, mask = want.layers[:-1], want.trainable_mask[:-1]
        rng = np.random.default_rng(cfg.seed)
        opt = optim.make_optimizer(cfg)
        for _ in range(cfg.epochs):
            for vi in rng.permutation(len(videos)):
                video = videos[int(vi)]
                pairs = sample_distant_pairs(video.n_frames, video.n_frames, TC_GAP, rng)
                loss, grads = _reference_tc(want, video.features, pairs)
                optim.add_l2(embed, grads, loss, cfg.l2_weight)
                opt.step(embed, grads, mask)
        for got, ref in zip(out.layers, want.layers):
            np.testing.assert_array_equal(got.weights, ref.weights)
            np.testing.assert_array_equal(got.bias, ref.bias)
        assert not np.array_equal(out.layers[0].weights, params.layers[0].weights)

    def test_deterministic(self):
        videos = [make_video("a", n_frames=50, n_features=3)]
        params = init_appearance(np.random.default_rng(2), 3, [4], 2)
        cfg = TrainConfig(epochs=3, seed=5)
        a = tc_pretrain(videos, params, cfg)
        b = tc_pretrain(videos, params, cfg)
        np.testing.assert_array_equal(a.layers[0].weights, b.layers[0].weights)
