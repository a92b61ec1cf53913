import itertools
import math

import numpy as np
import pytest

from segrsd.core import Segmentation, segmentation_to_labels
from segrsd.temporal import (
    LOG_FLOOR,
    LengthModel,
    MallowsModel,
    _joint_scorer,
    estimate_rho,
    inversions_to_order,
    mallows_log_prob,
    mallows_sample,
    order_to_inversions,
    partial_order_inversions,
    sample_lengths,
    sample_segmentation,
    segmentation_log_joint,
    truncated_geometric_mean,
    update_theta,
)


class TestInversions:
    def test_zeros_identity(self):
        assert inversions_to_order(np.array([0, 0])) == (0, 1, 2)

    def test_single_inversion(self):
        assert inversions_to_order(np.array([1, 0])) == (1, 0, 2)

    def test_reversed(self):
        assert order_to_inversions(np.array([2, 1, 0])).tolist() == [2, 1]

    def test_identity_inversions(self):
        assert order_to_inversions(np.array([0, 1, 2])).tolist() == [0, 0]

    def test_round_trip_exhaustive(self):
        for k in range(2, 6):
            for perm in itertools.permutations(range(k)):
                v = order_to_inversions(np.array(perm))
                # independent recount: v_i = larger items before item i
                for i in range(k - 1):
                    pos = perm.index(i)
                    assert v[i] == sum(1 for j in perm[:pos] if j > i)
                assert tuple(inversions_to_order(v)) == perm

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            inversions_to_order(np.array([3, 0]))  # slot 0 max is 2 for K=3

    def test_partial_orders(self):
        # absent items count as zero inversions; present ones count only
        # larger present predecessors
        assert partial_order_inversions([1, 0], 3).tolist() == [1, 0]
        assert partial_order_inversions([2], 3).tolist() == [0, 0]
        assert partial_order_inversions([2, 0], 3).tolist() == [1, 0]


class TestMallowsLogProb:
    def test_uniform_at_zero_rho(self):
        m = MallowsModel.with_constant_rho(3, 0.0)
        for v in itertools.product(range(3), range(2)):
            assert mallows_log_prob(np.array(v), m) == pytest.approx(
                -math.log(6), abs=1e-12
            )

    def test_hand_value(self):
        m = MallowsModel.with_constant_rho(3, 1.0)
        psi0 = (1 - math.exp(-3)) / (1 - math.exp(-1))
        psi1 = (1 - math.exp(-2)) / (1 - math.exp(-1))
        expected = -(math.log(psi0) + math.log(psi1))
        got = mallows_log_prob(np.array([0, 0]), m)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(-0.72087, abs=1e-4)

    def test_normalizes(self):
        rng = np.random.default_rng(0)
        for k in range(2, 6):
            rho = rng.uniform(0.0, 3.0, size=k - 1)
            m = MallowsModel(k, rho)
            total = sum(
                math.exp(mallows_log_prob(np.array(v), m))
                for v in itertools.product(*(range(k - i) for i in range(k - 1)))
            )
            assert total == pytest.approx(1.0, abs=1e-8)


class TestMallowsSample:
    @staticmethod
    def _per_slot_draw(model, rng):
        """The sampler before the CDF table: each slot's CDF built afresh."""
        k = model.n_subactivities
        v = np.zeros(k - 1, dtype=np.int64)
        for i in range(k - 1):
            cdf = np.cumsum(np.exp(-float(model.rho[i]) * np.arange(k - i)))
            cdf /= cdf[-1]
            v[i] = int(np.searchsorted(cdf, rng.random(), side="right"))
        return v

    def test_draws_equal_the_per_slot_sampler(self):
        # the same uniforms and the same CDFs, so the same draws, down to the
        # generator state after them
        gen = np.random.default_rng(0)
        for _ in range(300):
            k = int(gen.integers(1, 17))
            # some all-zero and some near-degenerate dispersions among them
            rho = gen.uniform(0.0, 3.0, size=k - 1) * (gen.random() < 0.9)
            rho += 60.0 * (gen.random() < 0.1)
            model = MallowsModel(k, rho)
            seed = int(gen.integers(2 ** 31))
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(5):
                got = mallows_sample(model, a)
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, self._per_slot_draw(model, b))
            assert a.random() == b.random()

    def test_model_is_immutable(self):
        rho = np.array([0.5, 1.0])
        model = MallowsModel(3, rho)
        rho[0] = 9.0  # the model holds its own copy
        assert model.rho.tolist() == [0.5, 1.0]
        with pytest.raises(ValueError):
            model.rho[0] = 2.0
        with pytest.raises(AttributeError):
            model.rho = np.zeros(2)

    def test_uniform_slot_means(self):
        m = MallowsModel.with_constant_rho(4, 0.0)
        rng = np.random.default_rng(1)
        draws = np.array([mallows_sample(m, rng) for _ in range(20000)])
        for i, n in enumerate((4, 3, 2)):
            mean = (n - 1) / 2
            var = np.var(np.arange(n))
            se = math.sqrt(var / len(draws))
            assert abs(draws[:, i].mean() - mean) < 3 * se

    def test_large_rho_degenerates(self):
        m = MallowsModel.with_constant_rho(5, 25.0)
        rng = np.random.default_rng(2)
        draws = np.array([mallows_sample(m, rng) for _ in range(1000)])
        assert (draws == 0).all()

    def test_truncated_geometric_mean_matches_sampler(self):
        # slot of size 3 at rho=1: mean = (e^-1 + 2 e^-2)/(1 + e^-1 + e^-2)
        w = np.exp(-1.0 * np.arange(3))
        p = w / w.sum()
        analytic = float((np.arange(3) * p).sum())
        assert truncated_geometric_mean(1.0, 3) == pytest.approx(analytic, rel=1e-12)
        assert analytic == pytest.approx(0.42479, abs=1e-4)

        m = MallowsModel.with_constant_rho(3, 1.0)
        rng = np.random.default_rng(3)
        draws = np.array([mallows_sample(m, rng) for _ in range(30000)])
        var = float((np.arange(3) ** 2 * p).sum() - analytic ** 2)
        se = math.sqrt(var / len(draws))
        assert abs(draws[:, 0].mean() - analytic) < 3 * se


class TestEstimateRho:
    def test_uniform_mean_gives_zero(self):
        # slot means equal to the uniform means force rho to 0
        observed = np.array([[0, 0], [1, 1], [2, 0], [0, 1], [1, 0], [2, 1]])
        m = MallowsModel(3, np.ones(2), nu0=0.0)
        rho = estimate_rho(observed, m)
        np.testing.assert_allclose(rho, 0.0, atol=1e-6)

    def test_all_zero_clamps_high(self):
        observed = np.zeros((50, 2), dtype=int)
        m = MallowsModel(3, np.ones(2), nu0=0.0)
        rho = estimate_rho(observed, m)
        np.testing.assert_allclose(rho, 50.0)

    def test_recovery(self):
        true = MallowsModel.with_constant_rho(6, 1.5)
        rng = np.random.default_rng(4)
        draws = np.array([mallows_sample(true, rng) for _ in range(10000)])
        est = estimate_rho(draws, MallowsModel(6, np.ones(5), nu0=0.1, r0=1.0))
        assert np.all(np.abs(est - 1.5) < 0.1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_rho(np.zeros((0, 2), dtype=int), MallowsModel.with_constant_rho(3, 1.0))


class TestLengths:
    def test_single_present_takes_all(self):
        lm = LengthModel.uniform(3)
        rng = np.random.default_rng(5)
        for _ in range(20):
            lengths = sample_lengths(lm, [1], 37, rng)
            assert lengths.tolist() == [37]

    def test_sum_and_minimum(self):
        lm = LengthModel.uniform(4)
        rng = np.random.default_rng(6)
        for _ in range(200):
            lengths = sample_lengths(lm, [2, 0, 3], 25, rng)
            assert lengths.sum() == 25
            assert (lengths >= 1).all()

    def test_uniform_theta_means(self):
        lm = LengthModel.uniform(2)
        rng = np.random.default_rng(7)
        draws = np.array(
            [sample_lengths(lm, [0, 1], 100, rng) for _ in range(10000)]
        )
        # each length = 1 + Binomial(98, 1/2): mean 50, var 24.5
        se = math.sqrt(24.5 / len(draws))
        assert abs(draws[:, 0].mean() - 50.0) < 3 * se
        assert abs(draws[:, 1].mean() - 50.0) < 3 * se

    def test_too_few_frames_rejected(self):
        lm = LengthModel.uniform(3)
        with pytest.raises(ValueError):
            sample_lengths(lm, [0, 1, 2], 2, np.random.default_rng(0))

    def test_model_is_immutable(self):
        theta = np.array([0.25, 0.75])
        model = LengthModel(2, theta)
        theta[0] = 0.5  # the model holds its own copy
        assert model.theta.tolist() == [0.25, 0.75]
        with pytest.raises(ValueError):
            model.theta[0] = 0.5
        with pytest.raises(AttributeError):
            model.theta = np.full(2, 0.5)

    def test_update_theta_symmetric(self):
        lm = LengthModel(2, np.full(2, 0.5), alpha0=1.0)
        np.testing.assert_allclose(update_theta(np.array([10, 10]), lm), [0.5, 0.5])

    def test_update_theta_ratio(self):
        lm = LengthModel(2, np.full(2, 0.5), alpha0=0.0)
        np.testing.assert_allclose(update_theta(np.array([30, 10]), lm), [0.75, 0.25])

    def test_update_theta_simplex(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            counts = rng.integers(0, 100, size=k)
            theta = update_theta(counts, LengthModel(k, np.full(k, 1 / k), alpha0=0.5))
            assert theta.sum() == pytest.approx(1.0, abs=1e-12)
            assert (theta > 0).all()


# ---------------------------------------------------------------------------
# joint likelihood: independent brute-force machinery


def all_segmentations(n_frames, k):
    """Every (order, lengths) state: permutations of non-empty subsets times
    compositions of n_frames."""
    out = []
    for r in range(1, k + 1):
        for present in itertools.permutations(range(k), r):
            for cuts in itertools.combinations(range(1, n_frames), r - 1):
                bounds = (0,) + cuts + (n_frames,)
                lengths = tuple(b - a for a, b in zip(bounds, bounds[1:]))
                out.append(Segmentation(tuple(zip(present, lengths)), k))
    return out


def oracle_log_joint(seg, probs, rho, theta):
    """Independent evaluator: psi by direct geometric sum, multinomial
    coefficient by factorials, inversions counted by nested loops."""
    n_frames, k = probs.shape
    labels = segmentation_to_labels(seg)
    app = 0.0
    for t in range(n_frames):
        p = probs[t, labels[t]]
        app += math.log(p) if p > 0 else LOG_FLOOR
    present = [s for s, _ in seg.segments]
    mal = 0.0
    for i in range(k - 1):
        if i in present:
            pos = present.index(i)
            v_i = sum(1 for j in present[:pos] if j > i)
        else:
            v_i = 0
        n = k - i
        psi = sum(math.exp(-rho[i] * x) for x in range(n))
        mal += -rho[i] * v_i - math.log(psi)
    rest = [length - 1 for _, length in seg.segments]
    th = [theta[s] for s in present]
    norm = sum(th)
    coef = math.factorial(sum(rest))
    for r in rest:
        coef //= math.factorial(r)
    length_term = math.log(coef) + sum(
        r * math.log(t_ / norm) for r, t_ in zip(rest, th) if r
    )
    return app + mal + length_term


class TestJointLikelihood:
    def test_single_class_is_appearance_only(self):
        probs = np.full((5, 1), 1.0)
        seg = Segmentation(((0, 5),), 1)
        m = MallowsModel.with_constant_rho(1, 1.0)
        lm = LengthModel.uniform(1)
        assert segmentation_log_joint(seg, probs, m, lm) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_probs_appearance_term(self):
        n_frames, k = 8, 2
        probs = np.full((n_frames, k), 1.0 / k)
        seg = Segmentation(((0, 5), (1, 3)), k)
        m = MallowsModel.with_constant_rho(k, 0.7)
        lm = LengthModel.uniform(k)
        got = segmentation_log_joint(seg, probs, m, lm)
        rest = got - oracle_log_joint(seg, probs, m.rho, lm.theta)
        assert rest == pytest.approx(0.0, abs=1e-10)
        # and the appearance share is exactly -T log K
        structural = oracle_log_joint(
            seg, np.full((n_frames, k), 1.0), m.rho, lm.theta
        )
        assert got - structural == pytest.approx(-n_frames * math.log(k), abs=1e-10)

    def test_matches_oracle_exhaustively(self):
        rng = np.random.default_rng(9)
        probs = rng.dirichlet((1.0, 1.0), size=6)
        m = MallowsModel(2, np.array([0.8]))
        lm = LengthModel(2, np.array([0.6, 0.4]))
        for seg in all_segmentations(6, 2):
            got = segmentation_log_joint(seg, probs, m, lm)
            want = oracle_log_joint(seg, probs, m.rho, lm.theta)
            assert got == pytest.approx(want, abs=1e-10)

    def test_matches_oracle_random_states(self):
        # random states at K = 3..5 against the independent evaluator, with
        # some exact-zero probabilities so the floor enters the prefix sums;
        # one scorer serves every state of a table, as in the sampler
        rng = np.random.default_rng(21)
        for k in (3, 4, 5):
            for _ in range(4):
                n_frames = int(rng.integers(k, 31))
                probs = rng.dirichlet(np.ones(k), size=n_frames)
                probs[rng.random(probs.shape) < 0.15] = 0.0
                m = MallowsModel(k, rng.uniform(0.0, 2.0, size=k - 1))
                lm = LengthModel(k, rng.dirichlet(np.ones(k)))
                score = _joint_scorer(probs, m, lm, k)
                for _ in range(25):
                    n_seg = int(rng.integers(1, k + 1))
                    present = rng.permutation(k)[:n_seg]
                    cuts = np.sort(rng.choice(np.arange(1, n_frames), n_seg - 1, replace=False))
                    lengths = np.diff(np.concatenate(([0], cuts, [n_frames])))
                    seg = Segmentation(
                        tuple(zip(present.tolist(), lengths.tolist())), k
                    )
                    got = score(seg.order, seg.lengths)
                    want = oracle_log_joint(seg, probs, m.rho, lm.theta)
                    assert got == pytest.approx(want, abs=1e-9)

    def test_zero_theta_only_allows_unit_length(self):
        probs = np.full((6, 3), 1.0 / 3)
        m = MallowsModel.with_constant_rho(3, 0.5)
        lm = LengthModel(3, np.array([0.5, 0.5, 0.0]))
        grown = Segmentation(((0, 2), (2, 2), (1, 2)), 3)
        assert segmentation_log_joint(grown, probs, m, lm) == -math.inf
        unit = Segmentation(((0, 3), (2, 1), (1, 2)), 3)
        value = segmentation_log_joint(unit, probs, m, lm)
        assert value == pytest.approx(oracle_log_joint(unit, probs, m.rho, lm.theta), abs=1e-10)
        # present labels without any length mass rule the state out entirely
        massless = LengthModel(3, np.array([0.0, 0.0, 1.0]))
        pair = Segmentation(((1, 1), (0, 1)), 3)
        assert segmentation_log_joint(pair, probs[:2], m, massless) == -math.inf

    def test_nan_prob_is_not_floored(self):
        probs = np.array([[1.0, 0.0], [np.nan, 1.0], [1.0, 0.0]])
        seg = Segmentation(((0, 3),), 2)
        m = MallowsModel.with_constant_rho(2, 0.0)
        lm = LengthModel.uniform(2)
        assert math.isnan(segmentation_log_joint(seg, probs, m, lm))

    def test_zero_prob_uses_floor(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        seg = Segmentation(((0, 3),), 2)
        m = MallowsModel.with_constant_rho(2, 0.0)
        lm = LengthModel.uniform(2)
        value = segmentation_log_joint(seg, probs, m, lm)
        assert np.isfinite(value)
        clean = segmentation_log_joint(
            seg, np.array([[1.0, 0.0], [1e-300, 1.0], [1.0, 0.0]]), m, lm
        )
        assert value == pytest.approx(clean - math.log(1e-300) + LOG_FLOOR)


class TestSampler:
    def _setup(self, seed=10, n_frames=6, k=2):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(k), size=n_frames)
        m = MallowsModel.with_constant_rho(k, 0.5)
        lm = LengthModel.uniform(k)
        seg = Segmentation(((0, n_frames // 2), (1, n_frames - n_frames // 2)), k)
        return probs, m, lm, seg

    def test_zero_sweeps_identity(self):
        probs, m, lm, seg = self._setup()
        out = sample_segmentation(probs, m, lm, seg, np.random.default_rng(0), sweeps=0)
        assert out == seg

    def test_preserves_frame_count_fuzz(self):
        rng = np.random.default_rng(11)
        for trial in range(60):
            k = int(rng.integers(2, 5))
            n_frames = int(rng.integers(k + 1, 30))
            probs = rng.dirichlet(np.ones(k), size=n_frames)
            m = MallowsModel.with_constant_rho(k, float(rng.uniform(0, 2)))
            lm = LengthModel.uniform(k)
            per = n_frames // k
            segments = [(i, per) for i in range(k - 1)]
            segments.append((k - 1, n_frames - per * (k - 1)))
            seg = Segmentation(tuple(segments), k)
            out = sample_segmentation(probs, m, lm, seg, rng, sweeps=5)
            assert out.n_frames == n_frames  # constructor enforces the rest

    def test_peaked_probs_recover_truth(self):
        # Start states draw their order from the Mallows prior (the same
        # scheme the training loop's initializer uses). A fully reversed
        # start is an absorbing mode for the local move set (every adjacent
        # swap crosses a ~100 log-unit valley), so the attainable success
        # rate is about 0.91; the bound below sits 3 sigma under that and
        # still fails loudly for a sampler with broken moves or acceptance.
        k, n_frames = 3, 60
        truth = Segmentation(((0, 20), (1, 20), (2, 20)), k)
        true_labels = segmentation_to_labels(truth)
        probs = np.full((n_frames, k), 0.005)
        probs[np.arange(n_frames), true_labels] = 0.99
        m = MallowsModel.with_constant_rho(k, 1.0)
        lm = LengthModel.uniform(k)
        hits = 0
        for run in range(100):
            rng = np.random.default_rng(1000 + run)
            order = list(inversions_to_order(mallows_sample(m, rng)))
            lengths = sample_lengths(lm, order, n_frames, rng)
            start = Segmentation(tuple(zip(order, (int(x) for x in lengths))), k)
            out = sample_segmentation(probs, m, lm, start, rng, sweeps=50)
            agree = (segmentation_to_labels(out) == true_labels).mean()
            if agree >= 0.95:
                hits += 1
        assert hits >= 82

    def test_long_run_matches_posterior(self):
        probs, m, lm, seg = self._setup(seed=12)
        states = all_segmentations(6, 2)
        log_post = np.array(
            [segmentation_log_joint(s, probs, m, lm) for s in states]
        )
        post = np.exp(log_post - log_post.max())
        post /= post.sum()
        index = {s: i for i, s in enumerate(states)}
        rng = np.random.default_rng(13)
        counts = np.zeros(len(states))
        current = seg
        for _ in range(20000):
            current = sample_segmentation(probs, m, lm, current, rng, sweeps=1)
            counts[index[current]] += 1
        emp = counts / counts.sum()
        tv = 0.5 * np.abs(emp - post).sum()
        assert tv < 0.1

    def test_deterministic(self):
        probs, m, lm, seg = self._setup(seed=14)
        a = sample_segmentation(probs, m, lm, seg, np.random.default_rng(5), sweeps=40)
        b = sample_segmentation(probs, m, lm, seg, np.random.default_rng(5), sweeps=40)
        assert a == b
