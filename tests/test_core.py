import numpy as np
import pytest

from segrsd.core import (
    Corpus,
    Segmentation,
    VideoSequence,
    derive_seed,
    derived_rng,
    segmentation_to_labels,
)
from segrsd.errors import DataFormatError

from conftest import make_video


class TestSegmentationToLabels:
    def test_direct_expansion(self):
        seg = Segmentation(((0, 2), (1, 2)), 2)
        assert segmentation_to_labels(seg).tolist() == [0, 0, 1, 1]

    def test_reordered(self):
        seg = Segmentation(((1, 1), (0, 3)), 2)
        assert segmentation_to_labels(seg).tolist() == [1, 0, 0, 0]

    def test_unit_lengths(self):
        seg = Segmentation(((2, 1), (0, 1), (1, 1)), 3)
        assert segmentation_to_labels(seg).tolist() == [2, 0, 1]

    def test_length_equals_total(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            order = rng.permutation(k)
            lengths = rng.integers(1, 7, size=k)
            seg = Segmentation(tuple(zip(order.tolist(), lengths.tolist())), k)
            assert len(segmentation_to_labels(seg)) == lengths.sum()


class TestSegmentation:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            Segmentation(((0, 2), (0, 2)), 2)

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            Segmentation(((0, 0), (1, 2)), 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Segmentation(((0, 1), (5, 1)), 2)

    def test_properties(self):
        seg = Segmentation(((1, 3), (0, 2)), 3)
        assert seg.order == (1, 0)
        assert seg.lengths == (3, 2)
        assert seg.n_frames == 5


class TestVideoSequence:
    def test_rejects_single_frame(self):
        with pytest.raises(ValueError):
            VideoSequence(id="x", features=np.zeros((1, 3)))

    def test_rejects_non_finite(self):
        feats = np.zeros((4, 2))
        feats[1, 1] = np.nan
        with pytest.raises(ValueError):
            VideoSequence(id="x", features=feats)

    def test_rejects_phase_length_mismatch(self):
        with pytest.raises(ValueError):
            VideoSequence(
                id="x", features=np.zeros((4, 2)), phase_labels=np.zeros(3, dtype=int)
            )

    def test_time_accessors(self):
        v = VideoSequence(id="x", features=np.zeros((120, 2)), frame_period_s=1.0)
        assert v.duration_min == pytest.approx(2.0)
        assert v.elapsed_min()[0] == 0.0
        assert v.elapsed_min()[-1] == pytest.approx(119 / 60)
        np.testing.assert_allclose(
            v.remaining_min(), v.duration_min - v.elapsed_min()
        )

    def test_features_read_only(self):
        v = make_video()
        with pytest.raises(ValueError):
            v.features[0, 0] = 9.0


class TestCorpus:
    def test_requires_partition(self):
        videos = [make_video("a"), make_video("b")]
        with pytest.raises(ValueError):
            Corpus(videos, {"a": "train"})

    def test_rejects_unknown_split_name(self):
        videos = [make_video("a")]
        with pytest.raises(ValueError):
            Corpus(videos, {"a": "holdout"})

    def test_requires_uniform_dims(self):
        videos = [make_video("a", n_features=3), make_video("b", n_features=4)]
        with pytest.raises(ValueError):
            Corpus(videos, {"a": "train", "b": "train"})

    def test_accessors(self, tiny_corpus):
        assert tiny_corpus.feature_dim == 4
        assert [v.id for v in tiny_corpus.by_split("train")] == ["v0", "v1"]
        assert tiny_corpus.video("v2").id == "v2"

    def test_check_labels_required_videos(self, tiny_corpus):
        labels = {"v0": np.zeros(15), "v2": np.zeros(17)}
        tiny_corpus.check_labels(labels, "ckpt")
        tiny_corpus.check_labels(labels, "ckpt", ["v2", "v0"])
        with pytest.raises(DataFormatError) as err:
            tiny_corpus.check_labels(labels, "ckpt", ["v3", "v0", "v1"])
        assert str(err.value) == "ckpt lacks labels for videos ['v3', 'v1']"

    def test_check_labels_counts_before_coverage(self, tiny_corpus):
        with pytest.raises(DataFormatError, match="label counts differ"):
            tiny_corpus.check_labels({"v0": np.zeros(14)}, "ckpt", ["v1"])


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(3, "x", 1) == derive_seed(3, "x", 1)

    def test_distinct_streams(self):
        seeds = {derive_seed(0, "sample", i) for i in range(100)}
        assert len(seeds) == 100

    def test_rng_reproducible(self):
        a = derived_rng(7, "stream").standard_normal(5)
        b = derived_rng(7, "stream").standard_normal(5)
        np.testing.assert_array_equal(a, b)
