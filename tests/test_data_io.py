import re

import numpy as np
import pytest

from segrsd.appearance import init_appearance, init_dense
from segrsd.core import Corpus, VideoSequence, segmentation_to_labels
from segrsd.data_io import (
    SynthConfig,
    load_corpus,
    load_rsd_checkpoint,
    load_seg_checkpoint,
    load_video,
    save_corpus,
    save_rsd_checkpoint,
    save_seg_checkpoint,
    save_video,
    split_corpus,
    synth_generate,
    _read_container,
    _RSD_META,
    _SEG_META,
)
from segrsd.errors import (
    BadMagicError,
    DataFormatError,
    MissingFileError,
    ShapeMismatchError,
    TruncatedFileError,
    VersionError,
)
from segrsd.rsd import init_rsd
from segrsd.segtrain import SegCheckpoint
from segrsd.temporal import LengthModel, MallowsModel

from conftest import make_video


class TestVideoFiles:
    def test_round_trip(self, tmp_path):
        video = make_video("v7", n_frames=13, n_features=5, period=2.5)
        path = tmp_path / "v7.seq"
        save_video(video, path)
        back = load_video(path)
        assert back.id == "v7"
        assert back.frame_period_s == 2.5
        np.testing.assert_array_equal(back.features, video.features)
        assert back.phase_labels is None

    def test_round_trip_with_phases(self, tmp_path):
        phases = np.array([0, 0, 1, 1, 2, 2, 2, 1])
        video = make_video("p", n_frames=8, n_features=3, phases=phases)
        path = tmp_path / "p.seq"
        save_video(video, path)
        back = load_video(path, video_id="renamed")
        assert back.id == "renamed"
        np.testing.assert_array_equal(back.phase_labels, phases)
        np.testing.assert_array_equal(back.features, video.features)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFileError):
            load_video(tmp_path / "nope.seq")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.seq"
        save_video(make_video(), path)
        raw = bytearray(path.read_bytes())
        raw[:8] = b"WRONGMAG"
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            load_video(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "cut.seq"
        save_video(make_video(n_frames=10, n_features=4), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 17])
        with pytest.raises(TruncatedFileError):
            load_video(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "long.seq"
        save_video(make_video(), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DataFormatError):
            load_video(path)

    def test_save_twice_byte_identical(self, tmp_path):
        video = make_video(n_frames=6, n_features=2, phases=np.zeros(6, dtype=int))
        a, b = tmp_path / "a.seq", tmp_path / "b.seq"
        save_video(video, a)
        save_video(video, b)
        assert a.read_bytes() == b.read_bytes()


class TestCorpusDirectories:
    def test_round_trip(self, tmp_path, tiny_corpus):
        save_corpus(tiny_corpus, tmp_path / "corpus")
        back = load_corpus(tmp_path / "corpus")
        assert back.split == tiny_corpus.split
        for orig in tiny_corpus.videos:
            again = back.video(orig.id)
            np.testing.assert_array_equal(again.features, orig.features)

    def test_manifest_sorted_by_id(self, tmp_path, tiny_corpus):
        save_corpus(tiny_corpus, tmp_path / "c")
        lines = (tmp_path / "c" / "manifest.txt").read_text().splitlines()
        ids = [line.split()[0] for line in lines]
        assert ids == sorted(ids)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingFileError):
            load_corpus(tmp_path)

    def test_malformed_manifest_line(self, tmp_path, tiny_corpus):
        save_corpus(tiny_corpus, tmp_path / "c")
        manifest = tmp_path / "c" / "manifest.txt"
        manifest.write_text(manifest.read_text() + "only_two fields\n")
        with pytest.raises(DataFormatError):
            load_corpus(tmp_path / "c")

    def test_csv_videos(self, tmp_path):
        root = tmp_path / "c"
        root.mkdir()
        (root / "a.csv").write_text(
            "f0,f1,phase\n0.5,1.0,0\n0.25,2.0,0\n0.125,3.0,1\n"
        )
        (root / "b.csv").write_text("f0,f1\n1.5,2.5\n3.5,4.5\n")
        (root / "manifest.txt").write_text("a a.csv train\nb b.csv test\n")
        corpus = load_corpus(root)
        a = corpus.video("a")
        np.testing.assert_array_equal(
            a.features, [[0.5, 1.0], [0.25, 2.0], [0.125, 3.0]]
        )
        np.testing.assert_array_equal(a.phase_labels, [0, 0, 1])
        assert corpus.video("b").phase_labels is None


class TestSplitCorpus:
    def _videos(self, n):
        return [make_video(f"v{i:03d}", n_frames=5, seed=i) for i in range(n)]

    def test_exact_proportions(self):
        corpus = split_corpus(self._videos(80), seed=0)
        counts = {s: sum(1 for v in corpus.split.values() if v == s)
                  for s in ("train", "val", "test")}
        assert counts == {"train": 50, "val": 10, "test": 20}

    def test_minimum_size(self):
        corpus = split_corpus(self._videos(8), seed=1)
        counts = [sum(1 for v in corpus.split.values() if v == s)
                  for s in ("train", "val", "test")]
        assert counts == [5, 1, 2]

    def test_largest_remainder_tie_goes_to_train(self):
        corpus = split_corpus(self._videos(20), seed=2)
        counts = [sum(1 for v in corpus.split.values() if v == s)
                  for s in ("train", "val", "test")]
        assert counts == [13, 2, 5]

    def test_partition_and_determinism(self):
        videos = self._videos(23)
        a = split_corpus(videos, seed=5)
        b = split_corpus(videos, seed=5)
        assert a.split == b.split
        assert set(a.split) == {v.id for v in videos}

    def test_too_few_videos(self):
        with pytest.raises(ValueError):
            split_corpus(self._videos(7))


class TestSynthGenerate:
    def test_reproducible(self):
        config = SynthConfig(n_videos=8, seed=3)
        a, truth_a = synth_generate(config)
        b, truth_b = synth_generate(config)
        assert a.split == b.split
        for va, vb in zip(a.videos, b.videos):
            np.testing.assert_array_equal(va.features, vb.features)
            np.testing.assert_array_equal(va.phase_labels, vb.phase_labels)
        assert truth_a == truth_b

    def test_duration_mean(self):
        config = SynthConfig(n_videos=400, k_true=3, n_features=3,
                             duration_mean_min=3.0, duration_jitter=0.2, seed=0)
        corpus, _ = synth_generate(config)
        durations = [v.duration_min for v in corpus.videos]
        # uniform jitter: sd = 3 * 0.2 / sqrt(3), 3 sigma of the mean ~ 0.052
        assert np.mean(durations) == pytest.approx(3.0, abs=0.06)
        assert np.std(durations) > 0.2

    def test_zero_noise_lands_on_centers(self):
        config = SynthConfig(n_videos=8, k_true=4, n_features=6,
                             noise_sigma=0.0, cluster_separation=2.5, seed=1)
        corpus, _ = synth_generate(config)
        for v in corpus.videos:
            expected = np.zeros((v.n_frames, 6))
            expected[np.arange(v.n_frames), v.phase_labels] = 2.5
            np.testing.assert_array_equal(v.features, expected)

    def test_zero_jitter_fixes_frame_count(self):
        config = SynthConfig(n_videos=8, duration_jitter=0.0,
                             duration_mean_min=2.0, seed=2)
        corpus, _ = synth_generate(config)
        assert {v.n_frames for v in corpus.videos} == {120}

    def test_high_skip_keeps_two_subactivities(self):
        config = SynthConfig(n_videos=30, k_true=5, skip_prob=0.9, seed=4)
        corpus, truth = synth_generate(config)
        for v in corpus.videos:
            assert len(set(v.phase_labels.tolist())) >= 2
            assert len(truth[v.id].segments) >= 2

    def test_labels_match_truth(self):
        config = SynthConfig(n_videos=8, seed=5)
        corpus, truth = synth_generate(config)
        for v in corpus.videos:
            np.testing.assert_array_equal(
                v.phase_labels, segmentation_to_labels(truth[v.id])
            )
            assert truth[v.id].n_frames == v.n_frames

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(k_true=5, n_features=3)
        with pytest.raises(ValueError):
            SynthConfig(duration_jitter=1.0)
        with pytest.raises(ValueError):
            SynthConfig(skip_prob=-0.1)


def _seg_checkpoint(seed=0, k=3, d=4):
    rng = np.random.default_rng(seed)
    app = init_appearance(rng, d, [6], k, context_lambda=0.85)
    app.trainable_mask = [False, True]
    mallows = MallowsModel(k, np.array([1.5, 0.7]), nu0=0.1, r0=1.0)
    lengths = LengthModel(k, np.array([0.5, 0.3, 0.2]), alpha0=1.0)
    labels = {
        "v0": rng.integers(0, k, size=11).astype(np.int64),
        "v1": rng.integers(0, k, size=7).astype(np.int64),
    }
    return SegCheckpoint(
        iteration=4, appearance=app, mallows=mallows, lengths=lengths,
        labels=labels, tc_score=0.875,
    )


class TestSegCheckpoint:
    def test_round_trip(self, tmp_path):
        ckpt = _seg_checkpoint()
        path = tmp_path / "seg.ckpt"
        save_seg_checkpoint(ckpt, path)
        back = load_seg_checkpoint(path)
        assert back.iteration == 4
        assert back.tc_score == 0.875
        assert back.appearance.context_lambda == 0.85
        assert back.appearance.trainable_mask == [False, True]
        for la, lb in zip(back.appearance.layers, ckpt.appearance.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)
        np.testing.assert_array_equal(back.mallows.rho, ckpt.mallows.rho)
        assert back.mallows.nu0 == 0.1 and back.mallows.r0 == 1.0
        np.testing.assert_array_equal(back.lengths.theta, ckpt.lengths.theta)
        assert set(back.labels) == {"v0", "v1"}
        for vid in back.labels:
            np.testing.assert_array_equal(back.labels[vid], ckpt.labels[vid])

    def test_save_twice_byte_identical(self, tmp_path):
        ckpt = _seg_checkpoint()
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_seg_checkpoint(ckpt, a)
        save_seg_checkpoint(ckpt, b)
        assert a.read_bytes() == b.read_bytes()

    def test_version_rejected(self, tmp_path):
        path = tmp_path / "seg.ckpt"
        save_seg_checkpoint(_seg_checkpoint(), path)
        raw = bytearray(path.read_bytes())
        raw[8] = 99  # little-endian version field starts right after the magic
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionError):
            load_seg_checkpoint(path)

    def test_kind_mismatch(self, tmp_path):
        path = tmp_path / "seg.ckpt"
        save_seg_checkpoint(_seg_checkpoint(), path)
        with pytest.raises(DataFormatError):
            load_rsd_checkpoint(path)

    def test_shape_checks(self, tmp_path):
        path = tmp_path / "seg.ckpt"
        save_seg_checkpoint(_seg_checkpoint(k=3, d=4), path)
        # each message names the file, as evaluate may read several
        with pytest.raises(ShapeMismatchError, match=re.escape(f"{path}: expects 4-dim")):
            load_seg_checkpoint(path, expect_feature_dim=5)
        load_seg_checkpoint(path, expect_feature_dim=4)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(BadMagicError):
            load_seg_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "seg.ckpt"
        save_seg_checkpoint(_seg_checkpoint(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 5])
        with pytest.raises(TruncatedFileError):
            load_seg_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "seg.ckpt"
        save_seg_checkpoint(_seg_checkpoint(), path)
        path.write_bytes(path.read_bytes() + b"zz")
        with pytest.raises(DataFormatError):
            load_seg_checkpoint(path)

    def test_missing(self, tmp_path):
        with pytest.raises(MissingFileError):
            load_seg_checkpoint(tmp_path / "gone.ckpt")

    def test_metadata_keys_are_the_table_keys(self, tmp_path):
        path = tmp_path / "seg.ckpt"
        save_seg_checkpoint(_seg_checkpoint(), path)
        assert _read_container(path)[1].keys() == _SEG_META.keys() | {"arrays"}


class TestRsdCheckpoint:
    def _params(self, seed=0):
        rng = np.random.default_rng(seed)
        params = init_rsd(rng, 5, hidden_dim=6, head_dim=4,
                          aux_kind="classes", aux_dim=3,
                          embed=[init_dense(rng, 5, 7), init_dense(rng, 7, 6)])
        params.trainable_mask = [False, True, True, True, True]
        return params

    def test_round_trip(self, tmp_path):
        params = self._params()
        path = tmp_path / "rsd.ckpt"
        save_rsd_checkpoint(params, path, meta_extra={"pipeline": "regularization"})
        back, meta = load_rsd_checkpoint(path)
        assert meta["pipeline"] == "regularization"
        assert back.aux_kind == "classes"
        assert back.context_lambda == params.context_lambda
        assert back.output_scale == params.output_scale
        assert back.trainable_mask == params.trainable_mask
        for la, lb in zip(back.layer_list(), params.layer_list()):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)

    def test_no_aux_round_trip(self, tmp_path):
        params = init_rsd(np.random.default_rng(1), 4)
        path = tmp_path / "rsd.ckpt"
        save_rsd_checkpoint(params, path)
        back, meta = load_rsd_checkpoint(path, expect_feature_dim=4)
        assert back.aux_head is None
        assert meta["aux_kind"] == "none"

    @pytest.mark.parametrize("extra", [
        {}, {"loss": "corr"},
        {"pipeline": "regularization", "aux": "uniform", "loss": "corr", "seed": 3},
    ])
    def test_metadata_keys_are_the_table_keys(self, tmp_path, extra):
        # the table drives the save as well as the load: its keys, the extras
        # given and the array list, nothing else
        path = tmp_path / "rsd.ckpt"
        save_rsd_checkpoint(self._params(), path, meta_extra=extra)
        assert _read_container(path)[1].keys() == _RSD_META.keys() | extra.keys() | {"arrays"}

    @pytest.mark.parametrize("extra", [{"aux_kind": "sneaky"}, {"note": "x"}, {"loss": "l2"}])
    def test_reserved_meta_keys(self, tmp_path, extra):
        # a table key, a key outside the extras table, or an extra that fails its check
        path = tmp_path / "x.ckpt"
        with pytest.raises(ValueError):
            save_rsd_checkpoint(self._params(), path, meta_extra=extra)
        assert not path.exists()

    def test_feature_dim_check(self, tmp_path):
        path = tmp_path / "rsd.ckpt"
        save_rsd_checkpoint(self._params(), path)
        with pytest.raises(ShapeMismatchError, match=re.escape(f"{path}: expects 5-dim")):
            load_rsd_checkpoint(path, expect_feature_dim=9)

    def test_save_twice_byte_identical(self, tmp_path):
        params = self._params()
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_rsd_checkpoint(params, a, meta_extra={"loss": "corr"})
        save_rsd_checkpoint(params, b, meta_extra={"loss": "corr"})
        assert a.read_bytes() == b.read_bytes()

    def test_kind_mismatch(self, tmp_path):
        path = tmp_path / "rsd.ckpt"
        save_rsd_checkpoint(self._params(), path)
        with pytest.raises(DataFormatError):
            load_seg_checkpoint(path)
