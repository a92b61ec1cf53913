import numpy as np
import pytest

from segrsd.core import VideoSequence
from segrsd.evaluation import (
    corpus_label_accuracy,
    format_csv,
    format_table,
    label_match_accuracy,
    mae_minutes,
    summarize,
)

from conftest import make_video


class TestMaeMinutes:
    def test_constant_zero_oracle(self):
        # 600 frames at 1 fps: remaining runs 10.0, 9.983..., down to 1/60,
        # so a constant zero prediction averages to 601/120 minutes off
        video = make_video("v", n_frames=600, n_features=2, period=1.0)
        got = mae_minutes({"v": np.zeros(600)}, [video])
        assert got == pytest.approx(601.0 / 120.0, abs=1e-12)

    def test_perfect_prediction(self):
        video = make_video("v", n_frames=40)
        assert mae_minutes({"v": video.remaining_min()}, [video]) == 0.0

    def test_macro_average(self):
        # per-video means first: a long video must not dominate
        a = make_video("a", n_frames=10, period=60.0)
        b = make_video("b", n_frames=1000, period=60.0)
        preds = {
            "a": a.remaining_min() + 1.0,
            "b": b.remaining_min(),
        }
        assert mae_minutes(preds, [a, b]) == pytest.approx(0.5)

    def test_shape_validation(self):
        video = make_video("v", n_frames=10)
        with pytest.raises(ValueError):
            mae_minutes({"v": np.zeros(9)}, [video])
        with pytest.raises(ValueError):
            mae_minutes({}, [])

    def test_missing_video_id(self):
        video = make_video("v", n_frames=5)
        with pytest.raises(KeyError):
            mae_minutes({"other": np.zeros(5)}, [video])


class TestLabelMatchAccuracy:
    def test_pin(self):
        pred = np.array([0, 0, 1, 1, 2, 2])
        ref = np.array([0, 0, 0, 0, 1, 1])
        mapping, acc = label_match_accuracy(pred, ref)
        assert mapping == {0: 0, 1: 0, 2: 1}
        assert acc == 1.0

    def test_identity(self):
        labels = np.array([1, 1, 0, 2, 2])
        mapping, acc = label_match_accuracy(labels, labels)
        assert acc == 1.0
        assert mapping == {0: 0, 1: 1, 2: 2}

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(0)
        ref = rng.integers(0, 4, size=60)
        perm = np.array([2, 3, 1, 0])
        _, acc = label_match_accuracy(perm[ref], ref)
        assert acc == 1.0

    def test_tie_prefers_smaller_reference(self):
        pred = np.array([0, 0])
        ref = np.array([5, 2])
        mapping, acc = label_match_accuracy(pred, ref)
        assert mapping == {0: 2}
        assert acc == 0.5

    def test_partial_match(self):
        pred = np.array([0, 0, 0, 1])
        ref = np.array([0, 0, 1, 1])
        mapping, acc = label_match_accuracy(pred, ref)
        assert mapping == {0: 0, 1: 1}
        assert acc == pytest.approx(0.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            label_match_accuracy(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            label_match_accuracy(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            label_match_accuracy(np.zeros(0, dtype=int), np.zeros(0, dtype=int))

    # sparse values, negative and huge ones (a table indexed by value would
    # need exabytes or overflow int64), floats, and many distinct labels
    @pytest.mark.parametrize("pred_values, ref_values", [
        ([0, 3, 4, 9], [1, 2, 7]),
        ([-5, 0, 2], [-1, 10**8, 2**62]),
        ([0.0, 1.5, 2.0], [3.0, -1.0]),
        (list(range(150)), list(range(0, 300, 2))),
    ])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_unique_reference(self, pred_values, ref_values, seed):
        # the per-label np.unique loop it replaces
        rng = np.random.default_rng(seed)
        pred = rng.choice(pred_values, size=200)
        ref = rng.choice(ref_values, size=200)
        want, correct = {}, 0
        for p in np.unique(pred):
            refs, counts = np.unique(ref[pred == p], return_counts=True)
            want[int(p)] = int(refs[np.argmax(counts)])
            correct += int(counts.max())
        assert label_match_accuracy(pred, ref) == (want, correct / 200)


class TestCorpusLabelAccuracy:
    def test_shared_mapping_is_stricter(self):
        # per-video mappings could flip labels; the pooled mapping cannot
        pred = {"a": np.array([0, 0, 1, 1]), "b": np.array([1, 1, 0, 0])}
        ref = {"a": np.array([0, 0, 1, 1]), "b": np.array([0, 0, 1, 1])}
        acc = corpus_label_accuracy(pred, ref)
        assert acc == pytest.approx(0.5)

    def test_perfect(self):
        pred = {"a": np.array([2, 2, 0]), "b": np.array([0, 1])}
        acc = corpus_label_accuracy(pred, pred)
        assert acc == 1.0

    def test_id_mismatch(self):
        with pytest.raises(ValueError):
            corpus_label_accuracy({"a": np.zeros(2)}, {"b": np.zeros(2)})


class TestSummarize:
    def test_single_value(self):
        assert summarize([0.123456]) == "0.1235"

    def test_mean_and_spread(self):
        out = summarize([1.0, 2.0, 3.0])
        assert out == "2.0000 (±1.0000)"

    def test_sample_std(self):
        out = summarize([0.0, 1.0])
        assert "0.5000" in out and "0.7071" in out


class TestTables:
    def test_format_table_alignment_and_missing(self):
        rows = ["single", "regularize"]
        cols = ["smoothl1", "corr"]
        cells = {
            ("single", "smoothl1"): "1.2345",
            ("regularize", "corr"): "0.9876 (±0.0100)",
        }
        text = format_table(rows, cols, cells)
        lines = text.splitlines()
        assert len(lines) >= 3
        assert "smoothl1" in lines[0] and "corr" in lines[0]
        assert any("1.2345" in line for line in lines)
        assert any("-" in line for line in lines)
        widths = {len(line) for line in lines if line.strip()}
        assert len(widths) == 1

    def test_format_csv(self):
        rows = ["a"]
        cols = ["x", "y"]
        cells = {("a", "x"): "1.0"}
        text = format_csv(rows, cols, cells)
        lines = text.strip().splitlines()
        assert lines[0] == ",x,y"
        assert lines[1].startswith("a,1.0")
