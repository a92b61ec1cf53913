import ast
import json
import os
import struct
import subprocess
import sys
from operator import delitem
from pathlib import Path

import numpy as np
import pytest

import segrsd
from segrsd.cli import _config_of, build_parser, main
from segrsd.data_io import (
    _KIND_SEG,
    SynthConfig,
    _read_container,
    _write_container,
    load_rsd_checkpoint,
    load_seg_checkpoint,
)
from segrsd.segtrain import SegTrainConfig


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One small corpus pushed through synth, segment and two rsd trainings."""
    root = tmp_path_factory.mktemp("cli")
    corpus = str(root / "corpus")
    assert main([
        "synth", "--out", corpus, "--videos", "8", "--k", "3", "--d", "4",
        "--duration-mean", "0.8", "--noise", "0.5", "--seed", "0",
    ]) == 0
    seg_out = str(root / "seg")
    assert main([
        "segment", "--corpus", corpus, "--out", seg_out, "--k", "3",
        "--iterations", "2", "--select", "1:2", "--sweeps", "5",
        "--epochs", "2", "--hidden", "8", "--tc-epochs", "2", "--seed", "0",
    ]) == 0
    single_out = str(root / "single")
    assert main([
        "train-rsd", "--corpus", corpus, "--out", single_out,
        "--pipeline", "single", "--epochs", "3", "--hidden", "8", "--seed", "0",
    ]) == 0
    feature_out = str(root / "feature")
    assert main([
        "train-rsd", "--corpus", corpus, "--out", feature_out,
        "--pipeline", "feature", "--aux", "seg",
        "--checkpoint", f"{seg_out}/segmentation.ckpt",
        "--epochs", "3", "--hidden", "8", "--seed", "0",
    ]) == 0
    assert main([
        "train-rsd", "--corpus", corpus, "--out", str(root / "regularize"),
        "--pipeline", "regularize", "--aux", "uniform",
        "--epochs", "3", "--hidden", "8", "--seed", "0",
    ]) == 0
    return root


class TestEndToEnd:
    def test_synth_writes_manifest(self, workspace):
        manifest = workspace / "corpus" / "manifest.txt"
        assert manifest.exists()
        assert len(manifest.read_text().splitlines()) == 8

    def test_segment_outputs(self, workspace):
        ckpt = load_seg_checkpoint(workspace / "seg" / "segmentation.ckpt")
        assert ckpt.iteration in (1, 2)
        report = (workspace / "seg" / "segment_report.txt").read_text()
        lines = report.strip().splitlines()
        assert lines[0].startswith("iter=1 tc=")
        assert lines[-1].startswith("selected_iteration=")

    def test_train_rsd_outputs(self, workspace):
        path = workspace / "single" / "rsd_single_none_smoothl1.ckpt"
        params, meta = load_rsd_checkpoint(path)
        assert meta["pipeline"] == "single_task"
        assert meta["aux"] == "none"
        report = workspace / "single" / "rsd_single_none_smoothl1_report.txt"
        lines = report.read_text().strip().splitlines()
        assert lines[0].startswith("epoch=0 loss=")
        assert lines[-2].startswith("test_mae=")
        assert lines[-1].startswith("naive_mae=")

    def test_feature_pipeline_reuses_seg_embedding(self, workspace):
        seg = load_seg_checkpoint(workspace / "seg" / "segmentation.ckpt")
        params, meta = load_rsd_checkpoint(
            workspace / "feature" / "rsd_feature_seg_smoothl1.ckpt"
        )
        assert meta["aux"] == "learned_seg"
        import numpy as np
        np.testing.assert_array_equal(
            params.embed[0].weights, seg.appearance.layers[0].weights
        )

    def test_evaluate(self, workspace):
        out = workspace / "eval"
        code = main([
            "evaluate", "--corpus", str(workspace / "corpus"), "--out", str(out),
            "--models",
            str(workspace / "single" / "rsd_single_none_smoothl1.ckpt"),
            str(workspace / "feature" / "rsd_feature_seg_smoothl1.ckpt"),
            str(workspace / "seg" / "segmentation.ckpt"),
        ])
        assert code == 0
        report = (out / "evaluate_report.txt").read_text()
        assert report.startswith("split=test\n")
        assert "seg_tc=" in report
        assert "seg_label_acc=" in report
        assert "naive_mae=" in report
        assert "single_task" in report and "feature_extraction" in report
        csv = (out / "evaluate_report.csv").read_text()
        assert csv.splitlines()[0].startswith(",")


def test_report_lines_pinned(tmp_path, capsys):
    # the 6-decimal figures of a fixed-seed run, copied from an earlier
    # version: a change to what segmentation or the feature pipeline
    # computes moves them. Iteration 1 trains the softmax head only and the
    # feature pipeline freezes the whole embedding.
    corpus, seg = str(tmp_path / "corpus"), str(tmp_path / "seg")
    assert main([
        "synth", "--out", corpus, "--videos", "8", "--k", "3", "--d", "4",
        "--duration-mean", "0.8", "--noise", "0.5", "--seed", "1",
    ]) == 0
    capsys.readouterr()
    assert main([
        "segment", "--corpus", corpus, "--out", seg, "--k", "3", "--iterations", "2",
        "--select", "1:2", "--sweeps", "5", "--epochs", "2", "--hidden", "8",
        "--tc-epochs", "2", "--seed", "1",
    ]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == [
        "iter=1 ce=1.057304 tc=0.990476",
        "iter=2 ce=0.911835 tc=0.952733",
    ]
    assert (tmp_path / "seg" / "segment_report.txt").read_text().splitlines()[:2] == [
        "iter=1 tc=0.990476",
        "iter=2 tc=0.952733",
    ]
    assert main([
        "train-rsd", "--corpus", corpus, "--out", str(tmp_path / "feature"),
        "--pipeline", "feature", "--aux", "seg", "--checkpoint", f"{seg}/segmentation.ckpt",
        "--epochs", "3", "--hidden", "8", "--seed", "1",
    ]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "epoch=0 loss=0.017166 val_mae=3.349937",
        "epoch=1 loss=0.009900 val_mae=3.188856",
        "epoch=2 loss=0.007800 val_mae=1.595555",
        "test_mae=1.0106 naive_mae=0.0564",
    ]


class TestDeterminism:
    def test_segment_reruns_byte_identical(self, workspace):
        args = lambda out: [
            "segment", "--corpus", str(workspace / "corpus"), "--out", out,
            "--k", "3", "--iterations", "2", "--select", "1:2", "--sweeps", "5",
            "--epochs", "2", "--hidden", "8", "--tc-epochs", "2", "--seed", "7",
        ]
        a, b = str(workspace / "det_a"), str(workspace / "det_b")
        assert main(args(a)) == 0
        assert main(args(b)) == 0
        pa, pb = workspace / "det_a", workspace / "det_b"
        assert (pa / "segmentation.ckpt").read_bytes() == (pb / "segmentation.ckpt").read_bytes()
        assert (pa / "segment_report.txt").read_text() == (pb / "segment_report.txt").read_text()

    def test_train_rsd_reruns_byte_identical(self, workspace):
        args = lambda out: [
            "train-rsd", "--corpus", str(workspace / "corpus"), "--out", out,
            "--pipeline", "regularize", "--aux", "uniform", "--loss", "corr",
            "--epochs", "3", "--hidden", "8", "--k", "3", "--seed", "5",
        ]
        a, b = str(workspace / "rsd_a"), str(workspace / "rsd_b")
        assert main(args(a)) == 0
        assert main(args(b)) == 0
        name = "rsd_regularize_uniform_corr.ckpt"
        pa, pb = workspace / "rsd_a", workspace / "rsd_b"
        assert (pa / name).read_bytes() == (pb / name).read_bytes()
        report = "rsd_regularize_uniform_corr_report.txt"
        assert (pa / report).read_text() == (pb / report).read_text()


def _edit_labels(arrays, change):
    """Replace the first video's labels lab by change(lab)."""
    name = min(name for name in arrays if name.startswith("labels."))
    arrays[name] = change(arrays[name])


def _misfit_layer(meta, arrays, count_key, prefix, at):
    """Insert a layer at index at of the layers saved under prefix, taking 7
    inputs where the layer before it gives 8, and count it in meta."""
    for i in range(meta[count_key] - 1, at - 1, -1):
        for part in ("w", "b"):
            arrays[f"{prefix}{i + 1}.{part}"] = arrays.pop(f"{prefix}{i}.{part}")
    arrays[f"{prefix}{at}.w"], arrays[f"{prefix}{at}.b"] = np.zeros((8, 7)), np.zeros(8)
    meta[count_key] += 1
    meta["trainable_mask"].append(True)


_SEG = "seg/segmentation.ckpt"
_SINGLE = "single/rsd_single_none_smoothl1.ckpt"
_EVALUATE = ["evaluate", "--models"]
_TRAIN_FROM_SEG = ["train-rsd", "--pipeline", "feature", "--aux", "seg", "--epochs", "1",
                   "--checkpoint"]
# (case, checkpoint in the workspace, edit(meta, arrays), what the error names);
# the workspace models embed to 8 dimensions from 4 features, K = 3
_ARRAY_EDITS = [
    ("rho-short", _SEG, lambda meta, arrays: arrays.update(rho=arrays["rho"][:-1]), "rho"),
    ("seg-bias-short", _SEG,
     lambda meta, arrays: arrays.update({"layer0.b": arrays["layer0.b"][:-1]}), "layer layer0"),
    ("seg-int-weights", _SEG,
     lambda meta, arrays: arrays.update({"layer0.w": arrays["layer0.w"].astype(np.int64)}),
     "layer layer0"),
    ("seg-embedding-chain", _SEG,
     lambda meta, arrays: _misfit_layer(meta, arrays, "n_layers", "layer", 1),
     "embedding layer 1 takes 7 inputs"),
    ("labels-negative", _SEG, lambda meta, arrays: _edit_labels(arrays, lambda lab: lab - 4),
     "labels of video 'v00"),
    ("labels-too-large", _SEG, lambda meta, arrays: _edit_labels(arrays, lambda lab: lab + 3),
     "labels of video 'v00"),
    ("labels-float", _SEG,
     lambda meta, arrays: _edit_labels(arrays, lambda lab: lab.astype(np.float64)),
     "labels of video 'v00"),
    ("rsd-bias-short", _SINGLE,
     lambda meta, arrays: arrays.update({"head1_0.b": arrays["head1_0.b"][:-1]}),
     "layer head1_0"),
    ("rsd-1d-weights", _SINGLE,
     lambda meta, arrays: arrays.update({"head2_0.w": arrays["head2_0.w"].ravel()}),
     "layer head2_0"),
    ("rsd-nan-bias", _SINGLE,
     lambda meta, arrays: arrays.update({"head2_0.b": np.array([np.nan])}),
     "layer head2_0 holds non-finite"),
    ("rsd-embedding-chain", _SINGLE,
     lambda meta, arrays: _misfit_layer(meta, arrays, "n_embed", "embed", 1),
     "embedding layer 1 takes 7 inputs"),
    ("rsd-aux-width", "regularize/rsd_regularize_uniform_smoothl1.ckpt",
     lambda meta, arrays: arrays.update({"aux_0.w": arrays["aux_0.w"][:, :-2]}),
     "aux head takes 6 inputs"),
]


class TestExitCodes:
    def test_usage_error_missing_flags(self, capsys):
        assert main(["segment"]) == 1
        capsys.readouterr()

    def test_usage_error_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_usage_error_bad_window(self, tmp_path, capsys):
        # selection window outside the iteration range is a usage problem
        assert main([
            "synth", "--out", str(tmp_path / "c"), "--videos", "8", "--k", "2",
            "--d", "2", "--duration-mean", "0.3",
        ]) == 0
        assert main([
            "segment", "--corpus", str(tmp_path / "c"), "--out", str(tmp_path / "s"),
            "--iterations", "2",
        ]) == 1
        capsys.readouterr()

    def test_usage_error_too_many_subactivities(self, workspace, capsys):
        # the exact TC search bounds K; the run stops before any training
        out = workspace / "seg_k17"
        code = main([
            "segment", "--corpus", str(workspace / "corpus"), "--out", str(out),
            "--k", "17",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_zero_iterations(self, workspace, capsys):
        # a run with no iterations can select no checkpoint: the user's mistake
        out = workspace / "seg_iter0"
        code = main([
            "segment", "--corpus", str(workspace / "corpus"), "--out", str(out),
            "--iterations", "0",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_negative_noise(self, tmp_path, capsys):
        # a standard deviation below zero is the user's mistake; no corpus is written
        out = tmp_path / "c"
        assert main([
            "synth", "--out", str(out), "--videos", "8", "--k", "2", "--d", "2",
            "--duration-mean", "0.3", "--noise", "-1",
        ]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("segment", "--hidden", "0"),
        ("segment", "--sweeps", "-1"),
        ("segment", "--tc-epochs", "-1"),
        ("segment", "--epochs", "-1"),
        ("train-rsd", "--hidden", "0"),
        ("train-rsd", "--k", "0"),
        ("train-rsd", "--epochs", "-1"),
        ("train-rsd", "--aux-weight", "nan"),
        ("train-rsd", "--aux-weight", "-5"),
        ("baselines", "--hidden", "0"),
        ("baselines", "--k", "0"),
        ("baselines", "--epochs", "-1"),
        ("baselines", "--aux-epochs", "-1"),
        ("baselines", "--repeats", "0"),
    ])
    def test_usage_error_out_of_range_flag(self, workspace, capsys, command, flag, value):
        # rejected while parsing: no training starts and no output is written
        out = workspace / f"bad_{command}{flag}"
        extra = ["--pipeline", "regularize", "--aux", "uniform"] if command == "train-rsd" else []
        code = main([
            command, "--corpus", str(workspace / "corpus"), "--out", str(out),
            *extra, flag, value,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and flag in err
        assert not out.exists()

    @pytest.mark.parametrize("pipeline, aux", [
        ("single", "none"), ("feature", "uniform"), ("pretrain", "uniform"),
    ])
    def test_usage_error_aux_weight_outside_regularize(self, tmp_path, capsys, pipeline, aux):
        # only joint training has an aux loss to weight; the flag is rejected
        # before the corpus loads, so a missing corpus is not reported
        out = tmp_path / "out"
        code = main([
            "train-rsd", "--corpus", str(tmp_path / "nowhere"), "--out", str(out),
            "--pipeline", pipeline, "--aux", aux, "--aux-weight", "2",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "--aux-weight" in err
        assert not out.exists()

    @pytest.mark.parametrize("pipeline, aux", [
        ("single", "none"), ("feature", "phase"), ("regularize", "seg"),
    ])
    def test_usage_error_k_outside_aux_uniform(self, tmp_path, capsys, pipeline, aux):
        # only the uniform aux task has classes to count; rejected before the
        # corpus loads, so a missing corpus is not reported
        out = tmp_path / "out"
        code = main([
            "train-rsd", "--corpus", str(tmp_path / "nowhere"), "--out", str(out),
            "--pipeline", pipeline, "--aux", aux, "--k", "4",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "--k" in err
        assert not out.exists()

    @pytest.mark.parametrize("pipeline, aux", [
        ("single", "none"), ("feature", "uniform"), ("regularize", "progress"),
    ])
    def test_usage_error_checkpoint_outside_aux_seg(self, tmp_path, capsys, pipeline, aux):
        # only the seg aux task reads a segmentation checkpoint; rejected
        # before the corpus loads and without opening the checkpoint
        out = tmp_path / "out"
        code = main([
            "train-rsd", "--corpus", str(tmp_path / "nowhere"), "--out", str(out),
            "--pipeline", pipeline, "--aux", aux,
            "--checkpoint", str(tmp_path / "nonexistent.ckpt"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "--checkpoint" in err
        assert not out.exists()

    def test_usage_error_aux_seg_without_checkpoint(self, tmp_path, capsys):
        # a flag rule like the three above: rejected before the corpus loads,
        # so a missing corpus is not reported
        out = tmp_path / "out"
        code = main([
            "train-rsd", "--corpus", str(tmp_path / "nowhere"), "--out", str(out),
            "--pipeline", "feature", "--aux", "seg", "--epochs", "1",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: --aux seg needs --checkpoint" in err
        assert not out.exists()

    @pytest.mark.parametrize("pipeline, aux", [
        ("feature", "none"), ("pretrain", "none"), ("regularize", "none"), ("single", "seg"),
    ])
    def test_usage_error_pipeline_aux_pair(self, tmp_path, capsys, pipeline, aux):
        # PipelineMode rejects the pair before the corpus loads, so a missing
        # corpus is not reported
        out = tmp_path / "out"
        code = main([
            "train-rsd", "--corpus", str(tmp_path / "nowhere"), "--out", str(out),
            "--pipeline", pipeline, "--aux", aux,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "manifest" not in err
        assert not out.exists()

    @pytest.mark.parametrize("duration", ["inf", "nan"])
    def test_usage_error_non_finite_duration(self, tmp_path, capsys, duration):
        out = tmp_path / "c"
        assert main(["synth", "--out", str(out), "--duration-mean", duration]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_data_error_missing_corpus(self, tmp_path, capsys):
        code = main([
            "segment", "--corpus", str(tmp_path / "nowhere"),
            "--out", str(tmp_path / "out"), "--iterations", "1", "--select", "1:1",
        ])
        assert code == 2
        capsys.readouterr()

    def test_data_error_missing_checkpoint(self, workspace, capsys):
        # a directory (segment's --out) is no more a checkpoint than a missing file
        for checkpoint in (workspace / "missing.ckpt", workspace / "seg"):
            code = main([
                "train-rsd", "--corpus", str(workspace / "corpus"),
                "--out", str(workspace / "should_not_exist"),
                "--pipeline", "feature", "--aux", "seg",
                "--checkpoint", str(checkpoint), "--epochs", "1",
            ])
            assert code == 2, checkpoint
            assert "error:" in capsys.readouterr().err

    def _checkpoint_error(self, workspace, tmp_path, capsys, command, checkpoint):
        """(exit code, stderr) of command, whose last flag takes checkpoint,
        on the workspace corpus; it must write no output directory."""
        out = tmp_path / "out"
        code = main([
            command[0], "--corpus", str(workspace / "corpus"), "--out", str(out),
            *command[1:], str(checkpoint),
        ])
        assert not out.exists()
        return code, capsys.readouterr().err

    def test_data_error_seg_checkpoint_without_metadata(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        _write_container(bad, _KIND_SEG, {}, [])
        code, err = self._checkpoint_error(workspace, tmp_path, capsys, _EVALUATE, bad)
        assert code == 2
        assert f"error: {bad}:" in err and "'n_layers'" in err

    def test_data_error_rsd_checkpoint_without_array(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        _rewrite_checkpoint(
            workspace / "single" / "rsd_single_none_smoothl1.ckpt", bad,
            lambda meta, arrays: arrays.pop("embed0.w"),
        )
        code, err = self._checkpoint_error(workspace, tmp_path, capsys, _EVALUATE, bad)
        assert code == 2
        assert f"error: {bad}:" in err and "'embed0.w'" in err

    @pytest.mark.parametrize("command, checkpoint, edit, named", [
        pytest.param(command, checkpoint, edit, named, id=f"{command[0]}-{name}")
        for name, checkpoint, edit, named in _ARRAY_EDITS
        for command in ([_EVALUATE, _TRAIN_FROM_SEG] if checkpoint == _SEG else [_EVALUATE])
    ])
    def test_data_error_checkpoint_arrays(self, workspace, tmp_path, capsys,
                                          command, checkpoint, edit, named):
        # an array that cannot be the model's, or labels that are not its
        # subactivities, are rejected as the file loads, not met later as a
        # numpy error, an IndexError, a nan in the report or a silent run
        bad = tmp_path / "bad.ckpt"
        _rewrite_checkpoint(workspace / checkpoint, bad, edit)
        code, err = self._checkpoint_error(workspace, tmp_path, capsys, command, bad)
        assert code == 2
        assert f"error: {bad}:" in err and named in err

    @pytest.mark.parametrize("checkpoint, key, value", [
        ("single/rsd_single_none_smoothl1.ckpt", "n_embed", 0),
        ("single/rsd_single_none_smoothl1.ckpt", "n_embed", "1"),
        ("single/rsd_single_none_smoothl1.ckpt", "n_embed", True),
        ("seg/segmentation.ckpt", "n_layers", "2"),
        ("single/rsd_single_none_smoothl1.ckpt", "context_lambda", "0.9"),
        ("single/rsd_single_none_smoothl1.ckpt", "context_lambda", 1.5),
        ("seg/segmentation.ckpt", "context_lambda", "0.9"),
        ("seg/segmentation.ckpt", "context_lambda", False),
        ("single/rsd_single_none_smoothl1.ckpt", "output_scale", "x"),
        ("single/rsd_single_none_smoothl1.ckpt", "output_scale", -1.0),
        ("single/rsd_single_none_smoothl1.ckpt", "output_scale", True),
        ("seg/segmentation.ckpt", "tc_score", "x"),
        ("seg/segmentation.ckpt", "video_ids", 5),
        ("seg/segmentation.ckpt", "iteration", "x"),
        ("seg/segmentation.ckpt", "nu0", "x"),
        ("seg/segmentation.ckpt", "r0", "x"),
        ("seg/segmentation.ckpt", "alpha0", -1.0),
        # one bool per layer: three in the RSD checkpoint, two in the seg one
        ("single/rsd_single_none_smoothl1.ckpt", "trainable_mask", "abc"),
        ("single/rsd_single_none_smoothl1.ckpt", "trainable_mask", [1, 0, "x"]),
        ("single/rsd_single_none_smoothl1.ckpt", "trainable_mask", [None, None, None]),
        ("seg/segmentation.ckpt", "trainable_mask", "ab"),
        ("seg/segmentation.ckpt", "trainable_mask", [1, 0]),
        ("single/rsd_single_none_smoothl1.ckpt", "trainable_mask", []),
        ("single/rsd_single_none_smoothl1.ckpt", "trainable_mask", [True, True]),
        ("seg/segmentation.ckpt", "trainable_mask", [True]),
        # a no-aux checkpoint's aux_kind, and seg's count, each named as itself
        ("single/rsd_single_none_smoothl1.ckpt", "aux_kind", 5),
        ("single/rsd_single_none_smoothl1.ckpt", "aux_kind", "bogus"),
        ("seg/segmentation.ckpt", "n_subactivities", "x"),
        ("seg/segmentation.ckpt", "n_subactivities", 2.0),
        # the extras the CLI saves beside an RSD model, which evaluate reads
        ("single/rsd_single_none_smoothl1.ckpt", "aux", "bogus"),
        ("single/rsd_single_none_smoothl1.ckpt", "aux", [1]),
        ("single/rsd_single_none_smoothl1.ckpt", "pipeline", "bogus"),
        ("single/rsd_single_none_smoothl1.ckpt", "pipeline", {}),
        ("single/rsd_single_none_smoothl1.ckpt", "loss", 7),
        ("single/rsd_single_none_smoothl1.ckpt", "seed", "x"),
    ])
    def test_data_error_checkpoint_scalar(self, workspace, tmp_path, capsys,
                                          checkpoint, key, value):
        # a wrong-typed or out-of-range value is rejected as the file loads,
        # not met later as a TypeError, a wrong reason, sign-flipped output or
        # a model silently left out of the report
        bad = tmp_path / "bad.ckpt"
        _rewrite_checkpoint(workspace / checkpoint, bad,
                            lambda meta, arrays: meta.update({key: value}))
        code, err = self._checkpoint_error(workspace, tmp_path, capsys, _EVALUATE, bad)
        assert code == 2
        assert f"error: {bad}: {key}" in err and repr(value) in err

    @pytest.mark.parametrize("edit, named", [
        (lambda meta: meta["arrays"][0].update(dtype="foo"), "array 'embed0.w': dtype"),
        (lambda meta: delitem(meta["arrays"][0], "shape"), "array 'embed0.w': shape"),
        (lambda meta: meta.update(arrays=5), "arrays is not a list"),
        (lambda meta: meta["arrays"][0].update(shape=["a", 2]), "array 'embed0.w': shape"),
        (lambda meta: meta["arrays"][0].update(dtype="object"), "array 'embed0.w': dtype"),
        (lambda meta: meta["arrays"][0].update(shape=[-1, 12]), "array 'embed0.w': shape"),
        # element counts past int64 are counted exactly, not wrapped to a
        # count the payload happens to hold
        (lambda meta: meta["arrays"][0].update(shape=[2**32, 2**32]),
         "truncated payload for embed0.w"),
        (lambda meta: meta["arrays"][0].update(shape=[2**62, 3]),
         "truncated payload for embed0.w"),
    ], ids=["dtype-foo", "no-shape", "arrays-5", "shape-str", "dtype-object", "shape-negative",
            "shape-2^64", "shape-3*2^62"])
    def test_data_error_checkpoint_array_descriptor(self, workspace, tmp_path, capsys,
                                                    edit, named):
        # a malformed array descriptor is a data error naming the file and
        # the array, not a traceback or a usage error
        bad = tmp_path / "bad.ckpt"
        _rewrite_metadata(workspace / "single" / "rsd_single_none_smoothl1.ckpt", bad, edit)
        code, err = self._checkpoint_error(workspace, tmp_path, capsys, _EVALUATE, bad)
        assert code == 2
        assert f"error: {bad}: {named}" in err

    def test_data_error_checkpoint_metadata_not_an_object(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        _rewrite_metadata(workspace / "single" / "rsd_single_none_smoothl1.ckpt", bad,
                          lambda meta: [1, 2])
        code, err = self._checkpoint_error(workspace, tmp_path, capsys, _EVALUATE, bad)
        assert code == 2
        assert f"error: {bad}: metadata is not a JSON object: [1, 2]" in err

    def _corpus_copy(self, workspace, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        for path in (workspace / "corpus").iterdir():
            (root / path.name).write_bytes(path.read_bytes())
        return root

    def test_data_error_non_finite_feature(self, workspace, tmp_path, capsys):
        root = self._corpus_copy(workspace, tmp_path)
        seq = root / "v000.seq"
        raw = bytearray(seq.read_bytes())
        start = 8 + struct.calcsize("<IIdB")  # magic, then the header, then frame 0
        raw[start:start + 8] = struct.pack("<d", float("nan"))
        seq.write_bytes(bytes(raw))
        code = main(["segment", "--corpus", str(root), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "v000.seq" in err and "non-finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [
        ["segment"],
        ["train-rsd", "--pipeline", "single"],
        ["evaluate", "--models", "nonexistent.ckpt"],
        ["baselines"],
    ], ids=lambda command: command[0])
    def test_data_error_no_training_videos(self, workspace, tmp_path, capsys, command):
        # every command trains on or measures against the train split: a
        # corpus without one is malformed, named as its manifest
        root = self._corpus_copy(workspace, tmp_path)
        manifest = root / "manifest.txt"
        manifest.write_text(manifest.read_text().replace(" train\n", " val\n"))
        out = tmp_path / "out"
        code = main([command[0], "--corpus", str(root), "--out", str(out), *command[1:]])
        assert code == 2
        assert f"error: {manifest}: corpus has no training videos" in capsys.readouterr().err
        assert not out.exists()

    def test_data_error_baselines_without_test_videos(self, workspace, tmp_path, capsys,
                                                      monkeypatch):
        # the grid reports on the test split: an empty one is rejected before
        # the first cell trains
        monkeypatch.setattr("segrsd.cli.train_rsd",
                            lambda *a, **k: pytest.fail("trained before checking the split"))
        root = self._corpus_copy(workspace, tmp_path)
        manifest = root / "manifest.txt"
        manifest.write_text(manifest.read_text().replace(" test\n", " val\n"))
        out = tmp_path / "out"
        code = main(["baselines", "--corpus", str(root), "--out", str(out), "--repeats", "1",
                     "--epochs", "1", "--aux-epochs", "1"])
        assert code == 2
        assert f"error: {root}: corpus has no videos in split 'test'" in capsys.readouterr().err
        assert not out.exists()

    def test_data_error_unknown_split(self, workspace, tmp_path, capsys):
        root = self._corpus_copy(workspace, tmp_path)
        manifest = root / "manifest.txt"
        manifest.write_text(manifest.read_text().replace(" train\n", " training\n", 1))
        code = main(["segment", "--corpus", str(root), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "manifest.txt" in err and "'training'" in err

    @pytest.mark.parametrize("text, needle", [
        ("f0,f1\n1,2\n3,x\n", "could not convert"),
        (None, "no such feature file"),
    ])
    def test_data_error_bad_csv_video(self, tmp_path, capsys, text, needle):
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "a.csv").write_text("f0,f1\n1,2\n3,4\n")
        if text is not None:
            (root / "b.csv").write_text(text)
        (root / "manifest.txt").write_text("a a.csv train\nb b.csv train\n")
        code = main(["segment", "--corpus", str(root), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "b.csv" in err and needle in err

    def test_data_error_evaluate_checkpoint_of_absent_videos(self, workspace, tmp_path, capsys):
        # the checkpoint labels a training video the corpus does not hold
        ckpt = load_seg_checkpoint(workspace / "seg" / "segmentation.ckpt")
        gone = sorted(ckpt.labels)[0]
        root = self._corpus_copy(workspace, tmp_path)
        manifest = root / "manifest.txt"
        manifest.write_text("".join(
            line for line in manifest.read_text().splitlines(keepends=True)
            if not line.startswith(f"{gone} ")
        ))
        code = main([
            "evaluate", "--corpus", str(root), "--out", str(tmp_path / "eval"),
            "--models", str(workspace / "seg" / "segmentation.ckpt"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and repr(gone) in err
        assert not (tmp_path / "eval").exists()

    def test_data_error_evaluate_checkpoint_of_other_lengths(self, workspace, tmp_path, capsys):
        # same video ids as the workspace corpus, other frame counts
        other = tmp_path / "corpus"
        assert main([
            "synth", "--out", str(other), "--videos", "8", "--k", "3", "--d", "4",
            "--duration-mean", "0.5", "--seed", "0",
        ]) == 0
        code = main([
            "evaluate", "--corpus", str(other), "--out", str(tmp_path / "eval"),
            "--models", str(workspace / "seg" / "segmentation.ckpt"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "frame counts" in err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("duration", ["0.6", "0.4"])
    def test_data_error_regularize_checkpoint_of_other_lengths(self, tmp_path, capsys, duration):
        # the aux targets are the checkpoint's labels: videos longer or shorter
        # than them are a data error naming the video, not an IndexError or a
        # run on labels cut at each video's end
        made = tmp_path / "made"
        assert main([
            "synth", "--out", str(made), "--videos", "8", "--k", "3", "--d", "4",
            "--duration-mean", "0.5", "--seed", "1",
        ]) == 0
        assert main([
            "segment", "--corpus", str(made), "--out", str(tmp_path / "seg"), "--k", "3",
            "--iterations", "1", "--select", "1:1",
        ]) == 0
        other = tmp_path / "other"
        assert main([
            "synth", "--out", str(other), "--videos", "8", "--k", "3", "--d", "4",
            "--duration-mean", duration, "--seed", "1",
        ]) == 0
        capsys.readouterr()
        out = tmp_path / "rsd"
        code = main([
            "train-rsd", "--corpus", str(other), "--out", str(out),
            "--pipeline", "regularize", "--aux", "seg",
            "--checkpoint", str(tmp_path / "seg" / "segmentation.ckpt"), "--epochs", "1",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "'v000'" in err and "frames" in err
        assert not out.exists()


def _rewrite_checkpoint(source, path, edit):
    """Write source's checkpoint container to path after edit(meta, arrays)."""
    kind, meta, arrays = _read_container(source)
    del meta["arrays"]  # _write_container lists the arrays it writes
    edit(meta, arrays)
    _write_container(path, kind, meta, list(arrays.items()))


def _rewrite_metadata(source, path, edit):
    """Write source's checkpoint container to path after edit(meta) of its
    metadata, array descriptors included, or with what edit returns, if not
    None, as the metadata; the payload bytes stay as they are."""
    raw = Path(source).read_bytes()
    fixed = 8 + struct.calcsize("<IBQ")
    (meta_len,) = struct.unpack("<Q", raw[fixed - 8:fixed])
    meta = json.loads(raw[fixed:fixed + meta_len])
    replaced = edit(meta)
    meta = meta if replaced is None else replaced
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(raw[:fixed - 8] + struct.pack("<Q", len(blob)) + blob + raw[fixed + meta_len:])


def test_parser_defaults_are_the_config_defaults():
    # synth and segment take every default from their config dataclass
    parser = build_parser()
    args = parser.parse_args(["synth", "--out", "x"])
    assert _config_of(args, SynthConfig) == SynthConfig()
    args = parser.parse_args(["segment", "--corpus", "c", "--out", "o"])
    assert _config_of(args, SegTrainConfig) == SegTrainConfig()


def test_parser_flags_set_their_config_fields():
    parser = build_parser()
    args = parser.parse_args([
        "synth", "--out", "x", "--videos", "9", "--k", "3", "--d", "7",
        "--duration-mean", "1.5", "--jitter", "0.1", "--sep", "2.5", "--noise", "0.5",
        "--skip-prob", "0.25", "--order-rho", "1.5", "--seed", "4",
    ])
    assert _config_of(args, SynthConfig) == SynthConfig(
        n_videos=9, k_true=3, n_features=7, duration_mean_min=1.5, duration_jitter=0.1,
        cluster_separation=2.5, noise_sigma=0.5, skip_prob=0.25, order_rho=1.5, seed=4,
    )
    args = parser.parse_args([
        "segment", "--corpus", "c", "--out", "o", "--k", "4", "--iterations", "3",
        "--select", "2:3", "--sweeps", "6", "--epochs", "2", "--hidden", "8",
        "--tc-epochs", "1", "--seed", "5",
    ])
    assert _config_of(args, SegTrainConfig) == SegTrainConfig(
        n_subactivities=4, iterations=3, epochs_per_iteration=2, selection_window=(2, 3),
        sweeps_per_iteration=6, hidden_dim=8, tc_pretrain_epochs=1, seed=5,
    )


class TestBaselines:
    def test_grid_report(self, workspace, capsys):
        out = workspace / "base"
        code = main([
            "baselines", "--corpus", str(workspace / "corpus"), "--out", str(out),
            "--repeats", "2", "--epochs", "2", "--hidden", "6", "--k", "3",
            "--aux-epochs", "2", "--seed", "0",
        ])
        assert code == 0
        capsys.readouterr()
        report = (out / "baselines_report.txt").read_text()
        assert "loss=smoothl1" in report and "loss=corr" in report
        assert "(±" in report
        assert "naive_mae=" in report
        for row in ("none", "uniform", "progress", "phase"):
            assert row in report
        csv = (out / "baselines_report.csv").read_text()
        assert "single_task.smoothl1" in csv.splitlines()[0]


def test_import_loads_no_scipy():
    # the package and its CLI run on numpy and the standard library alone; a
    # bare `import segrsd` loads neither numpy nor any submodule
    code = (
        "import sys, segrsd; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'segrsd'))); "
        "import segrsd.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(segrsd.__file__).parents[1])},
    )
    assert done.stdout.splitlines() == ["['segrsd']", "[]"]


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.skipif((os.cpu_count() or 1) < 2 or not Path("/proc/self/status").is_file(),
                    reason="needs two cores and /proc to tell the pool sizes apart")
@pytest.mark.parametrize("setting, threads", [(None, 1), ("2", 2)])
def test_cli_runs_one_blas_thread_unless_told(setting, threads):
    # importing the CLI sets one BLAS thread before numpy loads; the user's
    # own setting wins
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(segrsd.__file__).parents[1])
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    code = (
        "import segrsd.cli, numpy as np; a = np.ones((256, 256)); a @ a; "
        "print(next(line.split()[1] for line in open('/proc/self/status') "
        "if line.startswith('Threads:')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env,
    )
    assert int(done.stdout) == threads


def test_commands_load_no_numpy_ma(workspace):
    # np.unique and np.median import numpy.ma on first use, tens of ms in
    # every fresh process; no command the README runs may call them
    out = workspace / "no_ma"
    seg = f"{workspace}/seg/segmentation.ckpt"
    commands = [
        ["segment", "--corpus", f"{workspace}/corpus", "--out", f"{out}/seg", "--k", "3",
         "--iterations", "2", "--select", "1:2", "--sweeps", "2", "--epochs", "1",
         "--hidden", "4", "--tc-epochs", "1", "--seed", "0"],
        *(["train-rsd", "--corpus", f"{workspace}/corpus", "--out", f"{out}/rsd",
           "--epochs", "1", "--hidden", "4", "--seed", "0", *extra]
          for extra in (["--pipeline", "single"],
                        ["--pipeline", "feature", "--aux", "seg", "--checkpoint", seg],
                        ["--pipeline", "regularize", "--aux", "seg", "--loss", "corr",
                         "--checkpoint", seg])),
        ["evaluate", "--corpus", f"{workspace}/corpus", "--out", f"{out}/eval",
         "--models", f"{out}/rsd/rsd_single_none_smoothl1.ckpt", seg],
    ]
    code = (
        "import sys; from segrsd.cli import main\n"
        "loaded = []\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "    loaded.append('numpy.ma' in sys.modules)\n"
        "print(loaded)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(segrsd.__file__).parents[1])},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == str([False] * len(commands))


def test_no_global_statements():
    # no module-global mutable state: nothing in the package rebinds a global
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(segrsd.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Global)
    ]
    assert found == []


def test_no_unreferenced_definitions():
    # dead-code guard: every function, class and method the package defines is
    # referenced by package code outside __init__ (so an export alone does not
    # count), by the acceptance gates or by the benchmark, which also names
    # functions in strings to trace them; dunders are exempt
    package = Path(segrsd.__file__).parent
    root = Path(__file__).parents[1]
    defined, used = {}, set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
    users = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    users += [root / "tests" / "test_acceptance.py", *sorted(root.glob("perfbench/*.py"))]
    for path in users:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Constant) and path.parent.name == "perfbench":
                used.add(node.value)
    unused = [
        f"{where} {name}" for name, where in sorted(defined.items())
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unused == []


def test_no_unpassed_private_defaults():
    # a default on a private function that no call in the package overrides,
    # by name or by position, is a constant in disguise; dunders are exempt
    defaults, passed = {}, {}
    for path in sorted(Path(segrsd.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") \
                    and not node.name.startswith("__"):
                args = node.args.posonlyargs + node.args.args
                first = len(args) - len(node.args.defaults)
                # a method call passes self or cls implicitly
                skip = 1 if args and args[0].arg in ("self", "cls") else 0
                for i, arg in enumerate(args[first:], first):
                    defaults[node.name, arg.arg] = (f"{path.name}:{node.lineno}", i - skip)
                for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                    if default is not None:
                        defaults[node.name, arg.arg] = (f"{path.name}:{node.lineno}", None)
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                spread = any(k.arg is None for k in node.keywords)
                passed.setdefault(name, []).append((
                    float("inf") if starred else len(node.args),
                    None if spread else {k.arg for k in node.keywords},
                ))
    unpassed = [
        f"{where} {func}({arg})" for (func, arg), (where, pos) in sorted(defaults.items())
        if not any(
            names is None or arg in names or (pos is not None and n_pos > pos)
            for n_pos, names in passed.get(func, [])
        )
    ]
    assert unpassed == []


def test_benchmark_oracle_selftest():
    # the benchmark checks the package's TC against this independent oracle
    selftest = Path(__file__).parents[1] / "perfbench" / "selftest.py"
    done = subprocess.run([sys.executable, str(selftest)], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr


def test_benchmark_traced_names_present(monkeypatch):
    # the benchmark's per-layer figures read spans of these package names
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import numpy as np
    from layers import install
    from spans import Tracer

    from segrsd import appearance, rsd
    from conftest import make_video

    tracer = Tracer()
    install(tracer)
    try:
        assert tracer.absent == []
        rng = np.random.default_rng(0)
        video = make_video(n_frames=12, n_features=3)
        rsd.rsd_loss_and_grads(
            rsd.init_rsd(rng, 3, hidden_dim=4, head_dim=3), video, "smoothl1",
            rsd.CorridorParams(t_median=1.0),
        )
        appearance.cross_entropy_loss_and_grads(
            appearance.init_appearance(rng, 3, [4], 2), video.features,
            np.zeros(12, dtype=np.int64),
        )
    finally:
        tracer.restore()
    assert tracer.note_errors == set()
    frames = {s.name: s.counts.get("frames") for s in tracer.spans}
    assert frames == {
        "rsd.rsd_loss_and_grads": 12,
        "appearance.cross_entropy_loss_and_grads": 12,
    }
