"""Which package functions the traced run wraps, and the per-layer figures.

Functions are wrapped where their callers look them up: `segtrain.run` sees
`train_appearance` in the `segrsd.segtrain` namespace, the CLI sees
`load_corpus` in `segrsd.cli`, and so on. Layer names are the package's
module names.
"""
from __future__ import annotations

import importlib

from spans import Tracer

CHECKPOINT_IO = (
    "save_seg_checkpoint", "load_seg_checkpoint", "save_rsd_checkpoint",
    "load_rsd_checkpoint", "_read_container",
)
EVALUATION = ("mae_minutes", "corpus_label_accuracy", "summarize", "format_table", "format_csv")
RSD_PIPELINES = ("single_task", "feature_extraction", "regularization")
# the spans inside segtrain.run that have their own figures; the rest is run's self time
RUN_CHILDREN = ("appearance.tc_pretrain", "appearance.train_appearance",
                "temporal.sample_segmentation", "segtrain.tc_measure")


def _frames(videos) -> int:
    return sum(v.n_frames for v in videos)


def _module(name: str):
    try:
        return importlib.import_module(f"segrsd.{name}")
    except ModuleNotFoundError:
        return None  # its wrapped names are then reported absent


def install(tracer: Tracer) -> None:
    """Wrap every traced function; restore with `tracer.restore()`."""
    mod = {n: _module(n) for n in ("cli", "segtrain", "appearance", "rsd", "optim")}
    cli = mod["cli"]
    tracer.wrap(cli, "load_corpus", "data_io.load_corpus")
    for name in CHECKPOINT_IO:
        tracer.wrap(cli, name, "data_io.checkpoint_io")
    tracer.wrap(cli, "run_segmentation", "segtrain.run")
    tracer.wrap(cli, "train_rsd", "rsd.train_rsd", lambda a: {
        "pipeline": a["mode"].pipeline,
        "frame_epochs": _frames(a["corpus"].by_split("train")) * a["config"].epochs,
    })
    for owner in (cli, mod["rsd"]):
        tracer.wrap(owner, "predict_video", "rsd.predict_video",
                    lambda a: {"frames": a["video"].n_frames})
    for name in EVALUATION:
        tracer.wrap(cli, name, "evaluation")

    seg = mod["segtrain"]
    tracer.wrap(seg, "tc_pretrain", "appearance.tc_pretrain")
    tracer.wrap(seg, "train_appearance", "appearance.train_appearance", lambda a: {
        "frame_epochs": _frames(a["videos"]) * a["config"].epochs,
    })
    tracer.wrap(seg, "forward", "appearance.forward")
    tracer.wrap(seg, "sample_segmentation", "temporal.sample_segmentation",
                lambda a: {"frame_sweeps": a["probs"].shape[0] * a["sweeps"]})
    tracer.wrap(seg, "tc_measure", "segtrain.tc_measure")
    tracer.wrap(seg, "best_coherent_match", "segtrain.best_coherent_match")

    tracer.wrap(mod["appearance"], "cross_entropy_loss_and_grads",
                "appearance.cross_entropy_loss_and_grads",
                lambda a: {"frames": len(a["feats"])})
    tracer.wrap(mod["rsd"], "rsd_loss_and_grads", "rsd.rsd_loss_and_grads",
                lambda a: {"frames": a["video"].n_frames})
    for cls in ("Adam", "Sgd"):
        tracer.wrap(getattr(mod["optim"], cls, None), "step", "optim.step")


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def figures(tr: Tracer) -> dict[str, float]:
    """Per-layer figures from the spans of one traced round."""
    app_work = tr.count("frame_epochs", "appearance.train_appearance")
    app_s = tr.total("appearance.train_appearance")
    rsd_work = tr.count("frame_epochs", "rsd.train_rsd")
    rsd_s = tr.total("rsd.train_rsd")
    sampler_s = tr.total("temporal.sample_segmentation")
    match_calls = tr.calls("segtrain.best_coherent_match")
    out = {
        "cli.synth_s": tr.total("cli.synth"),
        "cli.segment_s": tr.total("cli.segment"),
        "cli.train_rsd_s": tr.total("cli.train-rsd"),
        "cli.evaluate_s": tr.total("cli.evaluate"),
        "data_io.load_corpus_s": tr.total("data_io.load_corpus"),
        "data_io.checkpoint_io_s": tr.total("data_io.checkpoint_io"),
        "appearance.tc_pretrain_s": tr.total("appearance.tc_pretrain"),
        "appearance.train_s": app_s,
        "appearance.us_per_frame_epoch": _ratio(app_s, app_work, 1e6),
        "appearance.frame_passes_per_frame": _ratio(
            tr.count("frames", "appearance.cross_entropy_loss_and_grads"), app_work),
        "temporal.sampler_s": sampler_s,
        "temporal.sampler_calls": tr.calls("temporal.sample_segmentation"),
        "temporal.sampler_us_per_frame_sweep": _ratio(
            sampler_s, tr.count("frame_sweeps", "temporal.sample_segmentation"), 1e6),
        "segtrain.tc_measure_s": tr.total("segtrain.tc_measure"),
        "segtrain.tc_match_calls": match_calls,
        "segtrain.tc_ms_per_match": _ratio(
            tr.total("segtrain.best_coherent_match"), match_calls, 1e3),
        "segtrain.run_self_s": tr.self_time("segtrain.run", RUN_CHILDREN),
        "rsd.us_per_frame_epoch": _ratio(rsd_s, rsd_work, 1e6),
        "rsd.frame_passes_per_frame": _ratio(
            tr.count("frames", "rsd.rsd_loss_and_grads"), rsd_work),
        "rsd.predict_us_per_frame": _ratio(
            tr.total("rsd.predict_video"), tr.count("frames", "rsd.predict_video"), 1e6),
        "optim.steps": tr.calls("optim.step"),
        "optim.step_s": tr.total("optim.step"),
        "evaluation.s": tr.total("evaluation"),
    }
    for pipeline in RSD_PIPELINES:
        out[f"rsd.train_s.{pipeline}"] = sum(
            s.duration for s in tr.spans
            if s.name == "rsd.train_rsd" and s.counts.get("pipeline") == pipeline
        )
    return out
