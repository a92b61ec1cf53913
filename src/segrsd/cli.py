"""Command-line front end.

Commands: synth, segment, train-rsd, evaluate, baselines. Every command is
deterministic for a fixed --seed and writes report files whose bytes depend
only on inputs (no timestamps, no environment). Exit codes: 0 success,
1 usage error, 2 data error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

# numpy sizes its BLAS pool on first import: one thread unless the user says otherwise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
from .appearance import TrainConfig
from .core import derive_seed
from .data_io import (
    SynthConfig,
    load_corpus,
    load_rsd_checkpoint,
    load_seg_checkpoint,
    save_corpus,
    save_rsd_checkpoint,
    save_seg_checkpoint,
    synth_generate,
    _read_container,
    _KIND_SEG,
)
from .errors import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, DataFormatError, NumericalError
from .evaluation import corpus_label_accuracy, format_csv, format_table, mae_minutes, summarize
from .rsd import (
    AUX_TASKS,
    LOSSES,
    AuxInit,
    CorridorParams,
    PipelineMode,
    build_aux_init,
    default_train_config,
    mae_of,
    naive_prediction,
    predict_video,  # perfbench/layers.py traces it under this name
    train_rsd,
)
from .segtrain import MAX_COHERENT_LABELS, SegTrainConfig, select_checkpoint
from .segtrain import run as run_segmentation

PIPELINE_FLAG = {
    "feature": "feature_extraction",
    "pretrain": "pretraining",
    "regularize": "regularization",
    "single": "single_task",
}
AUX_FLAG = {
    "none": "none",
    "seg": "learned_seg",
    "uniform": "uniform",
    "progress": "progress",
    "phase": "phase",
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _select_window(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(":")
        return int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a:b, got {text!r}")


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _non_negative_float(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="segrsd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic corpus with known structure")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.add_argument("--videos", dest="n_videos", type=int)
    p.add_argument("--k", dest="k_true", type=int, help="number of true subactivities")
    p.add_argument("--d", dest="n_features", type=int, help="feature dimension")
    p.add_argument("--duration-mean", dest="duration_mean_min", type=float, help="minutes")
    p.add_argument("--jitter", dest="duration_jitter", type=float)
    p.add_argument("--sep", dest="cluster_separation", type=float, help="cluster separation")
    p.add_argument("--noise", dest="noise_sigma", type=float)
    p.add_argument("--skip-prob", dest="skip_prob", type=float)
    p.add_argument("--order-rho", dest="order_rho", type=float)
    p.add_argument("--seed", dest="seed", type=int)
    _default_to(p, SynthConfig)

    p = sub.add_parser("segment", help="alternate appearance and temporal models")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--k", dest="n_subactivities", type=int,
                   help=f"number of subactivities (at most {MAX_COHERENT_LABELS})")
    p.add_argument("--iterations", dest="iterations", type=_positive_int)
    p.add_argument("--select", dest="selection_window", type=_select_window,
                   help="checkpoint selection window a:b")
    p.add_argument("--sweeps", dest="sweeps_per_iteration", type=_non_negative_int)
    p.add_argument("--epochs", dest="epochs_per_iteration", type=_non_negative_int,
                   help="classifier epochs per iteration")
    p.add_argument("--hidden", dest="hidden_dim", type=_positive_int)
    p.add_argument("--tc-epochs", dest="tc_pretrain_epochs", type=_non_negative_int,
                   help="embedding warm-up epochs")
    p.add_argument("--seed", dest="seed", type=int)
    _default_to(p, SegTrainConfig)

    p = sub.add_parser("train-rsd", help="train a remaining-duration regressor")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--pipeline", choices=sorted(PIPELINE_FLAG), required=True)
    p.add_argument("--aux", choices=sorted(AUX_FLAG), default="none")
    p.add_argument("--loss", choices=LOSSES, default="smoothl1")
    p.add_argument("--checkpoint",
                   help="segmentation checkpoint, --aux seg only (and required there)")
    p.add_argument("--epochs", type=_non_negative_int, default=None,
                   help="default: pipeline preset")
    p.add_argument("--hidden", type=_positive_int, default=32)
    p.add_argument("--k", type=_positive_int, default=None,
                   help="classes, --aux uniform only (default 10)")
    p.add_argument("--aux-weight", type=_non_negative_float, default=None,
                   help="aux loss weight, --pipeline regularize only (default 1.0)")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("evaluate", help="report MAE and segmentation accuracy")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--models", nargs="+", required=True, help="checkpoint files")
    p.add_argument("--split", choices=("train", "val", "test"), default="test")

    p = sub.add_parser("baselines", help="run the aux-task x pipeline grid")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--repeats", type=_positive_int, default=4)
    p.add_argument("--epochs", type=_non_negative_int, default=30)
    p.add_argument("--hidden", type=_positive_int, default=32)
    p.add_argument("--k", type=_positive_int, default=10)
    p.add_argument("--aux-epochs", type=_non_negative_int, default=20,
                   help="epochs for training transfer sources")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _default_to(parser, config_type) -> None:
    """Each flag's dest is a field of config_type, and defaults to its value there."""
    parser.set_defaults(**{f.name: f.default for f in dataclasses.fields(config_type)})


def _config_of(args, config_type):
    """config_type from the flags and defaults of a parser set up by _default_to."""
    return config_type(**{f.name: getattr(args, f.name) for f in dataclasses.fields(config_type)})


def _cmd_synth(args) -> int:
    config = _config_of(args, SynthConfig)
    corpus, _ = synth_generate(config)
    save_corpus(corpus, args.out)
    counts = {s: len(corpus.by_split(s)) for s in ("train", "val", "test")}
    print(
        f"wrote {len(corpus.videos)} videos to {args.out} "
        f"(train={counts['train']} val={counts['val']} test={counts['test']})"
    )
    return EXIT_OK


def _cmd_segment(args) -> int:
    corpus = load_corpus(args.corpus)
    config = _config_of(args, SegTrainConfig)
    checkpoints = run_segmentation(corpus, config)
    if not checkpoints:
        raise NumericalError("segmentation produced no checkpoints")
    chosen = select_checkpoint(checkpoints, config.selection_window)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_seg_checkpoint(chosen, out / "segmentation.ckpt")
    lines = [
        f"iter={c.iteration} tc={c.tc_score:.6f}" for c in checkpoints
    ]
    lines.append(f"selected_iteration={chosen.iteration} tc={chosen.tc_score:.6f}")
    (out / "segment_report.txt").write_text("\n".join(lines) + "\n")
    print(f"selected iteration {chosen.iteration} (tc={chosen.tc_score:.6f})")
    return EXIT_OK


def _aux_source(args, corpus, aux, corridor, epochs, *seed_key) -> AuxInit:
    """Train the transferable embedding of a uniform, phase or progress aux task."""
    config = TrainConfig(epochs=epochs, seed=derive_seed(args.seed, "aux", aux, *seed_key))
    return build_aux_init(
        corpus, aux, n_subactivities=args.k, hidden_dim=args.hidden,
        config=config, corridor=corridor,
    )


def _reported_videos(args, corpus, split):
    """The videos of split, which evaluate and baselines report on, checked
    before any training: a split with none is a data error."""
    videos = corpus.by_split(split)
    if not videos:
        raise DataFormatError(f"{args.corpus}: corpus has no videos in split {split!r}")
    return videos


def _naive_mae(videos, corridor) -> float:
    return mae_minutes({v.id: naive_prediction(v.elapsed_min(), corridor) for v in videos}, videos)


def _prepare_init(args, corpus, mode, corridor, epochs):
    if mode.aux_task == "learned_seg":
        ckpt = load_seg_checkpoint(args.checkpoint, expect_feature_dim=corpus.feature_dim)
        return AuxInit.from_checkpoint(ckpt)
    if not mode.transfers:
        return None  # single task, or joint training resolving its own targets
    return _aux_source(args, corpus, mode.aux_task, corridor, epochs)


def _cmd_train_rsd(args) -> int:
    if args.aux_weight is not None and args.pipeline != "regularize":
        raise ValueError("--aux-weight applies to --pipeline regularize only")
    if args.k is not None and args.aux != "uniform":
        raise ValueError("--k applies to --aux uniform only")
    if args.checkpoint is not None and args.aux != "seg":
        raise ValueError("--checkpoint applies to --aux seg only")
    if args.checkpoint is None and args.aux == "seg":
        raise ValueError("--aux seg needs --checkpoint")
    mode = PipelineMode(PIPELINE_FLAG[args.pipeline], AUX_FLAG[args.aux])
    if args.k is None:
        args.k = 10
    corpus = load_corpus(args.corpus)
    corridor = CorridorParams.from_corpus(corpus)
    config = default_train_config(mode.pipeline, seed=args.seed)
    if args.epochs is not None:
        config = dataclasses.replace(config, epochs=args.epochs)
    init = _prepare_init(args, corpus, mode, corridor, epochs=max(config.epochs, 1))
    params, history = train_rsd(
        corpus, init, mode, args.loss, config, corridor,
        hidden_dim=args.hidden,
        aux_weight=1.0 if args.aux_weight is None else args.aux_weight,
        n_subactivities=args.k,
    )
    test = corpus.by_split("test")
    test_mae = mae_of(params, test) if test else float("nan")
    naive_mae = _naive_mae(test, corridor) if test else float("nan")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    name = f"rsd_{args.pipeline}_{args.aux}_{args.loss}.ckpt"
    save_rsd_checkpoint(
        params, out / name,
        meta_extra={"pipeline": mode.pipeline, "aux": mode.aux_task, "loss": args.loss,
                    "seed": args.seed},
    )
    lines = [f"epoch={e} loss={l:.6f} val_mae={m:.6f}" for e, l, m in history]
    for line in lines:
        print(line)
    lines.append(f"test_mae={test_mae:.4f}")
    lines.append(f"naive_mae={naive_mae:.4f}")
    (out / f"rsd_{args.pipeline}_{args.aux}_{args.loss}_report.txt").write_text(
        "\n".join(lines) + "\n"
    )
    print(f"test_mae={test_mae:.4f} naive_mae={naive_mae:.4f}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    corpus = load_corpus(args.corpus)
    videos = _reported_videos(args, corpus, args.split)
    corridor = CorridorParams.from_corpus(corpus)
    cells: dict[tuple[str, str], list[float]] = {}
    seg_lines: list[str] = []
    for model_path in args.models:
        if _read_container(model_path)[0] == _KIND_SEG:
            ckpt = load_seg_checkpoint(model_path, expect_feature_dim=corpus.feature_dim)
            seg_lines.append(f"seg_tc={ckpt.tc_score:.6f}")
            corpus.check_labels(ckpt.labels, model_path)
            with_phases = {
                vid: lab for vid, lab in ckpt.labels.items()
                if corpus.video(vid).phase_labels is not None
            }
            if with_phases:
                ref = {vid: corpus.video(vid).phase_labels for vid in with_phases}
                acc = corpus_label_accuracy(with_phases, ref)
                seg_lines.append(f"seg_label_acc={acc:.4f}")
            continue
        params, meta = load_rsd_checkpoint(model_path, expect_feature_dim=corpus.feature_dim)
        key = (meta.get("aux", "none"), meta.get("pipeline", "single_task"))
        cells.setdefault(key, []).append(mae_of(params, videos))
    naive_mae = _naive_mae(videos, corridor)

    rows = [a for a in AUX_TASKS if any(k[0] == a for k in cells)]
    cols = [p for p in PIPELINE_FLAG.values() if any(k[1] == p for k in cells)]
    text_cells = {k: summarize(v) for k, v in cells.items()}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = f"split={args.split}\n"
    if rows:
        report += format_table(rows, cols, text_cells)
    report += "\n".join(seg_lines + [f"naive_mae={naive_mae:.4f}"]) + "\n"
    (out / "evaluate_report.txt").write_text(report)
    if rows:
        (out / "evaluate_report.csv").write_text(format_csv(rows, cols, text_cells))
    print(report, end="")
    return EXIT_OK


def _cmd_baselines(args) -> int:
    corpus = load_corpus(args.corpus)
    test = _reported_videos(args, corpus, "test")
    corridor = CorridorParams.from_corpus(corpus)
    aux_rows = [a for a in AUX_TASKS if a != "learned_seg"]
    pipelines = tuple(PIPELINE_FLAG.values())
    inits: dict[tuple[str, int], AuxInit] = {}

    def init_for(aux: str, repeat: int) -> AuxInit:
        if (aux, repeat) not in inits:
            inits[aux, repeat] = _aux_source(args, corpus, aux, corridor, args.aux_epochs, repeat)
        return inits[aux, repeat]

    reports = {}
    for loss in LOSSES:
        cells: dict[tuple[str, str], str] = {}
        for aux in aux_rows:
            for pipeline in pipelines:
                if (aux == "none") != (pipeline == "single_task"):
                    continue
                maes = []
                for r in range(args.repeats):
                    seed = derive_seed(args.seed, "cell", aux, pipeline, loss, r)
                    mode = PipelineMode(pipeline, aux)
                    init = init_for(aux, r) if mode.transfers else None
                    config = dataclasses.replace(
                        default_train_config(pipeline, seed=seed), epochs=args.epochs
                    )
                    params, _ = train_rsd(
                        corpus, init, mode, loss, config, corridor,
                        hidden_dim=args.hidden, n_subactivities=args.k,
                    )
                    maes.append(mae_of(params, test))
                cells[(aux, pipeline)] = summarize(maes)
        reports[loss] = cells

    naive_mae = _naive_mae(test, corridor)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    chunks = []
    for loss in LOSSES:
        chunks.append(f"loss={loss}")
        chunks.append(format_table(aux_rows, pipelines, reports[loss]))
    chunks.append(f"naive_mae={naive_mae:.4f}\n")
    text = "\n".join(chunks)
    (out / "baselines_report.txt").write_text(text)
    csv_cells = {}
    for loss in LOSSES:
        for (aux, pipeline), val in reports[loss].items():
            csv_cells[(aux, f"{pipeline}.{loss}")] = val.replace(",", ";")
    csv_cols = [f"{p}.{l}" for p in pipelines for l in LOSSES]
    (out / "baselines_report.csv").write_text(format_csv(aux_rows, csv_cols, csv_cells))
    print(text, end="")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    handlers = {
        "synth": _cmd_synth,
        "segment": _cmd_segment,
        "train-rsd": _cmd_train_rsd,
        "evaluate": _cmd_evaluate,
        "baselines": _cmd_baselines,
    }
    try:
        return handlers[args.command](args)
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
