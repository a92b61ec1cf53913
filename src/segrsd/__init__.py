"""Unsupervised temporal segmentation and remaining-duration regression."""

from .core import (
    Corpus,
    Segmentation,
    VideoSequence,
    derive_seed,
    derived_rng,
    segmentation_to_labels,
)
from .appearance import (
    AppearanceParams,
    DenseLayer,
    TrainConfig,
    context_accumulate,
    forward,
    init_appearance,
    staged_mask,
    tc_pretrain,
    train_appearance,
)
from .temporal import (
    LengthModel,
    MallowsModel,
    estimate_rho,
    inversions_to_order,
    mallows_log_prob,
    mallows_sample,
    order_to_inversions,
    sample_lengths,
    sample_segmentation,
    segmentation_log_joint,
    update_theta,
)
from .segtrain import (
    SegCheckpoint,
    SegTrainConfig,
    best_coherent_match,
    select_checkpoint,
    tc_measure,
    uniform_labels,
)
from .rsd import (
    AuxInit,
    CorridorParams,
    PipelineMode,
    RsdParams,
    build_aux_init,
    corr_smooth_l1,
    corridor_border,
    corridor_weight,
    naive_prediction,
    predict_video,
    progress,
    smooth_l1,
    train_rsd,
)
from .data_io import (
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
)
from .evaluation import corpus_label_accuracy, label_match_accuracy, mae_minutes

__version__ = "0.1.0"
