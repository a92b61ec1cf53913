"""Binary corpus format, synthetic data generation, checkpoint container.

Feature files are little-endian throughout:

    magic "SEGRSD01" | T u32 | D u32 | frame_period_s f64 | has_phases u8
    | features T*D f64 row-major | phases T u16 (if has_phases)

A corpus directory holds one file per video plus manifest.txt with lines
"<id> <relpath> <split>" sorted by id. Checkpoints use a single-file
container (magic "SEGCKPT1", version u32, kind u8, metadata JSON with
sorted keys, then raw array payloads in declared order) so that identical
state always produces identical bytes; archive formats were avoided
because they embed timestamps.
"""
from __future__ import annotations

import json
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .appearance import AppearanceParams, DenseLayer
from .core import Corpus, Segmentation, VideoSequence, derived_rng, segmentation_to_labels
from .errors import (
    BadMagicError,
    DataFormatError,
    MissingFileError,
    ShapeMismatchError,
    TruncatedFileError,
    VersionError,
)
from .rsd import RsdParams
from .segtrain import SegCheckpoint
from .temporal import (
    LengthModel,
    MallowsModel,
    inversions_to_order,
    mallows_sample,
    sample_lengths,
)

FEATURE_MAGIC = b"SEGRSD01"
CHECKPOINT_MAGIC = b"SEGCKPT1"
CHECKPOINT_VERSION = 1
_KIND_SEG = 1
_KIND_RSD = 2


# ---------------------------------------------------------------------------
# feature files

@contextmanager
def _data_errors(path):
    """Re-raise a ValueError from the validation inside as a DataFormatError naming path."""
    try:
        yield
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def save_video(video: VideoSequence, path) -> None:
    path = Path(path)
    has_phases = video.phase_labels is not None
    header = FEATURE_MAGIC + struct.pack(
        "<IIdB",
        video.n_frames, video.n_features, video.frame_period_s, int(has_phases),
    )
    payload = np.ascontiguousarray(video.features, dtype="<f8").tobytes()
    if has_phases:
        payload += np.ascontiguousarray(video.phase_labels, dtype="<u2").tobytes()
    path.write_bytes(header + payload)


def load_video(path, video_id: str | None = None) -> VideoSequence:
    path = Path(path)
    if not path.is_file():
        raise MissingFileError(f"no such feature file: {path}")
    raw = path.read_bytes()
    if len(raw) < len(FEATURE_MAGIC):
        raise TruncatedFileError(f"{path}: shorter than the magic header")
    if raw[:8] != FEATURE_MAGIC:
        raise BadMagicError(f"{path}: bad magic {raw[:8]!r}")
    header_size = 8 + struct.calcsize("<IIdB")
    if len(raw) < header_size:
        raise TruncatedFileError(f"{path}: truncated header")
    t, d, period, has_phases = struct.unpack("<IIdB", raw[8:header_size])
    if has_phases not in (0, 1):
        raise DataFormatError(f"{path}: phase flag must be 0 or 1, got {has_phases}")
    feat_bytes = t * d * 8
    expected = header_size + feat_bytes + (t * 2 if has_phases else 0)
    if len(raw) < expected:
        raise TruncatedFileError(
            f"{path}: expected {expected} bytes, found {len(raw)}"
        )
    if len(raw) > expected:
        raise DataFormatError(f"{path}: {len(raw) - expected} trailing bytes")
    feats = np.frombuffer(raw, dtype="<f8", count=t * d, offset=header_size)
    feats = feats.reshape(t, d)
    phases = None
    if has_phases:
        phases = np.frombuffer(
            raw, dtype="<u2", count=t, offset=header_size + feat_bytes
        ).astype(np.int64)
    with _data_errors(path):
        return VideoSequence(
            id=video_id if video_id is not None else path.stem,
            features=feats.astype(np.float64),
            frame_period_s=period,
            phase_labels=phases,
        )


def _load_csv_video(path: Path, video_id: str) -> VideoSequence:
    """CSV fallback: one frame per row, optional final 'phase' column."""
    if not path.is_file():
        raise MissingFileError(f"no such feature file: {path}")
    with _data_errors(path):
        with open(path) as fh:
            head = fh.readline().strip().split(",")
        has_phase = head and head[-1].strip().lower() == "phase"
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[1] != len(head):
            raise ShapeMismatchError(f"{path}: row width does not match header")
        if has_phase:
            return VideoSequence(
                id=video_id,
                features=data[:, :-1],
                phase_labels=data[:, -1].astype(np.int64),
            )
        return VideoSequence(id=video_id, features=data)


# ---------------------------------------------------------------------------
# corpus directories

def save_corpus(corpus: Corpus, root) -> None:
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    lines = []
    for video in sorted(corpus.videos, key=lambda v: v.id):
        rel = f"{video.id}.seq"
        save_video(video, root / rel)
        lines.append(f"{video.id} {rel} {corpus.split[video.id]}")
    (root / "manifest.txt").write_text("\n".join(lines) + "\n")


def load_corpus(root) -> Corpus:
    root = Path(root)
    manifest = root / "manifest.txt"
    if not manifest.exists():
        raise MissingFileError(f"no manifest.txt under {root}")
    videos = []
    split = {}
    for lineno, line in enumerate(manifest.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise DataFormatError(
                f"{manifest}:{lineno}: expected '<id> <relpath> <split>', got {line!r}"
            )
        vid, rel, split_name = parts
        path = root / rel
        if rel.endswith(".csv"):
            video = _load_csv_video(path, vid)
        else:
            video = load_video(path, vid)
        videos.append(video)
        split[vid] = split_name
    with _data_errors(manifest):
        return Corpus(videos, split)


def split_corpus(videos: Sequence[VideoSequence], ratios=(5, 1, 2), seed: int = 0) -> Corpus:
    """Assign train/val/test splits by largest-remainder apportionment.

    Videos are shuffled with the seed, counts follow the ratio proportions
    (floors first, remaining slots to the largest fractional parts, ties to
    the earlier split), and every split is non-empty when n >= sum(ratios).
    """
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValueError("ratios must be three positive numbers")
    n = len(videos)
    if n < sum(ratios):
        raise ValueError(
            f"need at least {sum(ratios)} videos for ratios {ratios}, got {n}"
        )
    total = sum(ratios)
    quotas = [n * r / total for r in ratios]
    counts = [int(q) for q in quotas]
    remainders = [q - c for q, c in zip(quotas, counts)]
    leftover = n - sum(counts)
    for i in sorted(range(3), key=lambda i: -remainders[i])[:leftover]:
        counts[i] += 1
    rng = derived_rng(seed, "split")
    order = rng.permutation(n)
    split = {}
    names = ("train", "val", "test")
    pos = 0
    for name, count in zip(names, counts):
        for j in order[pos:pos + count]:
            split[videos[j].id] = name
        pos += count
    return Corpus(list(videos), split)


# ---------------------------------------------------------------------------
# synthetic corpora

@dataclass(frozen=True)
class SynthConfig:
    n_videos: int = 20
    k_true: int = 5
    n_features: int = 12
    duration_mean_min: float = 3.0
    duration_jitter: float = 0.2
    cluster_separation: float = 4.0
    noise_sigma: float = 1.0
    skip_prob: float = 0.0
    order_rho: float = 2.0
    frame_period_s: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.k_true < 1 or self.n_features < self.k_true:
            raise ValueError("need n_features >= k_true >= 1")
        if self.n_videos < 1 or not 0 < self.duration_mean_min < np.inf:
            raise ValueError("need at least one video with positive, finite duration")
        if not 0.0 <= self.skip_prob < 1.0 or not 0.0 <= self.duration_jitter < 1.0:
            raise ValueError("skip_prob and duration_jitter must lie in [0, 1)")
        if not 0.0 <= self.noise_sigma < np.inf:
            raise ValueError("noise_sigma must be a finite, non-negative standard deviation")


def synth_generate(config: SynthConfig):
    """Build a synthetic corpus with known segmentations.

    Each video draws its subactivity order from a Mallows model around the
    identity, drops subactivities independently with skip_prob (at least
    two always survive), splits a jittered duration into multinomial
    segment lengths, and emits separated cluster centers plus isotropic
    noise. Returns (corpus, truth) where truth maps id to Segmentation;
    the videos carry the true labels as phase_labels.
    """
    k = config.k_true
    centers = np.zeros((k, config.n_features))
    for j in range(k):
        centers[j, j] = config.cluster_separation
    mallows = MallowsModel.with_constant_rho(k, config.order_rho)
    lengths_model = LengthModel.uniform(k)
    videos = []
    truth: dict[str, Segmentation] = {}
    for i in range(config.n_videos):
        rng = derived_rng(config.seed, "synth", i)
        vid = f"v{i:03d}"
        duration = config.duration_mean_min * (
            1.0 + config.duration_jitter * (2.0 * rng.random() - 1.0)
        )
        n_frames = max(int(round(duration * 60.0 / config.frame_period_s)), 2 * k)
        order = inversions_to_order(mallows_sample(mallows, rng))
        keep = rng.random(k) >= config.skip_prob
        if keep.sum() < 2:
            forced = [s for s in order if not keep[s]][: 2 - int(keep.sum())]
            for s in forced:
                keep[s] = True
        present = [s for s in order if keep[s]]
        lengths = sample_lengths(lengths_model, present, n_frames, rng)
        seg = Segmentation(tuple(zip(present, (int(l) for l in lengths))), k)
        labels = segmentation_to_labels(seg)
        feats = centers[labels] + config.noise_sigma * rng.standard_normal(
            (n_frames, config.n_features)
        )
        videos.append(
            VideoSequence(
                id=vid,
                features=feats,
                frame_period_s=config.frame_period_s,
                phase_labels=labels,
            )
        )
        truth[vid] = seg
    corpus = split_corpus(videos, seed=config.seed)
    return corpus, truth


# ---------------------------------------------------------------------------
# checkpoint container

def _write_container(path, kind: int, meta: dict, arrays: list[tuple[str, np.ndarray]]):
    for name, arr in arrays:
        meta.setdefault("arrays", []).append(
            {"name": name, "shape": list(arr.shape), "dtype": str(arr.dtype)}
        )
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<IB", CHECKPOINT_VERSION, kind)
    out += struct.pack("<Q", len(blob))
    out += blob
    for _, arr in arrays:
        out += np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes()
    Path(path).write_bytes(bytes(out))


def _read_container(path, expected_kind: int | None = None):
    path = Path(path)
    if not path.is_file():
        raise MissingFileError(f"no such checkpoint: {path}")
    raw = path.read_bytes()
    if len(raw) < 8 or raw[:8] != CHECKPOINT_MAGIC:
        raise BadMagicError(f"{path}: not a checkpoint file")
    fixed = 8 + struct.calcsize("<IBQ")
    if len(raw) < fixed:
        raise TruncatedFileError(f"{path}: truncated header")
    version, kind, meta_len = struct.unpack("<IBQ", raw[8:fixed])
    if version != CHECKPOINT_VERSION:
        raise VersionError(f"{path}: unsupported version {version}")
    if expected_kind is not None and kind != expected_kind:
        raise DataFormatError(f"{path}: wrong checkpoint kind {kind}")
    if len(raw) < fixed + meta_len:
        raise TruncatedFileError(f"{path}: truncated metadata")
    try:
        meta = json.loads(raw[fixed:fixed + meta_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"{path}: unreadable metadata ({exc})") from exc
    offset = fixed + meta_len
    arrays = {}
    for desc in meta.get("arrays", []):
        shape = tuple(desc["shape"])
        dtype = np.dtype(desc["dtype"])
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * dtype.itemsize
        if len(raw) < offset + nbytes:
            raise TruncatedFileError(f"{path}: truncated payload for {desc['name']}")
        arrays[desc["name"]] = np.frombuffer(
            raw, dtype=dtype, count=count, offset=offset
        ).reshape(shape).copy()
        offset += nbytes
    if offset != len(raw):
        raise DataFormatError(f"{path}: {len(raw) - offset} trailing bytes")
    return kind, meta, arrays


def _pack_layers(prefix: str, layers: Sequence[DenseLayer]):
    arrays = []
    for i, layer in enumerate(layers):
        arrays.append((f"{prefix}{i}.w", layer.weights))
        arrays.append((f"{prefix}{i}.b", layer.bias))
    return arrays


def _unpack_layers(prefix: str, count: int, arrays: dict) -> list[DenseLayer]:
    return [
        DenseLayer(arrays[f"{prefix}{i}.w"], arrays[f"{prefix}{i}.b"])
        for i in range(count)
    ]


def save_seg_checkpoint(ckpt: SegCheckpoint, path) -> None:
    app = ckpt.appearance
    meta = {
        "iteration": ckpt.iteration,
        "tc_score": ckpt.tc_score,
        "n_layers": len(app.layers),
        "context_lambda": app.context_lambda,
        "trainable_mask": [bool(b) for b in app.trainable_mask],
        "nu0": ckpt.mallows.nu0,
        "r0": ckpt.mallows.r0,
        "alpha0": ckpt.lengths.alpha0,
        "n_subactivities": ckpt.mallows.n_subactivities,
        "video_ids": sorted(ckpt.labels),
    }
    arrays = _pack_layers("layer", app.layers)
    arrays.append(("rho", ckpt.mallows.rho))
    arrays.append(("theta", ckpt.lengths.theta))
    for vid in meta["video_ids"]:
        arrays.append((f"labels.{vid}", np.asarray(ckpt.labels[vid], dtype=np.int64)))
    _write_container(path, _KIND_SEG, meta, arrays)


def load_seg_checkpoint(path, expect_feature_dim: int | None = None,
                        expect_k: int | None = None) -> SegCheckpoint:
    _, meta, arrays = _read_container(path, _KIND_SEG)
    layers = _unpack_layers("layer", meta["n_layers"], arrays)
    app = AppearanceParams(
        layers, [bool(b) for b in meta["trainable_mask"]], meta["context_lambda"]
    )
    if expect_feature_dim is not None and app.feature_dim != expect_feature_dim:
        raise ShapeMismatchError(
            f"checkpoint expects {app.feature_dim}-dim features, corpus has {expect_feature_dim}"
        )
    k = meta["n_subactivities"]
    if expect_k is not None and k != expect_k:
        raise ShapeMismatchError(f"checkpoint has {k} subactivities, expected {expect_k}")
    if app.n_classes != k:
        raise ShapeMismatchError("classifier width disagrees with subactivity count")
    mallows = MallowsModel(k, arrays["rho"], meta["nu0"], meta["r0"])
    lengths = LengthModel(k, arrays["theta"], meta["alpha0"])
    labels = {vid: arrays[f"labels.{vid}"] for vid in meta["video_ids"]}
    return SegCheckpoint(
        iteration=meta["iteration"],
        appearance=app,
        mallows=mallows,
        lengths=lengths,
        labels=labels,
        tc_score=meta["tc_score"],
    )


def save_rsd_checkpoint(params: RsdParams, path, meta_extra: dict | None = None) -> None:
    meta = {
        "n_embed": len(params.embed),
        "context_lambda": params.context_lambda,
        "aux_kind": params.aux_kind,
        "output_scale": params.output_scale,
        "trainable_mask": [bool(b) for b in params.trainable_mask],
    }
    if meta_extra:
        reserved = set(meta) | {"arrays"}
        overlap = reserved & set(meta_extra)
        if overlap:
            raise ValueError(f"reserved metadata keys: {sorted(overlap)}")
        meta.update(meta_extra)
    arrays = _pack_layers("embed", params.embed)
    arrays += _pack_layers("head1_", [params.head1])
    arrays += _pack_layers("head2_", [params.head2])
    if params.aux_head is not None:
        arrays += _pack_layers("aux_", [params.aux_head])
    _write_container(path, _KIND_RSD, meta, arrays)


def load_rsd_checkpoint(path, expect_feature_dim: int | None = None):
    """Returns (params, meta); meta keeps any extra strings saved alongside."""
    _, meta, arrays = _read_container(path, _KIND_RSD)
    embed = _unpack_layers("embed", meta["n_embed"], arrays)
    head1 = _unpack_layers("head1_", 1, arrays)[0]
    head2 = _unpack_layers("head2_", 1, arrays)[0]
    aux = _unpack_layers("aux_", 1, arrays)[0] if meta["aux_kind"] != "none" else None
    params = RsdParams(
        embed, meta["context_lambda"], head1, head2, aux, meta["aux_kind"],
        [bool(b) for b in meta["trainable_mask"]], meta["output_scale"],
    )
    if expect_feature_dim is not None and embed[0].in_dim != expect_feature_dim:
        raise ShapeMismatchError(
            f"checkpoint expects {embed[0].in_dim}-dim features, corpus has {expect_feature_dim}"
        )
    return params, meta
