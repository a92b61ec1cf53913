"""Binary corpus format, synthetic data generation, checkpoint container.

Feature files are little-endian throughout:

    magic "SEGRSD01" | T u32 | D u32 | frame_period_s f64 | has_phases u8
    | features T*D f64 row-major | phases T u16 (if has_phases)

A corpus directory holds one file per video plus manifest.txt with lines
"<id> <relpath> <split>" sorted by id. Checkpoints use a single-file
container (magic "SEGCKPT1", version u32, kind u8, metadata JSON with
sorted keys, then raw array payloads in declared order) so that identical
state always produces identical bytes; archive formats were avoided
because they embed timestamps. One table per kind, _SEG_META or _RSD_META
(plus _RSD_EXTRAS, the optional keys saved beside an RSD model), gives each
metadata key's saved value and its check on load.
"""
from __future__ import annotations

import json
import math
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
from .rsd import AUX_KINDS, AUX_TASKS, LOSSES, PIPELINES, RsdParams
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
SPLIT_RATIOS = (5, 1, 2)


# ---------------------------------------------------------------------------
# feature files

@contextmanager
def _data_errors(path):
    """Re-raise a ValueError from the validation inside, or the KeyError of a
    missing metadata key or array, as a DataFormatError naming path."""
    try:
        yield
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    except KeyError as exc:
        raise DataFormatError(f"{path}: missing {exc}") from exc


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


def split_corpus(videos: Sequence[VideoSequence], seed: int = 0) -> Corpus:
    """Assign train/val/test splits by largest-remainder apportionment.

    Videos are shuffled with the seed, counts follow SPLIT_RATIOS (floors
    first, remaining slots to the largest fractional parts, ties to the
    earlier split), and every split is non-empty when n >= sum(SPLIT_RATIOS).
    """
    n = len(videos)
    total = sum(SPLIT_RATIOS)
    if n < total:
        raise ValueError(f"need at least {total} videos for ratios {SPLIT_RATIOS}, got {n}")
    quotas = [n * r / total for r in SPLIT_RATIOS]
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
    with _data_errors(path):
        if not isinstance(meta, dict):
            raise ValueError(f"metadata is not a JSON object: {meta!r}")
        descs = meta.get("arrays", [])
        if not isinstance(descs, list):
            raise ValueError(f"arrays is not a list of array descriptors: {descs!r}")
        parsed = [_array_descriptor(desc) for desc in descs]
    for name, shape, dtype in parsed:
        count = math.prod(shape)  # a Python int: np.prod would wrap past int64
        nbytes = count * dtype.itemsize
        if len(raw) < offset + nbytes:
            raise TruncatedFileError(f"{path}: truncated payload for {name}")
        arrays[name] = np.frombuffer(
            raw, dtype=dtype, count=count, offset=offset
        ).reshape(shape).copy()
        offset += nbytes
    if offset != len(raw):
        raise DataFormatError(f"{path}: {len(raw) - offset} trailing bytes")
    return kind, meta, arrays


def _array_descriptor(desc):
    """(name, shape, dtype) of an array descriptor: a str name, a list of
    non-negative ints (not bools) and a numeric dtype, else a ValueError
    naming the array."""
    name = desc.get("name") if isinstance(desc, dict) else None
    if not isinstance(name, str):
        raise ValueError(f"array descriptor without a name: {desc!r}")
    shape = desc.get("shape")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"array {name!r}: shape is not a list of non-negative integers: "
                         f"{shape!r}")
    given = desc.get("dtype")
    try:
        dtype = np.dtype(given) if isinstance(given, str) else None
    except TypeError:  # a name numpy does not know
        dtype = None
    if dtype is None or not np.issubdtype(dtype, np.number):
        raise ValueError(f"array {name!r}: dtype is not numeric: {given!r}")
    return name, tuple(shape), dtype


def _pack_layers(prefix: str, layers: Sequence[DenseLayer]):
    return [(f"{prefix}{i}.{part}", array) for i, layer in enumerate(layers)
            for part, array in (("w", layer.weights), ("b", layer.bias))]


def _unpack_layers(prefix: str, count: int, arrays: dict) -> list[DenseLayer]:
    """The count layers saved under prefix, each finite floating (out, in)
    weights and an (out,) bias, else a ValueError naming the layer."""
    layers = []
    for i in range(count):
        w, b = arrays[f"{prefix}{i}.w"], arrays[f"{prefix}{i}.b"]
        if not (w.ndim == 2 and b.shape == w.shape[:1] and w.dtype.kind == b.dtype.kind == "f"):
            raise ValueError(f"layer {prefix}{i}: weights {w.dtype}{list(w.shape)} and bias "
                             f"{b.dtype}{list(b.shape)} are not floating (out, in) and (out,)")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError(f"layer {prefix}{i} holds non-finite values")
        layers.append(DenseLayer(w, b))
    return layers


# (check, what a valid value is) of one metadata value. JSON numbers load as
# int or float and true/false as bool, so type() keeps bools out of numbers.
_POSITIVE_INT = (lambda v: type(v) is int and v >= 1, "a positive integer")
_POSITIVE = (lambda v: type(v) in (int, float) and 0 < v < np.inf, "a finite positive number")
_BOOLS = (lambda v: isinstance(v, list) and len(v) > 0 and all(type(b) is bool for b in v),
          "a non-empty list of bools")
_BY_PARAMS = (lambda v: True, "")  # AppearanceParams or RsdParams checks it as it is built


def _one_of(values: tuple):
    return lambda v: v in values, f"one of {values}"


# key -> (its value in the saved object, check, what a valid value is): save_*
# write exactly these keys, and load_* check them all, in this order, first
_SEG_META = {
    "n_layers": (lambda c: len(c.appearance.layers), *_POSITIVE_INT),
    "iteration": (lambda c: c.iteration, *_POSITIVE_INT),
    "tc_score": (lambda c: c.tc_score,
                 lambda v: type(v) in (int, float) and 0 <= v <= 1, "a number in [0, 1]"),
    "context_lambda": (lambda c: c.appearance.context_lambda, *_BY_PARAMS),
    "trainable_mask": (lambda c: [bool(b) for b in c.appearance.trainable_mask], *_BOOLS),
    "nu0": (lambda c: c.mallows.nu0, *_POSITIVE),
    "r0": (lambda c: c.mallows.r0,
           lambda v: type(v) in (int, float) and 0 <= v < np.inf, "a finite non-negative number"),
    "alpha0": (lambda c: c.lengths.alpha0, *_POSITIVE),
    "n_subactivities": (lambda c: c.mallows.n_subactivities, *_POSITIVE_INT),
    "video_ids": (lambda c: sorted(c.labels),
                  lambda v: isinstance(v, list) and all(type(x) is str for x in v),
                  "a list of strings"),
}
_RSD_META = {
    "n_embed": (lambda p: len(p.embed), *_POSITIVE_INT),
    "context_lambda": (lambda p: p.context_lambda, *_BY_PARAMS),
    "aux_kind": (lambda p: p.aux_kind, *_one_of(AUX_KINDS)),
    "output_scale": (lambda p: p.output_scale, *_BY_PARAMS),
    "trainable_mask": (lambda p: [bool(b) for b in p.trainable_mask], *_BOOLS),
}
# the optional keys the CLI saves beside an RSD model: key -> (check, what)
_RSD_EXTRAS = {
    "pipeline": _one_of(PIPELINES),
    "aux": _one_of(AUX_TASKS),
    "loss": _one_of(LOSSES),
    "seed": (lambda v: type(v) is int, "an integer"),
}


def _check_meta(meta: dict, table: dict, optional: bool = False) -> None:
    """A ValueError naming the first key of table whose value in meta fails its
    check; a key missing from meta is a KeyError, or skipped if optional."""
    for key, (*_, valid, what) in table.items():
        if (key in meta or not optional) and not valid(meta[key]):
            raise ValueError(f"{key} is not {what}: {meta[key]!r}")


def save_seg_checkpoint(ckpt: SegCheckpoint, path) -> None:
    meta = {key: value_of(ckpt) for key, (value_of, *_) in _SEG_META.items()}
    arrays = _pack_layers("layer", ckpt.appearance.layers)
    arrays.append(("rho", ckpt.mallows.rho))
    arrays.append(("theta", ckpt.lengths.theta))
    for vid in meta["video_ids"]:
        arrays.append((f"labels.{vid}", np.asarray(ckpt.labels[vid], dtype=np.int64)))
    _write_container(path, _KIND_SEG, meta, arrays)


def load_seg_checkpoint(path, expect_feature_dim: int | None = None) -> SegCheckpoint:
    _, meta, arrays = _read_container(path, _KIND_SEG)
    with _data_errors(path):
        _check_meta(meta, _SEG_META)
        layers = _unpack_layers("layer", meta["n_layers"], arrays)
        app = AppearanceParams(layers, meta["trainable_mask"], meta["context_lambda"])
        if expect_feature_dim is not None and app.feature_dim != expect_feature_dim:
            raise ShapeMismatchError(f"{path}: expects {app.feature_dim}-dim features, "
                                     f"corpus has {expect_feature_dim}")
        k = meta["n_subactivities"]
        if app.n_classes != k:
            raise ShapeMismatchError(f"{path}: classifier width disagrees with subactivity count")
        mallows = MallowsModel(k, arrays["rho"], meta["nu0"], meta["r0"])
        lengths = LengthModel(k, arrays["theta"], meta["alpha0"])
        labels = {vid: arrays[f"labels.{vid}"] for vid in meta["video_ids"]}
        for vid, lab in labels.items():
            if not np.issubdtype(lab.dtype, np.integer) or ((lab < 0) | (lab >= k)).any():
                raise ValueError(f"labels of video {vid!r} are not integers in [0, {k})")
        return SegCheckpoint(meta["iteration"], app, mallows, lengths, labels, meta["tc_score"])


def save_rsd_checkpoint(params: RsdParams, path, meta_extra: dict | None = None) -> None:
    extra = meta_extra or {}
    if not extra.keys() <= _RSD_EXTRAS.keys():
        raise ValueError(f"extras must be among {sorted(_RSD_EXTRAS)}: {sorted(extra)}")
    _check_meta(extra, _RSD_EXTRAS, optional=True)
    meta = {key: value_of(params) for key, (value_of, *_) in _RSD_META.items()} | extra
    arrays = _pack_layers("embed", params.embed)
    arrays += _pack_layers("head1_", [params.head1])
    arrays += _pack_layers("head2_", [params.head2])
    if params.aux_head is not None:
        arrays += _pack_layers("aux_", [params.aux_head])
    _write_container(path, _KIND_RSD, meta, arrays)


def load_rsd_checkpoint(path, expect_feature_dim: int | None = None):
    """Returns (params, meta); meta keeps the extras saved alongside."""
    _, meta, arrays = _read_container(path, _KIND_RSD)
    with _data_errors(path):
        _check_meta(meta, _RSD_META)
        _check_meta(meta, _RSD_EXTRAS, optional=True)
        embed = _unpack_layers("embed", meta["n_embed"], arrays)
        head1 = _unpack_layers("head1_", 1, arrays)[0]
        head2 = _unpack_layers("head2_", 1, arrays)[0]
        aux = _unpack_layers("aux_", 1, arrays)[0] if meta["aux_kind"] != "none" else None
        params = RsdParams(
            embed, meta["context_lambda"], head1, head2, aux, meta["aux_kind"],
            meta["trainable_mask"], meta["output_scale"],
        )
        if expect_feature_dim is not None and embed[0].in_dim != expect_feature_dim:
            raise ShapeMismatchError(f"{path}: expects {embed[0].in_dim}-dim features, "
                                     f"corpus has {expect_feature_dim}")
        return params, meta
