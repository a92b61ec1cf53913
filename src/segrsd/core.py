"""Shared domain types: frame-feature sequences, segmentations, corpora.

A video is a uniform grid of per-frame feature vectors. A segmentation is an
ordered list of (subactivity, length) runs covering the video, with each
subactivity appearing at most once. Remaining duration at a frame is always
derived from the grid, never stored.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DataFormatError

SPLITS = ("train", "val", "test")


def derive_seed(*parts) -> int:
    """Stable 63-bit seed keyed by the given parts.

    Unlike builtin hash() this does not depend on process salt, so parallel
    or repeated runs get identical per-key streams.
    """
    key = "|".join(str(p) for p in parts).encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def derived_rng(*parts) -> np.random.Generator:
    return np.random.default_rng(derive_seed(*parts))


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class VideoSequence:
    """One recorded procedure: per-frame features on a uniform time grid."""

    id: str
    features: np.ndarray = field(repr=False)  # (n_frames, n_features) float64
    frame_period_s: float = 1.0
    phase_labels: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {feats.shape}")
        if feats.shape[0] < 2 or feats.shape[1] < 1:
            raise ValueError(f"need at least 2 frames and 1 feature, got {feats.shape}")
        if not np.all(np.isfinite(feats)):
            raise ValueError(f"non-finite feature values in video {self.id!r}")
        if not self.frame_period_s > 0:
            raise ValueError(f"frame_period_s must be positive, got {self.frame_period_s}")
        object.__setattr__(self, "features", _freeze(feats))
        if self.phase_labels is not None:
            phases = np.asarray(self.phase_labels, dtype=np.int64)
            if phases.shape != (feats.shape[0],):
                raise ValueError("phase_labels length must match the frame count")
            if phases.min() < 0:
                raise ValueError("phase labels must be non-negative")
            object.__setattr__(self, "phase_labels", _freeze(phases))

    @property
    def n_frames(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def duration_min(self) -> float:
        return self.n_frames * self.frame_period_s / 60.0

    def elapsed_min(self) -> np.ndarray:
        """Minutes elapsed at each frame (0 at the first frame)."""
        return np.arange(self.n_frames) * (self.frame_period_s / 60.0)

    def remaining_min(self) -> np.ndarray:
        """Ground-truth remaining minutes at each frame; positive everywhere."""
        return self.duration_min - self.elapsed_min()


@dataclass(frozen=True)
class Segmentation:
    """Ordered (subactivity, length) runs; each subactivity appears at most once."""

    segments: tuple[tuple[int, int], ...]
    n_subactivities: int

    def __post_init__(self):
        object.__setattr__(
            self, "segments", tuple((int(a), int(n)) for a, n in self.segments)
        )
        if not self.segments:
            raise ValueError("segmentation must contain at least one segment")
        seen = set()
        for sub, length in self.segments:
            if not 0 <= sub < self.n_subactivities:
                raise ValueError(f"subactivity {sub} outside [0, {self.n_subactivities})")
            if length < 1:
                raise ValueError(f"segment length must be >= 1, got {length}")
            if sub in seen:
                raise ValueError(f"subactivity {sub} appears more than once")
            seen.add(sub)

    @property
    def order(self) -> tuple[int, ...]:
        return tuple(sub for sub, _ in self.segments)

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(length for _, length in self.segments)

    @property
    def n_frames(self) -> int:
        return sum(self.lengths)


def segmentation_to_labels(seg: Segmentation) -> np.ndarray:
    """Expand runs to one subactivity id per frame."""
    return np.repeat(np.array(seg.order, dtype=np.int64), np.array(seg.lengths))


@dataclass
class Corpus:
    """A set of videos with a train/val/test partition by video id."""

    videos: list[VideoSequence]
    split: dict[str, str]

    def __post_init__(self):
        if not self.videos:
            raise ValueError("corpus must contain at least one video")
        ids = [v.id for v in self.videos]
        if len(set(ids)) != len(ids):
            raise ValueError("video ids must be unique")
        dims = {v.n_features for v in self.videos}
        if len(dims) != 1:
            raise ValueError(f"videos disagree on feature dimension: {sorted(dims)}")
        if set(self.split) != set(ids):
            raise ValueError("split must assign every video id exactly once")
        bad = {s for s in self.split.values() if s not in SPLITS}
        if bad:
            raise ValueError(f"unknown split names: {sorted(bad)}")
        self._by_id = {v.id: v for v in self.videos}

    @property
    def feature_dim(self) -> int:
        return self.videos[0].n_features

    def video(self, video_id: str) -> VideoSequence:
        return self._by_id[video_id]

    def by_split(self, name: str) -> list[VideoSequence]:
        if name not in SPLITS:
            raise ValueError(f"unknown split {name!r}")
        return [v for v in self.videos if self.split[v.id] == name]

    def check_labels(
        self, labels: dict[str, np.ndarray], source: str, required: Sequence[str] = ()
    ) -> None:
        """Raise DataFormatError unless every video that labels (video id ->
        per-frame labels) covers is in the corpus, with one label per frame,
        and labels covers every video id in required. The message starts
        with source, the labels' origin."""
        missing = sorted(set(labels) - set(self.split))
        if missing:
            raise DataFormatError(f"{source}: labels videos the corpus lacks: {missing}")
        for vid, lab in labels.items():
            n = self._by_id[vid].n_frames
            if len(lab) != n:
                raise DataFormatError(
                    f"{source}: label counts differ from the frame counts: "
                    f"{len(lab)} labels for video {vid!r} of {n} frames"
                )
        missing = [vid for vid in required if vid not in labels]
        if missing:
            raise DataFormatError(f"{source} lacks labels for videos {missing}")
