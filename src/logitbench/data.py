"""Synthetic dataset generators (Gaussian blobs for ID, four OOD families)
and delimited-text ingestion. All generators are pure functions of their
parameters and seed."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, DataError, read_lines
from .tensor import Matrix2D

OOD_KINDS = ("uniform_box", "gaussian_noise", "ring", "shifted_blobs")


@dataclass(frozen=True)
class LabeledDataset:
    features: Matrix2D
    labels: np.ndarray
    k: int
    origin_tag: str

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.rows < 1:
            raise DataError("dataset must be nonempty")
        if labels.shape != (self.features.rows,):
            raise DataError(f"labels shape {labels.shape} for {self.features.rows} rows")
        if labels.min() < 0 or labels.max() >= self.k:
            raise DataError(f"labels out of range [0, {self.k})")
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.rows

    @property
    def dim(self) -> int:
        return self.features.cols


@dataclass(frozen=True)
class OodDataset:
    features: Matrix2D
    origin_tag: str

    def __post_init__(self):
        if self.features.rows < 1:
            raise DataError("dataset must be nonempty")

    @property
    def n(self) -> int:
        return self.features.rows

    @property
    def dim(self) -> int:
        return self.features.cols


def _class_means(k: int, d: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """k deterministic (given rng state) directions scaled to the given radius."""
    dirs = rng.standard_normal((k, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs * radius


def gen_blobs(k: int, d: int, n_per_class: int, cluster_spread: float,
              cluster_radius: float, seed: int) -> LabeledDataset:
    """Isotropic Gaussian blobs with class means on a radius-r sphere."""
    if k < 2 or d < 2:
        raise ConfigError(f"need k >= 2 and d >= 2, got k={k}, d={d}")
    if n_per_class < 1:
        raise ConfigError(f"n_per_class must be >= 1, got {n_per_class}")
    rng = np.random.default_rng(seed)
    means = _class_means(k, d, cluster_radius, rng)
    features = np.repeat(means, n_per_class, axis=0)
    features = features + cluster_spread * rng.standard_normal(features.shape)
    labels = np.repeat(np.arange(k), n_per_class)
    return LabeledDataset(Matrix2D(features), labels, k, f"blobs_k{k}_d{d}")


def gen_ood(kind: str, d: int, m: int, params: Optional[dict] = None,
            seed: int = 0) -> OodDataset:
    """OOD sample generators.

    uniform_box:    hypercube [-half_width, half_width]^d
    gaussian_noise: isotropic N(mean, std^2)
    ring:           radius + jitter * N(0,1) along uniform directions
    shifted_blobs:  blob machinery with displaced class means (near-OOD)
    """
    params = dict(params or {})
    rng = np.random.default_rng(seed)
    if kind == "uniform_box":
        hw = float(params.pop("half_width", 1.0))
        feats = rng.uniform(-hw, hw, size=(m, d))
    elif kind == "gaussian_noise":
        mean = float(params.pop("mean", 0.0))
        std = float(params.pop("std", 1.0))
        feats = mean + std * rng.standard_normal((m, d))
    elif kind == "ring":
        radius = float(params.pop("radius", 1.0))
        jitter = float(params.pop("jitter", 0.0))
        dirs = rng.standard_normal((m, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        feats = dirs * (radius + jitter * rng.standard_normal((m, 1)))
    elif kind == "shifted_blobs":
        k = int(params.pop("k", 10))
        radius = float(params.pop("cluster_radius", 1.0))
        spread = float(params.pop("cluster_spread", 1.0))
        shift = float(params.pop("shift", 0.0))
        means = _class_means(k, d, radius, rng)
        offsets = rng.standard_normal((k, d))
        offsets /= np.linalg.norm(offsets, axis=1, keepdims=True)
        means = means + shift * offsets
        idx = np.arange(m) % k
        feats = means[idx] + spread * rng.standard_normal((m, d))
    else:
        raise ConfigError(f"unknown OOD kind {kind!r}, expected one of {OOD_KINDS}")
    if params:
        raise ConfigError(f"unknown params for OOD kind {kind!r}: {sorted(params)}")
    return OodDataset(Matrix2D(feats), kind)


def split(dataset: LabeledDataset, fractions: tuple[float, float],
          seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Class-stratified disjoint split; fractions must sum to 1."""
    f_train, f_test = fractions
    if f_train <= 0 or f_test <= 0 or abs(f_train + f_test - 1.0) > 1e-9:
        raise ConfigError(f"fractions must be positive and sum to 1, got {fractions}")
    rng = np.random.default_rng(seed)
    train_idx = []
    test_idx = []
    for c in range(dataset.k):
        members = np.flatnonzero(dataset.labels == c)
        if len(members) < 2:
            raise DataError(f"class {c} has {len(members)} samples, need >= 2 to split")
        members = rng.permutation(members)
        n_train = int(round(f_train * len(members)))
        n_train = min(max(n_train, 1), len(members) - 1)
        train_idx.append(members[:n_train])
        test_idx.append(members[n_train:])
    train_idx = np.concatenate(train_idx)
    test_idx = np.concatenate(test_idx)
    return (
        LabeledDataset(Matrix2D(dataset.features.data[train_idx]),
                       dataset.labels[train_idx], dataset.k, dataset.origin_tag),
        LabeledDataset(Matrix2D(dataset.features.data[test_idx]),
                       dataset.labels[test_idx], dataset.k, dataset.origin_tag),
    )


def corrupt_labels(dataset: LabeledDataset, fraction: float,
                   seed: int) -> LabeledDataset:
    """Reassign a seeded random `fraction` of labels to a different class.

    Flipped labels are drawn uniformly from the other k-1 classes, so every
    corrupted example is guaranteed to disagree with its original annotation.
    """
    if not 0.0 <= fraction < 1.0:
        raise ConfigError(f"fraction must be in [0, 1), got {fraction}")
    if fraction == 0.0:
        return dataset
    rng = np.random.default_rng(seed)
    labels = dataset.labels.copy()
    n_flip = int(fraction * len(labels))
    idx = rng.choice(len(labels), size=n_flip, replace=False)
    labels[idx] = (labels[idx] + rng.integers(1, dataset.k, n_flip)) % dataset.k
    return LabeledDataset(dataset.features, labels, dataset.k, dataset.origin_tag)


def load_delimited(path, has_label: bool, k: Optional[int] = None
                   ) -> Union[LabeledDataset, OodDataset]:
    """Comma-separated rows, optional trailing integer label, '#' comments.
    A label is a class index in [0, k), or in [0, 2**31) without k."""
    rows = []
    labels = []
    width = None
    label_limit = k if k is not None else 2**31
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
            if has_label and width < 2:
                raise DataError(f"{path}: line {lineno}: no feature before the label")
        elif len(cells) != width:
            raise DataError(f"{path}: line {lineno}: expected {width} fields, got {len(cells)}")
        try:
            values = [float(c) for c in cells]
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: non-numeric cell ({exc})") from None
        if not all(map(math.isfinite, values)):
            raise DataError(f"{path}: line {lineno}: non-finite value")
        if has_label:
            label = values.pop()
            if not (label.is_integer() and 0 <= label < label_limit):
                raise DataError(f"{path}: line {lineno}: label {label} is not a class "
                                f"index in [0, {label_limit})")
            labels.append(int(label))
        rows.append(values)
    if not rows:
        raise DataError(f"{path}: no data rows")
    features = Matrix2D(np.array(rows))
    if has_label:
        k_eff = k if k is not None else max(labels) + 1
        return LabeledDataset(features, np.array(labels), k_eff, str(path))
    return OodDataset(features, str(path))


def save_delimited(dataset: Union[LabeledDataset, OodDataset], path) -> None:
    with open(path, "w") as fh:
        for i in range(dataset.n):
            cells = [f"{v:.17g}" for v in dataset.features.row(i)]
            if isinstance(dataset, LabeledDataset):
                cells.append(str(int(dataset.labels[i])))
            fh.write(",".join(cells) + "\n")
