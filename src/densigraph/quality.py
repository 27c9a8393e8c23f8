"""Semi-supervised outlier clustering: standardized k-means over image
features, seeded from a small labeled set.

Clustering catches frames that decode fine but are not traffic snapshots
(camera-error notification images and the like). Failed, duplicate, empty
and undecodable frames never get here: `clean` removes them by rule before
it computes any feature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateFeatures, TooFewPoints

__all__ = [
    "REGULAR",
    "OUTLIER",
    "ImageFeatures",
    "LabeledSet",
    "ClusterModel",
    "extract_features",
    "fit_clusters",
    "classify",
]

REGULAR = "regular"
OUTLIER = "outlier"

EDGE_STEP = 16  # horizontal-neighbor intensity jump that counts as an edge


@dataclass(frozen=True)
class ImageFeatures:
    byte_size: int
    width: int
    height: int
    mean_intensity: float
    intensity_variance: float
    edge_density: float

    def vector(self) -> np.ndarray:
        return np.array(
            [
                self.byte_size,
                self.width,
                self.height,
                self.mean_intensity,
                self.intensity_variance,
                self.edge_density,
            ],
            dtype=np.float64,
        )


@dataclass(frozen=True)
class LabeledSet:
    points: tuple[tuple[ImageFeatures, str], ...]

    def __post_init__(self):
        labels = {label for _, label in self.points}
        if not labels <= {REGULAR, OUTLIER}:
            raise ValueError(f"unknown labels {labels - {REGULAR, OUTLIER}}")
        if labels != {REGULAR, OUTLIER}:
            raise ValueError("labeled set needs at least one point of each label")


def extract_features(img: np.ndarray, byte_size: int) -> ImageFeatures:
    """Features of a decoded frame whose file holds byte_size bytes."""
    h, w = img.shape
    diffs = np.abs(np.diff(img.astype(np.int16), axis=1))
    edge = float((diffs > EDGE_STEP).mean()) if w > 1 else 0.0
    return ImageFeatures(
        byte_size=byte_size,
        width=w,
        height=h,
        mean_intensity=float(img.mean()),
        intensity_variance=float(img.var()),
        edge_density=edge,
    )


@dataclass(frozen=True)
class ClusterModel:
    centroids: np.ndarray  # (k, dims) in standardized space
    cluster_labels: tuple[str, ...]
    feature_mean: np.ndarray
    feature_std: np.ndarray
    kept_dims: tuple[int, ...]

    def standardize(self, vec: np.ndarray) -> np.ndarray:
        v = np.asarray(vec, dtype=np.float64)[list(self.kept_dims)]
        return (v - self.feature_mean) / self.feature_std


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centroids = [points[rng.integers(points.shape[0])]]
    for _ in range(k - 1):
        d2 = np.min(
            [((points - c) ** 2).sum(axis=1) for c in centroids], axis=0
        )
        total = d2.sum()
        if total == 0:
            centroids.append(points[rng.integers(points.shape[0])])
            continue
        centroids.append(points[rng.choice(points.shape[0], p=d2 / total)])
    return np.array(centroids)


def fit_clusters(
    unlabeled: Sequence[ImageFeatures],
    labeled: LabeledSet,
    k: int,
    seed: int,
) -> ClusterModel:
    """Standardized k-means over unlabeled+labeled points; clusters take the
    majority label of the labeled points they contain, empty or tied
    clusters inherit from the nearest labeled centroid."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(unlabeled) < k:
        raise TooFewPoints(f"{len(unlabeled)} unlabeled points for k={k}")
    raw = np.array(
        [f.vector() for f in unlabeled] + [f.vector() for f, _ in labeled.points]
    )
    std = raw.std(axis=0)
    kept = tuple(int(i) for i in np.nonzero(std > 0)[0])
    if not kept:
        raise DegenerateFeatures("every feature dimension has zero variance")
    mean = raw[:, kept].mean(axis=0)
    sd = std[list(kept)]
    points = (raw[:, kept] - mean) / sd

    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(points, k, rng)
    for _ in range(100):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        new = centroids.copy()
        for j in range(k):
            members = points[assign == j]
            if members.size:
                new[j] = members.mean(axis=0)
        motion = np.abs(new - centroids).max()
        centroids = new
        if motion < 1e-6:
            break

    # label propagation from the labeled tail of `points`
    n_unlabeled = len(unlabeled)
    labeled_assign = assign[n_unlabeled:]
    labeled_points = points[n_unlabeled:]
    label_names = [label for _, label in labeled.points]
    cluster_labels: list[str | None] = []
    for j in range(k):
        votes = [label_names[i] for i in range(len(label_names)) if labeled_assign[i] == j]
        n_reg = votes.count(REGULAR)
        n_out = votes.count(OUTLIER)
        if n_reg > n_out:
            cluster_labels.append(REGULAR)
        elif n_out > n_reg:
            cluster_labels.append(OUTLIER)
        else:
            cluster_labels.append(None)  # tie or empty
    for j in range(k):
        if cluster_labels[j] is None:
            d = ((labeled_points - centroids[j]) ** 2).sum(axis=1)
            cluster_labels[j] = label_names[int(d.argmin())]

    return ClusterModel(
        centroids=centroids,
        cluster_labels=tuple(cluster_labels),
        feature_mean=mean,
        feature_std=sd,
        kept_dims=kept,
    )


def classify(model: ClusterModel, features: ImageFeatures) -> str:
    """Label of the nearest centroid; exact ties break to the
    lexicographically-first label, then lowest centroid index."""
    p = model.standardize(features.vector())
    d2 = ((model.centroids - p) ** 2).sum(axis=1)
    best = min(range(len(d2)), key=lambda j: (d2[j], model.cluster_labels[j], j))
    return model.cluster_labels[best]
