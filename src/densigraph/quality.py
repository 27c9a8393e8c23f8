"""Semi-supervised outlier clustering: standardized k-means over image
features, seeded from a small labeled set.

Clustering catches frames that decode fine but are not traffic snapshots
(camera-error notification images and the like). Failed, duplicate, empty
and undecodable frames never get here: `clean` removes them by rule before
it computes any feature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFeatures, TooFewPoints

__all__ = [
    "REGULAR",
    "OUTLIER",
    "FEATURES",
    "LabeledSet",
    "ClusterModel",
    "extract_features",
    "fit_clusters",
    "classify",
]

REGULAR = "regular"
OUTLIER = "outlier"

# the columns of a feature row
FEATURES = ("byte_size", "width", "height", "mean_intensity", "intensity_variance", "edge_density")

EDGE_STEP = 16  # horizontal-neighbor intensity jump that counts as an edge


@dataclass(frozen=True)
class LabeledSet:
    features: np.ndarray  # (m, len(FEATURES))
    labels: tuple[str, ...]

    def __post_init__(self):
        labels = set(self.labels)
        if not labels <= {REGULAR, OUTLIER}:
            raise ValueError(f"unknown labels {labels - {REGULAR, OUTLIER}}")
        if labels != {REGULAR, OUTLIER}:
            raise ValueError("labeled set needs at least one point of each label")


def extract_features(img: np.ndarray, byte_size: int) -> np.ndarray:
    """Feature row of a decoded uint8 frame whose file holds byte_size bytes.

    Mean, variance and edge density are each an exact ratio of Python ints,
    which int / int rounds once, so none depends on summation order.
    """
    h, w = img.shape
    n = h * w
    # the pixel sum S and sum of squares S2 are exact in float64 in any
    # order while n * 255**2 < 2**53, i.e. for frames under 1.3e11 pixels
    f = img.astype(np.float64).ravel()
    s, s2 = int(f.sum()), int(np.dot(f, f))
    edge = 0.0
    if w > 1:
        diffs = np.subtract(img[:, 1:], img[:, :-1], dtype=np.int16)
        np.abs(diffs, out=diffs)
        edge = np.count_nonzero(diffs > EDGE_STEP) / (h * (w - 1))
    return np.array([byte_size, w, h, s / n, (n * s2 - s * s) / (n * n), edge], dtype=np.float64)


@dataclass(frozen=True)
class ClusterModel:
    centroids: np.ndarray  # (k, dims) in standardized space
    cluster_labels: tuple[str, ...]
    feature_mean: np.ndarray
    feature_std: np.ndarray
    kept_dims: tuple[int, ...]

    def standardize(self, rows: np.ndarray) -> np.ndarray:
        """Standardize a feature row, or each row of a matrix."""
        v = np.asarray(rows, dtype=np.float64)[..., list(self.kept_dims)]
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


def fit_clusters(unlabeled: np.ndarray, labeled: LabeledSet, k: int, seed: int) -> ClusterModel:
    """Standardized k-means over the unlabeled rows and the labeled ones;
    clusters take the majority label of the labeled points they contain,
    empty or tied clusters the label of the nearest labeled point."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(unlabeled) < k:
        raise TooFewPoints(f"{len(unlabeled)} unlabeled points for k={k}")
    raw = np.concatenate([np.asarray(unlabeled, dtype=np.float64), labeled.features])
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
    labeled_assign = assign[len(unlabeled):]
    labeled_points = points[len(unlabeled):]
    is_outlier = np.array([label == OUTLIER for label in labeled.labels])
    n_out = np.bincount(labeled_assign[is_outlier], minlength=k)
    n_reg = np.bincount(labeled_assign[~is_outlier], minlength=k)
    cluster_labels = []
    for j in range(k):
        if n_reg[j] != n_out[j]:
            cluster_labels.append(REGULAR if n_reg[j] > n_out[j] else OUTLIER)
        else:  # tie or empty
            d = ((labeled_points - centroids[j]) ** 2).sum(axis=1)
            cluster_labels.append(labeled.labels[int(d.argmin())])

    return ClusterModel(
        centroids=centroids,
        cluster_labels=tuple(cluster_labels),
        feature_mean=mean,
        feature_std=sd,
        kept_dims=kept,
    )


def classify(model: ClusterModel, rows: np.ndarray) -> list[str]:
    """Label of each row's nearest centroid; exact ties break to the
    lexicographically-first label, then the lowest centroid index."""
    p = model.standardize(np.atleast_2d(rows))
    d2 = ((p[:, None, :] - model.centroids[None, :, :]) ** 2).sum(axis=2)
    # argmin keeps the first of equal minima, so scan the centroids in
    # (label, index) order
    order = sorted(range(len(model.cluster_labels)), key=lambda j: (model.cluster_labels[j], j))
    return [model.cluster_labels[order[i]] for i in d2[:, order].argmin(axis=1)]
