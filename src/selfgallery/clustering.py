"""Lloyd K-Means and the user-to-cluster association used by selection.

Squared euclidean is always the clustering metric, independently of the
matching metric; the selection objectives are written with squares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

USER_MEANS = "user_means"
SEEDED_RANDOM = "seeded_random"


@dataclass(frozen=True)
class KMeansParams:
    k: int
    max_iter: int = 100
    rel_tol: float = 1e-6
    init: str = USER_MEANS
    seed: Optional[int] = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.init not in (USER_MEANS, SEEDED_RANDOM):
            raise ValueError(f"unknown init: {self.init!r}")
        if self.init == SEEDED_RANDOM and self.seed is None:
            raise ValueError("seeded_random init needs a seed")


@dataclass(frozen=True)
class Clustering:
    assignment: np.ndarray  # point index -> cluster index
    centroids: np.ndarray  # k x d
    inertia: float
    n_iter: int
    inertia_history: tuple[float, ...] = ()


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    p2 = np.sum(points * points, axis=1)[:, None]
    c2 = np.sum(centroids * centroids, axis=1)[None, :]
    return np.maximum(p2 + c2 - 2.0 * (points @ centroids.T), 0.0)


def _assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid assignment that leaves no cluster empty.

    Each empty cluster, in index order, takes the point farthest from its
    assigned centroid among clusters holding at least two points. So the
    repair never empties a cluster, and never re-takes a point it moved,
    since a moved point is alone in its new cluster.
    """
    d2 = _sq_dists(points, centroids)
    assignment = np.argmin(d2, axis=1)
    counts = np.bincount(assignment, minlength=centroids.shape[0])
    cur = d2[np.arange(points.shape[0]), assignment]
    for c in np.flatnonzero(counts == 0):
        donor = int(np.argmax(np.where(counts[assignment] >= 2, cur, -np.inf)))
        counts[assignment[donor]] -= 1
        counts[c] += 1
        assignment[donor] = c
    return assignment


def _init_centroids(
    points: np.ndarray, params: KMeansParams, labels: Optional[Sequence[int]]
) -> np.ndarray:
    if params.init == USER_MEANS:
        if labels is None:
            raise ValueError("user_means init needs point labels")
        labels = np.asarray(labels)
        uniq = np.unique(labels)
        if len(uniq) != params.k:
            raise ValueError(
                f"user_means init: {len(uniq)} distinct labels but k={params.k}"
            )
        return np.stack([points[labels == u].mean(axis=0) for u in uniq])
    rng = np.random.default_rng(params.seed)
    idx = rng.choice(points.shape[0], size=params.k, replace=False)
    return points[idx].copy()


def kmeans(
    points: np.ndarray,
    params: KMeansParams,
    labels: Optional[Sequence[int]] = None,
) -> Clustering:
    """Lloyd iterations over ``points`` (n x d).

    With init=user_means, centroid j is seeded from the mean of points
    currently labeled with the j-th distinct label, so centroid indexing
    aligns with users. Stops when the relative inertia improvement falls
    below rel_tol or after max_iter passes. An empty cluster is reseeded
    as ``_assign`` describes.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("points must be a nonempty n x d array")
    n = points.shape[0]
    if params.k > n:
        raise ValueError(f"k={params.k} exceeds number of points {n}")

    centroids = _init_centroids(points, params, labels)
    history: list[float] = []
    n_iter = 0
    for n_iter in range(1, params.max_iter + 1):
        assignment = _assign(points, centroids)
        centroids = np.stack(
            [points[assignment == c].mean(axis=0) for c in range(params.k)]
        )
        inertia = float(np.sum((points - centroids[assignment]) ** 2))
        history.append(inertia)
        if len(history) >= 2:
            prev = history[-2]
            if prev == 0.0 or (prev - inertia) / prev < params.rel_tol:
                break

    # final pass so every point is assigned to its nearest returned centroid
    assignment = _assign(points, centroids)
    inertia = float(np.sum((points - centroids[assignment]) ** 2))
    return Clustering(
        assignment=assignment,
        centroids=centroids,
        inertia=inertia,
        n_iter=n_iter,
        inertia_history=tuple(history),
    )


def dominant_cluster_for_user(
    clustering: Clustering, labels: Sequence[int], user: int
) -> int:
    """Cluster holding the most points (pseudo-)labeled with ``user``.

    Ties break to the lowest cluster index.
    """
    labels = np.asarray(labels)
    mask = labels == user
    if not np.any(mask):
        raise ValueError(f"user {user} has no labeled points")
    counts = np.bincount(
        clustering.assignment[mask], minlength=clustering.centroids.shape[0]
    )
    return int(np.argmax(counts))  # argmax returns the first (lowest) index on ties
