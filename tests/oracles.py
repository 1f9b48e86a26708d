"""Reference implementations the fast selection and clustering paths are checked against.

The subset references deliberately share no code with ``selfgallery.selection``,
and the K-Means reference none with ``selfgallery.clustering``'s screen.
"""

from itertools import combinations
from math import comb
from typing import Sequence

import numpy as np

from selfgallery.clustering import MAX_ITER, REL_TOL, USER_MEANS, Clustering, KMeansParams
from selfgallery.core import Template

MIN_SUM = "min_sum_pairwise_sq"
MAX_SUM = "max_sum_pairwise_sq"

ORACLE_BUDGET = 10**7


def subset_objective(sqmat: np.ndarray, idx: Sequence[int]) -> float:
    """Sum of pairwise squared distances within the subset (unordered pairs)."""
    idx = list(idx)
    sub = sqmat[np.ix_(idx, idx)]
    return float(np.sum(np.triu(sub, k=1)))


def oracle_subset_select(
    candidates: Sequence[Template], p: int, objective: str
) -> list[Template]:
    """Exact optimum by full enumeration; test oracle for the fast paths.

    Deliberately shares no code with select_mdist/select_dend: plain
    python loops over an explicitly built pair-distance table.
    """
    if objective not in (MIN_SUM, MAX_SUM):
        raise ValueError(f"unknown objective: {objective!r}")
    if p < 1:
        raise ValueError("p must be positive")
    cands = sorted(candidates, key=lambda t: t.sample.id)
    n = len(cands)
    if n <= p:
        return cands
    if comb(n, p) > ORACLE_BUDGET:
        raise ValueError("enumeration budget exceeded")
    maximize = objective == MAX_SUM
    sq = [[0.0] * n for _ in range(n)]
    for i in range(n):
        vi = cands[i].sample.vector
        for j in range(i + 1, n):
            vj = cands[j].sample.vector
            d2 = sum((a - b) ** 2 for a, b in zip(vi, vj))
            sq[i][j] = sq[j][i] = d2
    best_idx = None
    best_obj = None
    for idx in combinations(range(n), p):
        obj = sum(sq[a][b] for a, b in combinations(idx, 2))
        if best_obj is None or (obj > best_obj if maximize else obj < best_obj):
            best_obj, best_idx = obj, idx
    return [cands[i] for i in best_idx]


def exact_assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Each point's nearest centroid by exact squared distance, the first on
    ties, then the empty-cluster repair ``kmeans`` documents.

    The squared distance of a point to a centroid is the einsum of their
    coordinate differences, the row kernel of ``_distances_to_rows``; every
    (point, centroid) pair is computed.
    """
    d2 = np.stack([np.einsum("ij,ij->i", points - c, points - c) for c in centroids], axis=1)
    assignment = np.argmin(d2, axis=1)
    counts = np.bincount(assignment, minlength=len(centroids))
    cur = d2[np.arange(len(points)), assignment]
    for c in np.flatnonzero(counts == 0):
        donor = int(np.argmax(np.where(counts[assignment] >= 2, cur, -np.inf)))
        counts[assignment[donor]] -= 1
        counts[c] += 1
        assignment[donor] = c
    return assignment


def masked_mean_kmeans(points, params: KMeansParams, labels=None) -> Clustering:
    """Lloyd K-Means: every pass assigns with ``exact_assign`` and takes each
    mean from one boolean mask per cluster, and a final pass assigns again.

    The reference for ``kmeans``'s assignments, centroids, inertia, history
    and pass count.
    """
    points = np.asarray(points, dtype=np.float64)
    if params.init == USER_MEANS:
        labels = np.asarray(labels)
        centroids = np.stack([points[labels == u].mean(axis=0) for u in np.unique(labels)])
    else:
        rng = np.random.default_rng(params.seed)
        centroids = points[rng.choice(points.shape[0], size=params.k, replace=False)].copy()
    history = []
    for n_iter in range(1, MAX_ITER + 1):
        assignment = exact_assign(points, centroids)
        centroids = np.stack([points[assignment == c].mean(axis=0) for c in range(params.k)])
        inertia = float(np.sum((points - centroids[assignment]) ** 2))
        history.append(inertia)
        if len(history) >= 2:
            prev = history[-2]
            if prev == 0.0 or (prev - inertia) / prev < REL_TOL:
                break
    assignment = exact_assign(points, centroids)
    inertia = float(np.sum((points - centroids[assignment]) ** 2))
    return Clustering(assignment, centroids, inertia, n_iter, tuple(history))


def dominant_cluster_for_user(
    clustering: Clustering, labels: Sequence[int], user: int
) -> int:
    """Cluster holding the most points (pseudo-)labeled with ``user``.

    Ties break to the lowest cluster index. The reference for the
    dominant clusters ``select_kmeans`` takes from one count table.
    """
    labels = np.asarray(labels)
    mask = labels == user
    if not np.any(mask):
        raise ValueError(f"user {user} has no labeled points")
    counts = np.bincount(
        clustering.assignment[mask], minlength=clustering.centroids.shape[0]
    )
    return int(np.argmax(counts))  # argmax returns the first (lowest) index on ties
