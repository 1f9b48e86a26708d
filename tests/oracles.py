"""Reference implementations the fast selection and clustering paths are checked against.

The subset references deliberately share no code with ``selfgallery.selection``,
and the K-Means reference none with ``selfgallery.clustering``'s screen.
``reference_sequence`` is the whole self-update loop as a plain loop over these
references and the row kernel ``_distances_to_rows``.
"""

from itertools import combinations
from math import comb
from typing import Sequence

import numpy as np

from selfgallery.clustering import MAX_ITER, REL_TOL, USER_MEANS, Clustering, KMeansParams
from selfgallery.core import Template
from selfgallery.matching import _distances_to_rows

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


def _stacked(gallery):
    """A {user: [(sample id, vector), ...]} gallery's rows, users ascending,
    each user's rows in insertion order: the vectors and each row's owner."""
    users = sorted(gallery)
    mat = np.array([v for u in users for _, v in gallery[u]])
    return mat, np.array([u for u in users for _ in gallery[u]])


def reference_threshold(gallery, metric, policy) -> float:
    """t*: the policy's order statistic of the sorted pool of every
    cross-user pair's distance, each row scored against every row."""
    mat, owner = _stacked(gallery)
    pool = np.concatenate(
        [_distances_to_rows(v, mat, metric)[i + 1 :][owner[i + 1 :] != owner[i]]
         for i, v in enumerate(mat)]
    )
    return float(np.sort(pool)[policy.rank(pool.size)])


def _reference_kept(method, candidates, p):
    """The sample ids ``method`` keeps of each user's (sample id, vector) candidates."""
    if method == "keep_all":
        return {sid for rows in candidates.values() for sid, _ in rows}
    users = sorted(candidates)
    own = [sorted(candidates[u], key=lambda r: r[0]) for u in users]
    kept = set()
    if method == "kmeans":
        labels = np.repeat(np.arange(len(users)), [len(rows) for rows in own])
        points = np.array([v for rows in own for _, v in rows])
        cl = masked_mean_kmeans(points, KMeansParams(k=len(users)), labels)
        for j, rows in enumerate(own):
            centroid = cl.centroids[dominant_cluster_for_user(cl, labels, j)]
            d2 = np.sum((np.array([v for _, v in rows]) - centroid) ** 2, axis=1)
            kept.update(rows[i][0] for i in np.argsort(d2, kind="stable")[:p].tolist())
        return kept
    maximize = method == "dend"
    for rows in own:
        vecs = np.array([v for _, v in rows])
        sqmat = np.stack([np.einsum("ij,ij->i", vecs - v, vecs - v) for v in vecs])
        best, best_obj = None, None
        for idx in combinations(range(len(rows)), min(p, len(rows))):
            obj = subset_objective(sqmat, idx)
            if best is None or (obj > best_obj if maximize else obj < best_obj):
                best, best_obj = idx, obj
        kept.update(rows[i][0] for i in best)
    return kept


def reference_sequence(gallery, batches, method, p, metric, policy):
    """The classification-selection loop, one plain step at a time.

    ``gallery`` maps each user to its (sample id, vector) rows in insertion
    order, and each batch is a list of (sample id, vector). Each probe is
    scored against every pre-cycle row and takes the first nearest row on
    ties; it is accepted iff its distance is < t*. Each user's candidates
    are its rows, then its accepted probes in batch order; MDIST/DEND try
    every subset of the id-sorted candidates through ``subset_objective``
    on an exact squared matrix, and K-Means keeps the p candidates nearest
    the dominant centroid of ``masked_mean_kmeans``, id order on ties. t* is
    estimated again after every cycle.

    Returns, per cycle, the t* used, the insertions (sample id, label), the
    evictions (sample id, user) and the gallery after it, in the input form.
    """
    cycles = []
    t_star = reference_threshold(gallery, metric, policy)
    for batch in batches:
        mat, owner = _stacked(gallery)
        candidates = {u: list(rows) for u, rows in gallery.items()}
        insertions = []
        for sid, v in batch:
            dists = _distances_to_rows(v, mat, metric)
            i = int(np.argmin(dists))  # the first row on ties
            if dists[i] < t_star:
                label = int(owner[i])
                candidates[label].append((sid, v))
                insertions.append((sid, label))
        kept = _reference_kept(method, candidates, p)
        users = sorted(candidates)
        evictions = [(sid, u) for u in users for sid, _ in candidates[u] if sid not in kept]
        gallery = {u: [r for r in candidates[u] if r[0] in kept] for u in users}
        cycles.append((t_star, insertions, evictions, gallery))
        t_star = reference_threshold(gallery, metric, policy)
    return cycles
