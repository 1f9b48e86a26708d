"""Reference implementations the fast selection and clustering paths are checked against.

The subset references deliberately share no code with ``selfgallery.selection``,
and the K-Means reference none with ``selfgallery.clustering``'s screen.
``reference_sequence`` is the whole self-update loop as a plain loop over these
references and the row kernel ``_distances_to_rows``. ``reference_generate`` is
the synthetic generator as a plain loop that gives each sample its own vector,
and ``reference_split`` the dataset split as a loop that labels every sample it
deals out.
"""

from itertools import combinations
from math import comb
from typing import Sequence

import numpy as np

from selfgallery.clustering import MAX_ITER, REL_TOL, Clustering
from selfgallery.core import Sample
from selfgallery.matching import _distances_to_rows
from selfgallery.synthgen import user_means

MIN_SUM = "min_sum_pairwise_sq"
MAX_SUM = "max_sum_pairwise_sq"

ORACLE_BUDGET = 10**7


def sq_norms_by_row(diff: np.ndarray) -> np.ndarray:
    """Each row's squared norm, every row summed on its own by a one-row
    einsum. numpy sums a lone row in one order at any width, the order of
    the row kernel; one einsum over several rows of more than 8192 columns
    sums them in another."""
    return np.array([np.einsum("ij,ij->i", row, row)[0] for row in diff[:, None, :]])


def subset_objective(sqmat: np.ndarray, idx: Sequence[int]) -> float:
    """Sum of pairwise squared distances within the subset (unordered pairs)."""
    idx = list(idx)
    sub = sqmat[np.ix_(idx, idx)]
    return float(np.sum(np.triu(sub, k=1)))


def oracle_subset_select(
    candidates: Sequence[Sample], p: int, objective: str
) -> list[Sample]:
    """Exact optimum by full enumeration; test oracle for the fast paths.

    Deliberately shares no code with select_mdist/select_dend: plain
    python loops over an explicitly built pair-distance table.
    """
    if objective not in (MIN_SUM, MAX_SUM):
        raise ValueError(f"unknown objective: {objective!r}")
    if p < 1:
        raise ValueError("p must be positive")
    cands = sorted(candidates, key=lambda s: s.id)
    n = len(cands)
    if n <= p:
        return cands
    if comb(n, p) > ORACLE_BUDGET:
        raise ValueError("enumeration budget exceeded")
    maximize = objective == MAX_SUM
    sq = [[0.0] * n for _ in range(n)]
    for i in range(n):
        vi = cands[i].vector
        for j in range(i + 1, n):
            vj = cands[j].vector
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

    The squared distance of a point to a centroid is the one-row einsum of
    their coordinate differences (``sq_norms_by_row``), the row kernel of
    ``_distances_to_rows``; every (point, centroid) pair is computed.
    """
    d2 = np.stack([sq_norms_by_row(points - c) for c in centroids], axis=1)
    assignment = np.argmin(d2, axis=1)
    counts = np.bincount(assignment, minlength=len(centroids))
    cur = d2[np.arange(len(points)), assignment]
    for c in np.flatnonzero(counts == 0):
        donor = int(np.argmax(np.where(counts[assignment] >= 2, cur, -np.inf)))
        counts[assignment[donor]] -= 1
        counts[c] += 1
        assignment[donor] = c
    return assignment


def masked_mean_kmeans(points, k, labels=None, seed=None) -> Clustering:
    """Lloyd K-Means: every pass assigns with ``exact_assign`` and takes each
    mean from one boolean mask per cluster, and a final pass assigns again.
    It starts from the labels' means, or else from k points the seed draws.

    The reference for ``kmeans``'s assignments, centroids, inertia history
    and pass count.
    """
    points = np.asarray(points, dtype=np.float64)
    if labels is not None:
        labels = np.asarray(labels)
        centroids = np.stack([points[labels == u].mean(axis=0) for u in np.unique(labels)])
    else:
        rng = np.random.default_rng(seed)
        centroids = points[rng.choice(points.shape[0], size=k, replace=False)].copy()
    history = []
    for _ in range(MAX_ITER):
        assignment = exact_assign(points, centroids)
        centroids = np.stack([points[assignment == c].mean(axis=0) for c in range(k)])
        inertia = float(np.sum((points - centroids[assignment]) ** 2))
        history.append(inertia)
        if len(history) >= 2:
            prev = history[-2]
            if prev == 0.0 or (prev - inertia) / prev < REL_TOL:
                break
    assignment = exact_assign(points, centroids)
    return Clustering(assignment, centroids, tuple(history))


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
    each user's rows in the order given: the vectors and each row's owner."""
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
        cl = masked_mean_kmeans(points, len(users), labels)
        for j, rows in enumerate(own):
            centroid = cl.centroids[dominant_cluster_for_user(cl, labels, j)]
            d2 = np.sum((np.array([v for _, v in rows]) - centroid) ** 2, axis=1)
            kept.update(rows[i][0] for i in np.argsort(d2, kind="stable")[:p].tolist())
        return kept
    maximize = method == "dend"
    for rows in own:
        vecs = np.array([v for _, v in rows])
        sqmat = np.stack([sq_norms_by_row(vecs - v) for v in vecs])
        best, best_obj = None, None
        for idx in combinations(range(len(rows)), min(p, len(rows))):
            obj = subset_objective(sqmat, idx)
            if best is None or (obj > best_obj if maximize else obj < best_obj):
                best, best_obj = idx, obj
        kept.update(rows[i][0] for i in best)
    return kept


def reference_sequence(gallery, batches, method, p, metric, policy):
    """The classification-selection loop, one plain step at a time.

    ``gallery`` maps each user to its (sample id, vector) rows, in any
    order, and each batch is a list of (sample id, vector). Each probe is
    scored against every pre-cycle row and takes the first nearest row on
    ties; it is accepted iff its distance is < t*. Each user's candidates
    are its rows and its accepted probes, sorted by sample id; MDIST/DEND
    try every subset of them through ``subset_objective`` on an exact
    squared matrix, and K-Means keeps the p candidates nearest the dominant
    centroid of ``masked_mean_kmeans``, id order on ties. t* is estimated
    again after every cycle.

    Returns, per cycle, the t* used, the insertions (sample id, label) in
    batch order, the evictions (sample id, user) and the gallery after it,
    in the input form; users ascend, and each user's evictions and kept rows
    are in sample-id order.
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
        by_id = {u: sorted(candidates[u], key=lambda r: r[0]) for u in sorted(candidates)}
        evictions = [(sid, u) for u, rows in by_id.items() for sid, _ in rows if sid not in kept]
        gallery = {u: [r for r in rows if r[0] in kept] for u, rows in by_id.items()}
        cycles.append((t_star, insertions, evictions, gallery))
        t_star = reference_threshold(gallery, metric, policy)
    return cycles


def reference_generate(params) -> list[Sample]:
    """``synthgen.generate`` one sample at a time: a uniform, a tail sample's
    other user, then its own standard normal vector, centred and spread."""
    means = user_means(params)
    rng = np.random.default_rng(np.random.SeedSequence([params.seed, 1]))
    samples = []
    for user in range(1, params.k_users + 1):
        others = [u for u in range(params.k_users) if u != user - 1]
        for _ in range(params.samples_per_user):
            if rng.random() < params.tail_eps:
                center, spread = means[others[rng.integers(len(others))]], 3.0 * params.sigma
            else:
                center, spread = means[user - 1], params.sigma
            vec = center + spread * rng.standard_normal(params.dim)
            samples.append(Sample(id=len(samples), vector=vec, true_user=user))
    return samples


def reference_split(dataset, n_batches, p, seed, strict=True, chronological=False):
    """``dataio.split_batches`` as a loop over users ascending that deals a
    (user, sample) pair into every batch: each kept user's samples in
    session order (then id) when chronological, else sorted by id and
    shuffled by one permutation of the seeded stream, p to each batch in
    turn. Returns each batch's pairs and the (user, samples held) of every
    user too short for ``n_batches * p``, whom only a relaxed split skips."""
    rng = np.random.default_rng(seed)
    batches, dropped = [[] for _ in range(n_batches)], []
    for user in sorted({s.true_user for s in dataset}):
        pool = [s for s in dataset if s.true_user == user]
        if len(pool) < n_batches * p:
            assert not strict, f"user {user} is short"
            dropped.append((user, len(pool)))
            continue
        if chronological:
            pool.sort(key=lambda s: (s.session, s.id))
        else:
            pool.sort(key=lambda s: s.id)
            pool = [pool[i] for i in rng.permutation(len(pool))]
        for b, batch in enumerate(batches):
            batch.extend((user, s) for s in pool[b * p : (b + 1) * p])
    return batches, dropped
