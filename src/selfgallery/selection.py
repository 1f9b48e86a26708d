"""Template selection strategies applied after each pseudo-labelling pass.

MDIST keeps the p templates with the smallest sum of pairwise squared
euclidean distances (tight, mode-centered sets); DEND keeps the largest
(diverse sets, the counterproof strategy); the K-Means variant keeps the
p candidates closest to the centroid of each user's dominant cluster.
keep_all is the unbounded traditional baseline.

Objectives always use squared euclidean, even when matching uses l1.

Exact selection scores subsets in chunks, and each subset's sum is taken
exactly as ``subset_objective`` takes it, so the two agree bit for bit.
Ties are decided on those sums of ``_pairwise_sq`` values, which come
from the Gram (BLAS matrix product) expansion. Bit-for-bit reproducible
resolution of near-ties therefore assumes the same BLAS library and
thread count; the benchmark pins one thread.
"""

from __future__ import annotations

from itertools import combinations, islice
from math import comb
from typing import Iterable, Sequence

import numpy as np

from .clustering import KMeansParams, dominant_cluster_for_user, kmeans
from .core import Template

KMEANS = "kmeans"
MDIST = "mdist"
DEND = "dend"
KEEP_ALL = "keep_all"
METHODS = (KMEANS, MDIST, DEND, KEEP_ALL)
CAPPED_METHODS = (KMEANS, MDIST, DEND)

MIN_SUM = "min_sum_pairwise_sq"
MAX_SUM = "max_sum_pairwise_sq"

EXACT_BUDGET = 10**6
ORACLE_BUDGET = 10**7
EXACT_CHUNK = 1024  # subsets per gather: 1024 x p x p doubles, about 0.3 MB at p=6


def _sorted_by_id(candidates: Iterable[Template]) -> list[Template]:
    return sorted(candidates, key=lambda t: t.sample.id)


def _pairwise_sq(vectors: np.ndarray) -> np.ndarray:
    sq = np.sum(vectors * vectors, axis=1)
    return np.maximum(sq[:, None] + sq[None, :] - 2.0 * (vectors @ vectors.T), 0.0)


def subset_objective(sqmat: np.ndarray, idx: Sequence[int]) -> float:
    """Sum of pairwise squared distances within the subset (unordered pairs)."""
    idx = list(idx)
    sub = sqmat[np.ix_(idx, idx)]
    return float(np.sum(np.triu(sub, k=1)))


def subset_objectives(sqmat: np.ndarray, combos: np.ndarray) -> np.ndarray:
    """``subset_objective`` of every row of an (m, p) index array.

    Each row is reduced over the same p x p upper triangle in the same
    order as ``subset_objective``, so the results agree bit for bit.
    """
    block = np.triu(sqmat[combos[:, :, None], combos[:, None, :]], k=1)
    return block.reshape(len(combos), -1).sum(axis=1)


def _enumerate_best(
    candidates: list[Template], p: int, maximize: bool
) -> list[Template]:
    """Exact optimum over all size-p subsets of id-sorted candidates.

    Combinations come in lexicographic order, EXACT_CHUNK at a time; the
    first optimum of a chunk is taken, and a later chunk replaces it only
    on strict improvement. That implements the lowest-sample-ids tie rule.
    """
    vecs = np.stack([t.sample.vector for t in candidates])
    sqmat = _pairwise_sq(vecs)
    combos = combinations(range(len(candidates)), p)
    row = np.dtype((np.intp, (p,)))
    best_idx = None
    best_obj = None
    while True:
        chunk = np.fromiter(islice(combos, EXACT_CHUNK), dtype=row)
        if not len(chunk):
            break
        objs = subset_objectives(sqmat, chunk)
        i = int(np.argmax(objs) if maximize else np.argmin(objs))
        obj = objs[i]
        if best_obj is None or (obj > best_obj if maximize else obj < best_obj):
            best_obj, best_idx = obj, chunk[i]
    return [candidates[i] for i in best_idx]


def _greedy_select(candidates: list[Template], p: int, maximize: bool) -> list[Template]:
    """Dispersion-style greedy: seed with the extreme pair, grow one at a time."""
    vecs = np.stack([t.sample.vector for t in candidates])
    sqmat = _pairwise_sq(vecs)
    n = len(candidates)
    if p == 1:
        return [candidates[0]]  # all singletons score 0; lowest id wins
    iu = np.triu_indices(n, k=1)
    flat = sqmat[iu]
    pos = int(np.argmax(flat) if maximize else np.argmin(flat))
    chosen = [int(iu[0][pos]), int(iu[1][pos])]
    remaining = [i for i in range(n) if i not in chosen]
    while len(chosen) < p:
        costs = [float(np.sum(sqmat[i, chosen])) for i in remaining]
        j = int(np.argmax(costs) if maximize else np.argmin(costs))
        chosen.append(remaining.pop(j))
    return [candidates[i] for i in sorted(chosen)]


def _select_by_objective(
    candidates: Sequence[Template], p: int, maximize: bool
) -> list[Template]:
    if p < 1:
        raise ValueError("p must be positive")
    cands = _sorted_by_id(candidates)
    if not cands:
        raise ValueError("no candidates to select from")
    if len(cands) <= p:
        return cands
    if comb(len(cands), p) <= EXACT_BUDGET:
        return _enumerate_best(cands, p, maximize)
    return _greedy_select(cands, p, maximize)


def select_mdist(candidates: Sequence[Template], p: int) -> list[Template]:
    """The size-p subset minimizing the sum of pairwise squared distances."""
    return _select_by_objective(candidates, p, maximize=False)


def select_dend(candidates: Sequence[Template], p: int) -> list[Template]:
    """The size-p subset maximizing the sum of pairwise squared distances."""
    return _select_by_objective(candidates, p, maximize=True)


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
    cands = _sorted_by_id(candidates)
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


def select_kmeans(
    candidates_by_user: dict[int, list[Template]],
    p: int,
    params: KMeansParams | None = None,
) -> dict[int, list[Template]]:
    """Cluster the pooled candidates and keep, per user, the templates
    closest to the centroid of that user's dominant cluster.

    A user sharing its dominant cluster with others can still only keep
    its own labeled candidates, so a shared cluster never donates foreign
    samples.
    """
    if p < 1:
        raise ValueError("p must be positive")
    users = sorted(candidates_by_user)
    if any(not candidates_by_user[u] for u in users):
        empty = [u for u in users if not candidates_by_user[u]]
        raise ValueError(f"users {empty} have no candidates")
    pooled: list[Template] = []
    labels: list[int] = []
    for u in users:
        for t in _sorted_by_id(candidates_by_user[u]):
            pooled.append(t)
            labels.append(u)
    points = np.stack([t.sample.vector for t in pooled])
    if params is None:
        params = KMeansParams(k=len(users))
    elif params.k != len(users):
        raise ValueError(f"k={params.k} but {len(users)} users")
    cl = kmeans(points, params, labels=labels)

    result: dict[int, list[Template]] = {}
    labels_arr = np.asarray(labels)
    for u in users:
        dom = dominant_cluster_for_user(cl, labels_arr, u)
        centroid = cl.centroids[dom]
        own = [t for t, lab in zip(pooled, labels) if lab == u]
        d2 = [float(np.sum((t.sample.vector - centroid) ** 2)) for t in own]
        # stable sort on distance keeps the id order (own is id-sorted) on ties
        order = np.argsort(d2, kind="stable")
        result[u] = [own[i] for i in order[: min(p, len(own))]]
    return result
