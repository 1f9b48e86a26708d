"""Template selection strategies applied after each pseudo-labelling pass.

MDIST keeps the p templates with the smallest sum of pairwise squared
euclidean distances (tight, mode-centered sets); DEND keeps the largest
(diverse sets, the counterproof strategy); the K-Means variant keeps the
p candidates closest to the centroid of each user's dominant cluster.
keep_all is the unbounded traditional baseline.

Objectives always use squared euclidean, even when matching uses l1.

Exact selection scores subsets in chunks, and each subset's sum is taken
exactly as the test reference ``subset_objective`` (``tests/oracles.py``)
takes it, so the two agree bit for bit; ``tests/oracles.py`` also holds
the brute-force subset oracle the fast paths are checked against.
Ties are decided on those sums of ``_sq_dists(v, v)`` values, which come
from the Gram (BLAS matrix product) expansion. Bit-for-bit reproducible
resolution of near-ties therefore assumes the same BLAS library and
thread count; the benchmark pins one thread.
"""

from __future__ import annotations

from itertools import combinations, islice
from math import comb
from typing import Iterable, Sequence

import numpy as np

from .clustering import KMeansParams, _sq_dists, dominant_cluster_for_user, kmeans
from .core import Template

KMEANS = "kmeans"
MDIST = "mdist"
DEND = "dend"
KEEP_ALL = "keep_all"
METHODS = (KMEANS, MDIST, DEND, KEEP_ALL)

EXACT_BUDGET = 10**6
EXACT_CHUNK = 1024  # subsets per gather: 1024 x p x p doubles, about 0.3 MB at p=6


def _sorted_by_id(candidates: Iterable[Template]) -> list[Template]:
    return sorted(candidates, key=lambda t: t.sample.id)


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
    sqmat = _sq_dists(vecs, vecs)
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
    sqmat = _sq_dists(vecs, vecs)
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


def select_kmeans(
    candidates_by_user: dict[int, list[Template]], p: int
) -> dict[int, list[Template]]:
    """Cluster the pooled candidates into one cluster per user and keep,
    per user, the templates closest to the centroid of that user's
    dominant cluster.

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
    own = [_sorted_by_id(candidates_by_user[u]) for u in users]
    labels = np.repeat(users, [len(c) for c in own])
    points = np.stack([t.sample.vector for c in own for t in c])
    cl = kmeans(points, KMeansParams(k=len(users)), labels=labels)

    result: dict[int, list[Template]] = {}
    hi = 0
    for u, cands in zip(users, own):
        lo, hi = hi, hi + len(cands)  # u's candidates are rows lo:hi of points
        centroid = cl.centroids[dominant_cluster_for_user(cl, labels, u)]
        d2 = np.sum((points[lo:hi] - centroid) ** 2, axis=1)
        # stable sort on distance keeps the id order (cands is id-sorted) on ties
        order = np.argsort(d2, kind="stable")
        result[u] = [cands[i] for i in order[:p]]
    return result
