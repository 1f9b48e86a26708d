"""Template selection strategies applied after each pseudo-labelling pass.

MDIST keeps the p templates with the smallest sum of pairwise squared
euclidean distances (tight, mode-centered sets); DEND keeps the largest
(diverse sets, the counterproof strategy); the K-Means variant keeps the
p candidates closest to the centroid of each user's dominant cluster.
keep_all is the unbounded traditional baseline.

Objectives always use squared euclidean, even when matching uses l1.

Every MDIST/DEND path (the one-block table, the prefix-tree walk and
greedy) reads one exact squared-distance matrix of the id-sorted
candidates from matching's exact kernel (``matching._exact``, squared):
entry [i, j] is the squared norm of the difference of rows j and i, so its
square root is bitwise the ``_distances_to_rows`` distance, and it is built
in row blocks of at most ``_GATHER`` subtracted values. No BLAS call enters
it, so no choice
depends on the BLAS library or thread count.

Exact selection screens every size-p subset and decides only on exact
sums. Subsets come in lexicographic order, in blocks of at most
EXACT_CHUNK. When all C = C(n, p) subsets fit in one block and their
C x m pair entries, m = p(p-1)/2, number at most 16 x EXACT_CHUNK (p <= 6
at every such n), the block comes from a table cached per (n, p): the
subsets' index rows and their pairs' flat indices into the matrix, m x C,
so the screen is m gathers summed. Other inputs, such as n = 200 and
p = 199, whose pair index would take 31 MB, build their blocks in numpy
one prefix-tree level at a time: each prefix carries its pairwise sum and
its row sums over the matrix, so a child's screen is its parent's sum plus
one entry of those row sums. Either way a screen is the sum of the
subset's m pair entries in some order, and so is its exact value, taken
by ``subset_objectives`` (a cached upper-triangle mask applied with
``np.where``) bit for bit as the test reference ``subset_objective``
(``tests/oracles.py``) takes it with ``np.triu``; that file also holds
the brute-force subset oracle the fast paths are checked against.

Why screening is safe: the entries are sums of squares, so >= 0, and any
order of summing them lies within gamma * T of the true sum T, with
gamma = (m-1)u / (1 - (m-1)u) and u = 2**-53. A screen s and an exact value
e of one subset therefore satisfy s <= rho * e and e <= rho * s, rho =
(1 + gamma) / (1 - gamma). For MDIST, the first subset reaching a block's
least exact value e* has s <= rho * e* <= rho**2 * (least screen), and, if
it can beat the incumbent at all, s <= rho * incumbent. So a block keeps
every subset with s <= min(least screen, incumbent) * (1 + delta), and
DEND mirrors it: s >= max(greatest screen, incumbent) * (1 - delta). With
delta = 8 m u, the rounded bound clears rho**2 ~ 1 + 4(m-1)u with room
to spare (sums of subnormals are exact, so this holds there too). An
entry of finite vectors may overflow to inf but is never NaN; DEND's bound
is clamped to the largest float, so an inf screen keeps its subset.

The kept subsets get exact values (a one-block band of one subset needs
none: no other subset can be the first optimum), and one rule decides, as
it would over every subset: the first optimum within a block, replaced by
a later block only on strict improvement. That is the first optimum in
lexicographic order, whatever the blocks: the lowest-sample-ids tie rule.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

import numpy as np

from .clustering import KMeansParams, _sq_residuals, kmeans
from .core import Template
from .matching import _SQUARED, _exact

KMEANS = "kmeans"
MDIST = "mdist"
DEND = "dend"
KEEP_ALL = "keep_all"
METHODS = (KMEANS, MDIST, DEND, KEEP_ALL)

EXACT_BUDGET = 10**6
EXACT_CHUNK = 1024  # subsets per block; their prefixes' row sums are at most 1024 x n doubles
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_FLOAT_MAX = float(np.finfo(float).max)


def _sorted_by_id(candidates: Iterable[Template]) -> list[Template]:
    return sorted(candidates, key=lambda t: t.sample.id)


def _pair_matrix(candidates: list[Template]) -> np.ndarray:
    """The candidates' exact squared distance matrix (module docstring)."""
    vecs = np.array([t.sample.vector for t in candidates])
    return _exact(vecs, vecs, _SQUARED)


@lru_cache(maxsize=None)  # one p x p mask per p
def _upper(p: int) -> np.ndarray:
    mask = np.triu(np.ones((p, p), dtype=bool), k=1)
    mask.flags.writeable = False
    return mask


def subset_objectives(sqmat: np.ndarray, combos: np.ndarray) -> np.ndarray:
    """``subset_objective`` of every row of an (m, p) index array.

    Each row is reduced over the same p x p upper triangle in the same
    order as ``subset_objective``, so the results agree bit for bit.
    """
    block = sqmat[combos[:, :, None], combos[:, None, :]]
    return np.where(_upper(combos.shape[1]), block, 0.0).reshape(len(combos), -1).sum(axis=1)


def _children(sqmat: np.ndarray, p: int, k: int, last, part, rows):
    """Every child (prefix + a) of k-element prefixes, in lexicographic order.

    ``last`` holds each prefix's last element, ``part`` its pairwise sum and
    ``rows`` its row sums over ``sqmat``. Returns each child's parent row,
    its element ``a`` and its pairwise sum; ``a`` leaves room for the
    p - k - 1 elements still to come.
    """
    w = len(sqmat) - p + k + 1
    flat = (last[:, None] < np.arange(w)).ravel().nonzero()[0]
    parent, a = np.divmod(flat, w)
    return parent, a, np.add(part[:, None], rows[:, :w]).take(flat)


@lru_cache(maxsize=128)  # 123 (n, p) pass _blocks' size bound, 3.3 MB in all
def _subset_table(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The size-p subsets of range(n) in lexicographic order, as read-only
    (C, p) index rows, and each subset's m = p(p-1)/2 upper-triangle pairs
    as read-only (m, C) flat indices into an n x n matrix."""
    rows = np.array(list(combinations(range(n), p)), dtype=np.intp)
    i, j = np.triu_indices(p, k=1)
    pairs = rows.T[i] * n + rows.T[j]
    rows.flags.writeable = pairs.flags.writeable = False
    return rows, pairs


def _blocks(sqmat: np.ndarray, p: int):
    """Screened size-p subsets of range(n) in lexicographic order, in blocks
    taken from the prefix tree: the whole subtrees of consecutive prefixes,
    at most EXACT_CHUNK subsets, or the at most n children of one
    (p-1)-prefix. Yields ``(screen, subsets)``, where ``subsets(i)`` returns
    the index rows of the block's subsets ``i``.
    """
    n = len(sqmat)

    def whole(cols, part, rows):
        k0, last, trail = cols.shape[1], cols[:, -1], []
        for k in range(k0, p):
            if trail:
                rows = rows.take(parent, axis=0) + sqmat.take(last, axis=0)
            parent, last, part = _children(sqmat, p, k, last, part, rows)
            trail.append((parent, last))

        def subsets(i):
            out = np.empty((len(i), p), dtype=np.intp)
            for k, (parent, a) in zip(range(p - 1, k0 - 1, -1), reversed(trail)):
                out[:, k], i = a[i], parent[i]
            out[:, :k0] = cols[i]
            return out

        return part, subsets

    def descend(cols, part, rows):
        k = cols.shape[1]
        sizes = [comb(n - 1 - last, p - k) for last in cols[:, -1].tolist()]
        i = 0
        while i < len(sizes):
            j, total = i, 0
            while j < len(sizes) and total + sizes[j] <= EXACT_CHUNK:
                total, j = total + sizes[j], j + 1
            if j == i and k < p - 1:  # one subtree over the chunk: split it a level down
                j = i + 1
                parent, a, sub = _children(sqmat, p, k, cols[i:j, -1], part[i:j], rows[i:j])
                yield from descend(
                    np.concatenate((cols[i:j].take(parent, axis=0), a[:, None]), axis=1),
                    sub,
                    rows[i:j].take(parent, axis=0) + sqmat.take(a, axis=0),
                )
            else:
                j = max(j, i + 1)  # the children of a (p-1)-prefix make one block
                yield whole(cols[i:j], part[i:j], rows[i:j])
            i = j

    heads = n - p + 1  # the one-element prefixes that leave room for p - 1 more
    yield from descend(np.arange(heads)[:, None], np.zeros(heads), sqmat[:heads])


def _band(screen: np.ndarray, incumbent: float, maximize: bool, delta: float) -> np.ndarray:
    """Positions of the screens in the band around the block's best screen
    and the incumbent (module docstring)."""
    if maximize:
        bound = min(max(float(screen.max()), incumbent), _FLOAT_MAX)
        return (screen >= bound * (1 - delta)).nonzero()[0]
    return (screen <= min(float(screen.min()), incumbent) * (1 + delta)).nonzero()[0]


def _enumerate_best(
    candidates: list[Template], p: int, maximize: bool
) -> list[Template]:
    """Exact optimum over all size-p subsets of id-sorted candidates.

    Each block keeps the subsets whose screen lies in the band around the
    block's best screen and the incumbent (module docstring), scores them
    exactly, takes the first optimum, and replaces the incumbent only on
    strict improvement. That implements the lowest-sample-ids tie rule.
    """
    sqmat = _pair_matrix(candidates)
    n, m = len(sqmat), p * (p - 1) // 2
    delta = 8 * m * _UNIT_ROUNDOFF
    count = comb(n, p)
    if count <= EXACT_CHUNK and count * m <= 16 * EXACT_CHUNK:  # one block, from the table
        rows, pairs = _subset_table(n, p)
        screen = sqmat.take(pairs).sum(axis=0)
        combos = rows[_band(screen, -np.inf if maximize else np.inf, maximize, delta)]
        if len(combos) > 1:  # a lone subset in the band is the optimum: nothing to compare
            objs = subset_objectives(sqmat, combos)
            combos = combos[[objs.argmax() if maximize else objs.argmin()]]
        return [candidates[i] for i in combos[0].tolist()]
    best_idx, best_obj = None, (-np.inf if maximize else np.inf)
    for screen, subsets in _blocks(sqmat, p):
        keep = _band(screen, best_obj, maximize, delta)
        if not len(keep):
            continue
        combos = subsets(keep)
        objs = subset_objectives(sqmat, combos)
        i = int(np.argmax(objs) if maximize else np.argmin(objs))
        obj = objs[i]
        if best_idx is None or (obj > best_obj if maximize else obj < best_obj):
            best_obj, best_idx = obj, combos[i]
    return [candidates[i] for i in best_idx.tolist()]


def _greedy_select(candidates: list[Template], p: int, maximize: bool) -> list[Template]:
    """Dispersion-style greedy: seed with the extreme pair, grow one at a time."""
    sqmat = _pair_matrix(candidates)
    n = len(candidates)
    iu = np.triu_indices(n, k=1)
    flat = sqmat[iu]
    pos = int(np.argmax(flat) if maximize else np.argmin(flat))
    chosen = [int(iu[0][pos]), int(iu[1][pos])]
    remaining = [i for i in range(n) if i not in chosen]
    while len(chosen) < p:
        costs = sqmat[np.ix_(remaining, chosen)].sum(axis=1)
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
    if p == 1:
        return cands[:1]  # every singleton scores 0: the lowest id wins, before any matrix
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

    One pass over the pool after clustering: every user's dominant cluster
    comes from one (user, cluster) count table, where argmax takes the
    lowest cluster index on tied counts; every candidate's squared distance
    to its user's centroid comes from one row-wise sum, each row reduced as
    a per-user slice would be; and one stable sort by (user, distance)
    keeps id order on equal distances. The result is bitwise that of the
    per-user loop over ``dominant_cluster_for_user`` in ``tests/oracles.py``.
    """
    if p < 1:
        raise ValueError("p must be positive")
    users = sorted(candidates_by_user)
    if any(not candidates_by_user[u] for u in users):
        empty = [u for u in users if not candidates_by_user[u]]
        raise ValueError(f"users {empty} have no candidates")
    own = [_sorted_by_id(candidates_by_user[u]) for u in users]
    pool = [t for cands in own for t in cands]  # by user, each user's block by sample id
    k = len(users)
    user_index = np.repeat(np.arange(k), [len(c) for c in own])
    points = np.array([t.sample.vector for t in pool])
    cl = kmeans(points, KMeansParams(k=k), labels=user_index)

    dom = np.bincount(user_index * k + cl.assignment, minlength=k * k).reshape(k, k).argmax(axis=1)
    d2 = _sq_residuals(points, cl.centroids, dom[user_index]).sum(axis=1)
    order = np.lexsort((d2, user_index)).tolist()  # stable: equal distances keep id order

    result: dict[int, list[Template]] = {}
    hi = 0
    for u, cands in zip(users, own):
        lo, hi = hi, hi + len(cands)  # order[lo:hi] holds u's rows of points, nearest first
        result[u] = [pool[i] for i in order[lo : min(hi, lo + p)]]
    return result


def select(
    method: str, candidates_by_user: dict[int, list[Template]], p: int
) -> dict[int, list[Template]]:
    """Every user's kept templates under ``method``: keep_all keeps every
    candidate, kmeans clusters all users' candidates together, and MDIST
    and DEND select each user's on its own."""
    if method == KEEP_ALL:
        return candidates_by_user
    if method == KMEANS:
        return select_kmeans(candidates_by_user, p)
    if method not in (MDIST, DEND):
        raise ValueError(f"unknown selection method: {method!r}")
    # read per call, so a wrapper set on the module attribute sees every call
    pick = select_mdist if method == MDIST else select_dend
    return {u: pick(cands, p) for u, cands in candidates_by_user.items()}
