"""Template selection strategies applied after each pseudo-labelling pass.

MDIST keeps the p templates with the smallest sum of pairwise squared
euclidean distances (tight, mode-centered sets); DEND keeps the largest
(diverse sets, the counterproof strategy); the K-Means variant keeps the
p candidates closest to the centroid of each user's dominant cluster.
keep_all is the unbounded traditional baseline.

Every method takes its candidates as vector blocks, one float64 (n, dim)
array of rows per user, each user's rows in id order (the engine gathers
a cycle's rows once, in ``core.row_order``), and returns the positions it
keeps, so no method sorts or rebuilds its candidates: ``select_mdist`` and
``select_dend`` take one user's block and read only its length before
they choose a path, ``select_kmeans`` every user's block by user id, and
``select`` a whole cycle's block with its owner column, users grouped.

Objectives always use squared euclidean, even when matching uses l1.

Every MDIST/DEND path (the exact search, from either block source, and
greedy) reads one exact squared-distance matrix of the id-sorted
candidates from matching's exact kernel (``matching._exact``, squared):
entry [i, j] is the squared norm of the difference of rows j and i, so its
square root is bitwise the ``_distances_to_rows`` distance, and it is built
in row blocks of at most ``_GATHER`` subtracted values. No BLAS call enters
it, so no choice depends on the BLAS library or thread count.

Exact selection is one search: it screens every size-p subset, block by
block in lexicographic order, and decides only on exact sums. The blocks
come from one of two sources. When the C = C(n, p) subsets number at most
5 x EXACT_CHUNK and their C x m pair entries, m = p(p-1)/2, at most
80 x EXACT_CHUNK (at p = 6: n <= 15, C(15, 6) = 5,005 subsets and 75,075
entries), the only block is a table cached per (n, p): the subsets' index
rows, one byte per index (n <= 101 at every such (n, p)), and their pairs'
flat indices into the matrix, m x C, so the screen is m gathers summed.
Such a table takes at most 632,610 bytes (n = 55, p = 54), and the cache
holds at most 12 of them, 7.2 MiB in all. Other inputs, such as n >= 16
at p = 6, or n = 200 and p = 199, whose pair index would take 31 MB, walk
the prefix tree in numpy one level at a time, in blocks of at most
EXACT_CHUNK subsets (or the children of one (p-1)-prefix), from one loop
over a work list with no recursion, however deep the tree: each prefix
carries its pairwise sum and its row sums over the matrix, so a child's
screen is its parent's sum plus one entry of those row sums. Either way a
screen is the sum of the subset's m pair entries in some order, and so is
its exact value, taken by ``subset_objectives`` (a cached upper-triangle
mask applied with ``np.where``) bit for bit as the test reference
``subset_objective`` (``tests/oracles.py``) takes it with ``np.triu``;
that file also holds the brute-force subset oracle the fast paths are
checked against.

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

The kept subsets get exact values, and one rule decides, as it would over
every subset: the first optimum within a block, replaced by a later block
only on strict improvement. That is the first optimum in lexicographic
order, whatever the blocks: the lowest-sample-ids tie rule. A first band
of one subset holds its block's first optimum, as no other subset can be
it, so its exact value is taken only when a later block's band needs the
incumbent: the table's only block never scores a lone subset, and the
walk scores it at its second block.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
import numpy as np

from .clustering import KMeansParams, _sq_residuals, kmeans
from .core import check_integer, user_bounds
from .matching import _SQUARED, _exact

KMEANS = "kmeans"
MDIST = "mdist"
DEND = "dend"
KEEP_ALL = "keep_all"
METHODS = (KMEANS, MDIST, DEND, KEEP_ALL)

EXACT_BUDGET = 10**6
EXACT_CHUNK = 1024  # subsets per tree block; their prefixes' row sums are at most 1024 x n doubles
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_FLOAT_MAX = float(np.finfo(float).max)


def _pair_matrix(candidates: np.ndarray) -> np.ndarray:
    """The candidate rows' exact squared distance matrix (module docstring)."""
    return _exact(candidates, candidates, _SQUARED)


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


@lru_cache(maxsize=12)  # every (n, 6) the table serves; at most 12 x 632,610 bytes = 7.2 MiB
def _subset_table(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The size-p subsets of range(n) in lexicographic order, as read-only
    (C, p) index rows of the smallest unsigned dtype holding n - 1, and
    each subset's m = p(p-1)/2 upper-triangle pairs as read-only (m, C)
    flat indices into an n x n matrix (intp: an index of another dtype is
    cast on every gather)."""
    rows = np.arange(n - p + 1, dtype=np.min_scalar_type(n - 1))[:, None]
    for k in range(1, p):  # append every element that leaves room for p - k - 1 more
        parent, a = (rows[:, -1:] < np.arange(n - p + k + 1)).nonzero()
        rows = np.concatenate((rows[parent], a[:, None].astype(rows.dtype)), axis=1)
    cols = rows.T.astype(np.intp)
    i, j = np.triu_indices(p, k=1)
    pairs = cols[i]
    pairs *= n
    pairs += cols[j]
    rows.flags.writeable = pairs.flags.writeable = False
    return rows, pairs


def _blocks(sqmat: np.ndarray, p: int):
    """Screened size-p subsets of range(n) in lexicographic order, in blocks
    (module docstring): the cached subset table as the only block where it
    serves (n, p), else blocks taken from the prefix tree: the whole
    subtrees of consecutive prefixes, at most EXACT_CHUNK subsets, or the at
    most n children of one (p-1)-prefix. Yields ``(screen, subsets)``, where
    ``subsets(i)`` returns the index rows of the block's subsets ``i``.

    The tree is walked from one loop over a work list of levels, with no
    recursion, so its depth (p - 1 levels, nearly n at p = n - 1) takes no
    call stack. A level is a run of sibling prefixes, their subtree sizes
    and the next one to take; a prefix whose subtree exceeds the chunk
    pushes its level's resume point, then its children, so blocks come out
    depth first, in lexicographic order.
    """
    n, count = len(sqmat), comb(len(sqmat), p)
    if count <= 5 * EXACT_CHUNK and count * p * (p - 1) // 2 <= 80 * EXACT_CHUNK:
        rows, pairs = _subset_table(n, p)
        yield sqmat.ravel()[pairs].sum(axis=0), rows.__getitem__  # take() would copy the read-only index
        return

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

    def level(cols, part, rows):  # a frame: prefixes, their subtree sizes, the next one to take
        sizes = [comb(n - 1 - last, p - cols.shape[1]) for last in cols[:, -1].tolist()]
        return cols, part, rows, sizes, 0

    heads = n - p + 1  # the one-element prefixes that leave room for p - 1 more
    todo = [level(np.arange(heads)[:, None], np.zeros(heads), sqmat[:heads])]
    while todo:  # depth first: a split prefix's children come before its next sibling
        cols, part, rows, sizes, i = todo.pop()
        j, total = i, 0
        while j < len(sizes) and total + sizes[j] <= EXACT_CHUNK:
            total, j = total + sizes[j], j + 1
        j = max(j, i + 1)  # none fit: the subtree at i alone
        if j < len(sizes):  # the rest of this level, taken up once prefixes i..j-1 are done
            todo.append((cols, part, rows, sizes, j))
        if not total and cols.shape[1] < p - 1:  # one subtree over the chunk: split it a level down
            parent, a, sub = _children(sqmat, p, cols.shape[1], cols[i:j, -1], part[i:j], rows[i:j])
            children = np.concatenate((cols[i:j].take(parent, axis=0), a[:, None]), axis=1)
            todo.append(level(children, sub, rows[i:j].take(parent, axis=0) + sqmat.take(a, axis=0)))
        else:  # whole subtrees, or the children of a (p-1)-prefix
            yield whole(cols[i:j], part[i:j], rows[i:j])


def _band(screen: np.ndarray, incumbent: float, maximize: bool, delta: float) -> np.ndarray:
    """Positions of the screens in the band around the block's best screen
    and the incumbent (module docstring)."""
    if maximize:
        bound = min(max(float(screen.max()), incumbent), _FLOAT_MAX)
        return (screen >= bound * (1 - delta)).nonzero()[0]
    return (screen <= min(float(screen.min()), incumbent) * (1 + delta)).nonzero()[0]


def _enumerate_best(candidates: np.ndarray, p: int, maximize: bool) -> list[int]:
    """Positions of the exact optimum over all size-p subsets of id-sorted
    candidates.

    Each block of ``_blocks`` keeps the subsets whose screen lies in the
    band around the block's best screen and the incumbent (module
    docstring), scores them exactly, takes the first optimum, and replaces
    the incumbent only on strict improvement. That implements the
    lowest-sample-ids tie rule. A first band of one subset is the optimum so
    far, and is scored only when a later block needs its value.
    """
    sqmat = _pair_matrix(candidates)
    delta = 8 * (p * (p - 1) // 2) * _UNIT_ROUNDOFF
    best, best_obj = None, (-np.inf if maximize else np.inf)
    for screen, subsets in _blocks(sqmat, p):
        if best_obj is None:  # the lone first optimum's exact value, needed from here on
            best_obj = subset_objectives(sqmat, best[None])[0]
        keep = _band(screen, best_obj, maximize, delta)
        if best is None and len(keep) == 1:  # nothing to compare it with yet
            best, best_obj = subsets(keep)[0], None
        elif len(keep):
            combos = subsets(keep)
            objs = subset_objectives(sqmat, combos)
            i = int(np.argmax(objs) if maximize else np.argmin(objs))
            if best is None or (objs[i] > best_obj if maximize else objs[i] < best_obj):
                best, best_obj = combos[i], objs[i]
    return best.tolist()


def _greedy_select(candidates: np.ndarray, p: int, maximize: bool) -> list[int]:
    """Dispersion-style greedy: seed with the extreme pair, grow one at a
    time; returns the chosen positions in ascending order."""
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
    return sorted(chosen)


def _select_by_objective(candidates: np.ndarray, p: int, maximize: bool) -> list[int]:
    check_integer(p, "p", 1)
    n = len(candidates)  # the one read before a path is taken
    if not n:
        raise ValueError("no candidates to select from")
    if n <= p:
        return list(range(n))
    if p == 1:
        return [0]  # every singleton scores 0: the lowest id wins, before any matrix
    if comb(n, p) <= EXACT_BUDGET:
        return _enumerate_best(candidates, p, maximize)
    return _greedy_select(candidates, p, maximize)


def select_mdist(candidates: np.ndarray, p: int) -> list[int]:
    """Positions, ascending, of the size-p subset of one user's candidate
    rows, an (n, dim) block in id order, minimizing the sum of pairwise
    squared distances."""
    return _select_by_objective(candidates, p, maximize=False)


def select_dend(candidates: np.ndarray, p: int) -> list[int]:
    """Positions, ascending, of the size-p subset of one user's candidate
    rows, an (n, dim) block in id order, maximizing the sum of pairwise
    squared distances."""
    return _select_by_objective(candidates, p, maximize=True)


def select_kmeans(candidates_by_user: dict[int, np.ndarray], p: int) -> np.ndarray:
    """Cluster the pooled candidates into one cluster per user and keep,
    per user, the candidates closest to the centroid of that user's
    dominant cluster.

    Each user's candidates are an (n, dim) block of rows in id order. The
    pool is every user's rows, users ascending; the result is the kept positions in it,
    each user's nearest first. A user sharing its dominant cluster with
    others can still only keep its own labeled candidates, so a shared
    cluster never donates foreign samples.

    One pass over the pool after clustering: every user's dominant cluster
    comes from one (user, cluster) count table, where argmax takes the
    lowest cluster index on tied counts; every candidate's squared distance
    to its user's centroid comes from one row-wise sum, each row reduced as
    a per-user slice would be; and one stable sort by (user, distance)
    keeps id order on equal distances. The result is bitwise that of the
    per-user loop over ``dominant_cluster_for_user`` in ``tests/oracles.py``.
    """
    check_integer(p, "p", 1)
    users = sorted(candidates_by_user)
    sizes = [len(candidates_by_user[u]) for u in users]
    if 0 in sizes:
        raise ValueError(f"users {[u for u, n in zip(users, sizes) if not n]} have no candidates")
    k = len(users)
    user_index = np.repeat(np.arange(k), sizes)
    points = np.concatenate([candidates_by_user[u] for u in users])
    cl = kmeans(points, KMeansParams(k=k), labels=user_index)

    dom = np.bincount(user_index * k + cl.assignment, minlength=k * k).reshape(k, k).argmax(axis=1)
    d2 = _sq_residuals(points, cl.centroids, dom[user_index]).sum(axis=1)
    order = np.lexsort((d2, user_index))  # stable: equal distances keep id order
    rank = np.arange(len(order)) - np.repeat(np.cumsum(sizes) - sizes, sizes)  # within its user
    return order[rank < p]


def select(method: str, vectors: np.ndarray, owner: np.ndarray, p: int) -> np.ndarray:
    """Positions of the candidate rows ``method`` keeps of ``vectors``, every
    user's rows grouped by ascending ``owner`` and in id order within a
    user: keep_all keeps every candidate, kmeans clusters all users'
    candidates together, and MDIST and DEND select each user's on its own."""
    check_integer(p, "p", 1)
    if method == KEEP_ALL:
        return np.arange(len(vectors))
    if method not in METHODS:
        raise ValueError(f"unknown selection method: {method!r}")
    starts = user_bounds(owner)[:-1]
    parts = np.split(vectors, starts[1:])  # each user's block, a view
    if method == KMEANS:
        return select_kmeans(dict(zip(owner[starts].tolist(), parts)), p)
    # read per call, so a wrapper set on the module attribute sees every call
    pick = select_mdist if method == MDIST else select_dend
    return np.array([lo + i for lo, c in zip(starts.tolist(), parts) for i in pick(c, p)], dtype=np.intp)
