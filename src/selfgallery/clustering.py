"""Lloyd K-Means, the clustering behind K-Means template selection.

Squared euclidean is always the clustering metric, independently of the
matching metric; the selection objectives are written with squares.

Each pass assigns every point to its nearest centroid by exact squared
distance, the first centroid on ties, as ``tests/oracles.py::exact_assign``
computes it over every pair. It gets there through matching's screen
(``matching._Screen``), with the points as its rows and the centroids as
its columns. What differs from classification is that a
call keeps its screens from pass to pass and screens again only the
centroids that moved (``_Screen.rescreen``).

Each Lloyd pass does only the work whose result can differ from the pass
before. The first pass screens every centroid, and a later one only those
that moved, that is, the clusters ``_means`` reduced again because their
members changed; the screens of settled clusters are reused (Hamerly,
"Making k-means even faster", SDM 2010, skips settled work the same way,
with bounds). The loop stops assigning at a fixed point: once a pass
assigns the grouping its centroids were reduced from, the centroids, the
inertia and every later assignment repeat bit for bit, since an exact
assignment depends on the points and centroids alone. The repeated inertia
still meets the unchanged break rule, so a NaN or inf history runs to
MAX_ITER, as the reference does.

A call seeds its centroids from what it is given: point labels (one
centroid per distinct label's mean, labels ascending: ``select_kmeans``
labels each candidate with its user, so centroid j starts at user j's
mean), or a seed (k distinct points drawn by ``np.random.default_rng``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import check_integer
from .matching import _SQUARED, _Screen, _sq_norms

MAX_ITER = 100  # Lloyd passes at most
REL_TOL = 1e-6  # stop once a pass improves inertia by less than this fraction


@dataclass(frozen=True)
class Clustering:
    assignment: np.ndarray  # point index -> cluster index
    centroids: np.ndarray  # k x d
    inertia_history: tuple[float, ...]  # one inertia per Lloyd pass

    @property
    def n_iter(self) -> int:
        return len(self.inertia_history)


@np.errstate(over="ignore")  # a square or sum past float64's max is inf, as the exact kernel's
def _sq_residuals(points: np.ndarray, centroids: np.ndarray, index: np.ndarray, axis=None) -> np.ndarray:
    """``(points - centroids[index]) ** 2`` summed over ``axis`` (all of it
    by default), built in place on the one gathered copy."""
    r = centroids[index]
    np.subtract(points, r, out=r)
    return np.square(r, out=r).sum(axis=axis)


@np.errstate(over="ignore", invalid="ignore")  # a screen may overflow: its tau is then infinite
def _assign(screen: _Screen, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid assignment that leaves no cluster empty.

    Each empty cluster, in index order, takes the point farthest from its
    assigned centroid, by exact squared distance, among clusters holding at
    least two points. So the repair never empties a cluster, and never
    re-takes a point it moved, since a moved point is alone in its new
    cluster.
    """
    assignment = screen.nearest(screen.rescreen(centroids))
    counts = np.bincount(assignment, minlength=centroids.shape[0])
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        cur = _sq_norms(screen.x - centroids[assignment])
        for c in empty:
            donor = int(np.argmax(np.where(counts[assignment] >= 2, cur, -np.inf)))
            counts[assignment[donor]] -= 1
            counts[c] += 1
            assignment[donor] = c
    return assignment


def _means(
    points: np.ndarray,
    groups: np.ndarray,
    k: int,
    prev_groups: Optional[np.ndarray] = None,
    prev_means: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Mean of the rows of each group 0..k-1; every group must be nonempty.

    Given the grouping ``prev_groups`` that ``prev_means`` were reduced
    from, only the groups some point entered or left are reduced again. An
    unchanged group gathers the same rows in the same order, so its mean is
    bitwise the old one. Without a previous grouping every group is reduced.

    One pass: a stable sort by group gathers the reduced groups' rows once,
    and each group's block is a contiguous slice between two entries of one
    cumulative count. That slice holds the same rows, in the same order and
    memory layout, as the masked copy ``points[groups == c]``; numpy reduces
    it along the same path and divides by the same count. So the result is
    bitwise equal to ``points[groups == c].mean(axis=0)`` for every c and
    every d, d=1 included.
    """
    if prev_groups is None:
        redo = np.ones(k, dtype=bool)
        out = np.empty((k, points.shape[1]))
    else:
        moved = groups != prev_groups
        redo = np.zeros(k, dtype=bool)
        redo[groups[moved]] = True
        redo[prev_groups[moved]] = True
        out = prev_means.copy()
    todo = np.flatnonzero(redo)
    counts = np.bincount(groups, minlength=k)[todo]
    idx = np.flatnonzero(redo[groups])
    rows = points[idx[np.argsort(groups[idx], kind="stable")]]
    ends = np.cumsum(counts).tolist()
    for c, lo, hi in zip(todo.tolist(), [0] + ends[:-1], ends):
        np.add.reduce(rows[lo:hi], axis=0, out=out[c])
    out[todo] /= counts[:, None]
    return out


def _init_centroids(
    points: np.ndarray, k: int, labels: Optional[Sequence[int]], seed: Optional[int]
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Initial centroids and the grouping they were reduced from, if any."""
    if labels is not None:
        # the inverse is each label's index among the distinct labels; the
        # sort path it takes keeps off the hash path of a plain np.unique,
        # whose first call in a process costs about 6 ms and 1.5 MB of peak
        # memory (numpy 2.4.6), and which nothing else in the package takes
        uniq, groups = np.unique(np.asarray(labels), return_inverse=True)
        if len(uniq) != k:
            raise ValueError(f"user_means init: {len(uniq)} distinct labels but k={k}")
        return _means(points, groups, k), groups
    idx = np.random.default_rng(seed).choice(points.shape[0], size=k, replace=False)
    return points[idx], None


def kmeans(
    points: np.ndarray, k: int, labels: Optional[Sequence[int]] = None, seed: Optional[int] = None
) -> Clustering:
    """Lloyd iterations over ``points`` (n x d) into k clusters, seeded from
    exactly one of ``labels`` (one per point) and ``seed`` (module
    docstring); with labels, centroid j starts at the mean of the points
    labeled with the j-th distinct label, so centroid indexing aligns with
    users. Stops when the relative inertia improvement falls below REL_TOL
    or after MAX_ITER passes. An empty cluster is reseeded as ``_assign``
    describes.

    Once a pass assigns the grouping the current centroids were reduced
    from (a fixed point), no later pass calls ``_assign`` or ``_means``:
    each would repeat that pass bit for bit, so a later pass only records
    the same inertia, and that pass's assignment serves as the final one.
    The result is bitwise that of running every pass and a final
    ``_assign``.
    """
    check_integer(k, "k", 1)  # a float or bool k would reach numpy
    if (labels is None) == (seed is None):
        raise ValueError("kmeans takes exactly one of labels and seed")
    if seed is not None:
        check_integer(seed, "seed", 0)
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("points must be a nonempty n x d array")
    n = points.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds number of points {n}")
    if labels is not None and len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} points")

    centroids, groups = _init_centroids(points, k, labels, seed)
    screen = _Screen(points, centroids, _SQUARED, 1)
    history: list[float] = []
    settled = False
    for _ in range(MAX_ITER):
        if not settled:
            assignment = _assign(screen, centroids)
            settled = groups is not None and np.array_equal(assignment, groups)
            if not (settled and history):  # else this pass repeats the last one
                centroids = _means(points, assignment, k, groups, centroids)
                inertia = float(_sq_residuals(points, centroids, assignment))
            groups = assignment
        history.append(inertia)
        if len(history) >= 2:
            prev = history[-2]
            if prev == 0.0 or (prev - inertia) / prev < REL_TOL:
                break

    if not settled:
        # final pass so every point is assigned to its nearest returned centroid
        assignment = _assign(screen, centroids)
    return Clustering(assignment=assignment, centroids=centroids, inertia_history=tuple(history))
