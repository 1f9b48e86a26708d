"""Distances, match scoring, pseudo-labelling and updating-threshold estimation.

Scores are raw distances (smaller is better). Acceptance is strict:
a probe is taken for gallery insertion only when its distance to the
globally nearest template is < t*.

Euclidean searches screen, then score exactly. ``classify_batch`` (the
nearest template of each probe) and ``estimate_threshold`` (an order
statistic of the cross-user pool) first screen every pair with the Gram
expansion g = |x|^2 + |y|^2 - 2 x.y of its squared distance, one matrix
product per block of at most ``_BLOCK`` rows. For a pair of dimension d,
g lies within

    tau = 8 (d + 4) (u (|x|^2 + max |y|^2) + eta)

of the exact kernel's squared distance (``_distances_to_rows`` before its
square root), u = eps/2 being the unit round-off and eta the smallest
subnormal. tau covers the rounding of the expansion, in any summation
order, plus that of the exact kernel, about twice over. Only the pairs
whose screen lies within 2 tau of the screened winner are scored again,
by ``_distances_to_rows``, and only those exact values decide. Distances,
labels, the lowest-index tie rule and t* are therefore bitwise those of
the row-by-row kernel. A large feature norm, such as a common offset on
every coordinate, widens the band and costs time but never changes a
result, and a screen that overflows keeps every pair. L1 has no Gram
identity and matches row by row, its t* from ``impostor_pool``.

``estimate_threshold`` screens each cross-user pair once, under zero-FAR
and FAR-quantile alike. It holds one buffer of 8-byte screens, in
``impostor_pool``'s pair order, plus a transient copy of it while the
screened order statistic is found; the band is then read from the buffer
by position, so the peak is about two pool-sized arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Batch, Gallery

EUCLIDEAN = "euclidean"
L1 = "l1"
METRICS = (EUCLIDEAN, L1)

_BLOCK = 64  # rows per Gram screen block
_GATHER = 1 << 16  # feature values per exact re-scoring gather
_U = np.finfo(np.float64).eps / 2
_ETA = np.finfo(np.float64).smallest_subnormal


@dataclass(frozen=True)
class ThresholdPolicy:
    """How t* is derived from the gallery's cross-user distance pool."""

    kind: str  # "zero_far" | "far_quantile"
    q: Optional[float] = None

    def __post_init__(self):
        if self.kind == "zero_far":
            if self.q is not None:
                raise ValueError("zero_far takes no quantile")
        elif self.kind == "far_quantile":
            if self.q is None or not (0.0 < self.q < 1.0):
                raise ValueError("far_quantile needs q strictly in (0, 1)")
        else:
            raise ValueError(f"unknown threshold policy: {self.kind!r}")

    def rank(self, pool_size: int) -> int:
        """0-based rank of t* in the sorted cross-user pool."""
        if self.kind == "zero_far":
            return 0
        return max(0, math.ceil(self.q * pool_size) - 1)

    @staticmethod
    def zero_far() -> "ThresholdPolicy":
        return ThresholdPolicy(kind="zero_far")

    @staticmethod
    def far_quantile(q: float) -> "ThresholdPolicy":
        return ThresholdPolicy(kind="far_quantile", q=q)


# Default: a relatively stringent 1% FAR on the gallery-derived impostor pool.
DEFAULT_POLICY = ThresholdPolicy.far_quantile(0.01)


@dataclass(frozen=True)
class PseudoLabelDecision:
    """Outcome of classifying one unlabelled sample against the gallery."""

    sample_id: int
    accepted: bool
    distance: float  # min distance to the globally nearest template
    label: Optional[int] = None  # pseudo-label, set iff accepted

    def __post_init__(self):
        if self.accepted and self.label is None:
            raise ValueError("accepted decision needs a pseudo-label")


def _distances_to_rows(v: np.ndarray, rows: np.ndarray, metric: str) -> np.ndarray:
    diff = rows - v
    if metric == EUCLIDEAN:
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))
    if metric == L1:
        return np.sum(np.abs(diff), axis=1)
    raise ValueError(f"unknown metric: {metric!r}")


def _sq_norms(m: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", m, m)


def _screen(x, xx, y, yy) -> np.ndarray:
    """Gram-expanded squared distances of rows x to rows y: a screen, never a score."""
    # einsum, not a BLAS GEMM: it runs on the calling thread, so a search
    # never waits on BLAS threads, which stall under CPU contention
    g = np.einsum("ik,jk->ij", x, y)
    g *= -2.0
    g += xx[:, None]
    g += yy
    return g


def _tau(d: int, norms):
    """Bound on |screen - exact squared distance| for pairs whose squared norms sum to ``norms``."""
    return 8.0 * (d + 4) * (_U * norms + _ETA)


def _exact_pairs(a: np.ndarray, ia: np.ndarray, b: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """Euclidean distances of the pairs (a[ia[t]], b[ib[t]]), exactly as _distances_to_rows."""
    out = np.empty(ia.size)
    step = max(1, _GATHER // a.shape[1])  # bounds the gathered copies
    for lo in range(0, ia.size, step):
        part = slice(lo, lo + step)
        out[part] = _distances_to_rows(a[ia[part]], b[ib[part]], EUCLIDEAN)
    return out


def _flatten(gallery: Gallery):
    """Stack all templates in user-then-insertion order.

    Returns (matrix, owner of each row, first row of each user's segment).
    """
    users = gallery.user_ids
    counts = [len(gallery.users[u].templates) for u in users]
    mat = np.stack([t.sample.vector for u in users for t in gallery.users[u].templates])
    owners = np.repeat(np.array(users, dtype=np.int64), counts)
    starts = np.cumsum([0] + counts[:-1])
    return mat, owners, starts


def _cross_layout(gallery: Gallery):
    """_flatten's matrix, each row's segment end, and the cross-user pair count."""
    mat, _, starts = _flatten(gallery)
    n = mat.shape[0]
    ends = np.append(starts[1:], n)
    count = int(np.dot(ends - starts, n - ends))
    if count == 0:
        raise ValueError("no cross-user template pair: cannot estimate a threshold")
    return mat, np.repeat(ends, ends - starts), count


def impostor_pool(gallery: Gallery, metric: str = EUCLIDEAN) -> np.ndarray:
    """All distances between templates belonging to different users.

    This is the exact pool, row by row with the arithmetic of
    classification: L1 thresholds are taken from it, and it is the
    reference the euclidean screen of estimate_threshold must reproduce.
    """
    # _flatten lays each user's rows out as one contiguous segment, so the
    # cross-user partners of row i that follow it are exactly mat[end:],
    # end being the end of i's segment; one buffer, in row-major order.
    mat, row_end, count = _cross_layout(gallery)
    pool = np.empty(count)
    pos = 0
    for v, end in zip(mat, row_end):
        pool[pos : pos + mat.shape[0] - end] = _distances_to_rows(v, mat[end:], metric)
        pos += mat.shape[0] - end
    return pool


def _cross_order_statistic(mat: np.ndarray, row_end: np.ndarray, count: int, k: int) -> float:
    """k-th smallest euclidean cross-user distance, bitwise as in impostor_pool."""
    n = mat.shape[0]
    yy = _sq_norms(mat)
    screens = np.empty(count)  # in impostor_pool's row-major pair order
    pos = 0
    for lo in range(0, n, _BLOCK):
        c0 = row_end[lo]  # segments are contiguous: no later row has a partner before c0
        if c0 == n:  # the last user's rows have no partner after them
            break
        rows = slice(lo, lo + _BLOCK)
        g = _screen(mat[rows], yy[rows], mat[c0:], yy[c0:])
        vals = g[np.arange(c0, n) >= row_end[rows, None]]
        screens[pos : pos + vals.size] = vals
        pos += vals.size
    a = np.partition(screens, k)[k]  # on a copy: screens keeps its pair order
    # Every screen is within tau of its exact value, so the exact k-th value
    # lies within tau of a: pairs screened below a - 2 tau are certainly
    # below it, pairs above a + 2 tau certainly above, and the band between
    # holds it at rank k - below.
    band = 2 * _tau(mat.shape[1], 2 * yy.max())
    low = screens < a - band
    below = np.count_nonzero(low)
    at = np.flatnonzero(~(low | (screens > a + band)))  # NaN keeps a pair
    # row i's partners are the n - row_end[i] rows from row_end[i] on, and
    # its screens start at first[i]
    width = n - row_end
    first = np.cumsum(width) - width
    i = np.searchsorted(first, at, side="right") - 1
    exact = _exact_pairs(mat, i, mat, row_end[i] + at - first[i])
    exact.partition(k - below)
    return float(exact[k - below])


def estimate_threshold(
    gallery: Gallery, policy: ThresholdPolicy = DEFAULT_POLICY, metric: str = EUCLIDEAN
) -> float:
    """Estimate the updating threshold t* from the gallery itself.

    zero_far: t* = min of the cross-user pool, so strict acceptance
    (d < t*) admits none of the pooled impostor pairs.
    far_quantile(q): lower empirical q-quantile of the pool.
    """
    if metric == EUCLIDEAN:
        mat, row_end, count = _cross_layout(gallery)
        return _cross_order_statistic(mat, row_end, count, policy.rank(count))
    pool = impostor_pool(gallery, metric)
    k = policy.rank(pool.size)
    pool.partition(k)  # in place: the order statistic is one pool element
    return float(pool[k])


def _nearest_euclidean(x: np.ndarray, mat: np.ndarray):
    """Nearest row of mat for each row of x (first on ties), and its distance."""
    yy = _sq_norms(mat)
    ymax = yy.max()
    nearest = np.empty(x.shape[0], dtype=np.intp)
    dists = np.empty(x.shape[0])
    for lo in range(0, x.shape[0], _BLOCK):
        rows = x[lo : lo + _BLOCK]
        xx = _sq_norms(rows)
        g = _screen(rows, xx, mat, yy)
        limit = g.min(axis=1) + 2 * _tau(x.shape[1], xx + ymax)
        i, j = np.nonzero(~(g > limit[:, None]))  # NaN keeps a pair
        exact = np.full(g.shape, np.inf)  # the screened-out columns cannot win
        exact[i, j] = _exact_pairs(rows, i, mat, j)
        best = exact.argmin(axis=1)
        nearest[lo : lo + _BLOCK] = best
        dists[lo : lo + _BLOCK] = exact[np.arange(best.size), best]
    return nearest, dists


def _nearest_by_row(x: np.ndarray, mat: np.ndarray, metric: str):
    """_nearest_euclidean for any metric, one exact distance row per probe."""
    nearest = np.empty(x.shape[0], dtype=np.intp)
    dists = np.empty(x.shape[0])
    for r, v in enumerate(x):
        row = _distances_to_rows(v, mat, metric)
        nearest[r] = np.argmin(row)
        dists[r] = row[nearest[r]]
    return nearest, dists


def classify_batch(
    batch: Batch, gallery: Gallery, t_star: float, metric: str = EUCLIDEAN
) -> list[PseudoLabelDecision]:
    """Pseudo-label every sample of a batch against the current gallery.

    Each sample is matched to the globally nearest template; it is
    accepted with that template's owner as pseudo-label iff the distance
    is strictly below t*. Decisions come back in input order.
    """
    if not t_star >= 0:  # also refuses NaN, which would reject every probe
        raise ValueError("t* must be non-negative")
    for s in batch.samples:
        if s.dim != gallery.dim:
            raise ValueError(
                f"sample {s.id} has dim {s.dim}, gallery dim {gallery.dim}"
            )
    if not batch.samples:
        return []
    mat, owners, _ = _flatten(gallery)
    x = np.stack([s.vector for s in batch.samples])
    if metric == EUCLIDEAN:
        nearest, dists = _nearest_euclidean(x, mat)
    else:
        nearest, dists = _nearest_by_row(x, mat, metric)
    decisions = []
    for s, idx, d in zip(batch.samples, nearest, dists):
        d = float(d)
        if d < t_star:
            decisions.append(
                PseudoLabelDecision(
                    sample_id=s.id,
                    accepted=True,
                    distance=d,
                    label=int(owners[idx]),
                )
            )
        else:
            decisions.append(
                PseudoLabelDecision(sample_id=s.id, accepted=False, distance=d)
            )
    return decisions


def score_sets(test: Batch, gallery: Gallery, metric: str = EUCLIDEAN):
    """Genuine and impostor score sets of a test batch against the gallery.

    genuine: each sample's min distance to its own user's gallery.
    impostor: one score per (sample, other user) pair.
    per_subject groups both by the gallery owner that was probed.
    """
    users = gallery.user_ids
    mat, _, starts = _flatten(gallery)  # one segment per user, in user order
    nearest = np.empty((len(test.samples), len(users)))
    for row, s in zip(nearest, test.samples):
        if s.true_user not in gallery.users:
            raise ValueError(
                f"test sample {s.id}: true user {s.true_user} is not enrolled"
            )
        if s.dim != gallery.dim:
            raise ValueError(
                f"dimension mismatch: sample {s.dim} vs gallery {gallery.dim}"
            )
        np.minimum.reduceat(_distances_to_rows(s.vector, mat, metric), starts, out=row)
    truth = np.array([s.true_user for s in test.samples], dtype=np.int64)
    own = truth[:, None] == np.array(users, dtype=np.int64)
    per_subject = {
        u: {
            "genuine": nearest[own[:, j], j].tolist(),
            "impostor": nearest[~own[:, j], j].tolist(),
        }
        for j, u in enumerate(users)
    }
    return nearest[own].tolist(), nearest[~own].tolist(), per_subject
