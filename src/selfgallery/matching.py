"""Distances, match scoring, pseudo-labelling and updating-threshold estimation.

Scores are raw distances (smaller is better). Acceptance is strict:
a probe is taken for gallery insertion only when its distance to the
globally nearest template is < t*.

Evaluation searches nothing: ``distance_columns`` computes every exact
distance from a set of samples to a test batch once, row by row, and
``score_sets`` takes each user's least over its templates' columns. A run
scores all its snapshots against one test batch from one such table.

Euclidean classification and thresholds screen, then score exactly.
``classify_batch`` (each probe's nearest template in the whole gallery)
and ``estimate_threshold`` (an order statistic of the cross-user pool)
first screen every pair with the Gram expansion
g = |x|^2 + |y|^2 - 2 x.y of its squared distance, in blocks of at most
``_BLOCK`` rows. A block's products x.y come from BLAS matrix products
over column tiles of at most ``_TILE`` = 262144 multiply-adds (m rows x
n columns x d). OpenBLAS runs a GEMM of that size on the calling thread:
``interface/gemm.c`` threads only above SMP_THRESHOLD_MIN (65536) x
GEMM_MULTITHREAD_THRESHOLD (4, its build default). So a search never
waits on BLAS worker threads, which stall under CPU contention. Under
another BLAS, or another OpenBLAS build, only the timing can move, never
a result, because of the bound below. For a pair of dimension d, g lies
within

    tau = 8 (d + 4) (u (|x|^2 + max |y|^2) + eta)

of the exact kernel's squared distance (``_distances_to_rows`` before its
square root), u = eps/2 being the unit round-off and eta the smallest
subnormal. tau covers the rounding of the expansion, in any summation
order, plus that of the exact kernel, about twice over. So a probe's
exact nearest row screens within 2 tau of its least screen: only the
pairs in that band are scored again, by ``_distances_to_rows``, and only
those exact values decide. Distances, labels, the lowest-index tie rule
and t* are therefore bitwise those of the row-by-row kernel. A large
feature norm, such as a common offset on every coordinate, widens the
band and costs time but never changes a result, and a screen that
overflows keeps every pair. L1 has no Gram identity:
it still scores every row, one probe at a time, and takes its t* from
``impostor_pool``.

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
_TILE = 1 << 18  # multiply-adds per screen GEMM: OpenBLAS keeps it on one thread
_GATHER = 1 << 14  # feature values per exact re-scoring gather: at most 128 KiB per copy
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
    # one GEMM per column tile of at most _TILE multiply-adds, which OpenBLAS
    # runs on the calling thread (module docstring); under another BLAS only
    # the timing can move, since tau covers any summation order
    g = np.empty((x.shape[0], y.shape[0]))
    step = max(1, _TILE // x.size)  # columns per tile; x.size = m k
    for lo in range(0, y.shape[0], step):
        np.matmul(x, y[lo : lo + step].T, out=g[:, lo : lo + step])
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


def _cross_layout(gallery: Gallery):
    """The gallery's vectors, each row's segment end, and the cross-user pair count."""
    mat, owners = gallery.vectors, gallery.owner
    row_end = np.searchsorted(owners, owners, side="right")  # owners ascend
    count = int(np.sum(mat.shape[0] - row_end))
    if count == 0:
        raise ValueError("no cross-user template pair: cannot estimate a threshold")
    return mat, row_end, count


def impostor_pool(gallery: Gallery, metric: str = EUCLIDEAN) -> np.ndarray:
    """All distances between templates belonging to different users.

    This is the exact pool, row by row with the arithmetic of
    classification: L1 thresholds are taken from it, and it is the
    reference the euclidean screen of estimate_threshold must reproduce.
    """
    # the gallery lays each user's rows out as one contiguous segment, so the
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


def classify_batch(
    batch: Batch, gallery: Gallery, t_star: float, metric: str = EUCLIDEAN
) -> np.recarray:
    """Pseudo-label every sample of a batch against the current gallery.

    Each sample is matched to the globally nearest template; it is
    accepted with that template's owner as pseudo-label iff the distance
    is strictly below t*. Returns one record per sample, in input order:
    ``sample_id`` (int64), ``accepted`` (bool), ``distance`` (float64,
    to the nearest template) and ``label`` (int64, that template's owner,
    a pseudo-label only where ``accepted``). An empty batch gives 0 rows.
    """
    if not t_star >= 0:  # also refuses NaN, which would reject every probe
        raise ValueError("t* must be non-negative")
    for s in batch.samples:
        if s.dim != gallery.dim:
            raise ValueError(
                f"sample {s.id} has dim {s.dim}, gallery dim {gallery.dim}"
            )
    mat, owners = gallery.vectors, gallery.owner
    x = np.array([s.vector for s in batch.samples])
    yy = _sq_norms(mat)
    labels = np.empty(len(batch), dtype=np.int64)
    dists = np.empty(len(batch))
    for lo in range(0, len(batch), _BLOCK):
        xb = x[lo : lo + _BLOCK]
        if metric != EUCLIDEAN:  # no Gram identity: every row, one probe at a time
            block = np.array([_distances_to_rows(v, mat, metric) for v in xb])
        else:
            xx = _sq_norms(xb)
            block = _screen(xb, xx, mat, yy)
            limit = block.min(axis=1) + 2 * _tau(x.shape[1], xx + yy.max())  # NaN keeps its probe
            i, j = np.nonzero(~(block > limit[:, None]))  # NaN keeps a pair
            block.fill(np.inf)  # rows outside the band cannot be nearest
            block[i, j] = _exact_pairs(xb, i, mat, j)
        best = block.argmin(axis=1)  # the first row on ties
        labels[lo : lo + _BLOCK] = owners[best]
        dists[lo : lo + _BLOCK] = block[np.arange(best.size), best]
    ids = np.fromiter((s.id for s in batch.samples), dtype=np.int64, count=len(batch))
    return np.rec.fromarrays(
        [ids, dists < t_star, dists, labels], names="sample_id,accepted,distance,label"
    )


def distance_columns(test: Batch, samples, metric: str = EUCLIDEAN) -> dict[int, np.ndarray]:
    """Exact distances of every test sample to each of the list ``samples``, by
    sample id: ``score_sets`` reads any gallery of these samples from them."""
    if not samples:
        return {}
    dim = samples[0].dim
    for s in (*samples, *test.samples):
        if s.dim != dim:
            raise ValueError(f"dimension mismatch: sample {s.id} has dim {s.dim}, expected {dim}")
    x = np.array([s.vector for s in test.samples]).reshape(-1, dim)
    return {s.id: _distances_to_rows(s.vector, x, metric) for s in samples}


def score_sets(test: Batch, gallery: Gallery, columns: dict[int, np.ndarray]):
    """Genuine and impostor score sets of a test batch against the gallery.

    genuine: each sample's min distance to its own user's gallery.
    impostor: one score per (sample, other user) pair.
    per_subject groups both by the gallery owner that was probed.
    ``columns`` are the test batch's ``distance_columns`` over the gallery's samples.
    """
    users = gallery.user_ids
    enrolled = set(users)
    for s in test.samples:
        if s.true_user not in enrolled:
            raise ValueError(
                f"test sample {s.id}: true user {s.true_user} is not enrolled"
            )
    ids = gallery.sample_id.tolist()
    for sid in ids:
        if sid not in columns:
            raise ValueError(f"template sample {sid} has no distance column")
    starts = np.searchsorted(gallery.owner, users)  # owner ascends: each user's first row
    nearest = np.minimum.reduceat(np.array([columns[sid] for sid in ids]), starts, axis=0).T
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
