"""Distances, pseudo-labelling and updating-threshold estimation: the
update path's matching, which reads no ground truth.

Scores are raw distances (smaller is better). Acceptance is strict:
a probe is taken for gallery insertion only when its distance to the
globally nearest template is < t*.

Euclidean classification and thresholds screen, then score exactly, as in
the exact re-ranking of approximate nearest-neighbour search (Jegou, Douze
& Schmid, "Product quantization for nearest neighbor search", TPAMI 2011).
``classify_batch`` (each probe's nearest template in the whole gallery),
``estimate_threshold`` (an order statistic of the cross-user pool) and
K-Means' assignment (``clustering``) first screen every pair with the Gram
expansion g = |x|^2 + |y|^2 - 2 x.y of its squared distance (``_Screen``),
and only the exact kernel ``_exact`` decides. Every distance they return
or compare exactly comes from ``_exact``, bitwise the row kernel
``_distances_to_rows``, as do evaluation's columns (``metrics``) and MDIST
and DEND's matrices (``selection``). Four exact reductions are their own:
K-Means' empty-cluster repair (``_sq_norms`` of each point less its
centroid) and its inertia (``clustering._sq_residuals``' total),
``select_kmeans``' ranking (``_sq_residuals(..., axis=1)``, as
``tests/oracles.py`` defines it) and ``synthgen.user_means``' spacing.

Operands. A screen's columns are the gallery (K-Means: the centroids) and
its rows the probes (the gallery itself, or K-Means' points). A call
subtracts the columns' mean c from both in float64 and rounds the results
to float32, the one screen dtype. Distances do not change under
translation, but the bound grows with squared norms, so centring keeps the
band narrow under a large common offset.

A screen (``_Screen``) takes its columns as float64 rows (for a gallery,
one ``gallery.vectors`` gather), computes c, and builds their column tiles
and squared norms in float32. Each call builds its own screen and holds it
only while it runs: ``estimate_threshold`` and ``classify_batch`` each
gather and centre the gallery once, and no state is kept between calls.

Tiles. Each ``_screen`` call is one stacked ``np.matmul`` of its rows
against a (tiles, d, step) copy of the centred columns built once per
call. Classification and t* screen blocks of at most ``_BLOCK`` rows per
call, K-Means every point at once. Every 2-D slice of that product is a
group of rows against one tile of columns, at most ``_TILE`` = 262144
multiply-adds (rows x step columns x d); only d > _TILE exceeds it, at one
row against one column. numpy issues one GEMM per slice, and OpenBLAS runs
a GEMM of that size on the calling thread: ``interface/gemm.c`` threads
only above SMP_THRESHOLD_MIN (65536) x GEMM_MULTITHREAD_THRESHOLD (4, its
build default). So a search never waits on BLAS worker threads, which
stall under CPU contention. Under another BLAS, or another OpenBLAS build,
only the timing can move, never a result.

Bound. Let u = 2^-24 be float32's unit round-off (eps/2), eta = 2^-149
its smallest subnormal, d the dimension, and N = |x|^2 + max |y|^2 the sum
of the probe's and the largest gallery row's centred squared norms, as
computed in float32. If (d + 4) u <= 2^-10 (d <= 16,380) and N <= max/16
(float32's largest finite value over 16, about 2.1e37), then g lies within

    tau = 8 (d + 4) (u N + eta)

of the exact kernel's squared distance (before its square root). By
Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 2002,
section 3.1, a dot product of length n evaluated in any order errs by at
most gamma_n |x|.|y| (gamma_n = n u / (1 - n u)) plus n eta for underflow.
To first order in u, and with D = |x - y|^2 exactly:
- rounding x - c to float64 and then to float32 moves each coordinate by
  at most (1 + 2^-28) u |x_i - c_i| + eta/2, and D by at most
  6 u N + 2 d eta^2/u, where eta/u <= 2^-125;
- the expansion errs by gamma_d in x.y and in each squared norm and by u in
  each of its two additions: (2 d + 4) u N + 4 d eta, whatever the
  summation order of BLAS or einsum;
- the exact kernel errs, in float64, by (2 d + 4) u_64 N + d eta_64.
That is about (2 d + 10) u N + 4 d eta: tau covers the u N terms three
times over and the eta terms twice over. The margin absorbs the
second-order terms, which (d + 4) u <= 2^-10 keeps below 0.2%, and tau's
own float64 rounding. N <= max/16 keeps every value finite: |x.y| <= N/2,
so no partial sum, product, screen or limit exceeds max/7.

A call claims the bound when it holds for all its pairs. Where it does
not (d > 16,380, or an N past max/16: coordinates near 1e18 and above),
tau is infinite and every pair is scored exactly, inf distances included:
classification and K-Means then read no screen, and t*'s band holds every
pair. The results are the same either way, and only the time differs: such
a call scores all its len(x) x len(y) pairs with ``_exact``, where a claimed
bound scores only the bands. No workload comes near either edge.

Bands. A row's exact nearest column screens within 2 tau of its least
screen. Each row takes its least screen; only a row whose runner-up
screen also lies within 2 tau can have another nearest column, and only
that row's band is scored again, in column order, so the first column wins
ties. Classification compares square-rooted distances, so the 2 tau margin
also keeps columns that tie only after the square root, and scores each
probe's distance exactly from its nearest row; K-Means compares squared
distances. Each limit (least screen + 2 tau, or the screened order
statistic -/+ 2 tau) is summed once in float64, rounded to float32 and
moved one step outward, so no comparison narrows the band; under a
claimed bound every screen is finite, and t*'s band keeps a NaN screen.
Distances, labels, the lowest-index tie rule, t* and K-Means' assignments
are therefore bitwise those of the row-by-row kernel. L1 has no Gram
identity: classification scores every pair exactly, in one table of at
most ``_BLOCK`` probes against the gallery at a time, and t* comes from
``impostor_pool``.

``estimate_threshold`` screens each cross-user pair once, under zero-FAR
and FAR-quantile alike. It holds one buffer of float32 screens (4 bytes
each), in ``impostor_pool``'s pair order, plus a transient copy of it
while the screened order statistic is found; the band is then read from
the buffer by position, so the peak is about two pool-sized arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Batch, Gallery, check_real

EUCLIDEAN = "euclidean"
L1 = "l1"
METRICS = (EUCLIDEAN, L1)
_SQUARED = "squared"  # the exact kernel's euclidean before its square root (K-Means, selection)

_BLOCK = 64  # rows per Gram screen block
_TILE = 1 << 18  # multiply-adds per screen GEMM: OpenBLAS keeps it on one thread
_GATHER = 1 << 14  # feature values per block of the exact kernel: at most 128 KiB per copy
_REDUCE = 1 << 13  # columns per einsum of a squared norm: numpy's buffer size (_sq_norms)
_DIM_LIMIT = 2.0**-10  # largest (d + 4) u for which tau is claimed (module docstring)
# float32's unit round-off u and smallest subnormal eta, and the largest
# squared-norm sum screened (beyond it, as beyond _DIM_LIMIT, tau is infinite)
_U, _ETA, _TOP = 2.0**-24, 2.0**-149, float(np.finfo(np.float32).max) / 16


_Q_RANGE = "far_quantile needs q strictly in (0, 1)"


@dataclass(frozen=True)
class ThresholdPolicy:
    """How t* is derived from the gallery's cross-user distance pool: zero-FAR
    without a quantile ``q``, else the pool's FAR ``q``-quantile."""

    q: Optional[float] = None

    def __post_init__(self):
        if self.q is not None and not 0.0 < check_real(self.q, "q") < 1.0:
            raise ValueError(_Q_RANGE)

    def rank(self, pool_size: int) -> int:
        """0-based rank of t* in the sorted cross-user pool."""
        return 0 if self.q is None else max(0, math.ceil(self.q * pool_size) - 1)

    @staticmethod
    def zero_far() -> "ThresholdPolicy":
        return ThresholdPolicy()

    @staticmethod
    def far_quantile(q: float) -> "ThresholdPolicy":
        if q is None:
            raise ValueError(_Q_RANGE)
        return ThresholdPolicy(q=q)


# Default: a relatively stringent 1% FAR on the gallery-derived impostor pool.
DEFAULT_POLICY = ThresholdPolicy.far_quantile(0.01)


def _known(metric: str) -> None:
    """Refuse a metric other than ``METRICS``."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric: {metric!r}")


def _norms(diff: np.ndarray, metric: str) -> np.ndarray:
    """The metric's norm of each row of a 2-D array: the reduction of every distance ``_exact`` scores."""
    if metric == L1:
        with np.errstate(over="ignore"):  # a sum past float64's max is inf, as the einsum's
            return np.sum(np.abs(diff), axis=1)
    sq = _sq_norms(diff)
    return sq if metric == _SQUARED else np.sqrt(sq)


def _distances_to_rows(v: np.ndarray, rows: np.ndarray, metric: str) -> np.ndarray:
    return _norms(rows - v, metric)


def _sq_norms(m: np.ndarray) -> np.ndarray:
    """Each row's squared norm: one einsum, or past ``_REDUCE`` columns one
    per block of ``_REDUCE`` columns, summed left to right. numpy sums a
    lone row in that order, but a row among others differently, so without
    the blocks a pair's distance would depend on the rows scored with it."""
    if m.shape[1] > _REDUCE:
        k = (m.shape[1] - 1) // _REDUCE * _REDUCE  # the last block's first column
        return _sq_norms(m[:, :k]) + _sq_norms(m[:, k:])
    return np.einsum("ij,ij->i", m, m)


@np.errstate(over="ignore")  # a difference past float64's max is inf, as a square or sum past it
def _exact(x: np.ndarray, y: np.ndarray, metric: str = EUCLIDEAN, ix=None, iy=None) -> np.ndarray:
    """The exact kernel: ``_norms`` of y[j] - x[i] for every row i of x and j
    of y, len(x) x len(y), or, given index arrays ix and iy, of each pair
    (x[ix[t]], y[iy[t]]). Each block of rows subtracts at most ``_GATHER``
    values (or one row's len(y) x d), so an entry is bitwise
    ``_distances_to_rows(x[i], y[j : j + 1], metric)``."""
    d = x.shape[1]
    n, m = (len(x), len(y)) if ix is None else (len(ix), 1)
    step = max(1, _GATHER // max(1, m * d))
    out = np.empty((n, m))
    for lo in range(0, n, step):
        part = slice(lo, lo + step)
        diff = y[None, :, :] - x[part, None, :] if ix is None else y[iy[part]] - x[ix[part]]
        out[part] = _norms(diff.reshape(-1, d), metric).reshape(len(diff), m)
    return out if ix is None else out[:, 0]


def _tau(xx: np.ndarray, yy_max, d: int) -> np.ndarray:
    """tau (module docstring) of rows of squared norms xx against rows whose
    largest squared norm is ``yy_max``, all as computed in float32; infinite
    where the bound is not claimed (d too large, or a screen could overflow:
    every pair is then scored exactly)."""
    if not ((d + 4) * _U <= _DIM_LIMIT and xx.max() + yy_max <= _TOP):  # NaN fails too
        return np.full(xx.shape, np.inf)
    scale = 8.0 * (d + 4)
    return np.multiply(xx, scale * _U, dtype=np.float64) + scale * (_U * float(yy_max) + _ETA)


def _outward(value, toward: float):
    """A screen limit: ``value``, one float64 sum, rounded to float32 and
    moved one step toward ``toward``, beyond the exact sum either way."""
    return np.nextafter(value.astype(np.float32), np.float32(toward))


def _stack(mat: np.ndarray, centre: np.ndarray, m: int):
    """Rows of ``mat`` less ``centre``, rounded to float32, as column tiles
    for slices of at most m rows: a zero-padded (tiles, d, step) array with
    m step d <= _TILE where d <= _TILE / m, and the columns' squared norms,
    infinite for the padding, so that no padded column screens in a band."""
    n, d = mat.shape
    tiles = -(-n // max(1, _TILE // (m * d)))
    step = -(-n // tiles)  # balanced: only the last tile is partial
    stack = np.empty((tiles, d, step), np.float32)
    cols = stack.transpose(0, 2, 1)  # cols[t, s] is row t step + s of mat
    full, rest = divmod(n, step)
    np.subtract(mat[: full * step].reshape(full, step, d), centre, out=cols[:full], casting="same_kind")
    if rest:
        np.subtract(mat[full * step :], centre, out=cols[full, :rest], casting="same_kind")
        cols[full, rest:] = 0
    yy = np.einsum("tds,tds->ts", stack, stack).reshape(-1)
    yy[n:] = np.inf
    return stack, yy


def _groups(m: int, stack: np.ndarray):
    """Row groups of a screen of m rows against ``stack``: (groups, rows), at
    most _TILE / (d step) rows each, balanced, so groups x rows < m + groups."""
    _, d, step = stack.shape
    parts = -(-m // max(1, _TILE // (d * step)))
    return parts, -(-m // parts)


def _screen(x, xx, stack, yy) -> np.ndarray:
    """Gram-expanded squared distances of the len(xx) rows x to the columns
    of ``stack``: a screen, never a score. One stacked GEMM over every row
    group and column tile; x holds the rows of whole groups (``_groups``),
    those beyond len(xx) screened and dropped."""
    tiles, d, step = stack.shape
    parts, rows = _groups(len(xx), stack)
    g = np.empty((parts * rows, tiles * step), np.float32)
    # slice (p, t) of the product is row group p against tile t, written in
    # place into g's rows and columns: at most _TILE multiply-adds each
    out = g.reshape(parts, rows, tiles, step).transpose(0, 2, 1, 3)
    np.matmul(x[: parts * rows].reshape(parts, 1, rows, d), stack, out=out)
    g = g[: len(xx)]
    g *= -2.0
    g += xx[:, None]
    g += yy
    return g


class _Screen:
    """The screen of rows x against the columns y (module docstring): both
    less the columns' mean and rounded to float32, y's tiles for
    slices of ``group`` rows, and tau for each row against every column;
    tau is infinite where the bound is not claimed. ``nearest`` decides on
    exact distances under ``metric``: euclidean for classification,
    ``_SQUARED`` for K-Means."""

    @np.errstate(over="ignore", invalid="ignore")  # an overflow fails the bound: tau is infinite
    def __init__(self, x: np.ndarray, y: np.ndarray, metric: str, group: int):
        self.x, self.y, self.centre, self.metric, self.g = x, y, y.sum(axis=0) / len(y), metric, None
        n, d = x.shape
        self.stack, self.yy = _stack(y, self.centre, group)
        # zero rows after x's complete the last row group of any screen
        self.xc = np.zeros((n + _groups(n, self.stack)[0] - 1, d), np.float32)
        np.subtract(x, self.centre, out=self.xc[:n], casting="same_kind")
        self.xx = _sq_norms(self.xc[:n])
        self.tau = _tau(self.xx, self.yy[: len(y)].max(), d)

    def screen(self, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """Screens of the rows lo:hi against every column (and inf against
        the stack's padding)."""
        return _screen(self.xc[lo:], self.xx[lo:hi], self.stack, self.yy)

    def rescreen(self, y: np.ndarray) -> np.ndarray:
        """Every row's screens against new columns y (K-Means' centroids):
        the first call screens every column, a later one only the columns
        that differ from the last ones, and keeps the others' screens."""
        if self.g is None:
            self.g = self.screen()
        else:
            moved = np.flatnonzero((y != self.y).any(axis=1))
            if moved.size:
                stack, yy = _stack(y[moved], self.centre, 1)
                self.g[:, moved] = _screen(self.xc, self.xx, stack, yy)[:, : moved.size]
                self.yy[moved] = yy[: moved.size]
                self.tau = _tau(self.xx, self.yy[: len(y)].max(), y.shape[1])
        self.y = y
        return self.g

    def nearest(self, g: np.ndarray, lo: int = 0) -> np.ndarray:
        """Each row's nearest column by exact distance, the first on ties, from
        the screens g of rows lo.. (module docstring, Bands)."""
        x = self.x[lo : lo + len(g)]
        if not self.tau[0] < np.inf:  # not claimed: every pair is scored
            return _exact(x, self.y, self.metric).argmin(axis=1)
        best = g.argmin(axis=1)
        r = np.arange(best.size)
        limit = _outward(g[r, best] + 2 * self.tau[lo : lo + best.size], np.inf)
        within = g <= limit[:, None]  # a claimed bound keeps every screen finite
        # each row's least screen is within; only a row with another one can
        # have another nearest column: score its band exactly, in column order
        if np.count_nonzero(within) > best.size:
            within[r, best] = False
            for i in np.flatnonzero(within.any(axis=1)):
                cand = np.flatnonzero(g[i] <= limit[i])
                best[i] = cand[_exact(x[i : i + 1], self.y[cand], self.metric).argmin()]
        return best


def _cross_layout(gallery: Gallery):
    """The gallery's vectors, each row's partners' first row (its user's
    end, from ``starts``), and the cross-user pair count."""
    mat, starts = gallery.vectors, gallery.starts
    row_end = np.repeat(starts[1:], np.diff(starts))
    count = int(np.sum(mat.shape[0] - row_end))
    if count == 0:
        raise ValueError("no cross-user template pair: cannot estimate a threshold")
    return mat, row_end, count


def _pool(mat: np.ndarray, starts: np.ndarray, metric: str) -> np.ndarray:
    """impostor_pool of the rows ``mat`` with user bounds ``starts``."""
    # each user's rows are one run, so the cross-user partners of a user's
    # rows are exactly mat[end:], end being its next user's first row; each
    # user's table but the last user's (no row follows it), row-major, in row order
    b = starts.tolist()
    return np.concatenate([_exact(mat[lo:end], mat[end:], metric).ravel() for lo, end in zip(b, b[1:-1])])


def impostor_pool(gallery: Gallery, metric: str = EUCLIDEAN) -> np.ndarray:
    """All distances between templates belonging to different users.

    This is the exact pool, row by row with the arithmetic of
    classification: L1 thresholds are taken from it, and it is the
    reference the euclidean screen of estimate_threshold must reproduce.
    """
    _known(metric)
    return _pool(_cross_layout(gallery)[0], gallery.starts, metric)


def _cross_screens(mat: np.ndarray, row_end: np.ndarray, count: int):
    """Every cross-user pair's screen of the rows ``mat``, in impostor_pool's
    row-major pair order, and the largest tau of any pair."""
    n = len(mat)
    screen = _Screen(mat, mat, EUCLIDEAN, min(n, _BLOCK))
    step = screen.stack.shape[2]
    screens, pos, ends = np.empty(count, np.float32), 0, row_end.tolist()
    for lo in range(0, n, _BLOCK):
        c0 = ends[lo]  # segments are contiguous: no later row has a partner before c0
        if c0 == n:  # the last user's rows have no partner after them
            break
        hi = min(lo + _BLOCK, n)
        t0 = c0 // step  # the first tile holding a partner
        g = _screen(screen.xc[lo:], screen.xx[lo:hi], screen.stack[t0:], screen.yy[t0 * step :])
        r, off = lo, t0 * step
        while r < hi:  # one copy per user's rows in the block: partners end..n
            end = ends[r]
            r_next = end if end < hi else hi
            size = (r_next - r) * (n - end)
            out = screens[pos : pos + size].reshape(r_next - r, n - end)
            out[...] = g[r - lo : r_next - lo, end - off : n - off]
            pos += size
            r = r_next
    return screens, screen.tau.max()


@np.errstate(over="ignore", invalid="ignore")  # a screen may overflow: its tau is then infinite
def _cross_order_statistic(mat: np.ndarray, row_end: np.ndarray, count: int, k: int) -> float:
    """k-th smallest euclidean cross-user distance, bitwise as in impostor_pool."""
    screens, tau = _cross_screens(mat, row_end, count)  # the screen and its tiles are freed by now
    a = np.partition(screens, k)[k]  # a copy keeps the pair order
    # Every screen is within tau of its exact value, so the exact k-th value
    # lies within tau of a: pairs screened below a - 2 tau are certainly
    # below it, pairs above a + 2 tau certainly above, and the band between
    # holds it at rank k - below.
    low = screens < _outward(a - 2 * tau, -np.inf)
    below = np.count_nonzero(low)
    high = screens > _outward(a + 2 * tau, np.inf)
    at = np.flatnonzero(~(low | high))  # NaN keeps a pair
    # row i's partners are the n - row_end[i] rows from row_end[i] on, and
    # its screens start at first[i]
    width = mat.shape[0] - row_end
    first = np.cumsum(width) - width
    i = np.searchsorted(first, at, side="right") - 1
    exact = _exact(mat, mat, EUCLIDEAN, i, row_end[i] + at - first[i])
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
    _known(metric)  # before any work
    mat, row_end, count = _cross_layout(gallery)
    k = policy.rank(count)
    if metric == EUCLIDEAN:
        return _cross_order_statistic(mat, row_end, count, k)
    pool = _pool(mat, gallery.starts, metric)
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
    _known(metric)
    # a bool is no distance (the package refuses bool keys too); NaN would reject every probe
    if not check_real(t_star, "t*") >= 0:
        raise ValueError(f"t* must be a non-negative number, not {t_star!r}")
    x = batch.vectors
    if x.shape[1] != gallery.dim:
        raise ValueError(f"dimension mismatch: batch {batch.index} has dim {x.shape[1]}, expected {gallery.dim}")
    mat, owners = gallery.vectors, gallery.owner
    blocks = range(0, max(len(x), 1), _BLOCK)  # an empty batch makes one empty block
    if metric == EUCLIDEAN and len(x):
        screen = _Screen(x, mat, EUCLIDEAN, min(len(x), _BLOCK))
        with np.errstate(over="ignore", invalid="ignore"):  # a screen may overflow: tau is infinite
            near = np.concatenate([screen.nearest(screen.screen(lo, lo + _BLOCK), lo) for lo in blocks])
    else:  # no Gram identity (or no probe): one exact table per block of probes
        near = np.concatenate([_exact(x[lo : lo + _BLOCK], mat, metric).argmin(axis=1) for lo in blocks])
    dists = _exact(x, mat, metric, np.arange(len(x)), near)
    return np.rec.fromarrays(
        [batch.sample_id, dists < t_star, dists, owners[near]], names="sample_id,accepted,distance,label"
    )
