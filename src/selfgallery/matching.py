"""Distances, match scoring, pseudo-labelling and updating-threshold estimation.

Scores are raw distances (smaller is better). Acceptance is strict:
a probe is taken for gallery insertion only when its distance to the
globally nearest template is < t*.

Evaluation searches nothing: ``distance_columns`` tables every exact distance
from a set of samples to a test batch, a block of samples per reduction, and
``score_sets`` takes each user's least over its templates' rows as arrays. A
run scores all its snapshots against one test batch from one such table.

Euclidean classification and thresholds screen, then score exactly, as in
the exact re-ranking of approximate nearest-neighbour search (Jegou, Douze
& Schmid, "Product quantization for nearest neighbor search", TPAMI 2011).
``classify_batch`` (each probe's nearest template in the whole gallery)
and ``estimate_threshold`` (an order statistic of the cross-user pool)
first screen every pair with the Gram expansion
g = |x|^2 + |y|^2 - 2 x.y of its squared distance, and only the exact
kernel ``_distances_to_rows`` decides.

Operands. A call subtracts the gallery mean c from the gallery rows and
the probes in float64 and rounds the results to the screen dtype: float32,
or float64 where the bound below does not hold in float32. Distances do
not change under translation, but the bound grows with squared norms, so
centring keeps the band narrow under a large common offset.

Tiles. Blocks of at most ``_BLOCK`` rows are screened by one stacked
``np.matmul`` each, against a (tiles, d, step) copy of the centred gallery
built once per call. Every 2-D slice of that product is a block's rows (for
d > _TILE / _BLOCK, a group of them) against one tile of columns, at most
``_TILE`` = 262144 multiply-adds (m rows x step columns x d); only d > _TILE
exceeds it, at one row against one column. numpy issues one GEMM per
slice, and OpenBLAS runs a GEMM of that size on the calling thread:
``interface/gemm.c`` threads only above SMP_THRESHOLD_MIN (65536) x
GEMM_MULTITHREAD_THRESHOLD (4, its build default). So a search never waits
on BLAS worker threads, which stall under CPU contention. Under another
BLAS, or another OpenBLAS build, only the timing can move, never a result.

Bound. Let u be the screen dtype's unit round-off (eps/2), eta its
smallest subnormal, d the dimension, and N = |x|^2 + max |y|^2 the sum of
the probe's and the largest gallery row's centred squared norms, as
computed in that dtype. If (d + 4) u <= 2^-10 and N <= max/16 (the dtype's
largest finite value), then g lies within

    tau = 8 (d + 4) (u N + eta)

of the exact kernel's squared distance (before its square root). By
Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 2002,
section 3.1, a dot product of length n evaluated in any order errs by at
most gamma_n |x|.|y| (gamma_n = n u / (1 - n u)) plus n eta for underflow.
To first order in u, and with D = |x - y|^2 exactly:
- rounding x - c to float64 and then to the screen dtype moves each
  coordinate by at most (1 + 2^-28) u |x_i - c_i| + eta/2, and D by at
  most 6 u N + 2 d eta^2/u, where eta/u <= 2^-125;
- the expansion errs by gamma_d in x.y and in each squared norm and by u in
  each of its two additions: (2 d + 4) u N + 4 d eta, whatever the
  summation order of BLAS or einsum;
- the exact kernel errs, in float64, by (2 d + 4) u_64 N + d eta_64.
That is about (2 d + 10) u N + 4 d eta in float32, and (4 d + 14) u N
+ 5 d eta in float64: tau covers the u N terms twice over and the eta
terms at least 1.6 times. The margin absorbs the second-order terms,
which (d + 4) u <= 2^-10 keeps below 0.2%, and tau's own float64
rounding. N <= max/16 keeps every value finite: |x.y| <= N/2, so no
partial sum, product, screen or limit exceeds max/7.

A call screens in float32 when the bound holds there for all its pairs,
and otherwise in float64 through the same ``_screen``, with float64's u
and eta. Where it fails in float64 too (a squared norm near 1e307, or
coordinates near 1e154 and above), tau is infinite and every pair is
scored exactly, inf distances included: a screen that overflows keeps
every pair.

Bands. A probe's exact nearest row screens within 2 tau of its least
screen. ``classify_batch`` takes each probe's least screen; only a probe
whose runner-up screen also lies within 2 tau can have another nearest
row, and only that probe's band is scored again, in row order, so the
first row wins ties; each probe's distance is then scored exactly from its
nearest row. The 2 tau margin also keeps rows that tie only after
the square root. Each limit (least screen + 2 tau, or the screened order
statistic -/+ 2 tau) is summed once in float64, rounded to the screen
dtype and moved one step outward, so no comparison narrows the band; NaN
compares false, so it keeps its pair. Distances, labels, the lowest-index
tie rule and t* are therefore bitwise those of the row-by-row kernel. L1
has no Gram identity: it still scores every row, one probe at a time, and
takes its t* from ``impostor_pool``.

``estimate_threshold`` screens each cross-user pair once, under zero-FAR
and FAR-quantile alike. It holds one buffer of screens in the screen dtype
(4 bytes each in float32), in ``impostor_pool``'s pair order, plus a
transient copy of it while a FAR quantile's screened order statistic is
found (zero-FAR takes the minimum in place); the band is then read from
the buffer by position, so the peak is about two pool-sized arrays.
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
_DIM_LIMIT = 2.0**-10  # largest (d + 4) u for which tau is claimed (module docstring)
# per screen dtype, in the order tried: unit round-off u, smallest subnormal
# eta, and the largest squared-norm sum screened (beyond it tau is infinite)
_ROUNDING = {
    t: (float(i.eps) / 2, float(i.smallest_subnormal), float(i.max) / 16)
    for t, i in ((t, np.finfo(t)) for t in (np.float32, np.float64))
}


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


def _norms(diff: np.ndarray, metric: str) -> np.ndarray:
    """The metric's norm of each row of a 2-D array: every exact distance's reduction."""
    if metric == EUCLIDEAN:
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))
    if metric == L1:
        return np.sum(np.abs(diff), axis=1)
    raise ValueError(f"unknown metric: {metric!r}")


def _distances_to_rows(v: np.ndarray, rows: np.ndarray, metric: str) -> np.ndarray:
    return _norms(rows - v, metric)


def _sq_norms(m: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", m, m)


def _sq_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact squared distances, len(x) x len(y): entry [i, j] is ``_sq_norms``
    of ``y[j] - x[i]``, so its square root is bitwise
    ``_distances_to_rows(x[i], y[j : j + 1])``. Each block of rows of x
    subtracts at most ``_GATHER`` values (or one row's len(y) x d)."""
    n, (m, d) = x.shape[0], y.shape
    step = max(1, _GATHER // max(1, m * d))
    if step >= n:  # one block
        return _sq_norms((y[None, :, :] - x[:, None, :]).reshape(-1, d)).reshape(n, m)
    out = np.empty((n, m))
    for lo in range(0, n, step):
        diff = y[None, :, :] - x[lo : lo + step, None, :]
        out[lo : lo + step] = _sq_norms(diff.reshape(-1, d)).reshape(-1, m)
    return out


def _tau(xx: np.ndarray, yy_max, d: int, dtype) -> Optional[np.ndarray]:
    """tau in ``dtype`` (module docstring) of rows of squared norms xx against
    rows whose largest squared norm is ``yy_max``, all as computed in that
    dtype; None where the bound is not claimed."""
    u, eta, top = _ROUNDING[dtype]
    if not ((d + 4) * u <= _DIM_LIMIT and xx.max() + yy_max <= top):  # NaN fails too
        return None
    scale = 8.0 * (d + 4)
    return np.multiply(xx, scale * u, dtype=np.float64) + scale * (u * float(yy_max) + eta)


def _outward(value, toward: float, dtype):
    """A screen limit: ``value``, one float64 sum, rounded to ``dtype`` and
    moved one step toward ``toward``, beyond the exact sum either way."""
    return np.nextafter(value.astype(dtype), dtype.type(toward))


def _stack(mat: np.ndarray, centre: np.ndarray, dtype, m: int):
    """Gallery rows less ``centre``, rounded to ``dtype``, as column tiles for
    screen blocks of at most m rows: a zero-padded (tiles, d, step) array with
    m step d <= _TILE where d <= _TILE / m, and the columns' squared norms."""
    n, d = mat.shape
    tiles = -(-n // max(1, _TILE // (m * d)))
    step = -(-n // tiles)  # balanced: only the last tile is partial
    stack = np.empty((tiles, d, step), dtype)
    cols = stack.transpose(0, 2, 1)  # cols[t, s] is gallery row t step + s
    full, rest = divmod(n, step)
    head = mat[: full * step].reshape(full, step, d)
    np.subtract(head, centre, out=cols[:full], casting="same_kind")
    if rest:
        np.subtract(mat[full * step :], centre, out=cols[full, :rest], casting="same_kind")
        cols[full, rest:] = 0
    return stack, np.einsum("tds,tds->ts", stack, stack).reshape(-1)


def _operands(mat: np.ndarray, x: np.ndarray, m: int):
    """The screen's operands: the gallery ``mat`` stacked (``_stack``) and
    the rows of ``x``, both less the gallery's mean and rounded to the
    screen dtype, their squared norms in it, and tau for each row of x
    against every gallery row.

    The dtype is float32 unless tau is not claimed in it (module docstring),
    then float64; where float64 is not claimed either, tau is infinite."""
    n, d = mat.shape
    centre = mat.sum(axis=0) / n  # the gallery mean
    for dtype in _ROUNDING:
        stack, yy = _stack(mat, centre, dtype, m)
        xc = np.empty(x.shape, dtype)
        np.subtract(x, centre, out=xc, casting="same_kind")
        xx = yy[:n] if x is mat else _sq_norms(xc)
        tau = _tau(xx, yy.max(), d, dtype)
        if tau is not None:
            return stack, yy, xc, xx, tau
    return stack, yy, xc, xx, np.full(xx.shape, np.inf)  # a screen could overflow: keep every pair


def _screen(x, xx, stack, yy) -> np.ndarray:
    """Gram-expanded squared distances of rows x to the columns of ``stack``:
    a screen, never a score. One stacked GEMM over every column tile."""
    tiles, d, step = stack.shape
    m = x.shape[0]
    # row groups of at most _TILE / (d step) rows: more than one only if d > _TILE / _BLOCK
    parts = -(-m // max(1, _TILE // (d * step)))
    rows = -(-m // parts)
    if parts * rows != m:
        x = np.concatenate([x, np.zeros((parts * rows - m, d), x.dtype)])
    g = np.empty((parts * rows, tiles * step), x.dtype)
    # slice (p, t) of the product is row group p against tile t, written in
    # place into g's rows and columns: at most _TILE multiply-adds each
    out = g.reshape(parts, rows, tiles, step).transpose(0, 2, 1, 3)
    np.matmul(x.reshape(parts, 1, rows, d), stack, out=out)
    g = g[:m]
    g *= -2.0
    g += xx[:, None]
    g += yy
    return g


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


def _cross_screens(mat: np.ndarray, row_end: np.ndarray, count: int):
    """Every cross-user pair's screen, in impostor_pool's row-major pair
    order, and the largest tau of any pair."""
    n = mat.shape[0]
    stack, yy, y, _, tau = _operands(mat, mat, min(n, _BLOCK))
    step = stack.shape[2]
    screens = np.empty(count, y.dtype)
    pos, ends = 0, row_end.tolist()
    for lo in range(0, n, _BLOCK):
        c0 = ends[lo]  # segments are contiguous: no later row has a partner before c0
        if c0 == n:  # the last user's rows have no partner after them
            break
        hi = min(lo + _BLOCK, n)
        t0 = c0 // step  # the first tile holding a partner
        g = _screen(y[lo:hi], yy[lo:hi], stack[t0:], yy[t0 * step :])
        r, off = lo, t0 * step
        while r < hi:  # one copy per user's rows in the block: partners end..n
            end = ends[r]
            r_next = end if end < hi else hi
            size = (r_next - r) * (n - end)
            out = screens[pos : pos + size].reshape(r_next - r, n - end)
            out[...] = g[r - lo : r_next - lo, end - off : n - off]
            pos += size
            r = r_next
    return screens, tau.max()


@np.errstate(over="ignore", invalid="ignore")  # a screen may overflow: its tau is then infinite
def _cross_order_statistic(mat: np.ndarray, row_end: np.ndarray, count: int, k: int) -> float:
    """k-th smallest euclidean cross-user distance, bitwise as in impostor_pool."""
    screens, tau = _cross_screens(mat, row_end, count)  # the operands are freed by now
    a = screens.min() if k == 0 else np.partition(screens, k)[k]  # a copy keeps the pair order
    # Every screen is within tau of its exact value, so the exact k-th value
    # lies within tau of a: pairs screened below a - 2 tau are certainly
    # below it, pairs above a + 2 tau certainly above, and the band between
    # holds it at rank k - below.
    low = screens < _outward(a - 2 * tau, -np.inf, screens.dtype)
    below = np.count_nonzero(low)
    high = screens > _outward(a + 2 * tau, np.inf, screens.dtype)
    at = np.flatnonzero(~(low | high))  # NaN keeps a pair
    # row i's partners are the n - row_end[i] rows from row_end[i] on, and
    # its screens start at first[i]
    width = mat.shape[0] - row_end
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


@np.errstate(over="ignore", invalid="ignore")  # a screen may overflow: its tau is then infinite
def _nearest(x: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Index of each row of x's euclidean-nearest row of mat, the first on ties."""
    n = mat.shape[0]
    stack, yy, xc, xx, tau = _operands(mat, x, min(x.shape[0], _BLOCK))
    band = 2 * tau
    near = np.empty(x.shape[0], dtype=np.intp)
    for lo in range(0, x.shape[0], _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        g = _screen(xc[rows], xx[rows], stack, yy)[:, :n]
        best = g.argmin(axis=1)  # NaN first, when there is one
        r = np.arange(best.size)
        least = g[r, best]
        limit = _outward(least + band[rows], np.inf, xc.dtype)
        g[r, best] = np.inf
        runner_up = g.min(axis=1)
        g[r, best] = least
        near[rows] = best
        # only a probe whose runner-up screens inside the band can have
        # another nearest row: score its band exactly, in row order
        for i in np.flatnonzero(~(runner_up > limit)):  # NaN keeps its probe
            cand = np.flatnonzero(~(g[i] > limit[i]))  # NaN keeps a pair
            near[lo + i] = cand[_distances_to_rows(x[lo + i], mat[cand], EUCLIDEAN).argmin()]
    return near


def _probe_rows(batch: Batch, dim: int) -> np.ndarray:
    """The batch's vectors as one (len(batch), dim) array."""
    try:
        return np.array([s.vector for s in batch.samples]).reshape(len(batch), dim)
    except ValueError:  # ragged or of another width: name the first offending sample
        s = next(s for s in batch.samples if s.dim != dim)
        raise ValueError(f"sample {s.id} has dim {s.dim}, gallery dim {dim}") from None


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
    x = _probe_rows(batch, gallery.dim)
    mat, owners = gallery.vectors, gallery.owner
    if metric == EUCLIDEAN:
        near = _nearest(x, mat) if len(x) else np.empty(0, dtype=np.intp)
        dists = _exact_pairs(x, np.arange(near.size), mat, near)
    else:  # no Gram identity: every row, one probe at a time
        near = np.empty(len(x), dtype=np.intp)
        dists = np.empty(len(x))
        for i, v in enumerate(x):
            row = _distances_to_rows(v, mat, metric)
            near[i] = row.argmin()  # the first row on ties
            dists[i] = row[near[i]]
    ids = np.fromiter((s.id for s in batch.samples), dtype=np.int64, count=len(batch))
    return np.rec.fromarrays(
        [ids, dists < t_star, dists, owners[near]], names="sample_id,accepted,distance,label"
    )


def distance_columns(test: Batch, samples, metric: str = EUCLIDEAN) -> dict[int, np.ndarray]:
    """Exact distances of every test sample to each of the list ``samples``, by sample
    id: rows of one table. A block's (test - sample) rows hold at most ``_GATHER`` values
    (or one sample's) and reduce by ``_norms``: bitwise ``_distances_to_rows``."""
    if not samples:
        return {}
    dim, t = samples[0].dim, len(test)
    step = max(1, _GATHER // max(1, t * dim))
    table = np.empty((len(samples), t))
    try:
        x = np.array([s.vector for s in test.samples]).reshape(t, dim)
        for lo in range(0, len(samples), step):
            part = samples[lo : lo + step]
            y = np.array([s.vector for s in part]).reshape(len(part), 1, dim)
            table[lo : lo + step] = _norms((x - y).reshape(-1, dim), metric).reshape(len(part), t)
    except ValueError:  # ragged or of another width: name the first offending sample
        s = next((s for s in (*samples, *test.samples) if s.dim != dim), None)
        if s is None:
            raise  # not a width: an unknown metric
        msg = f"dimension mismatch: sample {s.id} has dim {s.dim}, expected {dim}"
        raise ValueError(msg) from None
    return dict(zip((s.id for s in samples), table))


def _nearest_by_user(test: Batch, gallery: Gallery, columns: dict[int, np.ndarray]):
    """The gallery's users, each test sample's least distance to each of them
    (test x users), and whether that user is the sample's own."""
    users = gallery.user_ids
    truth = np.fromiter((s.true_user for s in test.samples), dtype=np.int64, count=len(test))
    own = truth[:, None] == np.array(users, dtype=np.int64)
    known = own.any(axis=1)
    if not known.all():
        s = test.samples[int(np.argmin(known))]
        raise ValueError(f"test sample {s.id}: true user {s.true_user} is not enrolled")
    try:
        rows = [columns[sid] for sid in gallery.sample_id.tolist()]
    except KeyError as missing:
        raise ValueError(f"template sample {missing.args[0]} has no distance column") from None
    starts = np.searchsorted(gallery.owner, users)  # owner ascends: each user's first row
    nearest = np.minimum.reduceat(np.array(rows), starts, axis=0).T
    return users, nearest, own


def score_sets(test: Batch, gallery: Gallery, columns: dict[int, np.ndarray]):
    """Genuine and impostor score sets of a test batch against the gallery,
    as float64 arrays, sample by sample and, within a sample, user by user.

    genuine: each sample's min distance to its own user's gallery.
    impostor: one score per (sample, other user) pair.
    ``columns`` are the test batch's ``distance_columns`` over the gallery's samples.
    """
    _, nearest, own = _nearest_by_user(test, gallery, columns)
    return nearest[own], nearest[~own]


def per_subject_scores(test: Batch, gallery: Gallery, columns: dict[int, np.ndarray]) -> dict:
    """``score_sets``' scores grouped by the gallery user probed, as lists:
    ``{user: {"genuine": [...], "impostor": [...]}}``, every user included."""
    users, nearest, own = _nearest_by_user(test, gallery, columns)
    return {
        u: {"genuine": nearest[own[:, j], j].tolist(), "impostor": nearest[~own[:, j], j].tolist()}
        for j, u in enumerate(users)
    }
