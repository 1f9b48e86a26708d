"""Distances, match scoring, pseudo-labelling and updating-threshold estimation.

Scores are raw distances (smaller is better). Acceptance is strict:
a probe is taken for gallery insertion only when its distance to the
globally nearest template is < t*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Batch, Gallery, Sample, UserGallery

EUCLIDEAN = "euclidean"
L1 = "l1"
METRICS = (EUCLIDEAN, L1)


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


def distance(a: np.ndarray, b: np.ndarray, metric: str = EUCLIDEAN) -> float:
    """Distance between two equal-dim vectors under the run's metric."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    d = a - b
    if metric == EUCLIDEAN:
        return float(np.sqrt(np.dot(d, d)))
    if metric == L1:
        return float(np.sum(np.abs(d)))
    raise ValueError(f"unknown metric: {metric!r}")


def _distances_to_rows(v: np.ndarray, rows: np.ndarray, metric: str) -> np.ndarray:
    diff = rows - v
    if metric == EUCLIDEAN:
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))
    if metric == L1:
        return np.sum(np.abs(diff), axis=1)
    raise ValueError(f"unknown metric: {metric!r}")


def match_score(s: Sample, ug: UserGallery, metric: str = EUCLIDEAN):
    """Minimum distance of a sample to one user's templates.

    Returns (min_distance, sample id of the nearest template); ties go to
    the earliest-inserted template.
    """
    if s.dim != ug.dim:
        raise ValueError(f"dimension mismatch: sample {s.dim} vs gallery {ug.dim}")
    rows = np.stack([t.sample.vector for t in ug.templates])
    dists = _distances_to_rows(s.vector, rows, metric)
    idx = int(np.argmin(dists))  # argmin returns first occurrence: earliest inserted
    return float(dists[idx]), ug.templates[idx].sample.id


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


def impostor_pool(gallery: Gallery, metric: str = EUCLIDEAN) -> np.ndarray:
    """All distances between templates belonging to different users."""
    # _flatten lays each user's rows out as one contiguous segment, so the
    # cross-user partners of row i that follow it are exactly mat[end:],
    # end being the end of i's segment. Row by row with the same arithmetic
    # as classification, so the zero_far guarantee holds bitwise against
    # classify_batch; one buffer of the exact pair count, in row-major order.
    mat, _, starts = _flatten(gallery)
    n = mat.shape[0]
    ends = np.append(starts[1:], n)
    pool = np.empty(int(np.dot(ends - starts, n - ends)))
    if pool.size == 0:
        raise ValueError("no cross-user template pair: cannot estimate a threshold")
    pos = 0
    for lo, end in zip(starts, ends):
        for i in range(lo, end):
            pool[pos : pos + n - end] = _distances_to_rows(mat[i], mat[end:], metric)
            pos += n - end
    return pool


def estimate_threshold(
    gallery: Gallery, policy: ThresholdPolicy = DEFAULT_POLICY, metric: str = EUCLIDEAN
) -> float:
    """Estimate the updating threshold t* from the gallery itself.

    zero_far: t* = min of the cross-user pool, so strict acceptance
    (d < t*) admits none of the pooled impostor pairs.
    far_quantile(q): lower empirical q-quantile of the pool.
    """
    pool = impostor_pool(gallery, metric)
    if policy.kind == "zero_far":
        return float(np.min(pool))
    idx = max(0, math.ceil(policy.q * pool.size) - 1)
    pool.partition(idx)  # in place: the order statistic is one pool element
    return float(pool[idx])


def classify_batch(
    batch: Batch, gallery: Gallery, t_star: float, metric: str = EUCLIDEAN
) -> list[PseudoLabelDecision]:
    """Pseudo-label every sample of a batch against the current gallery.

    Each sample is matched to the globally nearest template; it is
    accepted with that template's owner as pseudo-label iff the distance
    is strictly below t*. Decisions come back in input order.
    """
    if t_star < 0:
        raise ValueError("t* must be non-negative")
    mat, owners, _ = _flatten(gallery)
    decisions = []
    for s in batch.samples:
        if s.dim != gallery.dim:
            raise ValueError(
                f"sample {s.id} has dim {s.dim}, gallery dim {gallery.dim}"
            )
        dists = _distances_to_rows(s.vector, mat, metric)
        idx = int(np.argmin(dists))
        d = float(dists[idx])
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
