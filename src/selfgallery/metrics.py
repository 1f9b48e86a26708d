"""Verification metrics: the test batch's score sets, EER, impostor
fraction, storage accounting, and the score-scatter export.

Score convention everywhere: raw distances, accept if score < t, so FAR
rises and FRR falls as the threshold increases. FRR counts scores >= t
to pair with the strict acceptance rule in matching.

Evaluation reads the ground truth that the update path never reads, and it
searches nothing: ``distance_columns`` tables every exact distance from a set
of samples to a test batch as one id-sorted table, a block of samples per
reduction (matching's exact kernel), and ``score_sets`` gathers a gallery's
rows from it with one ``searchsorted`` over sample ids and takes each user's
least over its templates' rows, which the gallery's ``starts`` bound, as they
bound each user's share of the impostor fraction. A run scores all its
snapshots, and writes its scatter files, against one test batch from one
such table over the samples its galleries hold.
"""

from __future__ import annotations

import csv
from typing import Optional, Sequence, TextIO

import numpy as np

from .core import Batch, Gallery, check_integer, first_repeat, stack_vectors
from .matching import EUCLIDEAN, _exact, _known

DEFAULT_BYTES_PER_COORD = 4  # one 32-bit value per coordinate unless overridden


def fmt9(x: float) -> str:
    """Fixed output format: 9 significant digits, '.' decimal separator."""
    return format(float(x), ".9g")


def compute_eer(genuine: Sequence[float], impostor: Sequence[float]) -> float:
    """Equal error rate of distance score sets.

    Sweeps thresholds over the union of scores (plus +inf), with
    FAR(t) = fraction of impostor scores < t and FRR(t) = fraction of
    genuine scores >= t, and linearly interpolates between the two ROC
    points where FAR - FRR first changes sign. A score may be +inf (an
    overflowed distance); a NaN score is rejected.
    """
    gen = np.sort(np.asarray(genuine, dtype=np.float64))
    imp = np.sort(np.asarray(impostor, dtype=np.float64))
    if gen.size == 0 or imp.size == 0:
        raise ValueError("both score sets must be nonempty")
    if np.isnan(gen[-1]) or np.isnan(imp[-1]):  # np.sort puts NaN last
        raise ValueError("scores must not be NaN")
    both = np.concatenate([gen, imp])
    both.sort(kind="stable")  # one merge of the two sorted runs
    thresholds = both[np.concatenate(([True], both[1:] != both[:-1]))]  # np.unique's values
    far = np.searchsorted(imp, thresholds, side="left") / imp.size
    frr = 1.0 - np.searchsorted(gen, thresholds, side="left") / gen.size
    far = np.append(far, 1.0)  # t beyond every score
    frr = np.append(frr, 0.0)
    diff = far - frr
    # no score lies below the least one: diff[0] = 0 - 1, so i >= 1; diff[-1] = 1
    i = int(np.argmax(diff >= 0.0))  # the first non-negative
    d1, d2 = diff[i - 1], diff[i]
    alpha = d1 / (d1 - d2)
    return float(far[i - 1] + alpha * (far[i] - far[i - 1]))


def impostor_fraction(gallery: Gallery) -> tuple[float, dict[int, float]]:
    """Share of gallery templates whose true identity differs from the owner.

    It reads the gallery's ground truth, which the update path never reads.
    """
    wrong = (gallery.true_user != gallery.owner).astype(np.int64)
    # exact integers below 2^53 divided once, so each fraction is bitwise int / int
    per_user = np.add.reduceat(wrong, gallery.starts[:-1]) / np.diff(gallery.starts)
    return int(wrong.sum()) / wrong.size, dict(zip(gallery.user_ids, per_user.tolist()))


def storage_capped(p: int, k: int, s: int) -> int:
    """Hard storage bound of a capped gallery: p * k * S bytes."""
    if min(check_integer(p, "p"), check_integer(k, "k"), check_integer(s, "S")) < 1:
        raise ValueError("p, k and S must be positive")
    return p * k * s


def storage_uncapped(beta: float, i: int, m_bar: float, k: int, s: int) -> float:
    """Storage of an uncapped classification-selection system after i
    iterations: beta * i * m_bar * k * S bytes (beta = 1 is the
    traditional self-update)."""
    if not (0.0 < beta <= 1.0):
        raise ValueError("beta must be in (0, 1]")
    if check_integer(i, "iteration count") < 0:
        raise ValueError("iteration count must be non-negative")
    if min(check_integer(k, "k"), check_integer(s, "S")) < 1 or not 0 < m_bar < np.inf:  # NaN fails too
        raise ValueError("m_bar, k and S must be positive, and m_bar finite")
    return beta * i * m_bar * k * s


def gallery_bytes(gallery: Gallery, bytes_per_template: Optional[int] = None) -> int:
    s = bytes_per_template
    if s is None:
        s = DEFAULT_BYTES_PER_COORD * gallery.dim
    elif check_integer(s, "bytes_per_template") < 1:
        raise ValueError("bytes_per_template must be positive")
    return gallery.n_templates * s


def distance_columns(
    test: Batch, samples, metric: str = EUCLIDEAN
) -> tuple[np.ndarray, np.ndarray]:
    """The ids of the sequence ``samples`` (a list, or a gallery's ``samples``)
    in ascending order, and one float64 table of shape
    (len(ids), len(test)) whose row i holds sample ids[i]'s exact distances to
    every test sample: one ``_exact`` table, bitwise ``_distances_to_rows``.
    A repeated id is refused, naming the first sample that repeats one."""
    _known(metric)
    ids = np.fromiter((s.id for s in samples), dtype=np.int64, count=len(samples))
    if (again := first_repeat(ids)) is not None:
        raise ValueError(f"sample id {ids[again]} is given more than once")
    if not len(samples):
        return ids, np.empty((0, len(test)))
    y = stack_vectors(samples)  # the samples first: a mismatch names one of them first
    x = stack_vectors(test.samples, y.shape[1])
    order = np.argsort(ids, kind="stable")  # first_repeat's kind: the default added 0.2 MB of peak RSS
    return ids[order], _exact(y[order], x, metric)


def _nearest_by_user(test: Batch, gallery: Gallery, columns):
    """The gallery's users, each test sample's least distance to each of them
    (test x users), and whether that user is the sample's own."""
    users = gallery.user_ids
    truth = np.fromiter((s.true_user for s in test.samples), dtype=np.int64, count=len(test))
    own = truth[:, None] == np.array(users, dtype=np.int64)
    known = own.any(axis=1)
    if not known.all():
        s = test.samples[int(np.argmin(known))]
        raise ValueError(f"test sample {s.id}: true user {s.true_user} is not enrolled")
    ids, table = columns
    held = gallery.sample_id
    rows = np.searchsorted(ids, held)
    found = rows < len(ids)
    found[found] = ids[rows[found]] == held[found]
    if not found.all():
        raise ValueError(f"template sample {held[np.argmin(found)]} has no distance column")
    nearest = np.minimum.reduceat(table[rows], gallery.starts[:-1], axis=0).T
    return users, nearest, own


def score_sets(test: Batch, gallery: Gallery, columns):
    """Genuine and impostor score sets of a test batch against the gallery,
    as float64 arrays, sample by sample and, within a sample, user by user.

    genuine: each sample's min distance to its own user's gallery.
    impostor: one score per (sample, other user) pair.
    ``columns`` are the test batch's ``distance_columns`` over samples that
    include the gallery's: (ids, table).
    """
    _, nearest, own = _nearest_by_user(test, gallery, columns)
    return nearest[own], nearest[~own]


def evaluate_snapshot(
    gallery: Gallery,
    test: Batch,
    columns,
    bytes_per_template: Optional[int] = None,
):
    """EER and storage of one gallery snapshot, scored from the test batch's columns."""
    genuine, impostor = score_sets(test, gallery, columns)
    return {
        "eer": compute_eer(genuine, impostor),
        "gallery_bytes": gallery_bytes(gallery, bytes_per_template),
    }


def export_score_scatter(test: Batch, gallery: Gallery, columns, out: TextIO) -> int:
    """Write one row per (subject, score, kind) for external plotting: the
    gallery's users in ascending order, each with its genuine and then its
    impostor scores, both in test order. ``columns`` are as for ``score_sets``.

    Returns the number of data rows written.
    """
    users, nearest, own = _nearest_by_user(test, gallery, columns)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["subject", "score", "kind"])
    for j, subject in enumerate(users):
        for kind, rows in (("genuine", own[:, j]), ("impostor", ~own[:, j])):
            writer.writerows([subject, fmt9(score), kind] for score in nearest[rows, j].tolist())
    return nearest.size
