"""Orchestration of update cycles: classify, insert, select, re-estimate.

Every classification in a cycle uses the pre-cycle gallery; selection
runs once after all insertions; t* is re-estimated from the
post-selection gallery before the next batch.

A cycle works on rows of the gallery's dataset, never on per-user
containers: the candidates are the gallery's rows followed by the accepted
probes' rows, ordered once by ``core.row_order``, the order a ``Gallery``
holds its rows in. That order hands selection each user's candidate
vectors, one gather, in id order, and the keep mask over it gives the next
gallery's rows, already in order, and the evictions in the same order.

A report's ``elapsed_classify_s`` and ``elapsed_select_s`` are CPU time of
the calling thread, which holds all of that work, so time the thread spends
waiting for a CPU on a busy machine does not count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import matching, selection
from .core import Batch, Gallery, check_integer, first_repeat, row_order
from .matching import DEFAULT_POLICY, EUCLIDEAN, ThresholdPolicy


@dataclass(frozen=True)
class EngineConfig:
    method: str
    p: int
    metric: str = EUCLIDEAN
    policy: ThresholdPolicy = DEFAULT_POLICY

    def __post_init__(self):
        if self.method not in selection.METHODS:
            raise ValueError(f"unknown selection method: {self.method!r}")
        check_integer(self.p, "p", 1)
        matching._known(self.metric)
        if not isinstance(self.policy, ThresholdPolicy):  # else it fails only at the first t*
            raise ValueError(f"policy must be a ThresholdPolicy, not {self.policy!r}")


@dataclass(frozen=True)
class UpdateCycleReport:
    batch_index: int
    t_star_used: float
    n_rejected: int
    insertions: tuple[tuple[int, int], ...]  # (sample_id, pseudo_label), in batch order
    evictions: tuple[tuple[int, int], ...]  # (sample_id, user), users ascending, each in id order
    # CPU time of the calling thread (time.thread_time), not wall time, so a
    # busy machine does not inflate it: every screen GEMM of classification
    # runs on the calling thread (matching's _TILE), and selection calls no BLAS
    elapsed_classify_s: float
    elapsed_select_s: float

    @property
    def n_accepted(self) -> int:
        return len(self.insertions)


def run_update_cycle(
    gallery: Gallery, batch: Batch, cfg: EngineConfig, t_star: float
) -> tuple[Gallery, UpdateCycleReport]:
    """One pass of the classification-selection loop over a single batch.

    The batch and the gallery must be rows of one dataset, and the batch's
    rows must be new: a batch of another dataset, one that repeats a row, or
    reuses one the gallery already holds, raises ValueError before anything
    is classified, as does a batch index below 1 (index 0 is the
    enrollment's) or below the gallery's newest row's: batches arrive in
    time order, so no row of a gallery can come from a batch later than the
    one being absorbed.
    """
    if batch.dataset is not gallery.dataset:
        raise ValueError(f"batch {batch.index} is not of the gallery's dataset")
    if batch.index < 1:
        raise ValueError(f"batch index {batch.index} < 1: index 0 is the enrollment's")
    if batch.index < (newest := int(gallery.inserted_at.max())):
        raise ValueError(f"batch {batch.index} is older than the gallery's newest rows, from batch {newest}")
    held = gallery.rows
    # held rows are distinct, so the first repeat is the first probe, in batch
    # order, that reuses a held row or an earlier probe's
    if (again := first_repeat(np.concatenate((held, batch.rows)))) is not None:
        raise ValueError(
            f"batch {batch.index}: sample id {batch.sample_id[again - len(held)]} is already held or repeated"
        )
    t0 = time.thread_time()
    decisions = matching.classify_batch(batch, gallery, t_star, cfg.metric)
    elapsed_classify = time.thread_time() - t0

    # GT_new: the gallery's rows, then the accepted probes in batch order
    accepted = np.flatnonzero(decisions.accepted)
    labels = decisions.label[accepted]
    rows = np.concatenate((held, batch.rows[accepted]))
    owner = np.concatenate((gallery.owner, labels))
    sample_id = np.concatenate((gallery.sample_id, decisions.sample_id[accepted]))
    inserted_at = np.concatenate((gallery.inserted_at, np.full(len(accepted), batch.index, np.int64)))
    by_id = row_order(owner, sample_id)  # selection's order and the next gallery's

    t0 = time.thread_time()
    chosen = selection.select(cfg.method, gallery.dataset.vectors[rows[by_id]], owner[by_id], cfg.p)
    elapsed_select = time.thread_time() - t0

    keep = np.zeros(len(by_id), dtype=bool)
    keep[chosen] = True
    kept, evicted = by_id[keep], by_id[~keep]
    new_gallery = Gallery(gallery.dataset, rows[kept], owner[kept], inserted_at[kept])

    report = UpdateCycleReport(
        batch_index=batch.index,
        t_star_used=t_star,
        n_rejected=len(decisions) - len(accepted),
        insertions=tuple(zip(sample_id[len(held):].tolist(), labels.tolist())),
        evictions=tuple(zip(sample_id[evicted].tolist(), owner[evicted].tolist())),
        elapsed_classify_s=elapsed_classify,
        elapsed_select_s=elapsed_select,
    )
    return new_gallery, report


def run_sequence(
    g0: Gallery, batches: Iterable[Batch], cfg: EngineConfig
) -> tuple[Gallery, list[UpdateCycleReport], list[Gallery]]:
    """Run the full multi-batch loop, re-estimating t* after every cycle.

    ``batches`` is read once, so an iterator runs as a list of its batches.
    Returns the final gallery, one report per cycle, and the post-cycle
    gallery snapshots.
    """
    batches = list(batches)  # the order check reads them once, the loop again
    indices = [b.index for b in batches]
    if indices != sorted(indices):
        raise ValueError("batches must be ordered by index")
    gallery = g0
    t_star = matching.estimate_threshold(gallery, cfg.policy, cfg.metric)
    reports: list[UpdateCycleReport] = []
    snapshots: list[Gallery] = []
    for batch in batches:
        gallery, report = run_update_cycle(gallery, batch, cfg, t_star)
        reports.append(report)
        snapshots.append(gallery)
        t_star = matching.estimate_threshold(gallery, cfg.policy, cfg.metric)
    return gallery, reports, snapshots
