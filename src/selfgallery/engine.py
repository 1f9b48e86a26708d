"""Orchestration of update cycles: classify, insert, select, re-estimate.

Every classification in a cycle uses the pre-cycle gallery; selection
runs once after all insertions; t* is re-estimated from the
post-selection gallery before the next batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import matching, selection
from .core import Batch, Gallery, Template, UserGallery
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
        if self.p < 1:
            raise ValueError("p must be positive")
        matching._known(self.metric)


@dataclass(frozen=True)
class UpdateCycleReport:
    batch_index: int
    t_star_used: float
    n_rejected: int
    insertions: tuple[tuple[int, int], ...]  # (sample_id, pseudo_label)
    evictions: tuple[tuple[int, int], ...]  # (sample_id, user)
    elapsed_classify_s: float
    elapsed_select_s: float

    @property
    def n_accepted(self) -> int:
        return len(self.insertions)


def run_update_cycle(
    gallery: Gallery, batch: Batch, cfg: EngineConfig, t_star: float
) -> tuple[Gallery, UpdateCycleReport]:
    """One pass of the classification-selection loop over a single batch.

    Sample ids must be new: a batch that repeats an id, or reuses one the
    gallery already holds, raises ValueError before anything is classified,
    as does a batch index below 1 (index 0 is the enrollment's).
    """
    if batch.index < 1:
        raise ValueError(f"batch index {batch.index} < 1: index 0 is the enrollment's")
    ids = np.fromiter((s.id for s in batch.samples), dtype=np.int64, count=len(batch))
    fresh = np.zeros(len(ids), dtype=bool)
    fresh[np.unique(ids, return_index=True)[1]] = True  # each id's first probe
    fresh &= ~np.isin(ids, gallery.sample_id)
    if not fresh.all():
        raise ValueError(
            f"batch {batch.index}: sample id {ids[fresh.argmin()]} is already held or repeated"
        )
    t0 = time.perf_counter()
    decisions = matching.classify_batch(batch, gallery, t_star, cfg.metric)
    elapsed_classify = time.perf_counter() - t0

    # accumulate GT_new: existing templates plus accepted pseudo-labeled samples
    candidates: dict[int, list[Template]] = {
        u: list(gallery.users[u].templates) for u in gallery.user_ids
    }
    insertions = []  # (sample_id, pseudo_label) in batch order
    accepted = np.flatnonzero(decisions.accepted)
    for i, label in zip(accepted.tolist(), decisions.label[accepted].tolist()):
        s = batch.samples[i]
        candidates[label].append(Template(sample=s, inserted_at_batch=batch.index))
        insertions.append((s.id, label))

    t0 = time.perf_counter()
    chosen = selection.select(cfg.method, candidates, cfg.p)
    elapsed_select = time.perf_counter() - t0

    evictions = []
    users = {}
    for u, cands in candidates.items():
        keep_ids = {t.sample.id for t in chosen[u]}
        users[u] = UserGallery(templates=tuple(t for t in cands if t.sample.id in keep_ids))
        evictions += [(t.sample.id, u) for t in cands if t.sample.id not in keep_ids]
    new_gallery = Gallery(users=users)

    report = UpdateCycleReport(
        batch_index=batch.index,
        t_star_used=t_star,
        n_rejected=len(decisions) - len(insertions),
        insertions=tuple(insertions),
        evictions=tuple(evictions),
        elapsed_classify_s=elapsed_classify,
        elapsed_select_s=elapsed_select,
    )
    return new_gallery, report


def run_sequence(
    g0: Gallery, batches: list[Batch], cfg: EngineConfig
) -> tuple[Gallery, list[UpdateCycleReport], list[Gallery]]:
    """Run the full multi-batch loop, re-estimating t* after every cycle.

    Returns the final gallery, one report per cycle, and the post-cycle
    gallery snapshots.
    """
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
