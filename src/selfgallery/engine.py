"""Orchestration of update cycles: classify, insert, select, re-estimate.

Every classification in a cycle uses the pre-cycle gallery; selection
runs once after all insertions; t* is re-estimated from the
post-selection gallery before the next batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional

from . import matching, selection
from .clustering import KMeansParams
from .core import SELF_UPDATED, Batch, Gallery, Template, UserGallery
from .matching import DEFAULT_POLICY, EUCLIDEAN, ThresholdPolicy


@dataclass(frozen=True)
class EngineConfig:
    method: str
    p: int
    metric: str = EUCLIDEAN
    policy: ThresholdPolicy = DEFAULT_POLICY
    kmeans_params: Optional[KMeansParams] = None

    def __post_init__(self):
        if self.method not in selection.METHODS:
            raise ValueError(f"unknown selection method: {self.method!r}")
        if self.p < 1:
            raise ValueError("p must be positive")
        if self.metric not in matching.METRICS:
            raise ValueError(f"unknown metric: {self.metric!r}")


@dataclass(frozen=True)
class UpdateCycleReport:
    batch_index: int
    t_star_used: float
    n_accepted: int
    n_rejected: int
    insertions: tuple[tuple[int, int], ...]  # (sample_id, pseudo_label)
    evictions: tuple[tuple[int, int], ...]  # (sample_id, user)
    elapsed_classify_s: float
    elapsed_select_s: float


def run_update_cycle(
    gallery: Gallery, batch: Batch, cfg: EngineConfig, t_star: float
) -> tuple[Gallery, UpdateCycleReport]:
    """One pass of the classification-selection loop over a single batch."""
    t0 = time.perf_counter()
    decisions = matching.classify_batch(batch, gallery, t_star, cfg.metric)
    elapsed_classify = time.perf_counter() - t0

    accepted = [d for d in decisions if d.accepted]
    sample_by_id = {s.id: s for s in batch.samples}
    insertions = tuple((d.sample_id, d.label) for d in accepted)

    # accumulate GT_new: existing templates plus accepted pseudo-labeled samples
    candidates: dict[int, list[Template]] = {
        u: list(gallery.users[u].templates) for u in gallery.user_ids
    }
    for d in accepted:
        candidates[d.label].append(
            Template(
                sample=sample_by_id[d.sample_id],
                origin=SELF_UPDATED,
                inserted_at_batch=batch.index,
            )
        )

    t0 = time.perf_counter()
    if cfg.method == selection.KEEP_ALL:
        chosen = candidates
    elif cfg.method == selection.KMEANS:
        params = cfg.kmeans_params
        if params is not None and params.k != len(candidates):
            params = replace(params, k=len(candidates))
        chosen = selection.select_kmeans(candidates, cfg.p, params)
    else:
        pick = selection.select_mdist if cfg.method == selection.MDIST else selection.select_dend
        chosen = {u: pick(cands, cfg.p) for u, cands in candidates.items()}
    elapsed_select = time.perf_counter() - t0

    evictions = []
    users = dict(gallery.users)
    for u in gallery.user_ids:
        keep_ids = {t.sample.id for t in chosen[u]}
        kept = [t for t in candidates[u] if t.sample.id in keep_ids]
        for t in candidates[u]:
            if t.sample.id not in keep_ids:
                evictions.append((t.sample.id, u))
        users[u] = UserGallery(
            user=u, templates=tuple(kept), cap=gallery.users[u].cap
        )
    new_gallery = Gallery(users=users, dim=gallery.dim)

    report = UpdateCycleReport(
        batch_index=batch.index,
        t_star_used=t_star,
        n_accepted=len(accepted),
        n_rejected=len(decisions) - len(accepted),
        insertions=insertions,
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
