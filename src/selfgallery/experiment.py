"""Multi-run experiment execution: split, enroll, update, measure, write CSV.

One run = one seeded split of the dataset into enroll / adaptation / test
batches, followed by the full update sequence for every requested method
plus the frozen no-update baseline. Every snapshot is evaluated against
the same independent test batch. Results are averaged over runs.
"""

from __future__ import annotations

import csv
import logging
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from . import metrics, selection
from .clustering import KMeansParams
from .core import gallery_enroll
from .dataio import Split, load_dataset, split_batches
from .engine import EngineConfig, run_sequence
from .matching import DEFAULT_POLICY, EUCLIDEAN, ThresholdPolicy
from .metrics import evaluate_snapshot, export_score_scatter, fmt9, impostor_fraction
from .synthgen import SynthParams, generate

log = logging.getLogger(__name__)

NO_UPDATE = "no_update"

ROW_FIELDS = [
    "run",
    "batch",
    "method",
    "eer",
    "impostor_fraction",
    "classify_ms",
    "select_ms",
    "gallery_bytes",
]
AGG_VALUE_FIELDS = ROW_FIELDS[3:]


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: Union[str, Path, SynthParams]
    p: int
    methods: Sequence[str] = (selection.KMEANS, selection.MDIST)
    n_batches: int = 7
    metric: str = EUCLIDEAN
    policy: ThresholdPolicy = DEFAULT_POLICY
    runs: int = 10
    base_seed: int = 0
    bytes_per_template: Optional[int] = None
    out_dir: Optional[Union[str, Path]] = None
    strict: bool = True
    chronological: bool = False
    write_scatter: bool = True

    def __post_init__(self):
        if self.n_batches < 3:
            raise ValueError("n_batches must be >= 3")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        for m in self.methods:
            if m not in selection.METHODS:
                raise ValueError(f"unknown method: {m!r}")


def _row(run, batch, method, eer, imp, classify_ms, select_ms, g_bytes):
    return {
        "run": run,
        "batch": batch,
        "method": method,
        "eer": eer,
        "impostor_fraction": imp,
        "classify_ms": classify_ms,
        "select_ms": select_ms,
        "gallery_bytes": g_bytes,
    }


def _run_one(
    cfg: ExperimentConfig, run: int, split: Split
) -> tuple[list[dict], dict[str, dict]]:
    """All rows for one seeded run; also the final gallery's per-subject
    scores per method."""
    rows: list[dict] = []
    finals: dict[str, dict] = {}

    g0_capped = gallery_enroll(split.enroll, cap=cfg.p)
    base_eval = evaluate_snapshot(
        g0_capped, split.test, cfg.metric, cfg.bytes_per_template
    )

    # frozen no-update baseline: same gallery, hence constant EER per batch
    for batch in range(len(split.adaptation) + 1):
        rows.append(
            _row(run, batch, NO_UPDATE, base_eval["eer"], 0.0, 0.0, 0.0,
                 base_eval["gallery_bytes"])
        )
    finals[NO_UPDATE] = base_eval["per_subject"]

    for method in cfg.methods:
        cap = None if method == selection.KEEP_ALL else cfg.p
        g0 = gallery_enroll(split.enroll, cap=cap)
        engine_cfg = EngineConfig(
            method=method,
            p=cfg.p,
            metric=cfg.metric,
            policy=cfg.policy,
            kmeans_params=KMeansParams(k=len(g0.users)),
        )
        ev0 = evaluate_snapshot(g0, split.test, cfg.metric, cfg.bytes_per_template)
        rows.append(_row(run, 0, method, ev0["eer"], 0.0, 0.0, 0.0,
                         ev0["gallery_bytes"]))
        _, reports, snapshots = run_sequence(g0, list(split.adaptation), engine_cfg)
        ev = ev0
        for cycle, (report, snap) in enumerate(zip(reports, snapshots), start=1):
            ev = evaluate_snapshot(snap, split.test, cfg.metric, cfg.bytes_per_template)
            frac, _ = impostor_fraction(snap)
            rows.append(
                _row(
                    run,
                    cycle,
                    method,
                    ev["eer"],
                    frac,
                    report.elapsed_classify_s * 1e3,
                    report.elapsed_select_s * 1e3,
                    ev["gallery_bytes"],
                )
            )
        finals[method] = ev["per_subject"]  # the final gallery is the last snapshot
    return rows, finals


def aggregate_rows(rows: list[dict]) -> list[dict]:
    """Mean and standard deviation over runs per (method, batch)."""
    groups: dict[tuple[str, int], list[dict]] = {}
    for r in rows:
        groups.setdefault((r["method"], r["batch"]), []).append(r)
    out = []
    for (method, batch) in sorted(groups, key=lambda k: (k[0], k[1])):
        rs = groups[(method, batch)]
        agg = {"method": method, "batch": batch, "n_runs": len(rs)}
        for f in AGG_VALUE_FIELDS:
            vals = [r[f] for r in rs]
            agg[f + "_mean"] = statistics.fmean(vals)
            agg[f + "_sd"] = statistics.stdev(vals) if len(vals) > 1 else 0.0
        out.append(agg)
    return out


def _write_rows(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ROW_FIELDS)
        for r in rows:
            writer.writerow(
                [
                    r["run"],
                    r["batch"],
                    r["method"],
                    fmt9(r["eer"]),
                    fmt9(r["impostor_fraction"]),
                    fmt9(r["classify_ms"]),
                    fmt9(r["select_ms"]),
                    r["gallery_bytes"],
                ]
            )


def _write_aggregate(path: Path, aggs: list[dict]) -> None:
    fields = ["method", "batch", "n_runs"]
    for f in AGG_VALUE_FIELDS:
        fields += [f + "_mean", f + "_sd"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for a in aggs:
            row = [a["method"], a["batch"], a["n_runs"]]
            for f in AGG_VALUE_FIELDS:
                row += [fmt9(a[f + "_mean"]), fmt9(a[f + "_sd"])]
            writer.writerow(row)


def run_experiment(cfg: ExperimentConfig):
    """Execute every run, write metrics/aggregate/scatter files, return rows.

    Returns (rows, aggregates). Row seeds are derived as base_seed + run
    so any single run can be re-executed in isolation.
    """
    if isinstance(cfg.dataset, SynthParams):
        dataset = generate(cfg.dataset)
    else:
        dataset = load_dataset(cfg.dataset)

    out_dir = Path(cfg.out_dir) if cfg.out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    all_rows: list[dict] = []
    try:
        for run in range(1, cfg.runs + 1):
            split = split_batches(
                dataset,
                cfg.n_batches,
                cfg.p,
                seed=cfg.base_seed + run,
                strict=cfg.strict,
                chronological=cfg.chronological,
            )
            rows, finals = _run_one(cfg, run, split)
            all_rows.extend(rows)
            if out_dir is not None and cfg.write_scatter:
                for method, per_subject in finals.items():
                    with open(out_dir / f"scatter_run{run}_{method}.csv", "w") as fh:
                        export_score_scatter(per_subject, fh)
    except Exception:
        if out_dir is not None and all_rows:
            _write_rows(out_dir / "metrics.partial.csv", all_rows)
            (out_dir / "FAILED").write_text("run aborted; partial results flushed\n")
        raise

    aggs = aggregate_rows(all_rows)
    if out_dir is not None:
        _write_rows(out_dir / "metrics.csv", all_rows)
        _write_aggregate(out_dir / "aggregate.csv", aggs)
    return all_rows, aggs
