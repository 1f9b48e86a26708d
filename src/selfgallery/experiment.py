"""Multi-run experiment execution: split, enroll, update, measure, write CSV.

One run = one seeded split of the dataset into enroll / adaptation / test
batches, followed by the full update sequence for every requested method
plus the frozen no-update baseline. Once every sequence has run, each
snapshot is evaluated against the same independent test batch, from one
distance table over only the samples the run's galleries hold. Results are
averaged over runs.
"""

from __future__ import annotations

import csv
import logging
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from . import selection
from .core import check_integer, gallery_enroll
from .dataio import Split, load_dataset, split_batches
from .engine import EngineConfig, run_sequence
from .matching import DEFAULT_POLICY, EUCLIDEAN, ThresholdPolicy
from .metrics import distance_columns, evaluate_snapshot, export_score_scatter, fmt9
from .metrics import impostor_fraction
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
AGG_FIELDS = ["method", "batch", "n_runs"] + [
    f + stat for f in AGG_VALUE_FIELDS for stat in ("_mean", "_sd")
]


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
        # a str or bytes would be taken letter by letter; a set has no order to run in
        if isinstance(self.methods, (str, bytes)) or not isinstance(self.methods, Sequence):
            raise ValueError(f"methods must be a sequence of method names, not {self.methods!r}")
        # the engine's rules for p, metric, policy and each method; keep_all
        # stands in so that they hold with no method too
        for m in (selection.KEEP_ALL, *self.methods):
            EngineConfig(m, self.p, self.metric, self.policy)
            if self.methods.count(m) > 1:
                raise ValueError(f"method {m!r} is given more than once")
        check_integer(self.n_batches, "n_batches", 3)
        check_integer(self.runs, "runs", 1)
        if self.bytes_per_template is not None:
            check_integer(self.bytes_per_template, "bytes_per_template", 1)
        check_integer(self.base_seed, "base_seed", -1)  # run 1 splits at base_seed + 1


def _row(*values) -> dict:
    """One metrics row from values in ROW_FIELDS order."""
    return dict(zip(ROW_FIELDS, values))


def _run_one(cfg: ExperimentConfig, run: int, split: Split):
    """All rows for one seeded run, each method's final gallery (the enrolled
    one for the baseline) and the run's distance columns, which score them.

    Every method's sequence runs first; then one table over the samples some
    gallery of the run holds scores the baseline, and each method's enrolled
    gallery followed by its snapshots, in that order."""
    rows: list[dict] = []

    # galleries are immutable: one enrollment serves the baseline and every method
    g0 = gallery_enroll(split.enroll, cap=cfg.p)
    sequences = {}
    for method in cfg.methods:
        engine_cfg = EngineConfig(method=method, p=cfg.p, metric=cfg.metric, policy=cfg.policy)
        sequences[method] = run_sequence(g0, list(split.adaptation), engine_cfg)
    # one table scores them all, over each sample some gallery holds, once
    galleries = [g0] + [snap for _, _, snapshots in sequences.values() for snap in snapshots]
    held = {s.id: s for g in galleries for s in g.samples}
    columns = distance_columns(split.test, list(held.values()), cfg.metric)
    base_eval = evaluate_snapshot(g0, split.test, columns, cfg.bytes_per_template)

    # frozen no-update baseline: same gallery, hence constant EER per batch
    for batch in range(len(split.adaptation) + 1):
        rows.append(
            _row(run, batch, NO_UPDATE, base_eval["eer"], 0.0, 0.0, 0.0,
                 base_eval["gallery_bytes"])
        )

    for method, (_, reports, snapshots) in sequences.items():
        ev0 = evaluate_snapshot(g0, split.test, columns, cfg.bytes_per_template)
        rows.append(_row(run, 0, method, ev0["eer"], 0.0, 0.0, 0.0,
                         ev0["gallery_bytes"]))
        for cycle, (report, snap) in enumerate(zip(reports, snapshots), start=1):
            ev = evaluate_snapshot(snap, split.test, columns, cfg.bytes_per_template)
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
    finals = {NO_UPDATE: g0, **{method: final for method, (final, _, _) in sequences.items()}}
    return rows, finals, columns


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


def _write_csv(path: Path, fields: list[str], rows: list[dict]) -> None:
    """Write ``fields`` of every row: floats through fmt9, the rest as they are."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for r in rows:
            writer.writerow([fmt9(r[f]) if isinstance(r[f], float) else r[f] for f in fields])


def run_experiment(cfg: ExperimentConfig):
    """Execute every run, write metrics/aggregate/scatter files, return rows.

    In relaxed mode each user a split drops is logged once per experiment.

    Returns (rows, aggregates). Row seeds are derived as base_seed + run
    so any single run can be re-executed in isolation.
    """
    if isinstance(cfg.dataset, SynthParams):
        dataset = generate(cfg.dataset)
    else:
        dataset = load_dataset(cfg.dataset)

    out_dir = Path(cfg.out_dir) if cfg.out_dir is not None else None
    scatter = out_dir is not None and cfg.write_scatter
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
            for user, held in split.dropped if run == 1 else ():  # every run drops the same users
                need = cfg.n_batches * cfg.p
                log.warning("dropping user %d: %d samples < required %d", user, held, need)
            if out_dir is not None:  # made once a split succeeds: a failed one leaves nothing
                out_dir.mkdir(parents=True, exist_ok=True)
            rows, finals, columns = _run_one(cfg, run, split)
            all_rows.extend(rows)
            if scatter:
                for method, gallery in finals.items():
                    with open(out_dir / f"scatter_run{run}_{method}.csv", "w") as fh:
                        export_score_scatter(split.test, gallery, columns, fh)
            del finals, columns  # freed before the next run builds its own table
    except Exception:
        if out_dir is not None and all_rows:
            _write_csv(out_dir / "metrics.partial.csv", ROW_FIELDS, all_rows)
            (out_dir / "FAILED").write_text("run aborted; partial results flushed\n")
        raise

    aggs = aggregate_rows(all_rows)
    if out_dir is not None:
        _write_csv(out_dir / "metrics.csv", ROW_FIELDS, all_rows)
        _write_csv(out_dir / "aggregate.csv", AGG_FIELDS, aggs)
    return all_rows, aggs
