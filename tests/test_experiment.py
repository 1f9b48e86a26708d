import csv
import io

import pytest

from selfgallery.core import gallery_enroll
from selfgallery.dataio import split_batches
from selfgallery.engine import EngineConfig, run_sequence
from selfgallery.experiment import (
    NO_UPDATE,
    ExperimentConfig,
    aggregate_rows,
    run_experiment,
)
from selfgallery.matching import ThresholdPolicy
from selfgallery.metrics import evaluate_snapshot, export_score_scatter
from selfgallery.synthgen import SynthParams, generate


SMALL = SynthParams(
    k_users=4, dim=3, sigma=1.0, separation=10.0, tail_eps=0.1, samples_per_user=20, seed=11
)


def _cfg(**kw):
    base = dict(
        dataset=SMALL,
        p=3,
        methods=("mdist",),
        n_batches=5,
        policy=ThresholdPolicy.far_quantile(0.2),
        runs=2,
        base_seed=0,
        out_dir=None,
        write_scatter=False,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_row_counts_and_fields():
    rows, aggs = run_experiment(_cfg())
    n_cycles = 5 - 2  # adaptation batches
    # per run: (n_cycles+1) rows per method including no_update
    assert len(rows) == 2 * 2 * (n_cycles + 1)
    methods = {r["method"] for r in rows}
    assert methods == {"mdist", NO_UPDATE}
    for r in rows:
        assert 0.0 <= r["eer"] <= 1.0
        assert 0.0 <= r["impostor_fraction"] <= 1.0
    # aggregate rows: one per (method, batch)
    assert len(aggs) == 2 * (n_cycles + 1)


def test_no_update_constant_within_run():
    rows, _ = run_experiment(_cfg())
    for run in (1, 2):
        eers = {r["eer"] for r in rows if r["method"] == NO_UPDATE and r["run"] == run}
        assert len(eers) == 1


def test_aggregate_means_recompute():
    rows, aggs = run_experiment(_cfg())
    for a in aggs:
        group = [
            r for r in rows if r["method"] == a["method"] and r["batch"] == a["batch"]
        ]
        assert a["eer_mean"] == pytest.approx(sum(r["eer"] for r in group) / len(group))


def test_output_files_written_and_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_experiment(_cfg(out_dir=out1, write_scatter=True))
    run_experiment(_cfg(out_dir=out2, write_scatter=True))
    for name in ("metrics.csv", "aggregate.csv"):
        assert (out1 / name).exists()

    def strip_timings(path):
        with open(path) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            drop = [i for i, h in enumerate(header) if "ms" in h]
            return [
                [v for i, v in enumerate(row) if i not in drop] for row in reader
            ]

    # deterministic apart from the wall-clock timing columns
    assert strip_timings(out1 / "metrics.csv") == strip_timings(out2 / "metrics.csv")
    assert strip_timings(out1 / "aggregate.csv") == strip_timings(out2 / "aggregate.csv")
    scatters = sorted(p.name for p in out1.glob("scatter_run*_*.csv"))
    assert "scatter_run1_mdist.csv" in scatters
    assert (out1 / "scatter_run1_mdist.csv").read_text() == (
        out2 / "scatter_run1_mdist.csv"
    ).read_text()


def test_keep_all_gallery_growth_reflected_in_bytes():
    rows, _ = run_experiment(_cfg(methods=("keep_all",)))
    for run in (1, 2):
        sizes = [
            r["gallery_bytes"]
            for r in sorted(
                (r for r in rows if r["method"] == "keep_all" and r["run"] == run),
                key=lambda r: r["batch"],
            )
        ]
        assert sizes == sorted(sizes)


def test_capped_bytes_never_exceed_bound():
    rows, _ = run_experiment(_cfg(methods=("mdist", "kmeans"), bytes_per_template=64))
    bound = 3 * 4 * 64  # p * k * S
    for r in rows:
        if r["method"] != "keep_all":
            assert r["gallery_bytes"] <= bound


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(n_batches=2)
    with pytest.raises(ValueError):
        _cfg(runs=0)
    with pytest.raises(ValueError):
        _cfg(methods=("bogus",))


def test_scatter_files_hold_the_final_gallery_scores(tmp_path):
    cfg = _cfg(methods=("mdist", "kmeans"), out_dir=tmp_path, write_scatter=True)
    run_experiment(cfg)
    dataset = generate(SMALL)
    for run in (1, 2):
        split = split_batches(dataset, cfg.n_batches, cfg.p, seed=cfg.base_seed + run)
        finals = {NO_UPDATE: gallery_enroll(split.enroll, cap=cfg.p)}
        for method in cfg.methods:
            engine_cfg = EngineConfig(method=method, p=cfg.p, policy=cfg.policy)
            g0 = gallery_enroll(split.enroll, cap=cfg.p)
            finals[method], _, _ = run_sequence(g0, list(split.adaptation), engine_cfg)
        for method, gallery in finals.items():
            expected = io.StringIO()
            export_score_scatter(evaluate_snapshot(gallery, split.test)["per_subject"], expected)
            written = (tmp_path / f"scatter_run{run}_{method}.csv").read_text()
            assert written == expected.getvalue()
