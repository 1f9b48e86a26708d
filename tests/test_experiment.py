import csv
import logging
import re

import numpy as np
import pytest

from selfgallery.core import gallery_enroll
from selfgallery.dataio import split_batches, write_dataset
from selfgallery import experiment
from selfgallery.engine import EngineConfig, run_sequence
from selfgallery.experiment import NO_UPDATE, ExperimentConfig, run_experiment
from selfgallery.matching import ThresholdPolicy
from selfgallery.metrics import compute_eer, distance_columns, score_sets
from selfgallery.synthgen import SynthParams, generate

from conftest import dataset_of, gallery_templates, read_scatter, samples_of, scatter_reference


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


@pytest.mark.parametrize("metric", ["euclidean", "l1"])
@pytest.mark.parametrize(
    "policy", [ThresholdPolicy.zero_far(), ThresholdPolicy.far_quantile(0.2)], ids=["zero-far", "far:0.2"]
)
def test_every_eer_is_its_gallery_scored_from_its_own_columns(monkeypatch, metric, policy):
    tables, real = [], experiment.distance_columns
    monkeypatch.setattr(experiment, "distance_columns", lambda *a: tables.append(real(*a)) or tables[-1])
    cfg = _cfg(methods=("mdist", "kmeans", "dend", "keep_all"), metric=metric, policy=policy)
    rows, _ = run_experiment(cfg)
    assert len(tables) == cfg.runs  # one table per run
    dataset = generate(SMALL)
    for run, (column, _) in enumerate(tables, start=1):
        split = split_batches(dataset, cfg.n_batches, cfg.p, seed=cfg.base_seed + run)
        g0 = gallery_enroll(split.enroll, cap=cfg.p)
        galleries = {(NO_UPDATE, b): g0 for b in range(len(split.adaptation) + 1)}
        for method in cfg.methods:
            engine_cfg = EngineConfig(method=method, p=cfg.p, metric=metric, policy=policy)
            _, _, snapshots = run_sequence(g0, list(split.adaptation), engine_cfg)
            galleries.update({(method, b): g for b, g in enumerate([g0, *snapshots])})
        # the run's table holds exactly the rows some gallery of the run holds, in row order
        held = sorted({r for g in galleries.values() for r in g.rows.tolist()})
        assert np.flatnonzero(column >= 0).tolist() == held and column[held].tolist() == list(range(len(held)))
        ran = [r for r in rows if r["run"] == run]
        assert sorted((r["method"], r["batch"]) for r in ran) == sorted(galleries)
        for r in ran:  # each gallery scored from its own fresh columns
            g = galleries[r["method"], r["batch"]]
            own = distance_columns(split.test, [g], metric)
            assert r["eer"] == compute_eer(*score_sets(split.test, g, own))


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
    with pytest.raises(ValueError, match="^n_batches must be at least 3$"):
        _cfg(n_batches=2)
    with pytest.raises(ValueError, match="^runs must be positive$"):
        _cfg(runs=0)
    with pytest.raises(ValueError):
        _cfg(methods=("bogus",))
    # not iterated into its letters, each an unknown method
    with pytest.raises(ValueError, match="^methods must be a sequence of method names, not 'mdist'$"):
        _cfg(methods="mdist")
    # no sequence at all, a byte string, and a set, whose order would follow the hash seed
    for methods in (None, 5, b"mdist", {"mdist"}):
        message = f"^methods must be a sequence of method names, not {re.escape(repr(methods))}$"
        with pytest.raises(ValueError, match=message):
            _cfg(methods=methods)
    with pytest.raises(ValueError, match="'mdist' is given more than once"):
        _cfg(methods=("mdist", "kmeans", "mdist"))
    for s in (0, -4):
        with pytest.raises(ValueError, match="bytes_per_template"):
            _cfg(bytes_per_template=s)


# a float or bool byte count would reach metrics.csv; a float base_seed would fail once the dataset is built
@pytest.mark.parametrize("field", ["p", "n_batches", "runs", "bytes_per_template", "base_seed"])
@pytest.mark.parametrize("value", [3.0, True])
def test_config_refuses_a_non_integer_size(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, not {value!r}$"):
        _cfg(**{field: value})


@pytest.mark.parametrize("policy", ["zero-far", None])
def test_config_refuses_a_policy_that_is_no_threshold_policy(policy, monkeypatch):
    # the engine's rule, at construction: before, it failed at the first t*,
    # after the dataset was generated and split
    monkeypatch.setattr(experiment, "generate", lambda params: pytest.fail("dataset generated"))
    with pytest.raises(ValueError, match=f"^policy must be a ThresholdPolicy, not {policy!r}$"):
        run_experiment(_cfg(policy=policy))


def test_config_keeps_every_split_seed_non_negative():
    assert _cfg(base_seed=-1).base_seed == -1  # run 1 splits at seed 0
    with pytest.raises(ValueError, match="^base_seed must be at least -1$"):
        _cfg(base_seed=-2)


def test_config_rejects_p_and_metric_before_run_experiment_writes(tmp_path):
    for p in (0, -2):
        with pytest.raises(ValueError, match="p must be positive"):
            _cfg(p=p, out_dir=tmp_path / "out")
    with pytest.raises(ValueError, match="unknown metric: 'cosine'"):
        _cfg(metric="cosine", out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("metric", ["euclidean", "l1"])
def test_scatter_files_hold_the_final_gallery_scores(tmp_path, metric):
    cfg = _cfg(methods=("mdist", "kmeans"), metric=metric, out_dir=tmp_path, write_scatter=True)
    run_experiment(cfg)
    dataset = generate(SMALL)
    for run in (1, 2):
        split = split_batches(dataset, cfg.n_batches, cfg.p, seed=cfg.base_seed + run)
        finals = {NO_UPDATE: gallery_enroll(split.enroll, cap=cfg.p)}
        for method in cfg.methods:
            engine_cfg = EngineConfig(method=method, p=cfg.p, metric=metric, policy=cfg.policy)
            g0 = gallery_enroll(split.enroll, cap=cfg.p)
            finals[method], _, _ = run_sequence(g0, list(split.adaptation), engine_cfg)
        for method, gallery in finals.items():
            # scored template by template from the final gallery, not from the run's table
            expected = scatter_reference(split.test, gallery_templates(gallery), metric)
            written = (tmp_path / f"scatter_run{run}_{method}.csv").read_text()
            assert read_scatter(written) == expected


@pytest.mark.parametrize("out_dir, write_scatter", [(None, True), ("out", False), ("out", True)])
def test_scatter_files_are_exported_only_when_asked(tmp_path, monkeypatch, out_dir, write_scatter):
    calls = []
    real = experiment.export_score_scatter
    monkeypatch.setattr(
        experiment, "export_score_scatter", lambda *a: calls.append(a[1]) or real(*a)
    )
    out = tmp_path / out_dir if out_dir else None
    cfg = _cfg(methods=("mdist", "kmeans"), out_dir=out, write_scatter=write_scatter)
    run_experiment(cfg)
    written = sorted(p.name for p in out.glob("scatter_*")) if out else []
    if out is None or not write_scatter:
        assert calls == [] and written == []
    else:  # one per run and method, no_update included
        assert len(calls) == len(written) == cfg.runs * (1 + len(cfg.methods))


def _untimed_rows(path):
    """A metrics CSV's rows without the wall-clock ``*_ms`` columns."""
    with open(path) as fh:
        return [{k: v for k, v in r.items() if not k.endswith("_ms")} for r in csv.DictReader(fh)]


@pytest.mark.parametrize("failing_run", [1, 2])
def test_a_failed_run_flushes_the_finished_runs(tmp_path, monkeypatch, failing_run):
    real, calls = experiment.run_sequence, []

    def failing(*args):
        calls.append(None)
        if len(calls) == failing_run:  # one method per run: call n is run n's
            raise RuntimeError("run failed")
        return real(*args)

    monkeypatch.setattr(experiment, "run_sequence", failing)
    with pytest.raises(RuntimeError, match="run failed"):
        run_experiment(_cfg(out_dir=tmp_path / "out"))
    assert not (tmp_path / "out" / "metrics.csv").exists()
    if failing_run == 1:  # nothing finished: nothing to flush
        assert not (tmp_path / "out" / "metrics.partial.csv").exists()
        assert not (tmp_path / "out" / "FAILED").exists()
        return
    assert (tmp_path / "out" / "FAILED").exists()
    monkeypatch.setattr(experiment, "run_sequence", real)
    run_experiment(_cfg(runs=1, out_dir=tmp_path / "run1"))
    partial = _untimed_rows(tmp_path / "out" / "metrics.partial.csv")
    assert partial == _untimed_rows(tmp_path / "run1" / "metrics.csv")
    assert {r["run"] for r in partial} == {"1"}


@pytest.mark.parametrize("failing_run", [1, 2])
def test_a_failed_split_makes_no_out_dir_but_flushes_the_finished_runs(tmp_path, monkeypatch, failing_run):
    real = experiment.split_batches

    def failing(dataset, n_batches, p, seed, **kw):
        if seed == failing_run:  # base_seed 0: run n splits at seed n
            raise ValueError("split failed")
        return real(dataset, n_batches, p, seed, **kw)

    monkeypatch.setattr(experiment, "split_batches", failing)
    out = tmp_path / "a" / "out"
    with pytest.raises(ValueError, match="split failed"):
        run_experiment(_cfg(out_dir=out))
    if failing_run == 1:  # no split succeeded: no directory, not even its parent
        assert not (tmp_path / "a").exists()
        return
    assert sorted(p.name for p in out.iterdir()) == ["FAILED", "metrics.partial.csv"]
    assert {r["run"] for r in _untimed_rows(out / "metrics.partial.csv")} == {"1"}


def test_a_relaxed_experiment_logs_each_dropped_user_once(tmp_path, caplog):
    # users 2 and 4 hold fewer than the 5 batches x p=3 samples: every run's
    # split drops both, and the experiment logs each of them once
    path = tmp_path / "short.csv"
    write_dataset(dataset_of([s for s in samples_of(generate(SMALL)) if s.true_user in (1, 3) or s.id % 20 < 10]),
                  path)
    with caplog.at_level(logging.WARNING):
        run_experiment(_cfg(dataset=path, runs=3, strict=False))
    lines = [r.getMessage() for r in caplog.records]
    assert lines == ["dropping user 2: 10 samples < required 15",
                     "dropping user 4: 10 samples < required 15"]
