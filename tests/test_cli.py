import csv

import numpy as np
import pytest

from selfgallery.cli import main, parse_synth, parse_threshold
from selfgallery.dataio import load_dataset, write_dataset
from selfgallery.matching import ThresholdPolicy

from conftest import dataset_of, make_sample, read_scatter, samples_of, scatter_reference


def test_parse_synth():
    p = parse_synth("k=4,dim=3,sigma=1.5,sep=7,eps=0.2,n=12,seed=5")
    assert (p.k_users, p.dim, p.samples_per_user, p.seed) == (4, 3, 12, 5)
    assert p.separation == 7.0 and p.tail_eps == 0.2 and p.sigma == 1.5
    with pytest.raises(ValueError):
        parse_synth("k=4,bogus=1")
    with pytest.raises(ValueError, match="'k' is given more than once"):
        parse_synth("k=3,k=5,dim=2")


def test_parse_threshold():
    assert parse_threshold("zero-far") == ThresholdPolicy.zero_far()
    assert parse_threshold("far:0.05") == ThresholdPolicy.far_quantile(0.05)
    with pytest.raises(ValueError):
        parse_threshold("nope")


def test_gen_then_run_roundtrip(tmp_path, capsys):
    ds = tmp_path / "ds.csv"
    rc = main(["gen", "--synth", "k=4,dim=3,sep=10,eps=0.1,n=20,seed=3", "--out", str(ds)])
    assert rc == 0
    assert ds.exists()

    out = tmp_path / "results"
    rc = main(
        [
            "run",
            "--dataset", str(ds),
            "--method", "mdist",
            "--method", "keep_all",
            "--p", "3",
            "--batches", "5",
            "--runs", "2",
            "--threshold", "far:0.2",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    with open(out / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["method"] for r in rows} == {"mdist", "keep_all", "no_update"}
    assert (out / "aggregate.csv").exists()


def test_run_with_synth_source(tmp_path):
    out = tmp_path / "r"
    rc = main(
        [
            "run",
            "--synth", "k=4,dim=3,sep=10,eps=0.1,n=15,seed=2",
            "--p", "3",
            "--batches", "4",
            "--runs", "1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert (out / "metrics.csv").exists()


@pytest.mark.parametrize("metric", ["l2", "l1"])
def test_scatter_subcommand(tmp_path, metric):
    ds = tmp_path / "ds.csv"
    main(["gen", "--synth", "k=3,dim=2,sep=10,eps=0.0,n=6,seed=1", "--out", str(ds)])
    out = tmp_path / "scatter.csv"
    rc = main(["scatter", "--dataset", str(ds), "--p", "2", "--metric", metric, "--out", str(out)])
    assert rc == 0
    rows = read_scatter(out.read_text())
    # 3 users x 4 probes each: 1 genuine + 2 impostor scores per probe
    assert len(rows) == 12 * 3
    assert {r["kind"] for r in rows} == {"genuine", "impostor"}
    # reference: every probe against each enrolled template on its own
    samples = samples_of(load_dataset(ds))
    by_user = {}
    for s in sorted(samples, key=lambda s: (s.session or 0, s.id)):
        by_user.setdefault(s.true_user, []).append(s)
    templates = {u: ss[:2] for u, ss in by_user.items()}
    enrolled = {t.id for ts in templates.values() for t in ts}
    probes = [s for s in samples if s.id not in enrolled]
    kernel = {"l2": "euclidean", "l1": "l1"}[metric]
    assert rows == scatter_reference(probes, templates, kernel)


def test_machine_parsable_error(tmp_path, capsys):
    rc = main(["run", "--dataset", str(tmp_path / "missing.csv"), "--p", "3",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "rows, args, message",
    [
        ("", ["gen", "--synth", "k=4,dim"], "bad synth parameter 'dim' (expected key=value)"),
        (  # user 1 enrolls both of its samples, so none is left to probe with
            "1,0,,0.5\n1,1,,0.6\n2,2,,5.0\n2,3,,5.1\n2,4,,5.2\n",
            ["scatter", "--dataset", "{ds}", "--p", "2"],
            "user 1 has no probe samples left beyond p=2",
        ),
        (
            "1,0,,0.5\n1,1,,0.6\n2,2,,5.0\n2,3,,nan\n",
            ["run", "--dataset", "{ds}", "--p", "1", "--batches", "3", "--runs", "1"],
            "{ds}:5: feature vector contains non-finite coordinates",
        ),
    ],
)
def test_boundary_checks_exit_1_with_one_error_line(tmp_path, capsys, rows, args, message):
    ds = tmp_path / "ds.csv"
    ds.write_text("user_id,sample_id,session,f_0\n" + rows)
    argv = [a.format(ds=ds) for a in args] + ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message.format(ds=ds)}\n"


def test_run_with_p_below_one_fails_before_making_its_out_dir(tmp_path, capsys):
    out = tmp_path / "p0"
    assert main(["run", "--synth", "k=4,dim=3,n=20,seed=11", "--p", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: p must be positive\n"
    assert not out.exists()


def test_run_chronological_relaxed_drops_the_short_user(tmp_path, capsys):
    # users 1-3 hold the 8 samples that 4 batches of p=2 need, user 4 only 4;
    # sessions run against id order, so a chronological split is not by id
    rng = np.random.default_rng(7)
    counts = {1: 8, 2: 8, 3: 8, 4: 4}
    samples, sid = [], 0
    for user, n in counts.items():
        for j in range(n):
            vector = [1.5 * user, 0.0, 0.0] + rng.normal(0.0, 1.0, 3)  # overlapping users
            samples.append(make_sample(sid, vector, user=user, session=n - 1 - j))
            sid += 1
    ds = tmp_path / "sessions.csv"
    write_dataset(dataset_of(samples), ds)
    args = ["run", "--dataset", str(ds), "--p", "2", "--batches", "4", "--runs", "2", "--chronological"]
    out = tmp_path / "out"
    assert main(args + ["--relaxed", "--out", str(out)]) == 0
    with open(out / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    # 2 runs x (no_update, kmeans, mdist) x (enrollment + 2 cycles)
    assert len(rows) == 18
    assert {r["gallery_bytes"] for r in rows} == {str(3 * 2 * 3 * 4)}  # 3 kept users, p=2, dim 3
    # a chronological split ignores the seed, so every run's untimed rows agree
    untimed = [{k: v for k, v in r.items() if k not in ("run", "classify_ms", "select_ms")}
               for r in rows]
    assert untimed[:9] == untimed[9:] and {r["run"] for r in rows} == {"1", "2"}
    capsys.readouterr()
    assert main(args + ["--out", str(tmp_path / "strict")]) == 1
    assert capsys.readouterr().err == "error: user 4 has 4 samples, needs 8 (4 batches x p=2)\n"


def test_run_whose_split_fails_makes_no_out_dir(tmp_path, capsys):
    # user 3 holds 2 of the 3 samples that --batches 3 --p 1 need
    ds = tmp_path / "sessions.csv"
    ds.write_text(
        "user_id,sample_id,session,f_0,f_1\n1,0,2,0.5,1.0\n1,1,1,0.6,1.1\n1,2,0,0.4,0.9\n"
        "2,3,0,5.0,5.1\n2,4,1,5.2,5.0\n2,5,2,4.9,5.3\n3,6,0,9.0,9.1\n3,7,1,9.2,9.0\n"
    )
    out = tmp_path / "runs" / "chrono_strict"
    argv = ["run", "--dataset", str(ds), "--p", "1", "--batches", "3", "--runs", "2",
            "--chronological", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: user 3 has 2 samples, needs 3 (3 batches x p=1)\n"
    assert not (tmp_path / "runs").exists()
