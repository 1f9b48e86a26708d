import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfgallery import matching
from selfgallery.core import Batch, Dataset, gallery_enroll
from selfgallery.engine import EngineConfig, run_sequence, run_update_cycle
from selfgallery.matching import ThresholdPolicy, _distances_to_rows
from selfgallery.metrics import distance_columns, score_sets

from conftest import batch_of, enroll, gallery_1d, held_ids, make_sample
from oracles import reference_sequence, reference_threshold


def _cfg(method, p, policy=None):
    return EngineConfig(
        method=method, p=p, policy=policy or ThresholdPolicy.far_quantile(0.5)
    )


def test_empty_batch_is_identity(abc_gallery):
    g, report = run_update_cycle(
        abc_gallery, Batch(abc_gallery.dataset, [], 1), _cfg("mdist", 2), t_star=1.0
    )
    assert report.n_accepted == 0 and report.n_rejected == 0
    assert g.n_templates == abc_gallery.n_templates


def test_single_insertion_under_cap():
    g0 = gallery_1d({1: [0.0], 2: [10.0]}, cap=2, probes=[make_sample(5, [0.1])])
    batch = batch_of(g0, [5])
    g, report = run_update_cycle(g0, batch, _cfg("mdist", 2), t_star=0.5)
    assert report.insertions == ((5, 1),)
    assert report.evictions == ()
    assert held_ids(g)[1] == [0, 5]
    assert g.inserted_at[g.owner == 1].tolist() == [0, 1]  # enrolled, then inserted by batch 1


def test_insertion_then_eviction_at_cap_one():
    # cap 1: both candidates are singletons with objective 0; the tie rule
    # keeps the lowest id, the enrolled 0
    g0 = gallery_1d({1: [0.0], 2: [10.0]}, cap=1, probes=[make_sample(5, [0.1])])
    batch = batch_of(g0, [5])
    g, report = run_update_cycle(g0, batch, _cfg("mdist", 1), t_star=0.5)
    assert report.insertions == ((5, 1),)
    assert report.evictions == ((5, 1),)
    assert held_ids(g)[1] == [0]


@pytest.mark.parametrize("method", ["kmeans", "mdist", "dend", "keep_all"])
def test_resubmitted_gallery_sample_is_rejected(method):
    # a second copy of held id 0 would otherwise survive selection next to
    # the first, leaving user 1 with ids [0, 0] at p=1
    g0 = gallery_1d({1: [0.0], 2: [10.0]}, cap=1)
    batch = batch_of(g0, [0])  # user 1's template
    with pytest.raises(ValueError, match="sample id 0"):
        run_update_cycle(g0, batch, _cfg(method, 1), t_star=0.5)


def test_batch_repeating_a_sample_id_is_rejected():
    g0 = gallery_1d({1: [0.0], 2: [10.0]}, cap=1, probes=[make_sample(5, [0.1])])
    batch = batch_of(g0, [5, 5])  # one row twice: a dataset holds each id once
    with pytest.raises(ValueError, match="sample id 5"):
        run_update_cycle(g0, batch, _cfg("mdist", 1), t_star=0.5)


@pytest.mark.parametrize(
    "probe_ids, named",
    [
        ([7, 3, 7, 0], 7),  # 7's second probe comes before the held 0
        ([7, 0, 7], 0),  # the held 0 comes before 7's second probe
        ([1, 9, 9], 1),  # a held id at the first probe
        ([4, 9, 4, 9], 4),
    ],
)
def test_the_first_probe_to_reuse_an_id_is_named_before_classifying(probe_ids, named, monkeypatch):
    fresh = sorted(set(probe_ids) - {0, 1})
    g0 = gallery_1d({1: [0.0], 2: [10.0]}, cap=1, probes=[make_sample(sid, [0.1]) for sid in fresh])  # holds 0, 1
    classified = []
    monkeypatch.setattr(matching, "classify_batch", lambda *args: classified.append(args))
    batch = batch_of(g0, probe_ids, index=4)
    with pytest.raises(ValueError, match=f"^batch 4: sample id {named} is already held or repeated$"):
        run_update_cycle(g0, batch, _cfg("mdist", 1), t_star=0.5)
    assert classified == []


@pytest.mark.parametrize("method", ["kmeans", "mdist", "dend", "keep_all"])
def test_batch_older_than_the_gallery_is_rejected_before_classifying(method, monkeypatch):
    probes = [make_sample(5, [0.1]), make_sample(6, [9.9]), make_sample(7, [0.2])]
    g0 = gallery_1d({1: [0.0], 2: [10.0]}, probes=probes)
    g3, _ = run_update_cycle(g0, batch_of(g0, [5], index=3), _cfg(method, 2), 0.5)
    assert g3.inserted_at.tolist() == [0, 3, 0]
    # batch 3 again is allowed, as run_sequence allows equal indices
    g, _ = run_update_cycle(g3, batch_of(g0, [6], index=3), _cfg(method, 3), 0.5)
    assert held_ids(g) == {1: [0, 5], 2: [1, 6]}
    classified = []
    monkeypatch.setattr(matching, "classify_batch", lambda *args: classified.append(args))
    older = batch_of(g0, [7], index=2)
    with pytest.raises(ValueError, match=r"^batch 2 is older than the gallery's newest rows, from batch 3$"):
        run_update_cycle(g3, older, _cfg(method, 2), 0.5)
    assert classified == []


@pytest.mark.parametrize("indices", [[2, 1], [1, 3, 2]])
def test_boundary_checks_raise_their_messages(indices):
    g0 = gallery_1d({1: [0.0], 2: [10.0]}, cap=2)
    batches = [Batch(g0.dataset, [], i) for i in indices]
    with pytest.raises(ValueError, match="batches must be ordered by index"):
        run_sequence(g0, batches, _cfg("mdist", 2))


@pytest.mark.parametrize("t_star", [0.5, 0.05])  # the probe is accepted, then rejected
def test_batch_index_zero_is_rejected(t_star):
    # index 0 is the enrollment's; with no probe accepted it used to pass
    g0 = gallery_1d({1: [0.0], 2: [10.0]}, cap=2, probes=[make_sample(5, [0.1])])
    batch = batch_of(g0, [5], index=0)
    with pytest.raises(ValueError, match="batch index 0 < 1"):
        run_update_cycle(g0, batch, _cfg("mdist", 2), t_star=t_star)


def test_classification_uses_pre_cycle_gallery_only():
    # 0.4 would be accepted only if 0.2 were already inserted; both must be
    # judged against the pre-cycle gallery
    g0 = gallery_1d({1: [0.0], 2: [10.0]}, cap=4, probes=[make_sample(5, [0.2]), make_sample(6, [0.4])])
    batch = batch_of(g0, [5, 6])
    g, report = run_update_cycle(g0, batch, _cfg("mdist", 4), t_star=0.3)
    assert report.insertions == ((5, 1),)
    assert report.n_rejected == 1


@pytest.mark.parametrize("method", ["kmeans", "mdist", "dend", "keep_all"])
def test_a_batch_of_another_dataset_is_rejected_before_classifying(method, monkeypatch):
    g0 = gallery_1d({1: [0.0], 2: [10.0]}, probes=[make_sample(5, [0.1])])
    classified = []
    monkeypatch.setattr(matching, "classify_batch", lambda *args: classified.append(args))
    twin = gallery_1d({1: [0.0], 2: [10.0]}, probes=[make_sample(5, [0.1])])  # equal rows, another dataset
    with pytest.raises(ValueError, match="^batch 1 is not of the gallery's dataset$"):
        run_update_cycle(g0, batch_of(twin, [5]), _cfg(method, 2), 0.5)
    assert classified == []


def test_a_cycle_times_classification_on_its_threads_cpu_clock(monkeypatch):
    # a sleeping thread spends no CPU time: a wall clock would read the sleep
    import time

    classify = matching.classify_batch

    def sleepy(*args):
        time.sleep(0.05)
        return classify(*args)

    monkeypatch.setattr(matching, "classify_batch", sleepy)
    g0 = gallery_1d({1: [0.0], 2: [10.0]}, probes=[make_sample(5, [0.1])])
    _, report = run_update_cycle(g0, batch_of(g0, [5]), _cfg("mdist", 2), 0.5)
    assert report.n_accepted == 1 and report.elapsed_classify_s < 0.05


def test_run_sequence_zero_batches(abc_gallery):
    g, reports, snaps = run_sequence(abc_gallery, [], _cfg("mdist", 2))
    assert g is abc_gallery and reports == [] and snaps == []


@pytest.mark.parametrize("method", ["kmeans", "mdist"])
def test_run_sequence_runs_an_iterator_of_batches_as_their_list(method):
    # the order check read the whole iterator, so no cycle ran
    g0f, batches = _mode_dataset(np.random.default_rng(5))
    runs = [run_sequence(g0f(2), b, _cfg(method, 2)) for b in (batches, iter(batches))]
    (final, reports, snaps), (final_it, reports_it, snaps_it) = runs
    assert len(reports_it) == len(snaps_it) == len(batches) == 3

    def facts(report):  # every field but the timings
        return (report.batch_index, report.t_star_used, report.n_rejected, report.insertions, report.evictions)

    assert [facts(r) for r in reports_it] == [facts(r) for r in reports]
    for got, want in zip([final_it, *snaps_it], [final, *snaps]):
        for name in ("sample_id", "owner", "inserted_at", "starts"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


def _mode_dataset(rng, k=3, per=4, spread=0.3, sep=30.0):
    """An enrollment of one sample per user and three batches of ``per`` each,
    over one dataset: the enrolled gallery for a cap, and the batches."""
    samples = [make_sample(u - 1, [u * sep + rng.normal(0, spread)], user=u) for u in range(1, k + 1)]
    for b in range(1, 4):
        for u in range(1, k + 1):
            for _ in range(per):
                samples.append(make_sample(len(samples), [u * sep + rng.normal(0, spread)], user=u))
    dataset = Dataset.of(samples)

    def g0(cap):
        return gallery_enroll(Batch(dataset, np.arange(k), 0), cap=cap)

    batches = [Batch(dataset, k + (b - 1) * k * per + np.arange(k * per), b) for b in range(1, 4)]
    return g0, batches


def test_keep_all_growth_is_monotone():
    rng = np.random.default_rng(0)
    g0f, batches = _mode_dataset(rng)
    g0 = g0f(None)
    _, reports, snaps = run_sequence(g0, batches, _cfg("keep_all", 1))
    size = g0.n_templates
    for report, snap in zip(reports, snaps):
        assert snap.n_templates == size + report.n_accepted
        size = snap.n_templates
    assert size > g0.n_templates  # well-separated modes: acceptances happen


def test_capped_methods_respect_cap_every_snapshot():
    rng = np.random.default_rng(1)
    g0f, batches = _mode_dataset(rng)
    for method in ("mdist", "dend", "kmeans"):
        _, _, snaps = run_sequence(g0f(2), batches, _cfg(method, 2))
        for snap in snaps:
            assert np.unique(snap.owner, return_counts=True)[1].max() <= 2
            assert snap.user_ids == [1, 2, 3]  # no user ever emptied


@pytest.mark.parametrize("method", ["kmeans", "mdist", "dend", "keep_all"])
def test_every_cycle_reconciles(method):
    p = 2
    rng = np.random.default_rng(4)
    g0f, batches = _mode_dataset(rng)
    g0 = g0f(p)
    _, reports, snaps = run_sequence(g0, batches, _cfg(method, p))
    assert any(r.evictions for r in reports) == (method != "keep_all")
    for before, after, report, batch in zip([g0, *snaps], snaps, reports, batches):
        assert report.n_accepted + report.n_rejected == len(batch)
        assert after.n_templates == (
            before.n_templates + len(report.insertions) - len(report.evictions)
        )
        held = set(zip(before.sample_id.tolist(), before.owner.tolist()))
        for sid, u in report.evictions:
            assert (sid, u) in held or (sid, u) in report.insertions
        users, counts = np.unique(after.owner, return_counts=True)
        assert users.tolist() == before.user_ids  # no user emptied
        if method != "keep_all":
            assert counts.max() <= p


def test_report_counts_add_up():
    rng = np.random.default_rng(2)
    g0f, batches = _mode_dataset(rng)
    _, reports, _ = run_sequence(g0f(2), batches, _cfg("mdist", 2))
    for report, batch in zip(reports, batches):
        assert report.n_accepted + report.n_rejected == len(batch)


def test_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(3)
        g0f, batches = _mode_dataset(rng)
        g, reports, _ = run_sequence(g0f(2), batches, _cfg("kmeans", 2))
        ids = held_ids(g)
        meta = [
            (r.batch_index, r.t_star_used, r.insertions, r.evictions)
            for r in reports
        ]
        return ids, meta

    assert run() == run()


@pytest.mark.parametrize(
    "scale, d",
    [
        (1e155, 3),  # squared differences past float64's max
        (3e153, 16),  # finite squares whose row sums pass it
        (1e307, 16),  # l1 row sums past it
    ],
)
@pytest.mark.parametrize("metric", [matching.EUCLIDEAN, matching.L1])
def test_distances_past_float64s_max_score_inf_without_a_warning(scale, d, metric):
    # the exact kernel's einsum reads an overflowed distance as inf silently,
    # so every stage must: a RuntimeWarning is an error, which would fail
    # the one method or metric whose reduction warns
    rng = np.random.default_rng(0)
    samples = [make_sample(i, scale * rng.standard_normal(d), user=1 + i % 3) for i in range(12)]
    g = enroll([(s.true_user, s) for s in samples[:6]], cap=2, probes=samples[6:])
    batch = batch_of(g, range(6, 12))
    policy = ThresholdPolicy.far_quantile(0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        matching.estimate_threshold(g, policy, metric)
        matching.classify_batch(batch, g, np.inf, metric)
        score_sets(batch, g, distance_columns(batch, [g], metric))
        for method in ("kmeans", "mdist", "dend", "keep_all"):
            _, report = run_update_cycle(g, batch, EngineConfig(method, 2, metric, policy), np.inf)
            assert report.n_accepted + report.n_rejected == len(batch)


def test_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(method="bogus", p=2)
    with pytest.raises(ValueError):
        EngineConfig(method="mdist", p=0)
    with pytest.raises(ValueError):
        EngineConfig(method="mdist", p=2, metric="cosine")


@pytest.mark.parametrize("policy", ["zero-far", "far:0.2", 0.01, None])
def test_config_refuses_a_policy_that_is_no_threshold_policy(policy):
    # otherwise it fails only at the first t*, with an AttributeError
    with pytest.raises(ValueError, match=f"^policy must be a ThresholdPolicy, not {policy!r}$"):
        EngineConfig(method="mdist", p=2, policy=policy)


@pytest.mark.parametrize("method", ["kmeans", "mdist"])
@pytest.mark.parametrize("p", [2.5, True])
def test_config_refuses_a_non_integer_p(method, p):
    # at p=2.5 kmeans would keep 3 templates per user, over the p*k*S bound
    with pytest.raises(ValueError, match=f"^p must be an integer, not {p!r}$"):
        EngineConfig(method=method, p=p)


@pytest.mark.parametrize("method", ["kmeans", "mdist", "dend", "keep_all"])
def test_insertions_and_appended_templates_follow_batch_order(method):
    # accepted and rejected samples interleaved; ids deliberately unsorted
    values = [(40, 0.2), (7, 5.0), (31, 9.8), (12, 0.1), (50, 20.0), (3, 10.3), (25, -0.4)]
    g0 = gallery_1d({1: [0.0], 2: [10.0]}, probes=[make_sample(i, [v]) for i, v in values])
    batch = batch_of(g0, [i for i, _ in values], index=2)
    g, report = run_update_cycle(g0, batch, _cfg(method, 10), t_star=1.0)
    # the insertions follow batch order
    assert report.insertions == ((40, 1), (31, 2), (12, 1), (3, 2), (25, 1))
    assert (report.n_accepted, report.n_rejected) == (5, 2)
    # the templates they add join each user's rows in sample-id order
    assert g.owner.tolist() == [1, 1, 1, 1, 2, 2, 2]
    assert g.sample_id.tolist() == [0, 12, 25, 40, 1, 3, 31]
    assert g.inserted_at.tolist() == [0, 2, 2, 2, 0, 2, 2]


@pytest.mark.parametrize("method", ["kmeans", "mdist", "dend", "keep_all"])
def test_cycle_gallery_holds_rows_of_the_same_dataset_and_no_vector_stack(method):
    probes = [make_sample(i, [v]) for i, v in ((5, 0.1), (6, 9.9), (7, 0.2), (8, 50.0))]
    g0 = gallery_1d({1: [0.0, 0.3], 2: [10.0]}, probes=probes)
    g, report = run_update_cycle(g0, batch_of(g0, [5, 6, 7, 8]), _cfg(method, 2), t_star=1.0)
    assert report.n_accepted == 3 and g.sample_id.tolist() != g0.sample_id.tolist()
    assert g.dataset is g0.dataset  # the same rows, by index
    assert np.array_equal(g.sample_id, g0.dataset.sample_id[g.rows])
    for value in vars(g).values():  # the stored fields
        assert not (isinstance(value, np.ndarray) and value.dtype.kind == "f")


@st.composite
def _reference_case(draw):
    """An enrolled gallery on a small lattice, so distances tie across users
    and at t*, with vectors duplicated across users, and up to three batches,
    empty ones included. The first batch holds, for a pair at t*, each row
    mirrored through the other: both lie exactly t* from that row."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, k = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    offset, step = draw(st.sampled_from([(0.0, 1.0), (1e4, 1.0), (0.0, 0.1)]))
    metric = draw(st.sampled_from(["euclidean", "l1"]))
    policy = draw(st.sampled_from([ThresholdPolicy.zero_far(), ThresholdPolicy.far_quantile(0.3)]))
    cfg = EngineConfig(draw(st.sampled_from(["kmeans", "mdist", "dend", "keep_all"])),
                       draw(st.integers(1, 3)), metric, policy)

    def lattice(n):
        return list(offset + step * rng.integers(-3, 4, (n, d)))

    gallery = {u: lattice(int(rng.integers(1, 4))) for u in range(1, k + 1)}
    if draw(st.booleans()):  # one vector held by two users
        gallery[2].append(gallery[1][0])
    sids = iter(rng.permutation(1000).tolist())
    gallery = {u: [(next(sids), v) for v in rows] for u, rows in gallery.items()}
    batches = [lattice(draw(st.integers(0, 6))) for _ in range(draw(st.integers(1, 3)))]
    mat = np.array([v for u in sorted(gallery) for _, v in gallery[u]])
    t_star = reference_threshold(gallery, metric, policy)
    i, j = next((i, j) for i, v in enumerate(mat)
                for j in np.flatnonzero(_distances_to_rows(v, mat, metric) == t_star).tolist())
    batches[0] += [2 * mat[i] - mat[j], 2 * mat[j] - mat[i]]
    return gallery, [[(next(sids), v) for v in b] for b in batches], cfg


@settings(derandomize=True, deadline=None, max_examples=250)
@given(_reference_case())
def test_run_sequence_equals_the_reference_loop(case):
    gallery, batches, cfg = case
    g0 = enroll([(u, make_sample(sid, v, user=u)) for u in gallery for sid, v in gallery[u]],
                probes=[make_sample(sid, v) for batch in batches for sid, v in batch])
    _, reports, snapshots = run_sequence(
        g0, [batch_of(g0, [sid for sid, _ in batch], index=b + 1) for b, batch in enumerate(batches)], cfg
    )
    want = reference_sequence(gallery, batches, cfg.method, cfg.p, cfg.metric, cfg.policy)
    assert len(reports) == len(snapshots) == len(want)
    for report, snap, batch, (t_star, insertions, evictions, kept) in zip(
        reports, snapshots, batches, want
    ):
        assert report.t_star_used == t_star
        assert list(report.insertions) == insertions
        assert list(report.evictions) == evictions
        assert (report.n_accepted, report.n_rejected) == (len(insertions), len(batch) - len(insertions))
        assert held_ids(snap) == {u: [sid for sid, _ in rows] for u, rows in kept.items()}
