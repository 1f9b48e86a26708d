import itertools
import math

import numpy as np
import pytest

from selfgallery import matching
from selfgallery.core import Batch, gallery_enroll
from selfgallery.matching import (
    _BLOCK,
    ThresholdPolicy,
    _distances_to_rows,
    _flatten,
    classify_batch,
    estimate_threshold,
    impostor_pool,
    score_sets,
)

from conftest import gallery_1d, make_sample


def test_estimate_threshold_zero_far(abc_gallery):
    # pool over cross-user pairs = {1.0, 1.4, 0.4}
    pool = sorted(impostor_pool(abc_gallery))
    assert pool == pytest.approx([0.4, 1.0, 1.4])
    assert estimate_threshold(abc_gallery, ThresholdPolicy.zero_far()) == pytest.approx(0.4)


def test_estimate_threshold_median(abc_gallery):
    t = estimate_threshold(abc_gallery, ThresholdPolicy.far_quantile(0.5))
    assert t == pytest.approx(1.0)


def test_estimate_threshold_coincident_users():
    g = gallery_1d({1: [0.0], 2: [0.0]})
    t = estimate_threshold(g, ThresholdPolicy.zero_far())
    assert t == 0.0
    decisions = classify_batch(Batch(index=1, samples=(make_sample(9, [0.0]),)), g, t)
    assert not decisions[0].accepted


def test_estimate_threshold_single_user_errors():
    g = gallery_1d({1: [0.0, 1.0]})
    with pytest.raises(ValueError):
        estimate_threshold(g, ThresholdPolicy.zero_far())


def test_policy_validation():
    with pytest.raises(ValueError):
        ThresholdPolicy.far_quantile(0.0)
    with pytest.raises(ValueError):
        ThresholdPolicy.far_quantile(1.0)
    with pytest.raises(ValueError):
        ThresholdPolicy(kind="bogus")


def test_classify_batch_examples(abc_gallery):
    batch = Batch(
        index=1,
        samples=(
            make_sample(10, [0.1]),
            make_sample(11, [0.7]),
            make_sample(12, [2.5]),
        ),
    )
    d0, d1, d2 = classify_batch(batch, abc_gallery, t_star=0.4)
    assert d0.accepted and d0.label == 1 and d0.distance == pytest.approx(0.1)
    # nearest is B's template at 1.0: the impostor-risk path
    assert d1.accepted and d1.label == 2 and d1.distance == pytest.approx(0.3)
    assert not d2.accepted and d2.distance == pytest.approx(1.1)


def test_classify_strict_inequality(abc_gallery):
    batch = Batch(index=1, samples=(make_sample(10, [0.4]),))
    (d,) = classify_batch(batch, abc_gallery, t_star=0.4)
    assert not d.accepted  # distance to A's 0.0 is exactly t*


def test_classify_batch_decisions_respect_threshold(abc_gallery):
    rng = np.random.default_rng(0)
    batch = Batch(
        index=1,
        samples=tuple(
            make_sample(100 + i, [float(v)]) for i, v in enumerate(rng.uniform(-1, 3, 50))
        ),
    )
    t = 0.35
    for d in classify_batch(batch, abc_gallery, t):
        if d.accepted:
            assert d.distance < t
        else:
            assert d.distance >= t


def test_zero_far_accepts_no_gallery_cross_pair(abc_gallery):
    # re-running acceptance over the gallery's own cross-user pairs
    # accepts none of them
    t = estimate_threshold(abc_gallery, ThresholdPolicy.zero_far())
    for u in abc_gallery.user_ids:
        others = gallery_enroll(
            [
                (v, tpl.sample)
                for v in abc_gallery.user_ids
                if v != u
                for tpl in abc_gallery.users[v].templates
            ]
        )
        probes = Batch(
            index=1, samples=tuple(t_.sample for t_ in abc_gallery.users[u].templates)
        )
        assert not any(d.accepted for d in classify_batch(probes, others, t))


def test_classify_invariant_under_user_permutation():
    rng = np.random.default_rng(1)
    values = {u: list(rng.normal(u * 10.0, 1.0, 3)) for u in (1, 2, 3)}
    probes = tuple(
        make_sample(50 + i, [float(v)]) for i, v in enumerate(rng.uniform(0, 30, 20))
    )
    batch = Batch(index=1, samples=probes)
    base = None
    for perm in itertools.permutations((1, 2, 3)):
        g = gallery_1d({u: values[u] for u in perm})
        out = [(d.accepted, d.label, round(d.distance, 12)) for d in classify_batch(batch, g, 1.5)]
        if base is None:
            base = out
        assert out == base


def test_score_sets_counts():
    g = gallery_1d({1: [0.0], 2: [10.0]})
    test = Batch(
        index=6,
        samples=(make_sample(20, [0.0], user=1), make_sample(21, [10.0], user=2)),
    )
    genuine, impostor, per_subject = score_sets(test, g)
    assert genuine == [0.0, 0.0]
    assert len(impostor) == 2 and all(v > 0 for v in impostor)
    assert len(per_subject[1]["genuine"]) == 1
    assert len(per_subject[1]["impostor"]) == 1


def test_score_sets_empty_batch(abc_gallery):
    genuine, impostor, _ = score_sets(Batch(index=6, samples=()), abc_gallery)
    assert genuine == [] and impostor == []


def test_score_sets_three_users_one_sample(abc_gallery):
    test = Batch(index=6, samples=(make_sample(30, [0.05], user=1),))
    genuine, impostor, _ = score_sets(test, abc_gallery)
    assert len(genuine) == 1 and len(impostor) == 2


def test_score_sets_rejects_unenrolled(abc_gallery):
    test = Batch(index=6, samples=(make_sample(30, [0.0], user=99),))
    with pytest.raises(ValueError, match="99"):
        score_sets(test, abc_gallery)


def _score_sets_by_user(test, gallery, metric):
    """score_sets as one minimum over each user's stacked rows per (sample, user)."""
    genuine, impostor = [], []
    per_subject = {u: {"genuine": [], "impostor": []} for u in gallery.user_ids}
    rows = {
        u: np.stack([t.sample.vector for t in gallery.users[u].templates])
        for u in gallery.user_ids
    }
    for s in test.samples:
        for u in gallery.user_ids:
            d = float(_distances_to_rows(s.vector, rows[u], metric).min())
            kind = "genuine" if u == s.true_user else "impostor"
            (genuine if kind == "genuine" else impostor).append(d)
            per_subject[u][kind].append(d)
    return genuine, impostor, per_subject


@pytest.mark.parametrize("metric", ["euclidean", "l1"])
@pytest.mark.parametrize("cap", [3, None])
def test_score_sets_equals_per_user_match_score(metric, cap):
    rng = np.random.default_rng(23)
    dim, users = 5, (4, 1, 7, 2)
    # uneven per-user counts as in a keep_all gallery; capped users hold cap
    counts = {u: (cap if cap else int(rng.integers(1, 9))) for u in users}
    sid = itertools.count()
    pairs = [
        (u, make_sample(next(sid), rng.normal(u, 1.0, dim), user=u))
        for u in users
        for _ in range(counts[u])
    ]
    g = gallery_enroll(pairs, cap=cap)
    probes = [make_sample(next(sid), rng.normal(u, 1.5, dim), user=u) for u in users * 5]
    probes.append(make_sample(next(sid), pairs[0][1].vector, user=pairs[0][0]))  # exact hit
    test = Batch(index=6, samples=tuple(probes))
    assert score_sets(test, g, metric) == _score_sets_by_user(test, g, metric)


def test_score_sets_empty_batch_keeps_every_subject(abc_gallery):
    genuine, impostor, per_subject = score_sets(Batch(index=6, samples=()), abc_gallery)
    assert genuine == [] and impostor == []
    assert per_subject == {u: {"genuine": [], "impostor": []} for u in (1, 2, 3)}


def test_score_sets_rejects_dim_mismatch(abc_gallery):
    test = Batch(index=6, samples=(make_sample(30, [0.0, 1.0], user=1),))
    with pytest.raises(ValueError, match="dimension mismatch"):
        score_sets(test, abc_gallery)


def _masked_pool(gallery, metric):
    """impostor_pool as one owner mask per row over every later row."""
    mat, owners, _ = _flatten(gallery)
    chunks = []
    for i in range(mat.shape[0] - 1):
        d = _distances_to_rows(mat[i], mat[i + 1 :], metric)
        chunks.append(d[owners[i + 1 :] != owners[i]])
    return np.concatenate(chunks)


@pytest.mark.parametrize("metric", ["euclidean", "l1"])
def test_impostor_pool_equals_masked_rows(metric):
    rng = np.random.default_rng(41)
    dim = 6
    shared = rng.normal(size=dim)  # one vector held by several users
    for _ in range(5):
        users = rng.permutation([9, 2, 14, 5, 7, 1]).tolist()  # unsorted enrollment
        sid = itertools.count()
        pairs = []
        for u in users:
            for j in range(int(rng.integers(1, 9))):
                v = shared if j == 0 and u % 2 else rng.normal(u, 2.0, dim)
                pairs.append((u, make_sample(next(sid), v, user=u)))
        order = rng.permutation(len(pairs))  # users' samples interleaved
        g = gallery_enroll([pairs[i] for i in order])
        assert np.array_equal(impostor_pool(g, metric), _masked_pool(g, metric))
    with pytest.raises(ValueError, match="cross-user"):
        impostor_pool(gallery_1d({1: [0.0, 1.0, 2.0]}), metric)


def test_impostor_pool_two_users_one_template_each():
    g = gallery_1d({3: [2.0], 1: [0.5]})
    assert impostor_pool(g).tolist() == [1.5]


@pytest.mark.parametrize("q", [1e-6, 0.01, 0.2, 0.5, 0.999999])
def test_far_quantile_is_the_sorted_pool_order_statistic(q):
    rng = np.random.default_rng(17)
    for n_other in range(1, 40):
        # one template of user 1 against n_other templates: pool size n_other
        g = gallery_1d({1: [0.0], 2: rng.integers(-5, 6, n_other).tolist()})
        pool = impostor_pool(g)
        expected = np.sort(pool)[max(0, math.ceil(q * pool.size) - 1)]
        got = estimate_threshold(g, ThresholdPolicy.far_quantile(q))
        assert got == float(expected)


def _classify_by_row(batch, gallery, t_star):
    """classify_batch as one exact distance row per probe, first column on ties."""
    mat, owners, _ = _flatten(gallery)
    out = []
    for s in batch.samples:
        dists = _distances_to_rows(s.vector, mat, "euclidean")
        i = int(np.argmin(dists))
        d = float(dists[i])
        out.append((s.id, d < t_star, d, int(owners[i]) if d < t_star else None))
    return out


def _screen_gallery(rng, dim, counts, offset):
    """users 1.. with counts[i] templates each, the first of every third user
    one shared vector and of the next user a near-duplicate of it."""
    sid = itertools.count()
    shared = rng.normal(0.0, 1.0, dim) + offset
    pairs = []
    for u, c in enumerate(counts, start=1):
        for j in range(c):
            v = rng.normal(u % 5, 1.0, dim) + offset
            if j == 0 and u % 3 == 0:
                v = shared
            elif j == 0 and u % 3 == 1:
                v = shared + rng.normal(0.0, 1e-6, dim)  # nearer than the screen resolves
            pairs.append((u, make_sample(next(sid), v, user=u)))
    return gallery_enroll(pairs), shared


@pytest.mark.parametrize("offset", [0.0, 1e4])  # a common offset widens the band
@pytest.mark.parametrize("dim", [1, 2, 64, 128, 129])
def test_classify_batch_equals_row_by_row(dim, offset):
    rng = np.random.default_rng(dim)
    for counts in ([int(c) for c in rng.integers(1, 9, 20)], [1] * 90):
        g, shared = _screen_gallery(rng, dim, counts, offset)
        mat, _, _ = _flatten(g)
        probes = [shared, mat[0], mat[-1]]  # exact hits, one across users
        probes += list(rng.normal(2.0, 1.5, (2 * _BLOCK + 7, dim)) + offset)
        probes += [mat[i] + rng.normal(0.0, 1e-9, dim) for i in range(0, len(mat), 7)]
        batch = Batch(index=1, samples=tuple(make_sample(1000 + i, v) for i, v in enumerate(probes)))
        for t in (estimate_threshold(g, ThresholdPolicy.far_quantile(0.2)), math.inf):
            got = [(d.sample_id, d.accepted, d.distance, d.label) for d in classify_batch(batch, g, t)]
            assert got == _classify_by_row(batch, g, t)


@pytest.mark.parametrize("offset", [0.0, 1e4])
def test_classify_tie_across_users_takes_the_lowest_index(offset):
    v = np.array([3.0, 4.0]) + offset
    g = gallery_enroll([(7, make_sample(0, v + 1.0, user=7)), (5, make_sample(1, v, user=5)),
                        (2, make_sample(2, v + 2.0, user=2)), (7, make_sample(3, v, user=7))])
    (d,) = classify_batch(Batch(index=1, samples=(make_sample(9, v),)), g, math.inf)
    assert (d.label, d.distance) == (5, 0.0)  # users 5 and 7 hold v; 5's row comes first


@pytest.mark.parametrize("offset", [0.0, 1e4])
@pytest.mark.parametrize("dim", [1, 2, 64, 128, 129])
def test_estimate_threshold_equals_sorted_pool(dim, offset):
    rng = np.random.default_rng(100 + dim)
    # [50, 30, 20]: user 2's segment straddles a _BLOCK boundary; [66, 1]:
    # one-template last user, its one partner screened by two blocks
    randoms = [int(c) for c in rng.integers(1, 9, 20)]
    for counts in (randoms, [1] * 90, [2, 70], [50, 30, 20], [66, 1]):
        g, _ = _screen_gallery(rng, dim, counts, offset)
        pool = np.sort(impostor_pool(g))
        assert estimate_threshold(g, ThresholdPolicy.zero_far()) == float(pool[0])
        for q in (1e-6, 0.01, 0.2, 0.5, 0.999999):
            k = max(0, math.ceil(q * pool.size) - 1)
            assert estimate_threshold(g, ThresholdPolicy.far_quantile(q)) == float(pool[k])
    single, _ = _screen_gallery(rng, dim, [5], offset)
    for metric in ("euclidean", "l1"):
        with pytest.raises(ValueError, match="cross-user"):
            estimate_threshold(single, ThresholdPolicy.zero_far(), metric)


@pytest.mark.parametrize(
    "policy",
    [
        ThresholdPolicy.zero_far(),
        ThresholdPolicy.far_quantile(0.01),
        ThresholdPolicy.far_quantile(0.2),
    ],
)
def test_estimate_threshold_screens_each_pair_once(monkeypatch, policy):
    screen, calls = matching._screen, []

    def counting(*args):
        calls.append(None)
        return screen(*args)

    monkeypatch.setattr(matching, "_screen", counting)
    rng = np.random.default_rng(5)
    counts = [50, 30, 20, 19]  # 119 rows; only the first 100 have partners after them
    g, _ = _screen_gallery(rng, 8, counts, 0.0)
    estimate_threshold(g, policy)
    assert len(calls) == math.ceil((sum(counts) - counts[-1]) / _BLOCK)


@pytest.mark.parametrize("metric", ["euclidean", "l1"])
def test_classify_empty_batch(abc_gallery, metric):
    assert classify_batch(Batch(index=1, samples=()), abc_gallery, 0.4, metric) == []


def test_classify_rejects_nan_threshold(abc_gallery):
    batch = Batch(index=1, samples=(make_sample(10, [0.1]),))
    with pytest.raises(ValueError, match="non-negative"):
        classify_batch(batch, abc_gallery, float("nan"))
