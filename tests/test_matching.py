import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from selfgallery.core import Batch, gallery_enroll
from selfgallery.matching import (
    ThresholdPolicy,
    classify_batch,
    distance,
    estimate_threshold,
    impostor_pool,
    match_score,
    score_sets,
)

from conftest import gallery_1d, make_sample


def test_distance_examples():
    assert distance([0, 0], [3, 4], "euclidean") == pytest.approx(5.0)
    assert distance([1, 1], [1, 1], "l1") == 0.0
    assert distance([0, 0], [3, 4], "l1") == pytest.approx(7.0)


def test_distance_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        distance([0, 0], [1, 2, 3])


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
vec3 = st.lists(finite, min_size=3, max_size=3)


@given(vec3, vec3, vec3, st.sampled_from(["euclidean", "l1"]))
def test_distance_metric_axioms(a, b, c, metric):
    dab = distance(a, b, metric)
    assert dab >= 0.0
    assert dab == pytest.approx(distance(b, a, metric))
    assert distance(a, a, metric) == 0.0
    assert dab <= distance(a, c, metric) + distance(c, b, metric) + 1e-6


def test_match_score_examples():
    g = gallery_1d({1: [1.0, 3.0]})
    d, tid = match_score(make_sample(99, [0.0]), g.users[1])
    assert d == pytest.approx(1.0)
    assert tid == 0  # template (1.0)
    d, tid = match_score(make_sample(99, [3.0]), g.users[1])
    assert (d, tid) == (0.0, 1)
    # tie: equidistant -> earliest inserted wins
    d, tid = match_score(make_sample(99, [2.0]), g.users[1])
    assert d == pytest.approx(1.0)
    assert tid == 0


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
                for v, tpl in abc_gallery.all_templates()
                if v != u
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
    """score_sets as one match_score call per (sample, user)."""
    genuine, impostor = [], []
    per_subject = {u: {"genuine": [], "impostor": []} for u in gallery.user_ids}
    for s in test.samples:
        for u in gallery.user_ids:
            d, _ = match_score(s, gallery.users[u], metric)
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
