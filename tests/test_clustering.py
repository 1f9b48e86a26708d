import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selfgallery import clustering
from selfgallery.clustering import (
    MAX_ITER,
    Clustering,
    KMeansParams,
    _assign,
    _means,
    _sq_dists,
    _sq_residuals,
    kmeans,
)

from oracles import dominant_cluster_for_user, masked_mean_kmeans


def test_k_equals_n_distinct_points():
    pts = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    cl = kmeans(pts, KMeansParams(k=3, init="seeded_random", seed=4))
    assert cl.inertia == 0.0
    assert sorted(cl.assignment) == [0, 1, 2]


def test_two_blobs_user_means_fixed_point():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [9.9, 10.0]])
    labels = [1, 1, 2, 2]
    cl = kmeans(pts, KMeansParams(k=2), labels=labels)
    expected = np.array([[0.05, 0.0], [9.95, 10.0]])
    assert np.allclose(np.sort(cl.centroids, axis=0), np.sort(expected, axis=0))
    # fixed point: one more Lloyd step from the returned centroids changes nothing
    assignment = _assign(pts, cl.centroids)
    assert np.array_equal(cl.assignment, assignment)
    assert np.allclose(cl.centroids, _means(pts, assignment, 2))


def test_identical_points_empty_cluster_reseed():
    pts = np.zeros((4, 2))
    cl = kmeans(pts, KMeansParams(k=2, init="seeded_random", seed=0))
    assert cl.inertia == 0.0
    assert set(cl.assignment) == {0, 1}  # reseed kept both clusters nonempty


def test_inertia_monotone_and_final_assignment_nearest():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(60, 3))
    cl = kmeans(pts, KMeansParams(k=4, init="seeded_random", seed=3))
    hist = cl.inertia_history
    assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))
    d2 = ((pts[:, None, :] - cl.centroids[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(cl.assignment, np.argmin(d2, axis=1))


def test_kmeans_rejects_k_above_n():
    with pytest.raises(ValueError):
        kmeans(np.zeros((2, 1)), KMeansParams(k=3, init="seeded_random", seed=0))


def test_user_means_alignment_on_separated_data():
    # separation >> sigma, no tails: cluster of user i is the one seeded
    # from user i's mean
    rng = np.random.default_rng(11)
    means = np.array([[0.0, 0.0], [50.0, 0.0], [0.0, 50.0]])
    pts, labels = [], []
    for i, m in enumerate(means):
        pts.append(m + rng.normal(scale=0.5, size=(10, 2)))
        labels += [i + 1] * 10
    pts = np.vstack(pts)
    cl = kmeans(pts, KMeansParams(k=3), labels=labels)
    for i in (1, 2, 3):
        assert dominant_cluster_for_user(cl, labels, i) == i - 1


def _clustering(assignment, k):
    assignment = np.asarray(assignment)
    return Clustering(
        assignment=assignment,
        centroids=np.zeros((k, 1)),
        inertia=0.0,
        n_iter=1,
    )


def test_dominant_cluster_counting_and_ties():
    labels = ["?"]  # placeholder, replaced below
    # user A(=1) has 3 points all in cluster 0
    cl = _clustering([0, 0, 0], k=2)
    assert dominant_cluster_for_user(cl, [1, 1, 1], 1) == 0
    # 2 points in cluster 1, 1 in cluster 0
    cl = _clustering([1, 1, 0], k=2)
    assert dominant_cluster_for_user(cl, [1, 1, 1], 1) == 1
    # tie 1-1 -> lowest cluster index
    cl = _clustering([0, 1], k=2)
    assert dominant_cluster_for_user(cl, [1, 1], 1) == 0


def test_dominant_cluster_rejects_absent_user():
    cl = _clustering([0, 1], k=2)
    with pytest.raises(ValueError):
        dominant_cluster_for_user(cl, [1, 1], 5)


def test_params_validation():
    with pytest.raises(ValueError):
        KMeansParams(k=0)
    with pytest.raises(ValueError):
        KMeansParams(k=2, init="seeded_random")  # missing seed


def test_empty_cluster_repair_never_leaves_a_cluster_empty():
    # the seeded init empties a cluster mid-run; the repair must take a
    # point from a cluster that can spare one
    pts = np.array([[2.0], [3.0], [4.0], [0.0], [0.0], [0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cl = kmeans(pts, KMeansParams(k=3, init="seeded_random", seed=0))
    assert np.all(np.bincount(cl.assignment, minlength=3) > 0)
    assert np.all(np.isfinite(cl.centroids))


@pytest.mark.parametrize("labels", [[0, 0, 1], [0, 0, 1, 1, 2, 2]])
@pytest.mark.parametrize("init", ["user_means", "seeded_random"])
def test_kmeans_rejects_labels_not_one_per_point(labels, init):
    pts = np.arange(10.0).reshape(5, 2)
    params = KMeansParams(k=2, init=init, seed=0 if init == "seeded_random" else None)
    with pytest.raises(ValueError, match="labels for 5 points"):
        kmeans(pts, params, labels=labels)


def _assert_same_clustering(pts, params, labels=None):
    # NaN-aware: an overflowed inertia must repeat as NaN where the reference's does
    got = kmeans(pts, params, labels=labels)
    want = masked_mean_kmeans(pts, params, labels=labels)
    assert np.array_equal(got.assignment, want.assignment)
    assert np.array_equal(got.centroids, want.centroids, equal_nan=True)
    assert np.array_equal(got.inertia, want.inertia, equal_nan=True)
    assert got.n_iter == want.n_iter
    assert np.array_equal(got.inertia_history, want.inertia_history, equal_nan=True)
    return got


@pytest.mark.parametrize("d", [1, 2, 3, 8, 16, 64, 128, 129])
def test_kmeans_equals_masked_mean_reference(d):
    rng = np.random.default_rng(d)
    n, k = 90, 7
    labels = np.repeat(np.arange(k) * 5 - 9, [13] * 6 + [12])  # negative, gapped user ids
    inputs = [
        rng.normal(size=(n, d)) + 3.0 * (labels[:, None] % 4),
        rng.integers(-2, 3, size=(n, d)).astype(float),  # lattice: ties everywhere
        rng.normal(size=(n, d)) + 1e4,
    ]
    for pts in inputs:
        _assert_same_clustering(pts, KMeansParams(k=k), labels=rng.permutation(labels))
        for seed in range(3):
            _assert_same_clustering(pts, KMeansParams(k=k, init="seeded_random", seed=seed))


def test_kmeans_equals_masked_mean_reference_on_empty_cluster_repair():
    pts = np.array([[2.0], [3.0], [4.0], [0.0], [0.0], [0.0]])
    _assert_same_clustering(pts, KMeansParams(k=3, init="seeded_random", seed=0))


def test_kmeans_overflowed_inertia_runs_to_max_iter_as_the_reference():
    # every squared distance overflows, so the assignment settles at once, but
    # the inf/NaN inertia never meets the break rule: the reference runs
    # MAX_ITER passes, and the fixed-point shortcut must record them all
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(40, 3)) * 1e200
    labels = np.repeat(np.arange(4), 10)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _assert_same_clustering(pts, KMeansParams(k=4), labels=labels)
    assert got.n_iter == MAX_ITER
    assert len(got.inertia_history) == MAX_ITER
    assert not np.isfinite(got.inertia_history[-1])


def _count_assign_calls(monkeypatch):
    calls = []

    def counting(points, centroids, p2=None):
        calls.append(1)
        return _assign(points, centroids, p2)

    monkeypatch.setattr(clustering, "_assign", counting)
    return calls


def test_kmeans_fixed_point_from_the_start(monkeypatch):
    # the user means are already a fixed point: one assignment pass, and the
    # second pass repeats its inertia, which meets the break rule
    rng = np.random.default_rng(12)
    labels = np.repeat(np.arange(3), 8)
    pts = rng.normal(scale=0.1, size=(24, 2)) + 100.0 * labels[:, None]
    got = _assert_same_clustering(pts, KMeansParams(k=3), labels=labels)
    assert got.n_iter == 2
    assert got.inertia_history[0] == got.inertia_history[1]
    assert np.array_equal(got.assignment, labels)
    calls = _count_assign_calls(monkeypatch)
    kmeans(pts, KMeansParams(k=3), labels=labels)
    assert len(calls) == 1


def test_kmeans_ending_at_a_fixed_point_makes_n_iter_assignment_passes(monkeypatch):
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(120, 4))
    params = KMeansParams(k=6, init="seeded_random", seed=1)
    calls = _count_assign_calls(monkeypatch)
    cl = kmeans(pts, params)
    assert cl.n_iter >= 3
    assert len(calls) == cl.n_iter  # no repeat pass, no final pass
    # it did end at a fixed point: one more pass changes nothing
    assert cl.inertia_history[-1] == cl.inertia_history[-2] == cl.inertia
    assert np.array_equal(_assign(pts, cl.centroids), cl.assignment)
    assert np.array_equal(_means(pts, cl.assignment, 6), cl.centroids)


def _grouping(rng, n, k):
    """Random grouping of n points into k nonempty groups."""
    return rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, n - k)]))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    k=st.integers(1, 6),
    extra=st.integers(0, 18),
    d=st.sampled_from([1, 2, 3, 7]),
    moved=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_means_of_changed_groups_equal_full_reduction(k, extra, d, moved, seed):
    # extra=0 makes every group a singleton; moved=1.0 draws an unrelated
    # grouping, so points move both ways between the same pair of groups
    rng = np.random.default_rng(seed)
    n = k + extra
    pts = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4) + rng.choice([0.0, 1e4])
    prev = _grouping(rng, n, k)
    groups = np.where(rng.random(n) < moved, _grouping(rng, n, k), prev)
    assume(np.bincount(groups, minlength=k).min() > 0)
    prev_means = _means(pts, prev, k)
    got = _means(pts, groups, k, prev, prev_means)
    want = _means(pts, groups, k)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    masked = np.stack([pts[groups == c].mean(axis=0) for c in range(k)])
    assert np.array_equal(got.view(np.uint64), masked.view(np.uint64))
    assert np.array_equal(prev_means, _means(pts, prev, k))  # the old means are not written


@pytest.mark.parametrize("offset", [0.0, 1e4])
@pytest.mark.parametrize("d", [1, 3, 128])
def test_sq_dists_is_the_clipped_gram_expansion(offset, d):
    rng = np.random.default_rng(d)
    x = rng.normal(size=(50, d)) + offset
    c = rng.normal(size=(7, d)) + offset
    p2 = np.sum(x * x, axis=1)[:, None]
    c2 = np.sum(c * c, axis=1)[None, :]
    want = np.maximum(p2 + c2 - 2.0 * (x @ c.T), 0.0)
    assert np.array_equal(_sq_dists(x, c), want)
    assert np.array_equal(_sq_dists(x, c, np.sum(x * x, axis=1)), want)
    # MDIST/DEND's matrix of one set against itself
    x2 = np.sum(x * x, axis=1)
    own = np.maximum(x2[:, None] + x2[None, :] - 2.0 * (x @ x.T), 0.0)
    assert np.array_equal(_sq_dists(x, x), own)


def test_sq_residuals_is_the_squared_difference_to_the_gathered_centroids():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(30, 5)) + 1e4
    centroids = rng.normal(size=(3, 5)) + 1e4
    index = rng.integers(0, 3, 30)
    kept = centroids.copy()
    got = _sq_residuals(pts, centroids, index)
    want = (pts - centroids[index]) ** 2
    assert np.array_equal(got, want)
    assert np.array_equal(got.sum(axis=1), np.sum(want, axis=1))
    assert float(got.sum()) == float(np.sum(want))
    assert np.array_equal(centroids, kept)
