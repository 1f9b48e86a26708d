import warnings

import numpy as np
import pytest

from selfgallery.clustering import Clustering, KMeansParams, _assign, _means, kmeans

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
    got = kmeans(pts, params, labels=labels)
    want = masked_mean_kmeans(pts, params, labels=labels)
    assert np.array_equal(got.assignment, want.assignment)
    assert np.array_equal(got.centroids, want.centroids)
    assert got.inertia == want.inertia
    assert got.n_iter == want.n_iter
    assert got.inertia_history == want.inertia_history


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
