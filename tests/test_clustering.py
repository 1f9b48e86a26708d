import warnings

import numpy as np
import pytest

from selfgallery.clustering import (
    Clustering,
    KMeansParams,
    dominant_cluster_for_user,
    kmeans,
)


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
    # fixed point: one more Lloyd step changes nothing
    cl2 = kmeans(pts, KMeansParams(k=2, max_iter=1), labels=labels)
    assert np.allclose(cl.centroids, cl2.centroids)
    assert np.array_equal(cl.assignment, cl2.assignment)


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
        KMeansParams(k=2, rel_tol=0.0)
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
