import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selfgallery import clustering
from selfgallery.clustering import (
    MAX_ITER,
    Clustering,
    _assign,
    _means,
    _sq_residuals,
    kmeans,
)
from selfgallery import matching
from selfgallery.matching import _SQUARED, _exact, _Screen, _sq_norms

from oracles import dominant_cluster_for_user, exact_assign, masked_mean_kmeans


def test_k_equals_n_distinct_points():
    pts = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    cl = kmeans(pts, 3, seed=4)
    assert cl.inertia_history[-1] == 0.0
    assert sorted(cl.assignment) == [0, 1, 2]


def test_two_blobs_user_means_fixed_point():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [9.9, 10.0]])
    labels = [1, 1, 2, 2]
    cl = kmeans(pts, 2, labels=labels)
    expected = np.array([[0.05, 0.0], [9.95, 10.0]])
    assert np.allclose(np.sort(cl.centroids, axis=0), np.sort(expected, axis=0))
    # fixed point: one more Lloyd step from the returned centroids changes nothing
    assignment = exact_assign(pts, cl.centroids)
    assert np.array_equal(cl.assignment, assignment)
    assert np.allclose(cl.centroids, _means(pts, assignment, 2))


def test_identical_points_empty_cluster_reseed():
    pts = np.zeros((4, 2))
    cl = kmeans(pts, 2, seed=0)
    assert cl.inertia_history[-1] == 0.0
    assert set(cl.assignment) == {0, 1}  # reseed kept both clusters nonempty


def test_inertia_monotone_and_final_assignment_nearest():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(60, 3))
    cl = kmeans(pts, 4, seed=3)
    hist = cl.inertia_history
    assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))
    d2 = ((pts[:, None, :] - cl.centroids[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(cl.assignment, np.argmin(d2, axis=1))


def test_kmeans_rejects_k_above_n():
    with pytest.raises(ValueError):
        kmeans(np.zeros((2, 1)), 3, seed=0)


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
    cl = kmeans(pts, 3, labels=labels)
    for i in (1, 2, 3):
        assert dominant_cluster_for_user(cl, labels, i) == i - 1


def _clustering(assignment, k):
    assignment = np.asarray(assignment)
    return Clustering(
        assignment=assignment,
        centroids=np.zeros((k, 1)),
        inertia_history=(0.0,),
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


_PTS = np.arange(10.0).reshape(5, 2)


def test_kmeans_argument_validation():
    with pytest.raises(ValueError):
        kmeans(_PTS, 0, seed=0)
    with pytest.raises(ValueError):
        kmeans(_PTS, 2)  # neither labels nor a seed


@pytest.mark.parametrize("k", [2.0, True, "2"])
def test_kmeans_refuses_a_k_that_is_not_an_integer(k):
    # a float k once passed and failed inside numpy; True passed as k = 1
    with pytest.raises(ValueError, match=f"k must be an integer, not {k!r}"):
        kmeans(_PTS, k, seed=0)


@pytest.mark.parametrize("seed", [1.5, False])
def test_kmeans_refuses_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ValueError, match=f"seed must be an integer, not {seed!r}"):
        kmeans(_PTS, 2, seed=seed)
    got, want = kmeans(_PTS, 2, seed=np.int64(3)), kmeans(_PTS, 2, seed=3)
    assert np.array_equal(got.assignment, want.assignment) and np.array_equal(got.centroids, want.centroids)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: kmeans(_PTS, 2), "^kmeans takes exactly one of labels and seed$"),
        (lambda: kmeans(_PTS, 2, labels=[0, 1, 0, 1, 0], seed=0),
         "^kmeans takes exactly one of labels and seed$"),
        (lambda: kmeans(_PTS, 2, labels=[7] * 5),
         "user_means init: 1 distinct labels but k=2"),
        (lambda: kmeans(_PTS, 2, labels=[0, 1, 2, 0, 1]),
         "user_means init: 3 distinct labels but k=2"),
        (lambda: kmeans(np.empty((0, 2)), 1, labels=[]),
         "points must be a nonempty n x d array"),
        (lambda: kmeans(np.arange(5.0), 1, labels=[0] * 5),
         "points must be a nonempty n x d array"),
        # a negative seed would fail only inside numpy's generator, naming no parameter
        (lambda: kmeans(_PTS, 2, seed=-1), "^seed must be non-negative$"),
    ],
)
def test_boundary_checks_raise_their_messages(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_empty_cluster_repair_never_leaves_a_cluster_empty():
    # the seeded init empties a cluster mid-run; the repair must take a
    # point from a cluster that can spare one
    pts = np.array([[2.0], [3.0], [4.0], [0.0], [0.0], [0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cl = kmeans(pts, 3, seed=0)
    assert np.all(np.bincount(cl.assignment, minlength=3) > 0)
    assert np.all(np.isfinite(cl.centroids))


@pytest.mark.parametrize("labels", [[0, 0, 1], [0, 0, 1, 1, 2, 2]])
def test_kmeans_rejects_labels_not_one_per_point(labels):
    pts = np.arange(10.0).reshape(5, 2)
    with pytest.raises(ValueError, match="labels for 5 points"):
        kmeans(pts, 2, labels=labels)


def _assert_same_clustering(pts, k, labels=None, seed=None):
    # NaN-aware: an overflowed inertia must repeat as NaN where the reference's does
    got = kmeans(pts, k, labels=labels, seed=seed)
    want = masked_mean_kmeans(pts, k, labels=labels, seed=seed)
    assert np.array_equal(got.assignment, want.assignment)
    assert np.array_equal(got.centroids, want.centroids, equal_nan=True)
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
        _assert_same_clustering(pts, k, labels=rng.permutation(labels))
        for seed in range(3):
            _assert_same_clustering(pts, k, seed=seed)


def test_kmeans_equals_masked_mean_reference_on_empty_cluster_repair():
    pts = np.array([[2.0], [3.0], [4.0], [0.0], [0.0], [0.0]])
    _assert_same_clustering(pts, 3, seed=0)


def test_kmeans_overflowed_inertia_runs_to_max_iter_as_the_reference():
    # every squared distance overflows, so the assignment settles at once, but
    # the inf/NaN inertia never meets the break rule: the reference runs
    # MAX_ITER passes, and the fixed-point shortcut must record them all
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(40, 3)) * 1e200
    labels = np.repeat(np.arange(4), 10)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _assert_same_clustering(pts, 4, labels=labels)
    assert got.n_iter == MAX_ITER
    assert len(got.inertia_history) == MAX_ITER
    assert not np.isfinite(got.inertia_history[-1])


def _count_assignment_passes(monkeypatch):
    calls = []

    def counting(screen, centroids):
        calls.append(1)
        return _assign(screen, centroids)

    monkeypatch.setattr(clustering, "_assign", counting)
    return calls


def test_kmeans_fixed_point_from_the_start(monkeypatch):
    # the user means are already a fixed point: one assignment pass, and the
    # second pass repeats its inertia, which meets the break rule
    rng = np.random.default_rng(12)
    labels = np.repeat(np.arange(3), 8)
    pts = rng.normal(scale=0.1, size=(24, 2)) + 100.0 * labels[:, None]
    got = _assert_same_clustering(pts, 3, labels=labels)
    assert got.n_iter == 2
    assert got.inertia_history[0] == got.inertia_history[1]
    assert np.array_equal(got.assignment, labels)
    calls = _count_assignment_passes(monkeypatch)
    kmeans(pts, 3, labels=labels)
    assert len(calls) == 1


def test_kmeans_ending_at_a_fixed_point_makes_n_iter_assignment_passes(monkeypatch):
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(120, 4))
    calls = _count_assignment_passes(monkeypatch)
    cl = kmeans(pts, 6, seed=1)
    assert cl.n_iter >= 3
    assert len(calls) == cl.n_iter  # no repeat pass, no final pass
    # it did end at a fixed point: one more pass changes nothing
    assert cl.inertia_history[-1] == cl.inertia_history[-2]
    assert np.array_equal(exact_assign(pts, cl.centroids), cl.assignment)
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
    # the K-Means screen's squared distances are the Gram expansion of the
    # rows centred on the centroids' mean and rounded to float32; clipped at
    # 0 they lie within matching's tau of the exact squared distances
    rng = np.random.default_rng(d)
    x = rng.normal(size=(50, d)) + offset
    c = rng.normal(size=(7, d)) + offset
    for y in (c, x):  # against centroids, and one set against itself
        screen = _Screen(x, y, _SQUARED, 1)  # as kmeans builds it
        assert screen.stack.dtype == np.float32
        centre = y.sum(axis=0) / y.shape[0]
        xc, yc = (x - centre).astype(np.float32), (y - centre).astype(np.float32)
        # the screen stacks the columns as (d, columns) tiles laid out row by
        # row and sums their squared norms down each tile's columns; the rows'
        # norms, a set against itself included, are _sq_norms of the rows
        yt = np.ascontiguousarray(yc.T)
        yy = np.einsum("ds,ds->s", yt, yt)
        want = -2.0 * (xc @ yt) + _sq_norms(xc)[:, None] + yy
        g = screen.rescreen(y)
        assert want.dtype == np.float32 and np.array_equal(g, want)
        exact = _exact(x, y, _SQUARED)
        assert np.all(np.abs(np.maximum(g, 0.0) - exact) <= screen.tau[:, None])
        assert np.array_equal(screen.nearest(g), exact.argmin(axis=1))


def test_sq_residuals_sums_the_squared_difference_to_the_gathered_centroids():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(30, 5)) + 1e4
    centroids = rng.normal(size=(3, 5)) + 1e4
    index = rng.integers(0, 3, 30)
    kept = centroids.copy()
    want = (pts - centroids[index]) ** 2
    assert np.array_equal(_sq_residuals(pts, centroids, index, axis=1), np.sum(want, axis=1))
    assert float(_sq_residuals(pts, centroids, index)) == float(np.sum(want))
    assert np.array_equal(centroids, kept)


def _labels(rng, n, k):
    """n labels over k distinct gapped user ids, each used at least once."""
    return 7 * _grouping(rng, n, k) - 3


@st.composite
def _kmeans_case(draw):
    kind = draw(st.sampled_from(["blobs", "offset_lattice", "duplicates", "two_values", "scale"]))
    d = draw(st.sampled_from([1, 2, 3, 8]))
    k = draw(st.integers(1, 6))
    n = k + draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "offset_lattice":  # near-ties: the steps round differently on 1e4
        pts = 1e4 + 1e-3 * rng.integers(0, 3, size=(n, d))
    elif kind == "duplicates":
        pts = rng.normal(size=(1 + n // 3, d))[rng.integers(0, 1 + n // 3, n)]
    elif kind == "two_values":  # more clusters than distinct points: the repair runs
        pts = rng.integers(0, 2, size=(n, d)).astype(float)
    elif kind == "scale":  # subnormal in float32, past float32's claim, overflow in float64
        pts = rng.normal(size=(n, d)) * draw(st.sampled_from([1e-40, 1e20, 1e155, 1e200]))
    else:
        pts = rng.normal(size=(n, d)) + 3.0 * rng.integers(0, k, size=(n, 1))
    if draw(st.booleans()):
        return pts, k, _labels(rng, n, k), None
    return pts, k, None, int(rng.integers(100))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_kmeans_case())
def test_kmeans_equals_exact_reference(case):
    pts, k, labels, seed = case
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_same_clustering(pts, k, labels=labels, seed=seed)


@pytest.mark.parametrize(
    "scale, claimed", [(1.0, True), (1e-40, True), (1e20, False), (1e155, False), (1e200, False)]
)
def test_screen_claims_the_bound_where_float32_holds(scale, claimed):
    # the scales the reference test draws reach both sides of the claim:
    # float32 (its subnormals included), and past it, where tau is infinite
    # and every pair is exact (its exact distances overflowing at 1e155 and 1e200)
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(30, 3)) * scale
    with np.errstate(over="ignore", invalid="ignore"):
        screen = _Screen(pts, pts[:4], _SQUARED, 1)  # as kmeans builds it
        assert screen.stack.dtype == np.float32
        assert bool(np.isfinite(screen.tau).all()) == claimed
        assert bool(np.isinf(screen.tau).all()) == (not claimed)
        _assert_same_clustering(pts, 4, labels=_labels(rng, 30, 4))


def _record_screens(monkeypatch):
    """Record every pass's centroids and the columns each screen call stacks."""
    passes, stacks = [], []
    rescreen, screen = _Screen.rescreen, matching._screen

    def recording_rescreen(self, centroids):
        passes.append(centroids.copy())
        return rescreen(self, centroids)

    def recording_screen(x, xx, stack, yy):
        stacks.append(np.concatenate(stack.transpose(0, 2, 1)))  # one row per column
        return screen(x, xx, stack, yy)

    monkeypatch.setattr(_Screen, "rescreen", recording_rescreen)
    monkeypatch.setattr(matching, "_screen", recording_screen)
    return passes, stacks


@pytest.mark.parametrize("init", ["user_means", "seeded_random"])
def test_kmeans_rescreens_only_the_centroids_that_moved(monkeypatch, init):
    rng = np.random.default_rng(8)
    n, k = 300, 12
    pts = rng.normal(size=(n, 16)) + 4.0 * rng.integers(0, k, size=(n, 1))
    labels, seed = (_labels(rng, n, k), None) if init == "user_means" else (None, 2)
    passes, stacks = _record_screens(monkeypatch)
    got = _assert_same_clustering(pts, k, labels=labels, seed=seed)
    assert len(passes) >= 3 and got.n_iter >= 3
    # the first pass screens every centroid, a later one the moved ones: each
    # stack holds exactly their rows less the first centroids' mean, in float32
    centre = passes[0].sum(axis=0) / k
    moved = [np.flatnonzero((b != a).any(axis=1)) for a, b in zip(passes, passes[1:])]
    cols = [passes[0]] + [b[m] for b, m in zip(passes[1:], moved) if m.size]
    assert len(stacks) == len(cols)
    for stack, want in zip(stacks, cols):
        assert np.array_equal(stack, (want - centre).astype(np.float32))
    assert sum(map(len, cols[1:])) < k * (len(passes) - 1)  # some centroids settled early


def test_kmeans_scores_exactly_only_points_near_a_tie(monkeypatch):
    scored, table = [], matching._exact

    def counting(x, y, metric=matching.EUCLIDEAN, *pairs):
        if metric == _SQUARED:
            scored.append(x.tolist())
        return table(x, y, metric, *pairs)

    monkeypatch.setattr(matching, "_exact", counting)
    rng = np.random.default_rng(4)
    n, k = 400, 10
    pts = rng.normal(size=(n, 32)) + 1e4
    _assert_same_clustering(pts, k, labels=_labels(rng, n, k))
    assert sum(map(len, scored)) <= n // 20  # points scored exactly
    # the user means are -2/3 and 2/3, so both points at 0 tie exactly: only
    # their rows are scored, and the first centroid takes them
    scored.clear()
    pts = np.array([[-1.0], [-1.0], [1.0], [1.0], [0.0], [0.0]])
    got = _assert_same_clustering(pts, 2, labels=[0, 0, 1, 1, 0, 1])
    assert scored == [[[0.0]], [[0.0]]]
    assert got.assignment.tolist() == [0, 0, 1, 1, 0, 0]
