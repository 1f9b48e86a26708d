import itertools
from math import comb

import numpy as np
import pytest

from selfgallery import selection
from selfgallery.clustering import (
    KMeansParams,
    _sq_dists,
    dominant_cluster_for_user,
    kmeans,
)
from selfgallery.selection import select_dend, select_kmeans, select_mdist

from conftest import make_templates
from oracles import MAX_SUM, MIN_SUM, oracle_subset_select, subset_objective


def _values(ts):
    return [t.sample.vector.tolist() for t in ts]


def _objective(ts):
    vecs = np.stack([t.sample.vector for t in ts])
    return subset_objective(_sq_dists(vecs, vecs), range(len(ts)))


def test_mdist_example():
    cands = make_templates([[0.0], [0.1], [0.2], [10.0]])
    chosen = select_mdist(cands, 3)
    assert _values(chosen) == [[0.0], [0.1], [0.2]]
    assert _objective(chosen) == pytest.approx(0.06)


def test_dend_example():
    cands = make_templates([[0.0], [0.1], [0.2], [10.0]])
    chosen = select_dend(cands, 3)
    assert _values(chosen) == [[0.0], [0.1], [10.0]]
    assert _objective(chosen) == pytest.approx(198.02)


def test_identity_when_not_over_cap():
    cands = make_templates([[0.0], [1.0]])
    assert select_mdist(cands, 2) == cands
    assert select_dend(cands, 3) == cands


def test_degenerate_identical_candidates_tie_rule():
    cands = make_templates([[5.0]] * 4, start_id=10)
    chosen = select_mdist(cands, 2)
    assert [t.sample.id for t in chosen] == [10, 11]
    chosen = select_dend(cands, 2)
    assert [t.sample.id for t in chosen] == [10, 11]


def test_dend_collinear_extremes():
    cands = make_templates([[0.0], [1.0], [2.0]])
    chosen = select_dend(cands, 2)
    assert _values(chosen) == [[0.0], [2.0]]


def test_rejects_bad_p():
    cands = make_templates([[0.0]])
    with pytest.raises(ValueError):
        select_mdist(cands, 0)
    with pytest.raises(ValueError):
        oracle_subset_select(cands, 0, MIN_SUM)


def test_oracle_examples():
    cands = make_templates([[0.0], [0.1], [0.2], [10.0]])
    assert _values(oracle_subset_select(cands, 3, MIN_SUM)) == [[0.0], [0.1], [0.2]]
    assert oracle_subset_select(cands, 4, MIN_SUM) == cands  # n = p identity
    # p=1 min: all singletons score 0, lowest id wins
    single = oracle_subset_select(cands, 1, MIN_SUM)
    assert [t.sample.id for t in single] == [0]


def test_oracle_equivalence_random():
    rng = np.random.default_rng(42)
    for trial in range(30):
        n = int(rng.integers(2, 13))
        p = int(rng.integers(1, min(n, 6) + 1))
        dim = int(rng.integers(1, 5))
        cands = make_templates(rng.normal(size=(n, dim)).tolist())
        for fast, obj in ((select_mdist, MIN_SUM), (select_dend, MAX_SUM)):
            a = [t.sample.id for t in fast(cands, p)]
            b = [t.sample.id for t in oracle_subset_select(cands, p, obj)]
            assert a == b, f"trial {trial}: {fast.__name__} {a} != oracle {b}"


def test_greedy_regime_sanity():
    # n large enough to exceed the exact enumeration budget
    rng = np.random.default_rng(5)
    n, p = 45, 8
    from math import comb

    assert comb(n, p) > 10**6
    cands = make_templates(rng.normal(size=(n, 3)).tolist())
    chosen = select_mdist(cands, p)
    assert len(chosen) == p
    assert {t.sample.id for t in chosen} <= {t.sample.id for t in cands}
    # greedy tight subset should beat keeping the p closest-to-medoid points
    # by construction; allow 2x slack (tolerance test, not a theorem)
    vecs = np.stack([t.sample.vector for t in cands])
    medoid = vecs.mean(axis=0)
    near = np.argsort(((vecs - medoid) ** 2).sum(axis=1))[:p]
    ref = subset_objective(_sq_dists(vecs, vecs), near)
    assert _objective(chosen) <= 2.0 * ref

    chosen_d = select_dend(cands, p)
    assert len(chosen_d) == p
    assert _objective(chosen_d) >= _objective(chosen)


def test_output_always_subset_of_candidates():
    rng = np.random.default_rng(9)
    cands = make_templates(rng.normal(size=(9, 2)).tolist())
    for p in (1, 3, 9, 12):
        for select in (select_mdist, select_dend):
            out = select(cands, p)
            assert len(out) == min(p, len(cands))
            assert {t.sample.id for t in out} <= {t.sample.id for t in cands}


def test_select_kmeans_example():
    a = make_templates([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]], start_id=0, user=1)
    b = make_templates([[10.0, 10.0], [9.9, 10.0]], start_id=10, user=2)
    out = select_kmeans({1: a, 2: b}, p=2)
    assert sorted(_values(out[1])) == [[0.0, 0.0], [0.1, 0.0]]
    assert sorted(_values(out[2])) == [[9.9, 10.0], [10.0, 10.0]]


def test_select_kmeans_identity_when_tight():
    rng = np.random.default_rng(2)
    cands = {
        u: make_templates(
            (rng.normal(scale=0.1, size=(3, 2)) + u * 100).tolist(),
            start_id=u * 10,
            user=u,
        )
        for u in (1, 2, 3)
    }
    out = select_kmeans(cands, p=3)
    for u in cands:
        assert {t.sample.id for t in out[u]} == {t.sample.id for t in cands[u]}


def test_select_kmeans_under_capacity_no_padding():
    a = make_templates([[0.0, 0.0]], start_id=0, user=1)
    b = make_templates([[10.0, 10.0], [9.9, 10.0]], start_id=10, user=2)
    out = select_kmeans({1: a, 2: b}, p=4)
    assert len(out[1]) == 1 and len(out[2]) == 2


def test_select_kmeans_candidate_order_invariance():
    rng = np.random.default_rng(3)
    a = make_templates((rng.normal(size=(5, 2))).tolist(), start_id=0, user=1)
    b = make_templates((rng.normal(size=(5, 2)) + 20).tolist(), start_id=10, user=2)
    out1 = select_kmeans({1: a, 2: b}, p=3)
    out2 = select_kmeans({1: a[::-1], 2: b[::-1]}, p=3)
    for u in (1, 2):
        assert [t.sample.id for t in out1[u]] == [t.sample.id for t in out2[u]]


def test_select_kmeans_rejects_empty_user():
    a = make_templates([[0.0]], user=1)
    with pytest.raises(ValueError):
        select_kmeans({1: a, 2: []}, p=2)


def test_select_kmeans_shared_cluster_never_donates():
    # both users' points land in one cluster; each still keeps only its own
    a = make_templates([[0.0, 0.0], [0.2, 0.0]], start_id=0, user=1)
    b = make_templates([[0.1, 0.0], [0.3, 0.0]], start_id=10, user=2)
    out = select_kmeans({1: a, 2: b}, p=2)
    assert all(t.sample.id < 10 for t in out[1])
    assert all(t.sample.id >= 10 for t in out[2])


def _reference_best(cands, p, maximize):
    """One subset_objective call per subset, lexicographic, strict improvement."""
    vecs = np.stack([t.sample.vector for t in cands])
    sqmat = _sq_dists(vecs, vecs)
    best_idx, best_obj = None, None
    for idx in itertools.combinations(range(len(cands)), p):
        obj = subset_objective(sqmat, idx)
        if best_obj is None or (obj > best_obj if maximize else obj < best_obj):
            best_obj, best_idx = obj, idx
    return [cands[i].sample.id for i in best_idx], best_obj


def _assert_matches_reference(cands, p, maximize):
    chosen = selection._enumerate_best(cands, p, maximize)
    ids, obj = _reference_best(cands, p, maximize)
    assert [t.sample.id for t in chosen] == ids
    vecs = np.stack([t.sample.vector for t in cands])
    sqmat = _sq_dists(vecs, vecs)
    pos = {t.sample.id: i for i, t in enumerate(cands)}
    assert subset_objective(sqmat, [pos[t.sample.id] for t in chosen]) == obj


def test_subset_objectives_bitwise_equal_subset_objective():
    rng = np.random.default_rng(5)
    for n, p, d in [(8, 3, 5), (9, 6, 16), (7, 2, 1), (10, 5, 64)]:
        x = rng.normal(size=(n, d))
        x[n // 2 :] = x[0]  # duplicate vectors
        sqmat = _sq_dists(x, x)
        combos = np.array(list(itertools.combinations(range(n), p)))
        fast = selection.subset_objectives(sqmat, combos)
        slow = [subset_objective(sqmat, c) for c in combos]
        assert fast.tolist() == slow


@pytest.mark.parametrize("maximize", [False, True])
def test_enumerate_best_matches_reference_loop_random(maximize):
    rng = np.random.default_rng(17)
    for _ in range(20):
        n, p = int(rng.integers(7, 12)), int(rng.integers(2, 7))
        cands = make_templates(rng.normal(size=(n, int(rng.integers(1, 9)))))
        _assert_matches_reference(cands, p, maximize)


@pytest.mark.parametrize("maximize", [False, True])
def test_enumerate_best_all_duplicates_takes_lowest_ids(maximize):
    cands = make_templates([[1.5, -2.0]] * 9)
    _assert_matches_reference(cands, 4, maximize)
    assert [t.sample.id for t in selection._enumerate_best(cands, 4, maximize)] == [0, 1, 2, 3]


@pytest.mark.parametrize("maximize", [False, True])
def test_enumerate_best_every_chunk_boundary(monkeypatch, maximize):
    # integer values with many exact ties; every chunk size puts a boundary
    # between some pair of tied subsets
    cands = make_templates([[0.0], [3.0], [0.0], [1.0], [3.0], [1.0], [0.0], [2.0]])
    for chunk in range(1, comb(8, 3) + 2):
        monkeypatch.setattr(selection, "EXACT_CHUNK", chunk)
        _assert_matches_reference(cands, 3, maximize)


def test_enumerate_best_optimum_in_later_chunk():
    # the optimum is the last of C(16, 6) = 8008 subsets, past the first chunk
    assert comb(16, 6) > selection.EXACT_CHUNK
    far = [[100.0 * (i + 1)] for i in range(10)]
    cands = make_templates(far + [[0.0]] * 6)
    chosen = selection._enumerate_best(cands, 6, maximize=False)
    assert [t.sample.id for t in chosen] == list(range(10, 16))  # the last subset
    _assert_matches_reference(cands, 6, False)


def test_enumerate_best_tie_across_chunk_boundary_keeps_earlier():
    # candidate 0 duplicates the tight cluster 10..15: the zero-sum subset
    # (0, 10..14) in the first chunk ties (10..15) in the second
    combos = list(itertools.combinations(range(16), 6))
    first, last = combos.index((0, 10, 11, 12, 13, 14)), combos.index(tuple(range(10, 16)))
    assert first // selection.EXACT_CHUNK < last // selection.EXACT_CHUNK
    far = [[100.0 * (i + 1)] for i in range(1, 10)]
    cands = make_templates([[0.0]] + far + [[0.0]] * 6)
    chosen = selection._enumerate_best(cands, 6, maximize=False)
    assert [t.sample.id for t in chosen] == [0, 10, 11, 12, 13, 14]
    _assert_matches_reference(cands, 6, False)


def _scan_select_kmeans(candidates_by_user, p):
    """select_kmeans as a per-user scan of the pool and a per-candidate loop."""
    users = sorted(candidates_by_user)
    pooled, labels = [], []
    for u in users:
        for t in sorted(candidates_by_user[u], key=lambda t: t.sample.id):
            pooled.append(t)
            labels.append(u)
    points = np.stack([t.sample.vector for t in pooled])
    cl = kmeans(points, KMeansParams(k=len(users)), labels=labels)
    result = {}
    for u in users:
        centroid = cl.centroids[dominant_cluster_for_user(cl, np.asarray(labels), u)]
        own = [t for t, lab in zip(pooled, labels) if lab == u]
        d2 = [float(np.sum((t.sample.vector - centroid) ** 2)) for t in own]
        order = np.argsort(d2, kind="stable")
        result[u] = [own[i] for i in order[: min(p, len(own))]]
    return result


def _ids_by_user(out):
    return {u: [t.sample.id for t in ts] for u, ts in out.items()}


@pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 16, 64, 128, 129])
def test_select_kmeans_equals_per_candidate_scan(d):
    rng = np.random.default_rng(d)
    cands = {}
    for u, n in [(6, 40), (2, 1), (9, 2), (4, 25)]:
        base = rng.normal(3.0 * u, 1.0, size=(n, d))
        base[n // 2 :] = base[: n - n // 2]  # duplicate vectors tie on distance
        ids = rng.permutation(n) + 100 * u  # candidate order is not id order
        cands[u] = [
            make_templates([v], start_id=int(i), user=u)[0] for i, v in zip(ids, base)
        ]
    for p in (1, 3, 6):
        want = _ids_by_user(_scan_select_kmeans(cands, p))
        assert _ids_by_user(select_kmeans(cands, p)) == want


@pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 16, 64, 128, 129])
def test_row_sums_equal_per_row_sums(d):
    rng = np.random.default_rng(d)
    points, centroid = rng.normal(size=(33, d)), rng.normal(size=d)
    rows = np.sum((points - centroid) ** 2, axis=1)
    assert rows.tolist() == [float(np.sum((x - centroid) ** 2)) for x in points]


@pytest.mark.parametrize("n, d", [(1, 1), (5, 2), (9, 16), (12, 64), (7, 129)])
def test_sq_dists_of_one_matrix_equals_gram_expansion(n, d):
    rng = np.random.default_rng(n * d)
    v = rng.normal(size=(n, d))
    v[n // 2 :] = v[: n - n // 2]
    sq = np.sum(v * v, axis=1)
    want = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (v @ v.T), 0.0)
    assert np.array_equal(_sq_dists(v, v), want)
