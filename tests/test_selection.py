import itertools
import sys
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfgallery import matching, selection
from selfgallery.clustering import Clustering, kmeans
from selfgallery.core import Dataset
from selfgallery.matching import _distances_to_rows
from selfgallery.selection import select, select_dend, select_kmeans, select_mdist

from conftest import make_sample, make_samples
from oracles import (
    MAX_SUM,
    MIN_SUM,
    dominant_cluster_for_user,
    oracle_subset_select,
    sq_norms_by_row,
    subset_objective,
)


def _block(ss):
    """The candidates' vectors as the (n, dim) block selection reads, in order."""
    return np.array([s.vector for s in ss])


def _values(ss):
    return [s.vector.tolist() for s in ss]


def _ids(ss):
    return [s.id for s in ss]


def _run(fn, cands, *args):
    """The sample ids at the positions ``fn(cands, *args)`` returns."""
    return [cands[i].id for i in fn(_block(cands), *args)]


def _chosen(fn, cands, *args):
    """The candidates at the positions ``fn(cands, *args)`` returns."""
    return [cands[i] for i in fn(_block(cands), *args)]


def _select_kmeans(candidates_by_user, p):
    """select_kmeans' kept pool positions as each user's kept samples, in order."""
    pool = [(u, s) for u in sorted(candidates_by_user) for s in candidates_by_user[u]]
    out = {u: [] for u in candidates_by_user}
    for i in select_kmeans({u: _block(c) for u, c in candidates_by_user.items()}, p).tolist():
        out[pool[i][0]].append(pool[i][1])
    return out


def _exact_sqmat(vecs):
    """Every pair's squared distance, row by row: row i holds the one-row
    einsums of the rows' coordinate differences to row i."""
    vecs = np.asarray(vecs)
    return np.stack([sq_norms_by_row(vecs - v) for v in vecs])


def _objective(ss):
    vecs = np.stack([s.vector for s in ss])
    return subset_objective(_exact_sqmat(vecs), range(len(ss)))


def test_mdist_example():
    cands = make_samples([[0.0], [0.1], [0.2], [10.0]])
    chosen = _chosen(select_mdist, cands, 3)
    assert _values(chosen) == [[0.0], [0.1], [0.2]]
    assert _objective(chosen) == pytest.approx(0.06)


def test_dend_example():
    cands = make_samples([[0.0], [0.1], [0.2], [10.0]])
    chosen = _chosen(select_dend, cands, 3)
    assert _values(chosen) == [[0.0], [0.1], [10.0]]
    assert _objective(chosen) == pytest.approx(198.02)


def test_identity_when_not_over_cap():
    cands = make_samples([[0.0], [1.0]])
    assert select_mdist(_block(cands), 2) == [0, 1]
    assert select_dend(_block(cands), 3) == [0, 1]


def test_degenerate_identical_candidates_tie_rule():
    cands = make_samples([[5.0]] * 4, start_id=10)
    assert _run(select_mdist, cands, 2) == [10, 11]
    assert _run(select_dend, cands, 2) == [10, 11]


def test_dend_collinear_extremes():
    cands = make_samples([[0.0], [1.0], [2.0]])
    chosen = _chosen(select_dend, cands, 2)
    assert _values(chosen) == [[0.0], [2.0]]


def test_rejects_bad_p():
    cands = make_samples([[0.0]])
    with pytest.raises(ValueError):
        select_mdist(_block(cands), 0)
    with pytest.raises(ValueError):
        oracle_subset_select(cands, 0, MIN_SUM)


def test_oracle_examples():
    cands = make_samples([[0.0], [0.1], [0.2], [10.0]])
    assert _values(oracle_subset_select(cands, 3, MIN_SUM)) == [[0.0], [0.1], [0.2]]
    assert oracle_subset_select(cands, 4, MIN_SUM) == cands  # n = p identity
    # p=1 min: all singletons score 0, lowest id wins
    single = oracle_subset_select(cands, 1, MIN_SUM)
    assert _ids(single) == [0]


def test_oracle_equivalence_random():
    rng = np.random.default_rng(42)
    for trial in range(30):
        n = int(rng.integers(2, 13))
        p = int(rng.integers(1, min(n, 6) + 1))
        dim = int(rng.integers(1, 5))
        cands = make_samples(rng.normal(size=(n, dim)).tolist())
        for fast, obj in ((select_mdist, MIN_SUM), (select_dend, MAX_SUM)):
            a = _run(fast, cands, p)
            b = _ids(oracle_subset_select(cands, p, obj))
            assert a == b, f"trial {trial}: {fast.__name__} {a} != oracle {b}"


def test_greedy_regime_sanity():
    # n large enough to exceed the exact enumeration budget
    rng = np.random.default_rng(5)
    n, p = 45, 8
    from math import comb

    assert comb(n, p) > 10**6
    cands = make_samples(rng.normal(size=(n, 3)).tolist())
    chosen = _chosen(select_mdist, cands, p)
    assert len(chosen) == p
    assert set(_ids(chosen)) <= set(_ids(cands))
    # greedy tight subset should beat keeping the p closest-to-medoid points
    # by construction; allow 2x slack (tolerance test, not a theorem)
    vecs = np.stack([s.vector for s in cands])
    medoid = vecs.mean(axis=0)
    near = np.argsort(((vecs - medoid) ** 2).sum(axis=1))[:p]
    ref = subset_objective(_exact_sqmat(vecs), near)
    assert _objective(chosen) <= 2.0 * ref

    chosen_d = _chosen(select_dend, cands, p)
    assert len(chosen_d) == p
    assert _objective(chosen_d) >= _objective(chosen)


def test_output_always_subset_of_candidates():
    rng = np.random.default_rng(9)
    cands = make_samples(rng.normal(size=(9, 2)).tolist())
    for p in (1, 3, 9, 12):
        for select in (select_mdist, select_dend):
            out = _chosen(select, cands, p)
            assert len(out) == min(p, len(cands))
            assert set(_ids(out)) <= set(_ids(cands))


def test_select_kmeans_example():
    a = make_samples([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]], start_id=0, user=1)
    b = make_samples([[10.0, 10.0], [9.9, 10.0]], start_id=10, user=2)
    out = _select_kmeans({1: a, 2: b}, p=2)
    assert sorted(_values(out[1])) == [[0.0, 0.0], [0.1, 0.0]]
    assert sorted(_values(out[2])) == [[9.9, 10.0], [10.0, 10.0]]


def test_select_kmeans_identity_when_tight():
    rng = np.random.default_rng(2)
    cands = {
        u: make_samples(
            (rng.normal(scale=0.1, size=(3, 2)) + u * 100).tolist(),
            start_id=u * 10,
            user=u,
        )
        for u in (1, 2, 3)
    }
    out = _select_kmeans(cands, p=3)
    for u in cands:
        assert set(_ids(out[u])) == set(_ids(cands[u]))


def test_select_kmeans_under_capacity_no_padding():
    a = make_samples([[0.0, 0.0]], start_id=0, user=1)
    b = make_samples([[10.0, 10.0], [9.9, 10.0]], start_id=10, user=2)
    out = _select_kmeans({1: a, 2: b}, p=4)
    assert len(out[1]) == 1 and len(out[2]) == 2


def test_select_kmeans_candidate_order_invariance():
    rng = np.random.default_rng(3)
    a = make_samples((rng.normal(size=(5, 2))).tolist(), start_id=0, user=1)
    b = make_samples((rng.normal(size=(5, 2)) + 20).tolist(), start_id=10, user=2)
    # the pool takes users in ascending key order, whatever the mapping's order
    out1 = select_kmeans({1: _block(a), 2: _block(b)}, p=3)
    out2 = select_kmeans({2: _block(b), 1: _block(a)}, p=3)
    assert out1.tolist() == out2.tolist()


def test_select_kmeans_rejects_empty_user():
    a = make_samples([[0.0]], user=1)
    with pytest.raises(ValueError):
        select_kmeans({1: _block(a), 2: _block([])}, p=2)


def _mixed(n, bad, start_id=0, user=1):
    """n samples of dim 2 but the one at ``bad`` (dim 1), in id order."""
    values = [[float(i)] if i == bad else [float(i), 0.0] for i in range(n)]
    return make_samples(values, start_id, user)


MISMATCH = "dimension mismatch: sample {} has dim 1, expected 2$"


def _selectors(p):
    """Every selection entry point, ``select`` under each method, called at
    ``p`` on one user's three candidates."""
    c = _block(make_samples([[0.0], [1.0], [3.0]]))
    return [lambda: select_mdist(c, p), lambda: select_dend(c, p), lambda: select_kmeans({1: c}, p)] + [
        lambda m=m: select(m, c, np.ones(3, np.int64), p) for m in ("keep_all", "kmeans", "mdist", "dend")
    ]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: select_mdist([], 2), "no candidates to select from"),
        (lambda: select_dend([], 2), "no candidates to select from"),
        (lambda: select_kmeans({1: _block(make_samples([[0.0]]))}, 0), "p must be positive"),
        # a bool p would keep one template; a float or str would fail inside comb or numpy, or pass
        *[(call, f"^p must be an integer, not {p!r}$") for p in (True, 2.0, "2") for call in _selectors(p)],
        # candidates are rows of one dataset, whose one stack (Dataset.of)
        # names the first sample of another dim, in id order
        (lambda: Dataset.of(_mixed(4, 2)), MISMATCH.format(2)),  # an exact search's size
        (lambda: Dataset.of(_mixed(33, 30)), MISMATCH.format(30)),  # a greedy search's size
        (lambda: Dataset.of(_mixed(3, None) + _mixed(4, 1, start_id=10, user=2)), MISMATCH.format(11)),
    ],
)
def test_boundary_checks_raise_their_messages(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_select_kmeans_shared_cluster_never_donates():
    # both users' points land in one cluster; each still keeps only its own
    a = make_samples([[0.0, 0.0], [0.2, 0.0]], start_id=0, user=1)
    b = make_samples([[0.1, 0.0], [0.3, 0.0]], start_id=10, user=2)
    out = _select_kmeans({1: a, 2: b}, p=2)
    assert all(s.id < 10 for s in out[1])
    assert all(s.id >= 10 for s in out[2])


def _reference_best(cands, p, maximize):
    """One subset_objective call per subset, lexicographic, strict improvement."""
    vecs = np.stack([s.vector for s in cands])
    sqmat = _exact_sqmat(vecs)
    best_idx, best_obj = None, None
    for idx in itertools.combinations(range(len(cands)), p):
        obj = subset_objective(sqmat, idx)
        if best_obj is None or (obj > best_obj if maximize else obj < best_obj):
            best_obj, best_idx = obj, idx
    return [cands[i].id for i in best_idx], best_obj


def _chunked_reference_ids(cands, p, maximize, chunk=1024):
    """Every subset scored by subset_objectives, in itertools chunks of ``chunk``
    in lexicographic order: the first optimum of a chunk, replaced by a later
    chunk only on strict improvement."""
    vecs = np.stack([s.vector for s in cands])
    sqmat = _exact_sqmat(vecs)
    combos = itertools.combinations(range(len(cands)), p)
    best_idx, best_obj = None, None
    while True:
        rows = np.fromiter(itertools.islice(combos, chunk), dtype=np.dtype((np.intp, (p,))))
        if not len(rows):
            break
        objs = selection.subset_objectives(sqmat, rows)
        i = int(np.argmax(objs) if maximize else np.argmin(objs))
        if best_obj is None or (objs[i] > best_obj if maximize else objs[i] < best_obj):
            best_obj, best_idx = objs[i], rows[i]
    return [cands[i].id for i in best_idx]


def _assert_matches_reference(cands, p, maximize):
    chosen = selection._enumerate_best(_block(cands), p, maximize)
    ids, obj = _reference_best(cands, p, maximize)
    assert [cands[i].id for i in chosen] == ids
    vecs = np.stack([s.vector for s in cands])
    assert subset_objective(_exact_sqmat(vecs), chosen) == obj


def test_subset_objectives_bitwise_equal_subset_objective():
    rng = np.random.default_rng(5)
    for n, p, d in [(8, 3, 5), (9, 6, 16), (7, 2, 1), (10, 5, 64)]:
        x = rng.normal(size=(n, d))
        x[n // 2 :] = x[0]  # duplicate vectors
        sqmat = _exact_sqmat(x)
        combos = np.array(list(itertools.combinations(range(n), p)))
        fast = selection.subset_objectives(sqmat, combos)
        slow = [subset_objective(sqmat, c) for c in combos]
        assert fast.tolist() == slow


@pytest.mark.parametrize("maximize", [False, True])
def test_enumerate_best_matches_reference_loop_random(maximize):
    rng = np.random.default_rng(17)
    for _ in range(20):
        n, p = int(rng.integers(7, 12)), int(rng.integers(2, 7))
        cands = make_samples(rng.normal(size=(n, int(rng.integers(1, 9)))))
        _assert_matches_reference(cands, p, maximize)


@pytest.mark.parametrize("maximize", [False, True])
def test_enumerate_best_all_duplicates_takes_lowest_ids(maximize):
    cands = make_samples([[1.5, -2.0]] * 9)
    _assert_matches_reference(cands, 4, maximize)
    assert _run(selection._enumerate_best, cands, 4, maximize) == [0, 1, 2, 3]


@pytest.mark.parametrize("maximize", [False, True])
def test_enumerate_best_every_chunk_boundary(monkeypatch, maximize):
    # integer values with many exact ties; every chunk size puts a boundary
    # between some pair of tied subsets
    cands = make_samples([[0.0], [3.0], [0.0], [1.0], [3.0], [1.0], [0.0], [2.0]])
    for chunk in range(1, comb(8, 3) + 2):
        monkeypatch.setattr(selection, "EXACT_CHUNK", chunk)
        _assert_matches_reference(cands, 3, maximize)


def test_enumerate_best_optimum_in_later_chunk():
    # the optimum is the last of C(16, 6) = 8008 subsets, past the first chunk
    assert comb(16, 6) > selection.EXACT_CHUNK
    far = [[100.0 * (i + 1)] for i in range(10)]
    cands = make_samples(far + [[0.0]] * 6)
    chosen = _run(selection._enumerate_best, cands, 6, False)
    assert chosen == list(range(10, 16))  # the last subset
    _assert_matches_reference(cands, 6, False)


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


@pytest.mark.parametrize("select, maximize", [(select_mdist, False), (select_dend, True)])
def test_prefix_tree_walk_takes_no_call_stack_per_level(monkeypatch, select, maximize):
    # at p = n - 1 with 5-subset blocks, the first subtree of each of about
    # n - 5 tree levels exceeds the chunk; a walk that recursed once per
    # level would need about 300 frames, more than the 200 left it here
    n = 300
    monkeypatch.setattr(selection, "EXACT_CHUNK", 5)
    cands = make_samples(np.random.default_rng(3).normal(size=(n, 2)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 200)
    try:
        chosen = _run(select, cands, n - 1)
    finally:
        sys.setrecursionlimit(limit)
    assert chosen == _reference_best(cands, n - 1, maximize)[0]


def test_enumerate_best_tie_across_chunk_boundary_keeps_earlier():
    # candidate 0 duplicates the tight cluster 10..15: the zero-sum subset
    # (0, 10..14) in the first chunk ties (10..15) in the second
    combos = list(itertools.combinations(range(16), 6))
    first, last = combos.index((0, 10, 11, 12, 13, 14)), combos.index(tuple(range(10, 16)))
    assert first // selection.EXACT_CHUNK < last // selection.EXACT_CHUNK
    far = [[100.0 * (i + 1)] for i in range(1, 10)]
    cands = make_samples([[0.0]] + far + [[0.0]] * 6)
    chosen = _run(selection._enumerate_best, cands, 6, False)
    assert chosen == [0, 10, 11, 12, 13, 14]
    _assert_matches_reference(cands, 6, False)


def _scan_select_kmeans(candidates_by_user, p):
    """select_kmeans as a per-user scan of the pool and a per-candidate loop."""
    users = sorted(candidates_by_user)
    pooled, labels = [], []
    for u in users:
        for s in sorted(candidates_by_user[u], key=lambda s: s.id):
            pooled.append(s)
            labels.append(u)
    points = np.stack([s.vector for s in pooled])
    cl = kmeans(points, len(users), labels=labels)
    result = {}
    for u in users:
        centroid = cl.centroids[dominant_cluster_for_user(cl, np.asarray(labels), u)]
        own = [s for s, lab in zip(pooled, labels) if lab == u]
        d2 = [float(np.sum((s.vector - centroid) ** 2)) for s in own]
        order = np.argsort(d2, kind="stable")
        result[u] = [own[i] for i in order[: min(p, len(own))]]
    return result


def _ids_by_user(out):
    return {u: _ids(ss) for u, ss in out.items()}


@pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 16, 64, 128, 129])
def test_select_kmeans_equals_per_candidate_scan(d):
    rng = np.random.default_rng(d)
    cands = {}
    for u, n in [(6, 40), (2, 1), (9, 2), (4, 25)]:
        base = rng.normal(3.0 * u, 1.0, size=(n, d))
        base[n // 2 :] = base[: n - n // 2]  # duplicate vectors tie on distance
        ids = rng.permutation(n) + 100 * u  # vectors drawn in another order than ids
        cands[u] = sorted(
            (make_sample(int(i), v, user=u) for i, v in zip(ids, base)), key=lambda s: s.id
        )
    for p in (1, 3, 6):
        want = _ids_by_user(_scan_select_kmeans(cands, p))
        assert _ids_by_user(_select_kmeans(cands, p)) == want


def _per_user_select_kmeans(candidates_by_user, p):
    """select_kmeans as one loop over users: a dominant-cluster scan of every
    label, a row sum over the user's slice and a stable argsort per user."""
    users = sorted(candidates_by_user)
    own = [sorted(candidates_by_user[u], key=lambda s: s.id) for u in users]
    labels = np.repeat(users, [len(c) for c in own])
    points = np.stack([s.vector for c in own for s in c])
    cl = selection.kmeans(points, len(users), labels=labels)
    result, hi = {}, 0
    for u, cands in zip(users, own):
        lo, hi = hi, hi + len(cands)
        centroid = cl.centroids[dominant_cluster_for_user(cl, labels, u)]
        d2 = np.sum((points[lo:hi] - centroid) ** 2, axis=1)
        order = np.argsort(d2, kind="stable")
        result[u] = [cands[i] for i in order[:p]]
    return result


def _lattice_candidates(rng, d):
    """2-6 users in random key order, 1-9 candidates each in id order (ids
    drawn in another order than the rows), on a small integer lattice with
    duplicated rows (equal distances)."""
    cands = {}
    for u in rng.choice(np.arange(1, 50), size=int(rng.integers(2, 7)), replace=False).tolist():
        n = int(rng.integers(1, 10))
        vecs = rng.integers(-2, 3, size=(n, d)).astype(float)
        vecs[n // 2 :] = vecs[: n - n // 2]
        ids = rng.choice(1000, size=n, replace=False) + 1000 * u
        cands[u] = sorted(
            (make_sample(int(i), v, user=u) for i, v in zip(ids, vecs)), key=lambda s: s.id
        )
    return cands


def _kmeans_situations(cands, cl, p):
    """Which of the tie and layout situations a clustering of ``cands`` hits."""
    users = sorted(cands)
    own = [cands[u] for u in users]
    labels = np.repeat(users, [len(c) for c in own])
    seen, doms = set(), []
    for u, c in zip(users, own):
        counts = np.bincount(cl.assignment[labels == u], minlength=len(cl.centroids))
        dom = dominant_cluster_for_user(cl, labels, u)
        d2 = [float(np.sum((s.vector - cl.centroids[dom]) ** 2)) for s in c]
        doms.append(dom)
        hits = {
            "below p": len(c) < p,
            "tied counts": np.sum(counts == counts.max()) > 1,
            "equal distances": len(set(d2)) < len(d2),
        }
        seen.update(name for name, hit in hits.items() if hit)
    if len(set(doms)) < len(doms):
        seen.add("shared cluster")
    return seen


@pytest.mark.parametrize("d", [1, 2, 128])
def test_select_kmeans_equals_per_user_loop(d, monkeypatch):
    rng = np.random.default_rng(100 + d)
    cases = [_lattice_candidates(rng, d) for _ in range(40)]
    for cands in cases:
        for p in (1, 3, 6):
            want = _ids_by_user(_per_user_select_kmeans(cands, p))
            assert _ids_by_user(_select_kmeans(cands, p)) == want
    # clusterings drawn to force tied dominant counts and shared clusters:
    # k users over at most k - 1 clusters, centroids on the lattice
    seen = set()
    for cands in cases:
        k, n = len(cands), sum(len(c) for c in cands.values())
        cl = Clustering(
            assignment=rng.integers(0, k - 1, size=n),
            centroids=rng.integers(-1, 2, size=(k, d)).astype(float),
            inertia_history=(0.0,),
        )
        monkeypatch.setattr(selection, "kmeans", lambda points, k, labels=None, seed=None: cl)
        for p in (1, 3, 6):
            want = _ids_by_user(_per_user_select_kmeans(cands, p))
            assert _ids_by_user(_select_kmeans(cands, p)) == want
        seen |= _kmeans_situations(cands, cl, 3)
    assert seen == {"below p", "tied counts", "equal distances", "shared cluster"}


@pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 16, 64, 128, 129])
def test_row_sums_equal_per_row_sums(d):
    rng = np.random.default_rng(d)
    points, centroid = rng.normal(size=(33, d)), rng.normal(size=d)
    rows = np.sum((points - centroid) ** 2, axis=1)
    assert rows.tolist() == [float(np.sum((x - centroid) ** 2)) for x in points]


@pytest.mark.parametrize("n, d", [(1, 1), (5, 2), (9, 16), (12, 64), (7, 129)])
def test_pair_matrix_is_bitwise_the_row_kernel(n, d, monkeypatch):
    rng = np.random.default_rng(n * d)
    v = rng.normal(size=(n, d)) + 1e4
    v[n // 2 :] = v[: n - n // 2]
    cands = _block(make_samples(v))
    want = _exact_sqmat(v)
    assert np.array_equal(selection._pair_matrix(cands), want)
    assert np.array_equal(want, want.T) and not want.diagonal().any()
    for i in range(n):  # the square roots are the matching kernel's distances
        assert np.sqrt(want[i]).tolist() == _distances_to_rows(v[i], v, "euclidean").tolist()
    monkeypatch.setattr(matching, "_GATHER", d)  # one row per block
    assert np.array_equal(selection._pair_matrix(cands), want)


def _greedy_by_list(cands, p, maximize):
    """_greedy_select with one Python-list cost per remaining candidate."""
    vecs = np.stack([s.vector for s in cands])
    sqmat = _exact_sqmat(vecs)
    iu = np.triu_indices(len(cands), k=1)
    pos = int(np.argmax(sqmat[iu]) if maximize else np.argmin(sqmat[iu]))
    chosen = [int(iu[0][pos]), int(iu[1][pos])]
    remaining = [i for i in range(len(cands)) if i not in chosen]
    while len(chosen) < p:
        costs = [float(np.sum(sqmat[i, chosen])) for i in remaining]
        j = int(np.argmax(costs) if maximize else np.argmin(costs))
        chosen.append(remaining.pop(j))
    return sorted(cands[i].id for i in chosen)


@pytest.mark.parametrize("maximize", [False, True])
def test_greedy_select_equals_per_candidate_list(maximize):
    rng = np.random.default_rng(31)
    for trial in range(60):
        n, d = int(rng.integers(4, 36)), int(rng.integers(1, 9))
        p = int(rng.integers(2, min(n, 20)))  # up to 18 chosen: past the 8-term sum unrolling
        if trial % 3 == 0:
            vecs = rng.normal(size=(n, d))
        elif trial % 3 == 1:
            vecs = rng.integers(-1, 2, size=(n, d)).astype(float)  # lattice: tied costs
        else:
            vecs = rng.normal(size=(n, d)) + 1e4
            vecs[n // 2 :] = vecs[: n - n // 2]  # duplicates
        cands = make_samples(vecs)
        got = _run(selection._greedy_select, cands, p, maximize)
        assert got == _greedy_by_list(cands, p, maximize), f"trial {trial}"


@pytest.mark.parametrize("select", [select_mdist, select_dend])
def test_p1_answers_lowest_id_without_a_matrix(select):
    # 50,000 candidates: one squared distance matrix would be 20 GB
    rng = np.random.default_rng(0)
    cands = _block(make_samples(rng.normal(size=(50_000, 2))))
    tracemalloc.start()
    try:
        chosen = select(cands, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chosen == [0]  # the first of the id-sorted candidates
    assert peak < 4 * 2**20


def _tie_heavy_vectors(draw, n, d, kind):
    ints = draw(st.lists(st.integers(0, 2), min_size=n * d, max_size=n * d))
    x = np.array(ints, dtype=float).reshape(n, d)
    if kind == "duplicates":
        keep = draw(st.integers(1, n))
        x = x[np.arange(n) % keep]
    elif kind == "offset_binary":
        x = 1e4 + x / 1024  # exact differences and squares, as under the oracle
    elif kind == "offset_decimal":
        x = 1e4 + x * 1e-3
    elif kind == "decimal":
        x = x * 0.1
    return x


@st.composite
def _tie_heavy(draw, kinds):
    n = draw(st.integers(2, 16))
    p = draw(st.integers(2, 7))
    d = draw(st.integers(1, 4))
    x = _tie_heavy_vectors(draw, n, d, draw(st.sampled_from(kinds)))
    chunk = draw(st.sampled_from([5, 64, selection.EXACT_CHUNK]))  # several blocks at any n
    return make_samples(x), p, chunk


def _with_chunk(chunk, fn, *args):
    saved, selection.EXACT_CHUNK = selection.EXACT_CHUNK, chunk
    try:
        return _run(fn, *args)
    finally:
        selection.EXACT_CHUNK = saved


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_tie_heavy(["lattice", "duplicates", "offset_binary"]))
def test_select_equals_oracle_on_exact_inputs(case):
    # small integers and 2**-10 steps keep every squared distance and sum
    # exact, in the exact matrix as in the oracle's coordinate differences
    cands, p, chunk = case
    assert _with_chunk(chunk, select_mdist, cands, p) == _ids(oracle_subset_select(cands, p, MIN_SUM))
    assert _with_chunk(chunk, select_dend, cands, p) == _ids(oracle_subset_select(cands, p, MAX_SUM))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_tie_heavy(["lattice", "duplicates", "offset_decimal", "decimal"]))
def test_select_equals_chunked_reference_on_tie_heavy_inputs(case):
    # 1e-3 steps on 1e4 round, so the oracle's sequential sums can break
    # last-ulp ties differently; the screen must still choose what scoring
    # every subset of the same matrix chooses
    cands, p, chunk = case
    for select, maximize in ((select_mdist, False), (select_dend, True)):
        want = _ids(cands) if len(cands) <= p else _chunked_reference_ids(cands, p, maximize)
        assert _with_chunk(chunk, select, cands, p) == want


# (case, method) pairs of the lattice cases below where the oracle's sequential
# sums break a last-ulp tie otherwise than the exact matrix's (the Gram matrix
# disagreed with the oracle on 114 of the 800)
_LATTICE_ULP_TIES = {
    (15, "dend"), (24, "dend"), (26, "mdist"), (28, "dend"), (37, "dend"), (41, "dend"),
    (43, "dend"), (56, "dend"), (66, "dend"), (67, "dend"), (68, "mdist"), (69, "dend"),
    (93, "dend"), (96, "mdist"), (99, "dend"), (125, "dend"), (141, "dend"), (163, "dend"),
    (170, "dend"), (183, "dend"), (191, "mdist"), (194, "dend"), (212, "mdist"),
    (216, "dend"), (225, "dend"), (234, "dend"), (254, "dend"), (257, "dend"),
    (260, "dend"), (274, "dend"), (274, "mdist"), (282, "dend"), (369, "dend"),
    (379, "mdist"), (386, "dend"),
}  # fmt: skip


def test_select_equals_oracle_on_offset_lattices():
    # 400 lattices 1e4 + 1e-3 * {0, 1, 2}: every choice is the oracle's, but
    # for the listed last-ulp ties, where both choices' oracle objectives
    # agree to within one ulp
    disagree = set()
    for case in range(400):
        rng = np.random.default_rng(case)
        n, p, d = int(rng.integers(7, 17)), int(rng.integers(2, 7)), int(rng.integers(1, 5))
        cands = make_samples(1e4 + 1e-3 * rng.integers(0, 3, size=(n, d)))
        for select, objective, name in ((select_mdist, MIN_SUM, "mdist"), (select_dend, MAX_SUM, "dend")):
            got, want = _chosen(select, cands, p), oracle_subset_select(cands, p, objective)
            if got != want:
                disagree.add((case, name))
                a, b = _oracle_objective(got), _oracle_objective(want)
                assert abs(a - b) <= np.spacing(max(a, b)), (case, name)
    assert disagree == _LATTICE_ULP_TIES


def _oracle_objective(ts):
    """The oracle's objective: sequential sums of coordinate differences squared."""
    vecs = [s.vector.tolist() for s in ts]
    return sum(
        sum((a - b) ** 2 for a, b in zip(vecs[i], vecs[j]))
        for i, j in itertools.combinations(range(len(vecs)), 2)
    )


@pytest.mark.parametrize(
    "tenths, maximize", [([3, 1, 1, 3, 0, 3, 1], False), ([3, 3, 2, 0, 1, 2], True)]
)
def test_enumerate_best_band_keeps_optimum_whose_screen_rounds_worse(tenths, maximize):
    # the first optimum's screen, summed in another order, rounds worse than
    # a later subset's; the band must keep it, as scoring every subset would
    cands = make_samples(0.1 * np.array(tenths, dtype=float)[:, None])
    assert _run(selection._enumerate_best, cands, 5, maximize) == _chunked_reference_ids(
        cands, 5, maximize
    )


def _count_scored(monkeypatch):
    """Record how many subsets each subset_objectives call scores."""
    scored, score = [], selection.subset_objectives

    def counting(sqmat, combos):
        scored.append(len(combos))
        return score(sqmat, combos)

    monkeypatch.setattr(selection, "subset_objectives", counting)
    return scored


@pytest.mark.parametrize("maximize", [False, True])
def test_enumerate_best_scores_only_the_band_exactly(monkeypatch, maximize):
    scored = _count_scored(monkeypatch)
    rng = np.random.default_rng(3)
    for n, d in [(16, 1), (16, 8), (20, 64)]:
        cands = make_samples(rng.normal(size=(n, d)))
        want = _chunked_reference_ids(cands, 6, maximize)
        scored.clear()
        assert _run(selection._enumerate_best, cands, 6, maximize) == want
        assert sum(scored) <= comb(n, 6) // 100


@pytest.mark.parametrize("maximize", [False, True])
def test_enumerate_best_scores_every_tied_subset(monkeypatch, maximize):
    scored = _count_scored(monkeypatch)
    cands = make_samples([[1.5, -2.0]] * 14)  # every subset sums to 0
    assert _run(selection._enumerate_best, cands, 6, maximize) == list(range(6))
    assert sum(scored) == comb(14, 6)


def _first_band(cands, p, maximize):
    """The index rows of the first block's band, before any incumbent."""
    screen, subsets = next(selection._blocks(selection._pair_matrix(_block(cands)), p))
    delta = 8 * (p * (p - 1) // 2) * selection._UNIT_ROUNDOFF
    return subsets(selection._band(screen, -np.inf if maximize else np.inf, maximize, delta)).tolist()


def _oracle_ids(cands, p, maximize):
    return _ids(oracle_subset_select(cands, p, MAX_SUM if maximize else MIN_SUM))


@pytest.mark.parametrize("select", [select_mdist, select_dend])
def test_table_band_of_one_subset_is_not_scored(monkeypatch, select):
    maximize = select is select_dend
    scored = _count_scored(monkeypatch)
    rng = np.random.default_rng(25)
    for n in (7, 10, 15):
        cands = make_samples(rng.normal(size=(n, 3)))
        assert _reads_the_table(n, 6) and len(_first_band(cands, 6, maximize)) == 1
        assert _run(select, cands, 6) == _oracle_ids(cands, 6, maximize)
    assert scored == []


@pytest.mark.parametrize(
    "values, maximize",
    [
        # the first block (prefix 0, 1) keeps only (0, ..., 5); the cluster
        # 9..15 ties (9, 10, 11, 12, 13, 15) with (9, 10, 11, 13, 14, 15)
        ([0, 40, 90, 150, 220, 300, 390, 490, 600, 1000, 1000, 1000, 1001, 1000, 1001, 1000], False),
        # the first block keeps only (0, 1, 11, ..., 14); samples 2 and 3 share
        # one point, so (2, 10, ..., 14) ties (3, 10, ..., 14)
        ([0, 1, -1031, -1031, 2, 3, 4, 5, 6, 7, 1003, 1011, -1040, 1023, -1050, 8], True),
    ],
)
def test_walk_scores_a_lone_first_band_once_a_later_block_beats_it(monkeypatch, values, maximize):
    cands = make_samples([[float(v)] for v in values])
    assert not _reads_the_table(16, 6)
    first = _first_band(cands, 6, maximize)
    scored = _count_scored(monkeypatch)
    chosen = _run(selection._enumerate_best, cands, 6, maximize)
    assert len(first) == 1 and chosen != first[0]
    assert chosen == _oracle_ids(cands, 6, maximize)  # integer sums: exact, ties included
    assert scored[0] == 1  # the lone incumbent, scored when the second block needs its value


def test_enumerate_best_at_the_budget_holds_no_subset_table():
    n, p = 32, 6
    assert comb(n, p) <= selection.EXACT_BUDGET < comb(n + 1, p)
    cands = make_samples(np.random.default_rng(8).normal(size=(n, 4)))
    tracemalloc.start()
    try:
        chosen = _run(selection._enumerate_best, cands, p, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # the C(32, 6) x 6 index table alone is 43.5 MB
    assert chosen == _chunked_reference_ids(cands, p, maximize=False)


def test_enumerate_best_at_a_large_p_keeps_the_tree():
    # C(200, 199) = 200 subsets make one block, but their 199 x 198 / 2 pairs
    # each would make a 31.5 MB pair index
    n, p = 200, 199
    cands = make_samples(np.random.default_rng(9).normal(size=(n, 2)))
    tracemalloc.start()
    try:
        chosen = _run(selection._enumerate_best, cands, p, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert chosen == _chunked_reference_ids(cands, p, maximize=False, chunk=4)


@pytest.mark.parametrize(
    "n, p", [(7, 6), (12, 6), (15, 6), (20, 3), (45, 2), (9, 1), (5, 5), (55, 54)]
)
def test_subset_table_rows_and_pairs(n, p):
    rows, pairs = selection._subset_table(n, p)
    assert rows.tolist() == [list(c) for c in itertools.combinations(range(n), p)]
    assert rows.dtype == np.uint8 and pairs.dtype == np.intp  # one byte per index at n <= 256
    assert not rows.flags.writeable and not pairs.flags.writeable
    assert pairs.shape == (p * (p - 1) // 2, len(rows))
    for row, flat in zip(rows.tolist(), pairs.T.tolist()):
        assert [divmod(f, n) for f in flat] == list(itertools.combinations(row, 2))


def _reads_the_table(n, p):
    """The table rule of ``_blocks``: is (n, p)'s subset table the only block?"""
    count, chunk = comb(n, p), selection.EXACT_CHUNK
    return count <= 5 * chunk and count * (p * (p - 1) // 2) <= 80 * chunk


def _admitted():
    """Every (n, p), 2 <= p < n, whose subset table ``_blocks`` reads."""
    out, p = [], 2
    while _reads_the_table(p + 1, p):  # C(p + 1, p) = p + 1 subsets: the least count at p
        n = p + 1
        while _reads_the_table(n, p):
            out.append((n, p))
            n += 1
        p += 1
    return out


def test_subset_table_cache_worst_case():
    admitted = _admitted()
    assert [n for n, p in admitted if p == 6] == list(range(7, 16))
    assert max(n for n, _ in admitted) == 101  # so one byte holds every index
    sizes = {}
    for n, p in admitted:
        rows, pairs = selection._subset_table.__wrapped__(n, p)  # uncached: every entry once
        sizes[n, p] = rows.nbytes + pairs.nbytes
    largest = max(sizes, key=sizes.get)
    assert (largest, sizes[largest]) == ((55, 54), 632_610)  # as the module states
    maxsize = selection._subset_table.cache_info().maxsize
    assert maxsize * sizes[largest] <= 8 * 2**20
    # every (n, 6) the workloads reach (n <= 15 on the table) stays cached
    selection._subset_table.cache_clear()
    for _ in range(2):
        for n in range(7, 16):
            selection._subset_table(n, 6)
    info = selection._subset_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (9, 9, 9)


@pytest.mark.parametrize("n, p", [(15, 6), (55, 54)])
def test_enumerate_best_at_the_largest_table_holds_little(n, p):
    assert _reads_the_table(n, p) and not _reads_the_table(n + 1, p)
    cands = make_samples(np.random.default_rng(10).normal(size=(n, 4)))
    selection._subset_table.cache_clear()
    peaks = []
    for _ in range(2):  # the table's build, then a call on the cached table
        tracemalloc.start()
        try:
            chosen = _run(selection._enumerate_best, cands, p, False)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert chosen == _chunked_reference_ids(cands, p, maximize=False)
    # the table is 0.6 MB and its screen gathers as many doubles; the
    # gather must not copy the read-only index
    assert peaks[0] < 2 * 2**20 and peaks[1] < 2**20


def _count_children(monkeypatch):
    calls, children = [], selection._children

    def counting(*args):
        calls.append(1)
        return children(*args)

    monkeypatch.setattr(selection, "_children", counting)
    return calls


@pytest.mark.parametrize("maximize", [False, True])
def test_enumerate_best_one_block_reads_the_subset_table(monkeypatch, maximize):
    calls = _count_children(monkeypatch)
    rng = np.random.default_rng(21)
    # every admitted (n, 6), C(15, 6) = 5,005 > EXACT_CHUNK included, (14, 7),
    # and (101, 2), the last n whose C(n, 2) <= 5 x EXACT_CHUNK
    for n, p in [(n, 6) for n in range(7, 16)] + [(14, 7), (101, 2)]:
        assert _reads_the_table(n, p)
        cands = make_samples(rng.normal(size=(n, 4)))
        assert _run(selection._enumerate_best, cands, p, maximize) == _chunked_reference_ids(
            cands, p, maximize
        )
    assert calls == []


@pytest.mark.parametrize("maximize", [False, True])
def test_enumerate_best_over_one_chunk_walks_the_tree(monkeypatch, maximize):
    calls = _count_children(monkeypatch)
    rng = np.random.default_rng(22)
    # the first n past each bound: C(16, 6) x 15 pair entries, and C(102, 2)
    # subsets, whose 5,151 pair entries alone would pass
    for n, p in [(16, 6), (102, 2)]:
        assert not _reads_the_table(n, p) and _reads_the_table(n - 1, p)
        cands = make_samples(rng.normal(size=(n, 4)))
        calls.clear()
        assert _run(selection._enumerate_best, cands, p, maximize) == _chunked_reference_ids(
            cands, p, maximize
        )
        assert calls


@pytest.mark.parametrize("maximize", [False, True])
@pytest.mark.parametrize("kind", ["normal", "lattice", "offset_lattice", "overflowing"])
def test_subset_table_equals_the_tree_at_the_admitted_sizes(monkeypatch, kind, maximize):
    calls = _count_children(monkeypatch)
    rng = np.random.default_rng(24)
    for n, p in [(13, 6), (14, 6), (15, 6), (14, 7)]:
        d = int(rng.integers(1, 4))
        if kind == "normal":
            cands = make_samples(rng.normal(size=(n, d)))
        elif kind == "lattice":  # many exact ties
            cands = make_samples(rng.integers(0, 3, size=(n, d)).astype(float))
        elif kind == "offset_lattice":  # ties up to the last ulp
            cands = make_samples(1e4 + 1e-3 * rng.integers(0, 3, size=(n, d)))
        else:
            cands = _overflowing_samples(n)
        with np.errstate(over="ignore", invalid="ignore"):
            calls.clear()
            table = _run(selection._enumerate_best, cands, p, maximize)
            assert calls == []
            # the tree walk, in blocks of at most 64 subsets
            tree = _with_chunk(64, selection._enumerate_best, cands, p, maximize)
            assert calls
            assert table == tree == _chunked_reference_ids(cands, p, maximize)


def _overflowing_samples(n):
    # three positive vectors near 1e155: their differences to a small vector
    # square to inf, so every subset holding one of them and a small vector
    # has an inf objective; the other pairs stay finite
    rng = np.random.default_rng(23)
    x = rng.normal(size=(n, 2))
    x[[4, 7, n - 1]] = 1e155 * (1 + np.abs(x[[4, 7, n - 1]]))
    return make_samples(x)


@pytest.mark.parametrize(
    "select, want",
    [(select_mdist, [0, 1, 2, 3, 5, 8]), (select_dend, [0, 1, 2, 3, 4, 5])],
    ids=["select_mdist", "select_dend"],
)
def test_overflowed_screen_in_one_block_keeps_every_subset(select, want):
    cands = _overflowing_samples(10)
    assert comb(10, 6) <= selection.EXACT_CHUNK
    with np.errstate(over="ignore", invalid="ignore"):
        sqmat = selection._pair_matrix(_block(cands))
        assert np.isinf(sqmat).any() and not np.isnan(sqmat).any()
        assert want == _chunked_reference_ids(cands, 6, select is select_dend, chunk=selection.EXACT_CHUNK)
        assert _run(select, cands, 6) == want
    # MDIST keeps the small vectors; DEND the first subset whose objective is inf
    assert np.isfinite(_objective([cands[i] for i in want])) == (select is select_mdist)


@pytest.mark.parametrize("select", [select_mdist, select_dend])
def test_overflowed_screen_over_several_blocks_keeps_the_first_optimum(select):
    cands = _overflowing_samples(16)
    assert comb(16, 6) > selection.EXACT_CHUNK
    with np.errstate(over="ignore", invalid="ignore"):
        ids = _run(select, cands, 6)
        # without NaN the first optimum in lexicographic order wins, whatever the blocks
        for chunk in (5, 64, selection.EXACT_CHUNK):
            assert ids == _chunked_reference_ids(cands, 6, select is select_dend, chunk=chunk)
    assert len(set(ids)) == 6 and set(ids) <= set(range(16))


def _select_as_engine_branched(method, candidates, p):
    """Each user's kept ids under the per-method branch run_update_cycle held
    before ``select``."""
    if method == selection.KEEP_ALL:
        return _ids_by_user(candidates)
    if method == selection.KMEANS:
        return _ids_by_user(_select_kmeans(candidates, p))
    pick = selection.select_mdist if method == selection.MDIST else selection.select_dend
    return {u: _run(pick, cands, p) for u, cands in candidates.items()}


def _rows(candidates):
    """Every user's candidates, users ascending, and each row's owner."""
    users = sorted(candidates)
    samples = [s for u in users for s in candidates[u]]
    return samples, np.repeat(np.array(users, dtype=np.int64), [len(candidates[u]) for u in users])


@pytest.mark.parametrize("method", selection.METHODS)
def test_select_equals_the_engine_branch(method):
    rng = np.random.default_rng(11)
    cands = {
        u: make_samples((rng.normal(size=(n, 3)) + 4 * u).tolist(), start_id=10 * u, user=u)
        for u, n in ((3, 9), (1, 2), (2, 7))
    }
    samples, owner = _rows(cands)
    out = select(method, _block(samples), owner, 4).tolist()
    want = _select_as_engine_branched(method, cands, 4)
    assert {u: [samples[i].id for i in out if owner[i] == u] for u in cands} == want


def test_select_calls_the_module_attribute(monkeypatch):
    calls = []

    def traced(candidates, p):
        calls.append(len(candidates))
        return select_mdist(candidates, p)

    monkeypatch.setattr(selection, "select_mdist", traced)
    samples, owner = _rows(
        {1: make_samples([[0.0], [1.0], [3.0]], user=1), 2: make_samples([[9.0]], 10, 2)}
    )
    out = select(selection.MDIST, _block(samples), owner, 2)
    assert calls == [3, 1]
    assert [samples[i].id for i in out.tolist()] == [0, 1, 10]


def test_select_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown selection method"):
        samples, owner = _rows({1: make_samples([[0.0]])})
        select("median", _block(samples), owner, 1)
