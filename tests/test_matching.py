import itertools
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfgallery import matching, metrics
from selfgallery.clustering import kmeans
from selfgallery.core import Batch
from selfgallery.matching import (
    _BLOCK,
    _GATHER,
    METRICS,
    _TILE,
    ThresholdPolicy,
    _distances_to_rows,
    classify_batch,
    estimate_threshold,
    impostor_pool,
)
from selfgallery.metrics import distance_columns

from conftest import enroll, gallery_1d, gallery_templates, make_sample, probe_batch, samples_of, screen_gallery
from oracles import masked_mean_kmeans, sq_norms_by_row


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
    decisions = classify_batch(probe_batch((make_sample(9, [0.0]),)), g, t)
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
    for q in ("0.5", b"\x01", [0.5]):  # a ValueError, not the comparison's TypeError
        with pytest.raises(ValueError):
            ThresholdPolicy(q=q)


@pytest.mark.parametrize(
    "factory, q, message",
    [
        ("far_quantile", None, r"far_quantile needs q strictly in \(0, 1\)"),
        ("far_quantile", 1.0, r"far_quantile needs q strictly in \(0, 1\)"),
        ("far_quantile", "0.5", r"^q must be a real number, not '0\.5'$"),  # not a TypeError
        ("far_quantile", True, "^q must be a real number, not True$"),
    ],
)
def test_boundary_checks_raise_their_messages(factory, q, message):
    with pytest.raises(ValueError, match=message):
        getattr(ThresholdPolicy, factory)(q)


def test_classify_batch_examples(abc_gallery):
    batch = probe_batch(
        (
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
    batch = probe_batch((make_sample(10, [0.4]),))
    (d,) = classify_batch(batch, abc_gallery, t_star=0.4)
    assert not d.accepted  # distance to A's 0.0 is exactly t*


def test_classify_batch_decisions_respect_threshold(abc_gallery):
    rng = np.random.default_rng(0)
    batch = probe_batch(
        tuple(
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
    templates = gallery_templates(abc_gallery)
    for u in abc_gallery.user_ids:
        others = enroll([(v, s) for v in templates if v != u for s in templates[v]])
        probes = probe_batch(tuple(templates[u]))
        assert not any(d.accepted for d in classify_batch(probes, others, t))


def test_classify_invariant_under_user_permutation():
    rng = np.random.default_rng(1)
    values = {u: list(rng.normal(u * 10.0, 1.0, 3)) for u in (1, 2, 3)}
    probes = tuple(
        make_sample(50 + i, [float(v)]) for i, v in enumerate(rng.uniform(0, 30, 20))
    )
    batch = probe_batch(probes)
    base = None
    for perm in itertools.permutations((1, 2, 3)):
        g = gallery_1d({u: values[u] for u in perm})
        out = [(d.accepted, d.label, round(d.distance, 12)) for d in classify_batch(batch, g, 1.5)]
        if base is None:
            base = out
        assert out == base


@pytest.mark.parametrize("call", [
    lambda g: classify_batch(Batch(g.dataset, [], 1), g, 1.0, "cosine"),  # no probe
    lambda g: distance_columns(Batch(g.dataset, [], 1), [], "cosine"),  # no sample
    lambda g: estimate_threshold(gallery_1d({1: [0.0, 1.0]}), metric="cosine"),  # no pair
    lambda g: impostor_pool(gallery_1d({1: [0.0, 1.0]}), "cosine"),
    lambda g: estimate_threshold(g, metric="cosine"),
    lambda g: impostor_pool(g, "cosine"),
])
def test_an_unknown_metric_is_refused_before_any_work(abc_gallery, monkeypatch, call):
    # as EngineConfig refuses it: even where there is nothing to compute
    for module in (matching, metrics):
        monkeypatch.setattr(module, "_exact", lambda *args: pytest.fail("computed a distance"))
    with pytest.raises(ValueError, match="unknown metric: 'cosine'"):
        call(abc_gallery)


def _masked_pool(gallery, metric):
    """impostor_pool as one owner mask per row over every later row."""
    mat, owners = gallery.vectors, gallery.owner
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
        g = enroll([pairs[i] for i in order])
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


def _classify_by_row(batch, gallery, t_star, metric):
    """classify_batch as one exact distance row per probe, first column on ties;
    the label is the nearest owner whether or not the probe is accepted."""
    mat, owners = gallery.vectors, gallery.owner
    out = []
    for s in samples_of(batch):
        dists = _distances_to_rows(s.vector, mat, metric)
        i = int(np.argmin(dists))
        d = float(dists[i])
        out.append((s.id, d < t_star, d, int(owners[i])))
    return out


@pytest.mark.parametrize("offset", [0.0, 1e4])  # a common offset widens the band
@pytest.mark.parametrize("dim", [1, 2, 64, 128, 129])
def test_classify_batch_equals_row_by_row(dim, offset):
    rng = np.random.default_rng(dim)
    for counts in ([int(c) for c in rng.integers(1, 9, 20)], [1] * 90):
        g, shared = screen_gallery(rng, dim, counts, offset)
        mat = g.vectors
        probes = [shared, mat[0], mat[-1]]  # exact hits, one across users
        probes += list(rng.normal(2.0, 1.5, (2 * _BLOCK + 7, dim)) + offset)
        probes += [mat[i] + rng.normal(0.0, 1e-9, dim) for i in range(0, len(mat), 7)]
        batch = probe_batch(tuple(make_sample(1000 + i, v) for i, v in enumerate(probes)))
        for metric in METRICS:
            q20 = estimate_threshold(g, ThresholdPolicy.far_quantile(0.2), metric)
            for t in (q20, math.inf):
                decisions = classify_batch(batch, g, t, metric)
                got = [(d.sample_id, d.accepted, d.distance, d.label) for d in decisions]
                assert got == _classify_by_row(batch, g, t, metric)


@pytest.mark.parametrize("probes", [1, _BLOCK, 2 * _BLOCK + 7])
def test_l1_classify_scores_one_exact_table_per_block(monkeypatch, probes):
    rng = np.random.default_rng(probes)
    g, _ = screen_gallery(rng, 5, [3, 1, 4, 2], 0.0)
    batch = probe_batch(tuple(make_sample(100 + i, rng.normal(2.0, 1.5, 5)) for i in range(probes)))
    exact, rows = matching._exact, []

    def tables(x, y, metric, ix=None, iy=None):
        if ix is None:
            rows.append(len(x))
        return exact(x, y, metric, ix, iy)

    monkeypatch.setattr(matching, "_exact", tables)
    got = [(d.sample_id, d.accepted, d.distance, d.label) for d in classify_batch(batch, g, 1.0, "l1")]
    # tables of at most _BLOCK probes against the whole gallery, then each
    # probe's nearest distance
    assert rows == [min(_BLOCK, probes - lo) for lo in range(0, probes, _BLOCK)]
    assert got == _classify_by_row(batch, g, 1.0, "l1")


@pytest.mark.parametrize("offset", [0.0, 1e4])
def test_classify_tie_across_users_takes_the_lowest_index(offset):
    v = np.array([3.0, 4.0]) + offset
    g = enroll([(7, make_sample(0, v + 1.0, user=7)), (5, make_sample(1, v, user=5)),
                        (2, make_sample(2, v + 2.0, user=2)), (7, make_sample(3, v, user=7))])
    for metric in METRICS:
        (d,) = classify_batch(probe_batch((make_sample(9, v),)), g, math.inf, metric)
        assert (d.label, d.distance) == (5, 0.0)  # users 5 and 7 hold v; 5's row comes first


@pytest.mark.parametrize("offset", [0.0, 1e4])
@pytest.mark.parametrize("dim", [1, 2, 64, 128, 129])
def test_estimate_threshold_equals_sorted_pool(dim, offset):
    rng = np.random.default_rng(100 + dim)
    # [50, 30, 20]: user 2's segment straddles a _BLOCK boundary; [66, 1]:
    # one-template last user, its one partner screened by two blocks
    randoms = [int(c) for c in rng.integers(1, 9, 20)]
    for counts in (randoms, [1] * 90, [2, 70], [50, 30, 20], [66, 1]):
        g, _ = screen_gallery(rng, dim, counts, offset)
        pool = np.sort(impostor_pool(g))
        assert estimate_threshold(g, ThresholdPolicy.zero_far()) == float(pool[0])
        for q in (1e-6, 0.01, 0.2, 0.5, 0.999999):
            k = max(0, math.ceil(q * pool.size) - 1)
            assert estimate_threshold(g, ThresholdPolicy.far_quantile(q)) == float(pool[k])
    single, _ = screen_gallery(rng, dim, [5], offset)
    for metric in ("euclidean", "l1"):
        with pytest.raises(ValueError, match="cross-user"):
            estimate_threshold(single, ThresholdPolicy.zero_far(), metric)


@pytest.mark.parametrize("offset", [0.0, 1e4])
@pytest.mark.parametrize(
    "dim, rows",
    [
        (4100, 70),  # d > _TILE / _BLOCK: a full block's tile holds one column
        (100, 113),  # 40-column tiles over 113 columns; a 49-row last block
    ],
)
def test_screen_tile_edges(dim, rows, offset):
    step = max(1, _TILE // (_BLOCK * dim))  # columns per tile of a full block
    assert step == 1 if dim > 4096 else rows % step != 0  # else a partial last tile
    assert rows % _BLOCK != 0  # the last row block is short
    rng = np.random.default_rng(dim)
    g, shared = screen_gallery(rng, dim, [3, 2, 1, 4] * (rows // 10) + [1] * (rows % 10), offset)
    mat = g.vectors
    assert mat.shape[0] == rows
    probes = [shared, mat[-1]] + list(rng.normal(2.0, 1.5, (_BLOCK + 7, dim)) + offset)
    batch = probe_batch(tuple(make_sample(1000 + i, v) for i, v in enumerate(probes)))
    pool = np.sort(impostor_pool(g))
    assert estimate_threshold(g, ThresholdPolicy.zero_far()) == float(pool[0])
    for q in (0.01, 0.2):
        t = estimate_threshold(g, ThresholdPolicy.far_quantile(q))
        assert t == float(pool[max(0, math.ceil(q * pool.size) - 1)])
        got = [(d.sample_id, d.accepted, d.distance, d.label) for d in classify_batch(batch, g, t)]
        assert got == _classify_by_row(batch, g, t, "euclidean")


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
    g, _ = screen_gallery(rng, 8, counts, 0.0)
    estimate_threshold(g, policy)
    assert len(calls) == math.ceil((sum(counts) - counts[-1]) / _BLOCK)


def _assert_screened_paths_equal_references(g, probes):
    """classify_batch and estimate_threshold against the row-by-row references."""
    batch = probe_batch(tuple(make_sample(1000 + i, v) for i, v in enumerate(probes)))
    pool = np.sort(impostor_pool(g))
    assert estimate_threshold(g, ThresholdPolicy.zero_far()) == float(pool[0])
    for q in (0.01, 0.2):
        t = estimate_threshold(g, ThresholdPolicy.far_quantile(q))
        assert t == float(pool[max(0, math.ceil(q * pool.size) - 1)])
        for t_star in (t, math.inf):
            decisions = classify_batch(batch, g, t_star)
            got = [(d.sample_id, d.accepted, d.distance, d.label) for d in decisions]
            assert got == _classify_by_row(batch, g, t_star, "euclidean")


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    dim=st.sampled_from([1, 2, 3, 8]),
    offset=st.sampled_from([0.0, 1e4, 1e8]),
    scale=st.sampled_from([1.0, 1e-3, 1e-40]),  # 1e-40: float32 subnormal coordinates
    counts=st.lists(st.integers(1, 4), min_size=2, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_screen_at_float32_rounding_edges(dim, offset, scale, counts, seed):
    # few lattice anchors, every row an anchor moved a few float32 ulps per
    # coordinate: exact duplicates and near-ties across users, common offsets
    # that swamp the anchors, and distances that underflow float32
    rng = np.random.default_rng(seed)
    anchors = offset + scale * rng.integers(-2, 3, (3, dim))

    def near_anchors(n):
        a = anchors[rng.integers(0, len(anchors), n)]
        return a + rng.integers(-3, 4, a.shape) * np.spacing(a.astype(np.float32)).astype(float)

    sid = itertools.count()
    g = enroll(
        [(u, make_sample(next(sid), v, user=u))
         for u, c in enumerate(counts, start=1) for v in near_anchors(c)]
    )
    _assert_screened_paths_equal_references(g, list(near_anchors(_BLOCK + 9)) + list(g.vectors))


def test_tau_covers_rounding_that_adds_up_coherently():
    # Coordinates of 2^-75 and 2^-74 times few-bit values: the rows are exact
    # in float32, the gallery mean is 0 and every product and square is a
    # float32 subnormal, a multiple of eta = 2^-149 plus a fraction. However
    # BLAS or einsum orders a sum, each term then rounds to the eta grid by
    # that fraction, in the same direction on every coordinate. Row a (user 1)
    # is exactly nearest the probe, by 0.57 eta in squared distance, but on
    # 61 of its 64 coordinates its cross term rounds down and its square up
    # by almost eta/2, and row b's the other way: a's screen exceeds b's by
    # 189 eta, more than 2 tau / 6 (tau = 8 (64 + 4) eta). So a tau 6 times
    # too small drops a from the band, and b's label and distance win; a tau
    # 5 times too small still keeps a.
    eta = 2.0**-149
    kinds = [(1.34765625, 3.63671875)] * 3 + [(2.1796875, 2.59765625)] * 61
    x = np.full(64, 4.8125 * 2.0**-75)
    a, b = (np.array(k) * 2.0**-74 for k in zip(*kinds))
    d_a, d_b = np.sum((x - a) ** 2), np.sum((x - b) ** 2)  # exact: few-bit squares
    assert d_a / eta == 12.986053466796875 and d_b / eta == 13.553955078125
    rows = [(1, a), (2, b), (3, -a), (4, -b)]
    g = enroll([(u, make_sample(i, v, user=u)) for i, (u, v) in enumerate(rows)])
    probe = probe_batch((make_sample(9, x),))
    (decision,) = classify_batch(probe, g, 1.0)
    assert (decision.label, decision.distance) == (1, math.sqrt(d_a))
    # t*: the pair (x, a) is the least cross-user pair, and (x, b) screens below it
    rows = [(1, x), (2, a), (2, b), (3, -x), (3, -a), (3, -b)]
    g = enroll([(u, make_sample(i, v, user=u)) for i, (u, v) in enumerate(rows)])
    assert estimate_threshold(g, ThresholdPolicy.zero_far()) == math.sqrt(d_a)
    _assert_screened_paths_equal_references(g, [x, a, b, (a + b) / 2])


@pytest.mark.parametrize("c", [1e155, 3e157, 1e160])
def test_screen_overflowing_float64_keeps_every_pair(c):
    # far past float32's claim: tau is infinite and every pair is exact;
    # squares past 1.8e308 overflow float64: many exact distances are inf,
    # and a probe whose every distance is inf takes the first row
    rows = [(1, [c, c]), (1, [c, -c]), (2, [-c, c]), (3, [-c, -c]), (3, [c / 2, c]),
            (4, [c, c]), (4, [c, 0.999 * c]), (5, [-c, 0.999 * c])]
    g = enroll([(u, make_sample(i, v, user=u)) for i, (u, v) in enumerate(rows)])
    origin = probe_batch((make_sample(0, [0.0, 0.0]),))
    (_, _, nearest, _), = _classify_by_row(origin, g, math.inf, "euclidean")
    assert math.isinf(nearest)  # every template's distance from the origin is inf
    probes = [[c, c], [-c, -c], [0.0, 0.0], [c, 0.9995 * c], [-c, 0.0], [0.0, c], [c / 3, -c]]
    _assert_screened_paths_equal_references(g, probes)


@pytest.mark.parametrize("side", ["both", "below"])
@pytest.mark.parametrize(
    "edge",
    [
        float(np.finfo(np.float32).max),  # a float32 squared norm overflows past it
        float(np.finfo(np.float32).max) / 16,
        float(np.finfo(np.float64).max) / 16,
    ],
)
def test_screen_rows_at_an_overflow_edge(edge, side):
    # d = 2 rows at (+-f a, +-f a) have centred squared norm a^2 edge (each
    # template's negation is enrolled too: the gallery mean is 0). "both":
    # templates and probes on both sides of the edge, a probe at 0.9997 f
    # nearest a template at 1.0005 f; "below": every norm below the edge,
    # and a probe at 0.67 f whose cross term -2 x.y with a template at
    # 0.999 f overflows while its own template's does not
    f = math.sqrt(edge / 2)
    hi, lo = (1.0005, 0.9995) if side == "both" else (0.9995, 0.9990)
    rows = [(1, [hi, hi]), (2, [hi, -hi]), (3, [lo, lo]), (3, [-lo, lo]), (4, [0.67, 0.67])]
    rows += [(u + 4, [-a, -b]) for u, (a, b) in rows]
    g = enroll([(u, make_sample(i, f * np.array(v), user=u))
                        for i, (u, v) in enumerate(rows)])
    probes = [f * np.array(v) for v in ([0.9997, 0.9997], [hi, hi], [-hi, lo], [lo, -lo],
                                        [0.0, 0.0], [0.67, 0.67], [0.6, 0.7])]
    if side == "both":
        probes += [f * np.array([1.0002, 1.0002]), f * np.array([3.0, 3.0])]
    _assert_screened_paths_equal_references(g, probes)


@pytest.mark.parametrize("d", [16_380, 16_384])  # 16,384: a raw 128 x 128 image
def test_screen_claims_float32_up_to_its_dimension_limit(d):
    # (d + 4) u = 2^-10 at d = 16,380, the largest dimension the bound is
    # claimed at; past it tau is infinite and every pair is scored exactly.
    # On both sides classification, t* (zero-FAR, 1% and 20% FAR) and
    # K-Means are bitwise their row references, ties across users included
    rng = np.random.default_rng(d)
    g, shared = screen_gallery(rng, d, [3, 2, 4, 1, 3, 2, 3, 2], 0.0)
    mat = g.vectors
    tau = matching._Screen(mat, mat, "euclidean", _BLOCK).tau
    assert (np.isfinite(tau) if d == 16_380 else np.isinf(tau)).all()
    _assert_screened_paths_equal_references(g, [shared, mat[0], mat[-1]] + list(rng.normal(2.0, 1.5, (9, d))))
    for k, labels, seed in ((8, g.owner, None), (5, None, 3)):  # seeded or from user means
        got = kmeans(mat, k, labels=labels, seed=seed)
        want = masked_mean_kmeans(mat, k, labels=labels, seed=seed)
        assert np.array_equal(got.assignment, want.assignment)
        assert np.array_equal(got.centroids, want.centroids)
        assert got.inertia_history == want.inertia_history


@pytest.mark.parametrize("case", [1, 16, 64, 128, 4100, "kmeans"])  # dims, or K-Means
def test_screen_gemms_stay_on_the_calling_thread(monkeypatch, case):
    # OpenBLAS runs a GEMM of at most _TILE multiply-adds on the calling
    # thread: every 2-D product the screen issues stays within it, and each
    # _screen call issues one stacked np.matmul, with no loop over tiles
    screen, matmul = matching._screen, np.matmul
    screens, products = [], []

    def counting(*args):
        screens.append(None)
        return screen(*args)

    def recording(a, b, *args, **kwargs):
        products.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(matching, "_screen", counting)
    monkeypatch.setattr(np, "matmul", recording)
    if case == "kmeans":  # online_wide's shape: 1000 points, 100 centroids, d = 128
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(1000, 128)) + 3.0 * rng.normal(size=(100, 128))[rng.integers(0, 100, 1000)]
        cl = kmeans(pts, 100, seed=1)
        # every centroid screened once, then only moved ones, pass by pass
        assert cl.n_iter >= 3 and len(screens) >= 3
        assert len(products) == len(screens) and max(products) <= _TILE
        return
    dim = case
    rng = np.random.default_rng(dim)
    g, shared = screen_gallery(rng, dim, [3, 2, 1, 4] * 15, 0.0)  # 150 rows
    probes = [shared] + list(rng.normal(2.0, 1.5, (2 * _BLOCK + 7, dim)))
    batch = probe_batch(tuple(make_sample(1000 + i, v) for i, v in enumerate(probes)))
    classify_batch(batch, g, 1.0)
    estimate_threshold(g, ThresholdPolicy.far_quantile(0.2))
    assert len(products) == len(screens) == 3 + 3  # blocks of the batch and of the gallery
    assert max(products) <= _TILE


@pytest.mark.parametrize("offset", [0.0, 1e4])
def test_classify_rescores_only_probes_whose_runner_up_is_in_the_band(monkeypatch, offset):
    # templates 10 apart: a probe near one of them scores only its nearest
    # pair exactly; a probe halfway between two ties, so its band is scored
    kernel, scored = matching._norms, []

    def counting(diff, metric):
        scored.append(len(diff))
        return kernel(diff, metric)

    g = enroll([(u, make_sample(u, [10.0 * u + offset, offset], user=u))
                        for u in range(1, 31)])
    near = [[10.0 * u + 0.3 + offset, offset - 0.2] for u in range(1, 31)] * 3
    batch = probe_batch(tuple(make_sample(100 + i, v) for i, v in enumerate(near)))
    monkeypatch.setattr(matching, "_norms", counting)
    classify_batch(batch, g, math.inf)
    assert sum(scored) == len(near)
    scored.clear()
    tie = probe_batch(samples_of(batch) + [make_sample(999, [155.0 + offset, offset])])
    (*_, last) = classify_batch(tie, g, math.inf)
    assert sum(scored) == len(near) + 1 + 2 and (last.label, last.distance) == (15, 5.0)


def test_classify_names_a_batch_of_another_dim(abc_gallery):
    samples = (make_sample(13, [0.0, 1.0]), make_sample(14, [2.0, 3.0]))
    for metric in METRICS:
        with pytest.raises(ValueError, match="dimension mismatch: batch 1 has dim 2, expected 1$"):
            classify_batch(probe_batch(samples), abc_gallery, 0.4, metric)


@pytest.mark.parametrize("metric", ["euclidean", "l1"])
def test_classify_empty_batch(abc_gallery, metric):
    out = classify_batch(Batch(abc_gallery.dataset, [], 1), abc_gallery, 0.4, metric)
    assert isinstance(out, np.recarray) and out.shape == (0,)
    assert out.dtype.names == ("sample_id", "accepted", "distance", "label")
    assert [out.dtype[f] for f in out.dtype.names] == [np.int64, np.bool_, np.float64, np.int64]


def test_classify_rejects_nan_threshold(abc_gallery):
    batch = probe_batch((make_sample(10, [0.1]),))
    with pytest.raises(ValueError, match="non-negative"):
        classify_batch(batch, abc_gallery, float("nan"))


@pytest.mark.parametrize("t_star", [True, False, np.True_, "0.4", None])
def test_classify_refuses_a_t_star_that_is_no_number(abc_gallery, t_star):
    # a bool is refused as the package refuses bool keys; True would accept
    # every probe nearer than 1
    batch = probe_batch((make_sample(10, [0.1]),))
    with pytest.raises(ValueError, match=r"^t\* must be a real number, not "):
        classify_batch(batch, abc_gallery, t_star)


@pytest.mark.parametrize("d", [8_192, 8_193, 16_384])
def test_a_distance_does_not_depend_on_the_rows_scored_with_it(d):
    # past numpy's buffer size, 8192 values, one einsum sums a lone row
    # differently from a row among others; the kernel's blocks of at most
    # 8192 columns, summed left to right as numpy sums a lone row, make a
    # lone pair, a table entry and a listed pair agree
    rng = np.random.default_rng(d)
    x, y = rng.normal(size=(4, d)), rng.normal(size=(5, d))
    lone = [[np.einsum("ij,ij->i", w, w)[0] for w in (y[j : j + 1] - v for j in range(5))] for v in x]
    assert matching._exact(x, y, matching._SQUARED).tolist() == lone
    for metric in (matching._SQUARED, *METRICS):
        table = matching._exact(x, y, metric)
        lone = [[_distances_to_rows(v, y[j : j + 1], metric)[0] for j in range(5)] for v in x]
        assert table.tolist() == lone == [_distances_to_rows(v, y, metric).tolist() for v in x]
        pairs = matching._exact(x, y, metric, np.repeat(np.arange(4), 5), np.tile(np.arange(5), 4))
        assert pairs.tolist() == table.ravel().tolist()


@pytest.mark.parametrize("d", [8_192, 8_193, 16_384])
def test_the_oracles_row_sums_are_bitwise_the_kernel(d):
    # the test references sum each row on its own, so past numpy's buffer
    # size too they sum it in the kernel's order, not in the order one
    # einsum over several rows takes
    rng = np.random.default_rng(d)
    x, v = rng.normal(size=(30, d)), rng.normal(size=d)
    assert sq_norms_by_row(x - v).tolist() == matching._exact(v[None], x, matching._SQUARED)[0].tolist()


@pytest.mark.parametrize("offset", [0.0, 1e4])
@pytest.mark.parametrize("d", [1, 3, 128])
def test_sq_distances_is_bitwise_the_row_kernel(offset, d, monkeypatch):
    # the exact kernel every distance is taken from: entry [i, j] is the
    # one-row einsum of y[j] - x[i] (squared euclidean: what MDIST/DEND and
    # K-Means decide on), its root, or its l1 norm, each bitwise
    # _distances_to_rows'
    rng = np.random.default_rng(d)
    x = rng.normal(size=(50, d)) + offset
    c = rng.normal(size=(7, d)) + offset
    table = matching._exact(x, c, matching._SQUARED)
    assert table.shape == (50, 7)
    for i, v in enumerate(x):
        assert table[i].tolist() == sq_norms_by_row(c - v).tolist()
        assert np.sqrt(table[i]).tolist() == _distances_to_rows(v, c, "euclidean").tolist()
    ix, iy = rng.integers(0, 50, 40), rng.integers(0, 7, 40)
    for metric in (matching._SQUARED, *METRICS):
        rows = np.stack([_distances_to_rows(v, c, metric) for v in x])
        # in blocks of one row, of the whole of x, and of _GATHER values, the
        # values stay the same; so do the pairs (x[ix[t]], c[iy[t]])
        for gather in (1, 50 * 7 * d, _GATHER):
            monkeypatch.setattr(matching, "_GATHER", gather)
            assert np.array_equal(matching._exact(x, c, metric), rows)
            assert np.array_equal(matching._exact(x, c, metric, ix, iy), rows[ix, iy])
    # one set against itself, as MDIST/DEND take it: symmetric, zero diagonal
    own = matching._exact(x, x, matching._SQUARED)
    assert np.array_equal(own, own.T) and not own.diagonal().any()


# -- classification after t* of the same gallery --


def _handoff_case(case):
    """(gallery, probes, metric) for one hand-off case."""
    rng = np.random.default_rng(len(case))
    if case == "overflow":  # near 1e155: tau is infinite, and exact distances overflow float64
        c = 1e155
        rows = [(1, [c, c]), (1, [c, -c]), (2, [-c, c]), (3, [-c, -c]), (3, [c / 2, c])]
        g = enroll([(u, make_sample(i, v, user=u)) for i, (u, v) in enumerate(rows)])
        return g, [[c, c], [0.0, 0.0], [c / 3, -c]], "euclidean"
    dim, scale, probes, metric = {
        "d16": (16, 1.0, 2 * _BLOCK + 7, "euclidean"),
        "d128": (128, 1.0, 2 * _BLOCK + 7, "euclidean"),
        "few": (16, 1.0, 5, "euclidean"),  # fewer than _BLOCK probes: tiles of another group
        "noclaim": (8, 1e20, _BLOCK + 3, "euclidean"),  # the float32 bound fails: every pair exact
        "l1": (16, 1.0, _BLOCK + 3, "l1"),
    }[case]
    g, shared = screen_gallery(rng, dim, [int(c) for c in rng.integers(1, 9, 20)], 0.0)
    g = enroll([(u, make_sample(s.id, s.vector * scale, user=u))
                        for u, s in zip(g.owner, samples_of(g))])
    return g, [shared * scale] + list(rng.normal(2.0, 1.5, (probes - 1, dim)) * scale), metric


@pytest.mark.parametrize("case", ["d16", "d128", "few", "noclaim", "overflow", "l1"])
@pytest.mark.parametrize("q", [None, 0.2])
def test_classification_after_t_star_is_bitwise_the_row_reference(case, q):
    g, probes, metric = _handoff_case(case)
    batch = probe_batch(tuple(make_sample(10_000 + i, v) for i, v in enumerate(probes)))
    with np.errstate(over="ignore", invalid="ignore"):  # the overflow case's reference sums
        t = estimate_threshold(g, ThresholdPolicy(q=q), metric)
        first = classify_batch(batch, g, t, metric)
        again = classify_batch(batch, g, t, metric)
    assert first.dtype == again.dtype and first.tobytes() == again.tobytes()
    got = [(d.sample_id, d.accepted, d.distance, d.label) for d in first]
    assert got == _classify_by_row(batch, g, t, metric)


def test_no_call_holds_a_galleries_rows_or_tiles_after_it_returns():
    rng = np.random.default_rng(3)
    galleries = [screen_gallery(rng, 64, [6] * 50, 0.0)[0] for _ in range(5)]  # 300 x 64 each
    batch = probe_batch((make_sample(10_000, np.zeros(64)),))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for g in galleries:
            classify_batch(batch, g, estimate_threshold(g))
        assert tracemalloc.get_traced_memory()[0] - base <= 16 << 10
    finally:
        tracemalloc.stop()


def test_concurrent_calls_never_read_another_galleries_operand():
    # threads interleave t* and classification of their own galleries: every
    # record is that of the call made alone
    rng = np.random.default_rng(11)
    cases = []
    for i in range(4):
        g, shared = screen_gallery(rng, 16, [int(c) for c in rng.integers(1, 6, 8)], 0.0)
        probes = [shared] + list(rng.normal(2.0, 1.5, (_BLOCK + 5, 16)))
        batch = probe_batch(tuple(make_sample(10_000 + j, v) for j, v in enumerate(probes)))
        t = estimate_threshold(g)
        cases.append((g, batch, classify_batch(batch, g, t).tobytes()))
    wrong = []

    def worker(g, batch, want):
        try:
            for _ in range(25):
                t = estimate_threshold(g)
                time.sleep(0)  # lets another thread's t* and classification run between
                if classify_batch(batch, g, t).tobytes() != want:
                    wrong.append(g)
        except Exception as exc:  # another gallery's rows can also fail to index
            wrong.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=case) for case in cases * 2]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads) and wrong == []
