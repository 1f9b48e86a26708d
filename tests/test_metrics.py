import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfgallery import matching
from selfgallery.core import Batch, Gallery
from selfgallery.matching import _BLOCK, _GATHER, METRICS, _distances_to_rows
from selfgallery.metrics import (
    compute_eer,
    distance_columns,
    evaluate_snapshot,
    export_score_scatter,
    gallery_bytes,
    impostor_fraction,
    score_sets,
    storage_capped,
    storage_uncapped,
)

from conftest import (
    batch_of,
    dataset_of,
    enroll,
    gallery_1d,
    gallery_columns,
    gallery_templates,
    make_sample,
    read_scatter,
    samples_of,
    scatter_reference,
    screen_gallery,
    with_probes,
)


def eer_bruteforce(genuine, impostor):
    """Independent reference: sweep midpoints between consecutive sorted
    scores plus outer points, interpolate the first FAR/FRR crossing."""
    scores = sorted(set(genuine) | set(impostor))
    sweep = [scores[0] - 1.0]
    sweep += [(a + b) / 2.0 for a, b in zip(scores, scores[1:])]
    sweep += [scores[-1] + 1.0]
    points = []
    for t in sweep:
        far = sum(1 for s in impostor if s < t) / len(impostor)
        frr = sum(1 for s in genuine if s >= t) / len(genuine)
        points.append((far, frr))
    prev = None
    for far, frr in points:
        d = far - frr
        if d >= 0.0:
            if prev is None:
                return (far + frr) / 2.0
            pf, pr = prev
            pd = pf - pr
            alpha = pd / (pd - d)
            return pf + alpha * (far - pf)
        prev = (far, frr)
    raise AssertionError("no crossing found")


def test_eer_separable():
    assert compute_eer([0.1, 0.2], [0.8, 0.9]) == 0.0


def test_eer_fixed_example():
    assert compute_eer([0.1, 0.2, 0.3, 0.8], [0.5, 0.6, 0.7, 0.9]) == pytest.approx(0.25)


def test_eer_indistinguishable():
    scores = [0.2, 0.5, 0.9]
    assert compute_eer(scores, scores) == pytest.approx(0.5)



def test_eer_at_an_exact_far_frr_tie_interpolates_up_to_the_first_non_negative_point():
    # thresholds 0.5, 0.8, 1.0, 1.6, 2.0, ...: FAR - FRR is -1, -5/6, -1/2, 0, 1/6, ...
    # (it rises strictly, so it is 0 at one threshold at most). It first changes
    # sign between 1.0 (FAR 2/6) and 1.6, where FAR = FRR = 5/6 exactly; the EER
    # interpolates between those two points, which rounds one ulp below 5/6,
    # not between 1.6 and 2.0, the first positive difference, which gives 5/6
    genuine, impostor = [4.5, 0.5, 3.0, 4.0, 2.0, 2.0], [0.8, 1.0, 1.0, 1.6, 1.0, 0.8]
    far_before, far_tie = 2 / 6, 5 / 6
    assert compute_eer(genuine, impostor) == far_before + -0.5 / (-0.5 - 0.0) * (far_tie - far_before)
    assert compute_eer(genuine, impostor) != far_tie

def test_eer_rejects_empty():
    with pytest.raises(ValueError):
        compute_eer([], [0.5])
    with pytest.raises(ValueError):
        compute_eer([0.5], [])


def test_eer_rejects_nan_and_keeps_inf():
    nan, inf = float("nan"), float("inf")
    for genuine, impostor in (([0.1, nan], [0.2]), ([0.1], [nan, 0.2]), ([nan], [nan])):
        with pytest.raises(ValueError, match="NaN"):
            compute_eer(genuine, impostor)
    # an overflowed distance is a valid score
    assert compute_eer([0.1, 0.15], [0.2, inf]) == 0.0
    assert compute_eer([0.1, inf], [0.2]) == compute_eer([0.1, 5.0], [0.2])


def test_eer_matches_bruteforce_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n_g = int(rng.integers(1, 40))
        n_i = int(rng.integers(1, 40))
        genuine = rng.normal(1.0, 0.7, n_g).tolist()
        impostor = rng.normal(2.0, 0.7, n_i).tolist()
        assert compute_eer(genuine, impostor) == pytest.approx(
            eer_bruteforce(genuine, impostor), abs=1e-9
        )


def test_eer_matches_bruteforce_with_score_ties():
    rng = np.random.default_rng(1)
    for _ in range(50):
        genuine = rng.integers(0, 6, 15).astype(float).tolist()
        impostor = rng.integers(2, 9, 15).astype(float).tolist()
        assert compute_eer(genuine, impostor) == pytest.approx(
            eer_bruteforce(genuine, impostor), abs=1e-9
        )


def _eer_over_unique_thresholds(genuine, impostor):
    """compute_eer with its thresholds taken by np.unique of both score sets."""
    gen, imp = np.sort(np.asarray(genuine, dtype=float)), np.sort(np.asarray(impostor, dtype=float))
    thresholds = np.unique(np.concatenate([gen, imp]))
    far = np.append(np.searchsorted(imp, thresholds, side="left") / imp.size, 1.0)
    frr = np.append(1.0 - np.searchsorted(gen, thresholds, side="left") / gen.size, 0.0)
    diff = far - frr
    if diff[0] >= 0.0:
        return float((far[0] + frr[0]) / 2.0)
    i = int(np.argmax(diff >= 0.0))
    alpha = diff[i - 1] / (diff[i - 1] - diff[i])
    return float(far[i - 1] + alpha * (far[i] - far[i - 1]))


_scores = st.lists(
    st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, float("inf")]), st.floats(0.0, 4.0)),
    min_size=1,
    max_size=30,
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_scores, _scores)
def test_eer_thresholds_merged_equal_unique_thresholds(genuine, impostor):
    # ties within and across the sets, inf and one-score sets: the merged
    # thresholds give bitwise the EER of np.unique's
    got = compute_eer(genuine, impostor)
    assert np.array_equal(got, _eer_over_unique_thresholds(genuine, impostor), equal_nan=True)


def test_eer_monotone_sanity():
    genuine = [0.1, 0.2, 0.3, 0.8]
    impostor = [0.5, 0.6, 0.7, 0.9]
    base = compute_eer(genuine, impostor)
    worse = compute_eer(genuine + [5.0], impostor)  # genuine beyond all impostors
    assert worse >= base
    assert 0.0 <= worse <= 1.0


def test_impostor_fraction_fresh_gallery(abc_gallery):
    frac, per_user = impostor_fraction(abc_gallery)
    assert frac == 0.0
    assert all(v == 0.0 for v in per_user.values())


def test_impostor_fraction_counting():
    g = gallery_1d({1: [0.0, 0.1], 2: [5.0]})
    # user 1 additionally holds a template whose true user is 2
    g = gallery_1d({1: [0.0, 0.1], 2: [5.0]}, probes=[make_sample(9, [0.2], user=2)])
    g2 = Gallery(g.dataset, [0, 1, 3, 2], owner=[1, 1, 1, 2], inserted_at=[0, 0, 1, 0])
    frac, per_user = impostor_fraction(g2)
    assert frac == pytest.approx(1 / 4)
    assert per_user[1] == pytest.approx(1 / 3)


def test_impostor_fraction_all_swapped():
    s1 = make_sample(0, [0.0], user=2)
    s2 = make_sample(1, [5.0], user=1)
    g = Gallery(dataset_of([s1, s2]), [0, 1], [1, 2], [0, 0])
    frac, _ = impostor_fraction(g)
    assert frac == 1.0


def test_impostor_fraction_is_bitwise_the_integer_quotients():
    rng = np.random.default_rng(8)
    sid = 0
    for _ in range(30):
        pairs = []
        for user in range(1, int(rng.integers(2, 7))):
            for _ in range(int(rng.integers(1, 12))):  # counts 1..11: 1/3, 2/7, 5/11, ...
                truth = user if rng.random() < 0.6 else int(rng.integers(1, 9))
                pairs.append((user, make_sample(sid, [float(sid)], user=truth)))
                sid += 1
        g = Gallery(dataset_of([s for _, s in pairs]), np.arange(len(pairs)), [u for u, _ in pairs],
                    np.zeros(len(pairs), np.int64))
        frac, per_user = impostor_fraction(g)
        wrong = {u: [s.true_user != u for s in ss] for u, ss in gallery_templates(g).items()}
        assert frac == sum(map(sum, wrong.values())) / len(pairs)
        assert per_user == {u: sum(w) / len(w) for u, w in wrong.items()}
        assert all(type(v) is float for v in (frac, *per_user.values()))


def test_storage_formulas():
    assert storage_capped(6, 59, 128) == 45312
    # beta=1 reduces the uncapped bound to i * m_bar * k * S
    assert storage_uncapped(1.0, 3, 2.0, 4, 10) == pytest.approx(3 * 2.0 * 4 * 10)
    assert storage_uncapped(0.5, 0, 2.0, 4, 10) == 0.0
    with pytest.raises(ValueError, match="^p must be positive$"):
        storage_capped(0, 59, 128)
    with pytest.raises(ValueError):
        storage_uncapped(1.5, 3, 2.0, 4, 10)
    with pytest.raises(ValueError):
        storage_uncapped(1.0, -1, 2.0, 4, 10)



def test_storage_uncapped_refuses_beta_zero():
    # the docstring's beta lies in (0, 1]: 0 is outside it, as is 1.5 above
    with pytest.raises(ValueError, match=r"^beta must be in \(0, 1\]$"):
        storage_uncapped(0.0, 3, 2.0, 4, 10)

@pytest.mark.parametrize(
    "args, message",
    [
        *[((1.0, 3, m_bar, 4, 10), "^m_bar must be finite and positive$")
          for m_bar in (0.0, -2.0, float("nan"), float("inf"))],
        ((1.0, 3, 2.0, 0, 10), "^k must be positive$"),
        ((1.0, 3, 2.0, 4, 0), "^S must be positive$"),
        # a bool would be taken as 1.0, a str would fail in a comparison
        ((True, 3, 2.0, 4, 10), "^beta must be a real number, not True$"),
        (("1", 3, 2.0, 4, 10), "^beta must be a real number, not '1'$"),
        ((1.0, 3, True, 4, 10), "^m_bar must be a real number, not True$"),
        ((1.0, 3, "1", 4, 10), "^m_bar must be a real number, not '1'$"),
    ],
)
def test_boundary_checks_raise_their_messages(args, message):
    with pytest.raises(ValueError, match=message):
        storage_uncapped(*args)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: storage_capped(6.0, 59, 128), r"^p must be an integer, not 6\.0$"),
        (lambda: storage_capped(6, True, 128), "^k must be an integer, not True$"),
        (lambda: storage_capped(6, 59, 2.5), r"^S must be an integer, not 2\.5$"),
        (lambda: storage_uncapped(1.0, 3.0, 2.0, 4, 10), r"^iteration count must be an integer, not 3\.0$"),
        (lambda: storage_uncapped(1.0, 3, 2.0, True, 10), "^k must be an integer, not True$"),
        (lambda: storage_uncapped(1.0, 3, 2.0, 4, 10.0), r"^S must be an integer, not 10\.0$"),
        (lambda: gallery_bytes(gallery_1d({1: [0.0]}), 2.5), r"^bytes_per_template must be an integer, not 2\.5$"),
        (lambda: gallery_bytes(gallery_1d({1: [0.0]}), True), "^bytes_per_template must be an integer, not True$"),
    ],
)
def test_storage_counts_refuse_non_integers(call, message):  # beta and m_bar stay floats
    with pytest.raises(ValueError, match=message):
        call()


def test_evaluate_snapshot_self_test_zero_eer():
    g, test = with_probes(gallery_1d({1: [0.0], 2: [10.0]}),
                          [make_sample(10, [0.0], user=1), make_sample(11, [10.0], user=2)], 6)
    ev = evaluate_snapshot(g, test, gallery_columns(test, g))
    assert set(ev) == {"eer", "gallery_bytes"}  # no score lists: scatter files are exported apart
    assert ev["eer"] == 0.0
    assert ev["gallery_bytes"] == 2 * 4 * 1  # 2 templates, 4 bytes per coord


def test_evaluate_snapshot_matches_naive_reference():
    rng = np.random.default_rng(4)
    g = gallery_1d({1: rng.normal(0, 1, 3).tolist(), 2: rng.normal(2, 1, 3).tolist()})
    g, test = with_probes(g, [
        make_sample(100 + i, [float(v)], user=1 + i % 2) for i, v in enumerate(rng.normal(1, 1.5, 20))
    ], 6)
    ev = evaluate_snapshot(g, test, gallery_columns(test, g))
    # naive reference: explicit loops over templates and users
    genuine, impostor = [], []
    for s in samples_of(test):
        for u in (1, 2):
            d = min(float(np.abs(s.vector - t.vector)[0]) for t in gallery_templates(g)[u])
            (genuine if u == s.true_user else impostor).append(d)
    assert ev["eer"] == pytest.approx(eer_bruteforce(genuine, impostor), abs=1e-9)


def test_evaluate_snapshot_single_user_test_errors():
    g, test = with_probes(gallery_1d({1: [0.0]}), [make_sample(10, [0.0], user=1)], 6)
    with pytest.raises(ValueError):
        evaluate_snapshot(g, test, gallery_columns(test, g))


def test_gallery_bytes_override():
    g = gallery_1d({1: [0.0], 2: [1.0]})
    assert gallery_bytes(g, bytes_per_template=128) == 256
    for s in (0, -4):
        with pytest.raises(ValueError, match="bytes_per_template"):
            gallery_bytes(g, bytes_per_template=s)


def test_export_score_scatter_rows():
    g, test = with_probes(gallery_1d({2: [10.0], 1: [0.0, 4.0]}), [
        make_sample(20, [9.0], user=2), make_sample(21, [1.0], user=1), make_sample(22, [2.5], user=1)
    ], 6)
    buf = io.StringIO()
    n = export_score_scatter(test, g, gallery_columns(test, g), buf)
    # users ascending, each with its genuine and then its impostor scores, in test order
    assert buf.getvalue() == (
        "subject,score,kind\n"
        "1,1,genuine\n1,1.5,genuine\n1,5,impostor\n"
        "2,1,genuine\n2,9,impostor\n2,7.5,impostor\n"
    )
    assert n == 6


def test_export_score_scatter_empty(abc_gallery):
    empty = Batch(abc_gallery.dataset, [], 6)
    buf = io.StringIO()
    n = export_score_scatter(empty, abc_gallery, gallery_columns(empty, abc_gallery), buf)
    assert n == 0
    assert buf.getvalue() == "subject,score,kind\n"


def _scores(test, gallery, columns):
    """score_sets' arrays as lists, after checking that both are float64, and
    the rows of the scatter file exported from the same arguments."""
    genuine, impostor = score_sets(test, gallery, columns)
    assert genuine.dtype == impostor.dtype == np.float64
    out = io.StringIO()
    n = export_score_scatter(test, gallery, columns, out)
    rows = read_scatter(out.getvalue())
    assert n == len(rows)
    return genuine.tolist(), impostor.tolist(), rows


def test_score_sets_counts():
    g, test = with_probes(gallery_1d({1: [0.0], 2: [10.0]}),
                          [make_sample(20, [0.0], user=1), make_sample(21, [10.0], user=2)], 6)
    genuine, impostor, scatter = _scores(test, g, gallery_columns(test, g))
    assert genuine == [0.0, 0.0]
    assert len(impostor) == 2 and all(v > 0 for v in impostor)
    assert [(r["subject"], r["kind"]) for r in scatter] == [
        ("1", "genuine"), ("1", "impostor"), ("2", "genuine"), ("2", "impostor")
    ]


def test_score_sets_empty_batch(abc_gallery):
    empty = Batch(abc_gallery.dataset, [], 6)
    genuine, impostor, _ = _scores(empty, abc_gallery, gallery_columns(empty, abc_gallery))
    assert genuine == [] and impostor == []


def test_score_sets_three_users_one_sample(abc_gallery):
    g, test = with_probes(abc_gallery, [make_sample(30, [0.05], user=1)], 6)
    genuine, impostor, _ = _scores(test, g, gallery_columns(test, g))
    assert len(genuine) == 1 and len(impostor) == 2


def test_score_sets_rejects_unenrolled(abc_gallery):
    g, test = with_probes(abc_gallery, [make_sample(29, [0.0], user=1), make_sample(30, [0.0], user=99),
                                        make_sample(31, [0.0], user=98)], 6)
    with pytest.raises(ValueError, match="test sample 30: true user 99 is not enrolled"):
        score_sets(test, g, gallery_columns(test, g))
    with pytest.raises(ValueError, match="test sample 30: true user 99 is not enrolled"):
        export_score_scatter(test, g, gallery_columns(test, g), io.StringIO())


def _score_sets_by_user(test, gallery, metric):
    """score_sets as, per user, the least of each of its templates' exact
    distances to every test sample (x - t is exactly -(t - x)), and the
    scatter file's rows built the same way."""
    genuine, impostor = [], []
    x = test.vectors
    nearest = {
        u: np.min(
            [_distances_to_rows(t.vector, x, metric) for t in gallery_templates(gallery)[u]],
            axis=0,
        )
        for u in gallery.user_ids
    }
    for i, s in enumerate(samples_of(test)):
        for u in gallery.user_ids:
            d = float(nearest[u][i])
            (genuine if u == s.true_user else impostor).append(d)
    return genuine, impostor, scatter_reference(test, gallery_templates(gallery), metric)


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
    probes = [make_sample(next(sid), rng.normal(u, 1.5, dim), user=u) for u in users * 5]
    probes.append(make_sample(next(sid), pairs[0][1].vector, user=pairs[0][0]))  # exact hit
    g = enroll(pairs, cap=cap, probes=probes)
    test = batch_of(g, [s.id for s in probes], index=6)
    columns = gallery_columns(test, g, metric)
    assert _scores(test, g, columns) == _score_sets_by_user(test, g, metric)
    # wider galleries and probes over several blocks, with near ties within a user
    for dim in (1, 2, 64, 128, 129):
        for offset in (0.0, 1e4):  # a common offset on every coordinate
            randoms = [int(c) for c in rng.integers(1, 9, 20)]
            for counts in (randoms, [1] * 90, [2, 70]):
                counts = [c if cap is None else min(c, cap) for c in counts]
                g, _ = screen_gallery(rng, dim, counts, offset)
                g, test = _evaluation_probes(rng, g, offset)
                columns = gallery_columns(test, g, metric)
                assert _scores(test, g, columns) == _score_sets_by_user(test, g, metric)


def _evaluation_probes(rng, gallery, offset):
    """The gallery over a dataset that also holds a test batch over more than
    two blocks, and that batch: exact hits, random probes, and 1e-9
    perturbations of rows and of midpoints of two rows of one user, a near
    tie between two templates of one user."""
    mat, owners = gallery.vectors, gallery.owner
    users, dim = gallery.user_ids, gallery.dim
    probes = [(mat[0], owners[0]), (mat[-1], owners[-1])]
    far = rng.normal(2.0, 1.5, (2 * _BLOCK + 7, dim)) + offset
    probes += [(v, users[i % len(users)]) for i, v in enumerate(far)]
    probes += [(mat[i] + rng.normal(0.0, 1e-9, dim), owners[i]) for i in range(0, len(mat), 7)]
    probes += [
        ((mat[i] + mat[i + 1]) / 2 + rng.normal(0.0, 1e-9, dim), owners[i])
        for i in range(len(mat) - 1)
        if owners[i] == owners[i + 1]
    ]
    sid = itertools.count(int(gallery.dataset.sample_id.max()) + 1)
    return with_probes(gallery, [make_sample(next(sid), v, user=int(u)) for v, u in probes], 6)


def test_score_sets_rejects_a_gallery_of_another_dataset(abc_gallery):
    g, test = with_probes(abc_gallery, [make_sample(30, [0.0], user=1)], 6)
    columns = gallery_columns(test, g)
    for call in (score_sets, lambda *args: export_score_scatter(*args, io.StringIO())):
        with pytest.raises(ValueError, match="^the gallery and the test batch are rows of different datasets$"):
            call(test, abc_gallery, columns)  # equal rows, another dataset


def _held(dataset, rows, owner=None):
    """A gallery of ``dataset``'s ``rows``, each of user 1 unless ``owner`` says."""
    return Gallery(dataset, rows, owner or [1] * len(rows), np.zeros(len(rows), np.int64))


def test_distance_columns_are_exact_rows_by_dataset_row():
    rng = np.random.default_rng(5)
    samples = [make_sample(sid, rng.normal(size=3)) for sid in (42, 40, 43, -1, 41)]
    samples += [make_sample(100 + i, rng.normal(size=3)) for i in range(7)]
    dataset = dataset_of(samples)
    test = Batch(dataset, np.arange(5, 12), 6)
    x = test.vectors
    # rows 4, 0 and 2 in one gallery, 2 and 1 in another: each held row once, ascending
    galleries = [_held(dataset, [4, 0, 2]), _held(dataset, [2, 1], [1, 2])]
    for metric in METRICS:
        column, table = distance_columns(test, galleries, metric)
        assert column.tolist() == [0, 1, 2, -1, 3] + [-1] * 7
        assert table.dtype == np.float64 and table.shape == (4, 7)
        for row, values in zip((0, 1, 2, 4), table):
            assert values.tolist() == _distances_to_rows(dataset.vectors[row], x, metric).tolist()
    column, table = distance_columns(Batch(dataset, [], 6), galleries)
    assert column.tolist()[:5] == [0, 1, 2, -1, 3] and table.shape == (4, 0)
    column, table = distance_columns(test, [])
    assert (column == -1).all() and table.shape == (0, 7) and table.dtype == np.float64


def test_distance_columns_refuse_a_gallery_of_another_dataset_before_any_distance(monkeypatch):
    computed = []  # every exact distance reduces through _norms
    monkeypatch.setattr(matching, "_norms", lambda *args: computed.append(args) or np.zeros(1))
    samples = [make_sample(40, [1.0, 1.0]), make_sample(41, [2.0, 0.0]), make_sample(0, [0.0, 1.0])]
    dataset, twin = dataset_of(samples), dataset_of(samples)
    test = Batch(dataset, [2], 6)
    with pytest.raises(ValueError, match="^the gallery and the test batch are rows of different datasets$"):
        distance_columns(test, [_held(dataset, [0]), _held(twin, [1])])
    assert computed == []
    with pytest.raises(ValueError, match="unknown metric"):
        distance_columns(test, [_held(dataset, [0])], "cosine")


@pytest.mark.parametrize(
    "n, t, dim",
    [
        (11, 100, 40),  # t d = 4000: blocks of 4, 4 and 3 samples
        (3, 300, 64),  # t d > _GATHER: one sample per block
        (10, 1, 5),  # one test sample
        (6, 0, 3),  # an empty test batch
    ],
)
def test_distance_columns_blocks_are_bitwise_the_row_kernel(monkeypatch, n, t, dim):
    rng = np.random.default_rng(n * t + dim)
    probes = [make_sample(10_000 + i, rng.normal(3.0, 2.0, dim)) for i in range(t)]
    samples = [make_sample(100 + i, rng.normal(3.0, 2.0, dim)) for i in range(n)]
    if n > 1:  # a duplicate and an exact hit on a test sample
        samples[1] = make_sample(101, samples[0].vector)
    if t:
        samples[-1] = make_sample(100 + n - 1, probes[0].vector)
    dataset = dataset_of(probes + samples)
    test = Batch(dataset, np.arange(t), 6)
    x = test.vectors
    reduce, sizes = matching._norms, []
    monkeypatch.setattr(
        matching, "_norms", lambda diff, m: sizes.append(diff.size) or reduce(diff, m)
    )
    for metric in METRICS:
        sizes.clear()
        column, table = distance_columns(test, [_held(dataset, t + np.arange(n)[::-1])], metric)
        blocked = list(sizes)
        assert column.tolist() == [-1] * t + list(range(n))  # rows in dataset order
        # one C-ordered table, filled block by block: no per-row copies
        assert type(table) is np.ndarray and table.flags.c_contiguous
        assert table.dtype == np.float64 and table.shape == (n, t)
        for s, row in zip(samples, table):
            assert row.tolist() == _distances_to_rows(s.vector, x, metric).tolist()
        # every block's (test - sample) temporary holds at most _GATHER values,
        # or one sample's t d where that alone is more
        assert sum(blocked) == n * t * dim
        assert all(size <= max(_GATHER, t * dim) for size in blocked)
        per_block = max(1, _GATHER // max(1, t * dim))
        assert len(blocked) == -(-n // per_block)


def test_distance_columns_mark_held_rows_without_plain_unique(monkeypatch):
    # numpy's plain unique takes a hash path whose first call is slow
    monkeypatch.setattr(np, "unique", lambda *args, **kwargs: pytest.fail("np.unique called"))
    g, test = with_probes(gallery_1d({1: [0.0, 1.0], 2: [5.0]}), [make_sample(9, [0.5], user=1)], 6)
    column, table = distance_columns(test, [g, g, g])
    assert column.tolist() == [0, 1, 2, -1] and table.shape == (3, 1)


def test_score_sets_reads_only_its_templates_columns(abc_gallery):
    # ids 0, 1 and 2 are the gallery's rows 0, 1 and 2; rows 3 to 5 are extra samples
    extra = [make_sample(-5, [0.3]), make_sample(50, [9.0]), make_sample(51, [1.0])]
    g, test = with_probes(abc_gallery, extra + [make_sample(30, [0.3], user=1), make_sample(31, [1.2], user=3)], 6)
    test = Batch(test.dataset, test.rows[3:], 6)
    dataset = g.dataset
    columns = gallery_columns(test, g)
    # rows of samples outside the gallery, before, between and after its own, change nothing
    wider = distance_columns(test, [_held(dataset, [3, 4]), g, _held(dataset, [5])])
    assert (wider[0][:6] >= 0).all() and wider[1].shape == (6, 2)
    assert _scores(test, g, wider) == _scores(test, g, columns)
    gap = distance_columns(test, [_held(dataset, [0, 3, 4])])
    for missing, table in ((1, distance_columns(test, [_held(dataset, [0, 2])])),  # in the middle
                           (2, distance_columns(test, [_held(dataset, [0, 1])])),  # past the last row
                           (0, distance_columns(test, [_held(dataset, [1, 2])])),  # before the first row
                           (1, gap)):  # rows on both sides of it
        with pytest.raises(ValueError, match=f"^template sample {missing} has no distance column$"):
            score_sets(test, g, table)
        with pytest.raises(ValueError, match=f"^template sample {missing} has no distance column$"):
            export_score_scatter(test, g, table, io.StringIO())
