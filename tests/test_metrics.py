import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfgallery.core import Batch, gallery_enroll
from selfgallery.metrics import (
    compute_eer,
    evaluate_snapshot,
    export_score_scatter,
    gallery_bytes,
    impostor_fraction,
    storage_capped,
    storage_uncapped,
)

from conftest import accepted_template, gallery_1d, gallery_columns, make_sample


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
    from selfgallery.core import Gallery, UserGallery

    bad = accepted_template(9, [0.2], user=2)
    users = dict(g.users)
    users[1] = UserGallery(templates=g.users[1].templates + (bad,))
    g2 = Gallery(users=users)
    frac, per_user = impostor_fraction(g2)
    assert frac == pytest.approx(1 / 4)
    assert per_user[1] == pytest.approx(1 / 3)


def test_impostor_fraction_all_swapped():
    s1 = make_sample(0, [0.0], user=2)
    s2 = make_sample(1, [5.0], user=1)
    g = gallery_enroll([(1, s1), (2, s2)])
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
        g = gallery_enroll(pairs)
        frac, per_user = impostor_fraction(g)
        wrong = {u: [t.sample.true_user != u for t in g.users[u].templates] for u in g.user_ids}
        assert frac == sum(map(sum, wrong.values())) / len(pairs)
        assert per_user == {u: sum(w) / len(w) for u, w in wrong.items()}
        assert all(type(v) is float for v in (frac, *per_user.values()))


def test_storage_formulas():
    assert storage_capped(6, 59, 128) == 45312
    # beta=1 reduces the uncapped bound to i * m_bar * k * S
    assert storage_uncapped(1.0, 3, 2.0, 4, 10) == pytest.approx(3 * 2.0 * 4 * 10)
    assert storage_uncapped(0.5, 0, 2.0, 4, 10) == 0.0
    with pytest.raises(ValueError):
        storage_capped(0, 59, 128)
    with pytest.raises(ValueError):
        storage_uncapped(1.5, 3, 2.0, 4, 10)
    with pytest.raises(ValueError):
        storage_uncapped(1.0, -1, 2.0, 4, 10)


@pytest.mark.parametrize(
    "args", [(1.0, 3, 0.0, 4, 10), (1.0, 3, -2.0, 4, 10), (1.0, 3, 2.0, 0, 10), (1.0, 3, 2.0, 4, 0)]
)
def test_boundary_checks_raise_their_messages(args):  # m_bar <= 0, k < 1, S < 1
    with pytest.raises(ValueError, match="m_bar, k and S must be positive"):
        storage_uncapped(*args)


def test_evaluate_snapshot_self_test_zero_eer():
    g = gallery_1d({1: [0.0], 2: [10.0]})
    test = Batch(
        index=6,
        samples=(make_sample(10, [0.0], user=1), make_sample(11, [10.0], user=2)),
    )
    ev = evaluate_snapshot(g, test, gallery_columns(test, g))
    assert set(ev) == {"eer", "gallery_bytes"}  # no score lists: scatter files are exported apart
    assert ev["eer"] == 0.0
    assert ev["gallery_bytes"] == 2 * 4 * 1  # 2 templates, 4 bytes per coord


def test_evaluate_snapshot_matches_naive_reference():
    rng = np.random.default_rng(4)
    g = gallery_1d({1: rng.normal(0, 1, 3).tolist(), 2: rng.normal(2, 1, 3).tolist()})
    test = Batch(
        index=6,
        samples=tuple(
            make_sample(100 + i, [float(v)], user=1 + i % 2)
            for i, v in enumerate(rng.normal(1, 1.5, 20))
        ),
    )
    ev = evaluate_snapshot(g, test, gallery_columns(test, g))
    # naive reference: explicit loops over templates and users
    genuine, impostor = [], []
    for s in test.samples:
        for u in (1, 2):
            d = min(
                float(np.abs(s.vector - t.sample.vector)[0])
                for t in g.users[u].templates
            )
            (genuine if u == s.true_user else impostor).append(d)
    assert ev["eer"] == pytest.approx(eer_bruteforce(genuine, impostor), abs=1e-9)


def test_evaluate_snapshot_single_user_test_errors():
    g = gallery_1d({1: [0.0]})
    test = Batch(index=6, samples=(make_sample(10, [0.0], user=1),))
    with pytest.raises(ValueError):
        evaluate_snapshot(g, test, gallery_columns(test, g))


def test_gallery_bytes_override():
    g = gallery_1d({1: [0.0], 2: [1.0]})
    assert gallery_bytes(g, bytes_per_template=128) == 256
    for s in (0, -4):
        with pytest.raises(ValueError, match="bytes_per_template"):
            gallery_bytes(g, bytes_per_template=s)


def test_export_score_scatter_rows():
    g = gallery_1d({2: [10.0], 1: [0.0, 4.0]})
    test = Batch(index=6, samples=(
        make_sample(20, [9.0], user=2), make_sample(21, [1.0], user=1), make_sample(22, [2.5], user=1)
    ))
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
    empty = Batch(index=6, samples=())
    buf = io.StringIO()
    n = export_score_scatter(empty, abc_gallery, gallery_columns(empty, abc_gallery), buf)
    assert n == 0
    assert buf.getvalue() == "subject,score,kind\n"
