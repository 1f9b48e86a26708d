"""Each gallery's user bounds, built once in ``core``.

``Gallery.starts`` holds each user's first row, then the row count, and
``core.user_bounds`` computes the same for any owner-grouped column. They
must equal ``np.unique(owner, return_index=True)`` plus the row count, and
every reader must give what the ``searchsorted`` derivations from ``owner``
that matching and evaluation used before gave; those derivations are kept
here as references.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfgallery.core import Batch, Gallery, user_bounds
from selfgallery.matching import ThresholdPolicy, _exact, estimate_threshold, impostor_pool
from selfgallery.metrics import distance_columns, impostor_fraction, score_sets

from conftest import make_sample

INT64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def _gallery_and_test(draw):
    """A gallery of 1-5 users (keys anywhere in int64) holding 1-4 rows
    each, single-row users included, on a small lattice so that distances
    tie, with mixed ground truth; and a test batch of 1-5 samples whose
    truths are the gallery's users."""
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    users = sorted(draw(st.lists(INT64, min_size=len(counts), max_size=len(counts), unique=True)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, n = draw(st.integers(1, 3)), sum(counts)
    ids = rng.permutation(100)[: n + 5]
    owner = np.repeat(np.array(users, dtype=np.int64), counts)
    sid = np.concatenate([np.sort(part) for part in np.split(ids[:n], np.cumsum(counts)[:-1])])
    samples = [make_sample(int(i), rng.integers(-2, 3, d), user=int(rng.choice(users))) for i in sid]
    gallery = Gallery(samples=samples, owner=owner, inserted_at=np.zeros(n, np.int64))
    size = draw(st.integers(1, 5))
    test = Batch(index=1, samples=tuple(
        make_sample(int(i), rng.integers(-2, 3, d), user=int(rng.choice(users))) for i in ids[n : n + size]
    ))
    return gallery, test


def _fraction_by_searchsorted(gallery):
    users, owner = np.unique(gallery.owner), gallery.owner
    wrong = (gallery.true_user != owner).astype(np.int64)
    starts = np.searchsorted(owner, users)
    per_user = np.add.reduceat(wrong, starts) / np.diff(starts, append=wrong.size)
    return int(wrong.sum()) / wrong.size, dict(zip(users.tolist(), per_user.tolist()))


def _score_sets_by_searchsorted(test, gallery, columns):
    users, (ids, table) = np.unique(gallery.owner), columns
    own = np.array([s.true_user for s in test.samples])[:, None] == users
    rows = np.searchsorted(ids, gallery.sample_id)
    nearest = np.minimum.reduceat(table[rows], np.searchsorted(gallery.owner, users), axis=0).T
    return nearest[own], nearest[~own]


def _pool_by_searchsorted(gallery, metric):
    mat, owners = gallery.vectors, gallery.owner
    ends = np.unique(np.searchsorted(owners, owners, side="right")).tolist()
    return np.concatenate([_exact(mat[lo:end], mat[end:], metric).ravel()
                           for lo, end in zip([0] + ends, ends[:-1])])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_gallery_and_test(), st.sampled_from(["euclidean", "l1"]))
def test_bounds_and_their_readers_equal_the_searchsorted_references(case, metric):
    gallery, test = case
    owner = gallery.owner
    users, first = np.unique(owner, return_index=True)
    want = np.append(first, len(owner))
    for bounds in (gallery.starts, user_bounds(owner)):
        assert bounds.dtype == np.int64 and bounds.tolist() == want.tolist()
    assert gallery.user_ids == users.tolist()
    assert impostor_fraction(gallery) == _fraction_by_searchsorted(gallery)
    columns = distance_columns(test, gallery.samples, metric)
    for got, ref in zip(score_sets(test, gallery, columns), _score_sets_by_searchsorted(test, gallery, columns)):
        assert np.array_equal(got, ref)
    if len(users) == 1:  # no cross-user pair
        for call in (lambda: impostor_pool(gallery, metric), lambda: estimate_threshold(gallery, metric=metric)):
            with pytest.raises(ValueError, match="no cross-user template pair"):
                call()
        return
    pool = _pool_by_searchsorted(gallery, metric)
    assert np.array_equal(impostor_pool(gallery, metric), pool)
    for policy in (ThresholdPolicy.zero_far(), ThresholdPolicy.far_quantile(0.3)):
        assert estimate_threshold(gallery, policy, metric) == np.sort(pool)[policy.rank(pool.size)]


@pytest.mark.parametrize(
    "owner, bounds",
    [([], [0]), ([7], [0, 1]), ([3, 3, 3], [0, 3]), ([-(2**63), 0, 0, 2**63 - 1], [0, 1, 3, 4])],
)
def test_user_bounds_of_a_grouped_column(owner, bounds):
    assert user_bounds(np.array(owner, dtype=np.int64)).tolist() == bounds


def test_a_gallery_stores_its_bounds_read_only():
    g = Gallery(samples=[make_sample(i, [float(i)]) for i in range(4)], owner=[2, 2, 5, 9],
                inserted_at=[0] * 4)
    assert g.starts.tolist() == [0, 2, 3, 4] and g.starts is g.starts
    with pytest.raises(ValueError):
        g.starts[0] = 1
