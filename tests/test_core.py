import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from selfgallery import core
from selfgallery.core import Batch, Dataset, Gallery, UserGallery, gallery_enroll
from selfgallery.engine import EngineConfig, run_update_cycle
from selfgallery.metrics import distance_columns, impostor_fraction, score_sets

from conftest import batch_of, dataset_of, enroll, make_sample


def test_batch_holds_its_rows_read_only():
    dataset = _ds(3)
    rows = [2, 0]
    batch = Batch(dataset, rows, 1)
    rows.append(1)  # the caller's list, edited after the build
    assert batch.rows.dtype == np.int64 and batch.rows.tolist() == [2, 0] and len(batch) == 2
    with pytest.raises(ValueError):
        batch.rows[0] = 1
    assert batch.sample_id.tolist() == [2, 0] and batch.true_user.tolist() == [1, 1]
    assert batch.vectors.tolist() == [[2.0], [0.0]] and batch.dataset is dataset
    assert len(Batch(dataset, [], 2)) == 0 and Batch(dataset, [], 2).vectors.shape == (0, 1)


def test_samples_and_batches_compare_and_hash_by_identity():
    # equal fields, distinct objects: unequal, with no element-wise comparison of vectors
    a, b = core.Sample(0, np.array([1.0, 2.0]), 1), core.Sample(0, np.array([1.0, 2.0]), 1)
    assert a == a and a != b and not (a == b)
    assert a in [b, a] and b not in [a] and len({a, b, a}) == 2
    assert {a: 1, b: 2}[a] == 1 and hash(a) != hash(b)
    dataset = _ds(1)
    x, y = Batch(dataset, [0], 1), Batch(dataset, [0], 1)
    assert x == x and x != y and len({x, y}) == 2 and {x: 1}[x] == 1
    d1, d2 = _ds(1), _ds(1)
    assert d1 == d1 and d1 != d2 and len({d1, d2}) == 2


def test_splits_compare_by_their_fields_without_raising():
    from selfgallery.dataio import Split, split_batches

    samples = [make_sample(i, [float(i % 2), float(i)], user=1 + i % 2) for i in range(12)]
    ds = dataset_of(samples)
    s1, s2 = split_batches(ds, 3, 2, seed=0), split_batches(ds, 3, 2, seed=0)
    assert s1 == s1 and s1 != s2  # the same rows, but each split builds its own batches
    same = Split(enroll=s1.enroll, adaptation=s1.adaptation, test=s1.test)
    assert same == s1 and hash(same) == hash(s1) and len({s1, s2, same}) == 2
    copies = dataset_of([make_sample(s.id, s.vector, user=s.true_user) for s in samples])
    other = split_batches(copies, 3, 2, seed=0)  # equal fields, another dataset
    assert Split(enroll=other.enroll, adaptation=s1.adaptation, test=s1.test) != s1


def test_enroll_minimal():
    pairs = [(u, make_sample(u, [float(u)], user=u)) for u in (1, 2, 3)]
    g = enroll(pairs, cap=6)
    assert g.user_ids == [1, 2, 3] and g.owner.tolist() == [1, 2, 3]


def test_enroll_rejects_non_positive_cap():
    pairs = [(u, make_sample(u, [float(u)], user=u)) for u in (1, 2)]
    with pytest.raises(ValueError, match="cap must be positive"):
        enroll(pairs, cap=0)


def test_enroll_rejects_user_over_cap():
    pairs = [(1, make_sample(i, [float(i)], user=1)) for i in range(3)]
    pairs.append((2, make_sample(3, [9.0], user=2)))
    assert enroll(pairs, cap=3).n_templates == 4
    with pytest.raises(ValueError, match=r"users \[1\] enroll more than cap=2"):
        enroll(pairs, cap=2)


def test_enroll_many_users():
    # 59 users x 6 samples -> 354 templates
    pairs = []
    sid = 0
    for u in range(1, 60):
        for _ in range(6):
            pairs.append((u, make_sample(sid, [float(u), float(sid)], user=u)))
            sid += 1
    g = enroll(pairs, cap=6)
    assert g.n_templates == 354
    assert g.user_ids == list(range(1, 60))


def test_enroll_rejects_mixed_dims():
    pairs = [
        (1, make_sample(0, [0.0, 0.0], user=1)),
        (2, make_sample(1, [0.0, 0.0, 0.0], user=2)),
    ]
    with pytest.raises(ValueError):
        enroll(pairs)


def test_enroll_rejects_empty_slice():
    with pytest.raises(ValueError):
        gallery_enroll(Batch(_ds(2), [], 0))


def test_enroll_rejects_a_repeated_sample_id():
    dataset = dataset_of([make_sample(0, [0.0], user=1), make_sample(5, [9.0], user=2)])
    # the same sample twice for one user would let a cycle keep more than p
    with pytest.raises(ValueError, match="sample id 0 is held more than once"):
        gallery_enroll(Batch(dataset, [0, 0, 1], 0), cap=2)
    # one sample for two users would put a zero into the cross-user pool
    with pytest.raises(ValueError, match="sample id 0 is held more than once"):
        Gallery(dataset, [0, 0], [1, 2], [0, 0])


def test_enroll_rejects_a_user_key_outside_int64():
    dataset = _ds(2)
    for key in (2**63, -(2**63) - 1):
        with pytest.raises(ValueError, match=f"user key {key} does not fit in int64"):
            Gallery(dataset, [0, 1], [key, 1], [0, 0])
    g = Gallery(dataset, [0, 1], [2**63 - 1, -(2**63)], [0, 0])
    assert g.owner.tolist() == [-(2**63), 2**63 - 1]


def test_row_accessors_follow_user_then_sample_id_order():
    # users given out of id order, sample ids out of order within a user
    pairs = [
        (7, make_sample(40, [7.0, 0.0], user=7)),
        (2, make_sample(31, [2.0, 1.0], user=2)),
        (7, make_sample(12, [7.0, 1.0], user=3)),
        (2, make_sample(8, [2.0, 2.0], user=2)),
        (5, make_sample(3, [5.0, 0.0], user=2)),
        (2, make_sample(20, [2.0, 3.0], user=2)),
    ]
    dataset = dataset_of([s for _, s in pairs])
    owner = [u for u, _ in pairs]
    g = Gallery(dataset, np.arange(6), owner, np.zeros(6, np.int64))
    assert g.owner.tolist() == [2, 2, 2, 5, 7, 7]  # ascending, so each user is contiguous
    assert g.sample_id.tolist() == [8, 20, 31, 3, 12, 40]  # ascending within each user
    assert g.true_user.tolist() == [2, 2, 2, 2, 3, 7]
    assert g.vectors.tolist() == [[2.0, 2.0], [2.0, 3.0], [2.0, 1.0], [5.0, 0.0], [7.0, 1.0], [7.0, 0.0]]
    assert g.vectors.dtype == np.float64 and g.vectors.shape == (6, 2)
    for rows in (g.rows, g.owner, g.sample_id, g.true_user):
        assert rows.dtype == np.int64
    assert g.vectors is not g.vectors and g.true_user is not g.true_user  # gathered per read
    assert g.inserted_at.tolist() == [0] * 6
    for name in ("rows", "owner", "inserted_at", "sample_id", "starts"):  # stored columns
        column = getattr(g, name)
        assert column is getattr(g, name) and not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = column[1]
    # the pairs sorted by user, then sample id, whatever their order
    by_key = sorted(range(6), key=lambda i: (pairs[i][0], pairs[i][1].id))
    assert np.array_equal(g.vectors, [pairs[i][1].vector for i in by_key])
    assert g.owner.tolist() == [owner[i] for i in by_key] and g.rows.tolist() == by_key
    reverse = Gallery(dataset, np.arange(6)[::-1], owner[::-1], np.zeros(6, np.int64))
    assert reverse.rows.tolist() == g.rows.tolist()
    # a row's batch does not order the rows: an older row may follow a newer one
    assert Gallery(_ds(2), [0, 1], [1, 1], [2, 1]).inserted_at.tolist() == [2, 1]


def test_a_gallery_orders_rows_given_out_of_order():
    # users out of order, and one user's ids reversed: each comes back in key order
    g = Gallery(_ds(2), [0, 1], [2, 1], [0, 3])
    assert g.owner.tolist() == [1, 2] and g.sample_id.tolist() == [1, 0]
    assert g.inserted_at.tolist() == [3, 0] and g.starts.tolist() == [0, 1, 2]
    g = Gallery(_ds(2), [1, 0], [1, 1], [2, 1])
    assert g.owner.tolist() == [1, 1] and g.sample_id.tolist() == [0, 1]
    assert g.inserted_at.tolist() == [1, 2] and g.starts.tolist() == [0, 2]


def test_a_gallery_built_from_shuffled_rows_equals_the_ordered_build():
    # users 1..3 with three rows each, inserted in different batches
    dataset = dataset_of([make_sample(10 * u + j, [float(u), float(j)], user=u) for u in (1, 2, 3) for j in range(3)])
    owner = [1, 1, 1, 2, 2, 2, 3, 3, 3]
    inserted_at = [0, 1, 2, 2, 0, 1, 1, 2, 0]
    ordered = Gallery(dataset, np.arange(9), owner, inserted_at)
    # users interleaved, each user's ids reversed
    shuffled = [8, 5, 2, 7, 4, 1, 6, 3, 0]
    g = Gallery(dataset, shuffled, [owner[i] for i in shuffled], [inserted_at[i] for i in shuffled])
    for name in ("rows", "owner", "inserted_at", "sample_id", "starts"):
        column = getattr(g, name)
        assert column.dtype == getattr(ordered, name).dtype and not column.flags.writeable
        assert column.tolist() == getattr(ordered, name).tolist(), name
    assert g.true_user.tolist() == ordered.true_user.tolist()
    assert np.array_equal(g.vectors, ordered.vectors) and g.user_ids == [1, 2, 3]


def test_a_gallery_a_cycle_and_its_evaluation_build_no_sample(monkeypatch):
    built = []
    sample = core.Sample
    monkeypatch.setattr(core, "Sample", lambda *fields: built.append(fields[0]) or sample(*fields))
    # users 1 and 2 hold three rows each, the second user's truth mixed; then
    # one probe per user and one test sample per user
    ids, owner, truth = [0, 1, 2, 3, 4, 5], [1, 1, 1, 2, 2, 2], [1, 1, 1, 2, 1, 2]
    samples = [make_sample(i, [10.0 * u, i], user=t) for i, u, t in zip(ids, owner, truth)]
    samples += [make_sample(10, [0.5, 2.5], user=1), make_sample(11, [20.5, 4.0], user=2),
                make_sample(20, [0.0, 1.0], user=1), make_sample(21, [20.0, 4.0], user=2)]
    dataset = dataset_of(samples)
    g = Gallery(dataset, np.arange(6), owner, [0] * 6)
    for _ in range(3):
        assert g.sample_id.tolist() == ids and g.true_user.tolist() == truth
    # MDIST at p = 3 then evicts one row of each user
    g1, report = run_update_cycle(g, batch_of(dataset, [10, 11]), EngineConfig(method="mdist", p=3), t_star=100.0)
    assert report.n_accepted == 2 and len(report.evictions) == 2
    test = batch_of(dataset, [20, 21], index=2)
    columns = distance_columns(test, [g, g1])
    for gallery in (g, g1):
        impostor_fraction(gallery)
        score_sets(test, gallery, columns)
    assert built == []
    # only the benchmark's per-user view builds them: one per row, at its first read
    assert [t.sample.id for u in g1.user_ids for t in g1.users[u].templates] == g1.sample_id.tolist()
    assert built == g1.sample_id.tolist()


def test_gallery_users_are_read_only():
    rows, owner = [0, 1], [1, 2]
    g = Gallery(dataset_of([make_sample(0, [0.0]), make_sample(1, [0.0], user=2)]), rows, owner, [0, 0])
    with pytest.raises(TypeError):
        g.users[3] = UserGallery(templates=())
    with pytest.raises(TypeError):
        del g.users[1]
    rows.append(2)  # the caller's lists, edited after the build
    owner[0] = 5
    del rows[0]
    assert g.user_ids == [1, 2] and g.n_templates == 2
    assert [t.sample.id for u in g.user_ids for t in g.users[u].templates] == [0, 1]
    enrolled = enroll([(1, make_sample(0, [0.0])), (2, make_sample(1, [1.0], user=2))])
    with pytest.raises(TypeError):
        enrolled.users[3] = UserGallery(templates=())
    assert enrolled.user_ids == [1, 2]


def test_gallery_users_view_is_built_at_most_once(monkeypatch):
    # readers walk it once per user (the benchmark's owned_ids does), so a
    # view rebuilt per read would build every template once per user
    built = []

    def counting(templates):
        built.append(len(templates))
        return UserGallery(templates=templates)

    monkeypatch.setattr(core, "UserGallery", counting)
    pairs = [(u, make_sample(10 * u + i, [float(u)], user=u)) for u in (3, 1, 2) for i in range(u)]
    g = enroll(pairs)
    assert built == []  # nothing is built until the view is read
    for _ in range(3):
        ids = {u: [t.sample.id for t in g.users[u].templates] for u in g.user_ids}
    assert ids == {1: [10], 2: [20, 21], 3: [30, 31, 32]}
    assert built == [1, 2, 3] and g.users is g.users


def test_gallery_holds_rows_of_its_dataset_and_no_vector_stack():
    pairs = [(u, make_sample(u, [float(u), 1.0], user=u, session=u % 2 or None)) for u in (2, 1, 3)]
    g = enroll(pairs)
    assert g.rows.tolist() == [1, 0, 2] and g.dataset.sample_id.tolist() == [2, 1, 3]
    view = g.users[1].templates[0].sample
    assert (view.id, view.true_user, view.session, view.vector.tolist()) == (1, 1, 1, [1.0, 1.0])
    assert g.users[2].templates[0].sample.session is None
    for value in vars(g).values():  # the stored fields, and the view once read
        assert not (isinstance(value, np.ndarray) and value.dtype.kind == "f")


def _ds(n=2):
    """A dataset of n one-coordinate samples of user 1, ids and values 0 .. n-1."""
    return dataset_of([make_sample(i, [float(i)]) for i in range(n)])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Gallery(_ds(), [0, 1], [1, 1], [0, -3]), "inserted_at must be non-negative"),
        (lambda: Gallery(_ds(), [], [], []), "gallery has no users"),
        (lambda: Gallery(_ds(), [0, 1], [1], [0, 0]), "rows, owner and inserted_at must hold one entry per row"),
        # a row must lie in the dataset: a negative one would wrap to its end
        (lambda: Gallery(_ds(), [0, 2], [1, 1], [0, 0]), r"row 2 is not a row of the dataset \(0 to 1\)$"),
        (lambda: Batch(_ds(), [1, -1], 1), r"row -1 is not a row of the dataset \(0 to 1\)$"),
        # one row twice in one user would let a cycle keep more than p
        (lambda: Gallery(_ds(), [0, 0], [3, 3], [0, 0]), "sample id 0 is held more than once"),
        # a repeat among rows out of order is found once they are ordered
        (lambda: Gallery(_ds(), [1, 0, 0], [3, 3, 3], [0, 0, 0]), "sample id 0 is held more than once"),
        # one row in two users would put a zero into the cross-user pool
        (lambda: Gallery(_ds(), [0, 0], [1, 2], [0, 0]), "sample id 0 is held more than once"),
        # owner holds keys as int64
        (lambda: Gallery(_ds(), [0, 1], [1, 2**63], [0, 0]), f"user key {2**63} does not fit in int64"),
        (lambda: Gallery(_ds(), [0, 1], [-(2**63) - 1, 1], [0, 0]),
         f"user key {-(2**63) - 1} does not fit in int64"),
        # the first value that is not an integer in int64 is named, whichever
        # check it fails: a value outside int64 before a later float or str
        (lambda: Gallery(_ds(), [0, 1], [2**64, 1.5], [0, 0]), f"user key {2**64} does not fit in int64$"),
        (lambda: Gallery(_ds(), [0, 1], [-(2**63) - 1, "1"], [0, 0]),
         f"user key {-(2**63) - 1} does not fit in int64$"),
        (lambda: Gallery(_ds(), [0, 1], ["1", 2**63], [0, 0]), "user key must be an integer, not '1'$"),
        (lambda: Gallery(_ds(), [0, 1], [1, 2], [2**63, 1.5]), f"inserted_at {2**63} does not fit in int64$"),
        (lambda: Batch(_ds(), [], -1), "batch index must be non-negative"),
        # keys, rows and batches must be integers: a float would be truncated
        # into a row (1.5 and 1.7 would both be user 1), and a str parsed
        (lambda: Gallery(_ds(), [0, 1], [1.5, 1.7], [0, 0]), r"user key must be an integer, not 1\.5$"),
        (lambda: Gallery(_ds(), [0, 1], ["1", True], [0, 0]), "user key must be an integer, not '1'$"),
        (lambda: Gallery(_ds(), [0, 1], [1, True], [0, 0]), "user key must be an integer, not True$"),
        (lambda: Gallery(_ds(), [0, 1], np.array([1.0, 2.0]), [0, 0]),
         r"user key must be an integer, not (np\.float64\()?1\.0\)?$"),
        (lambda: Gallery(_ds(), [0, 1], [1, 2], [0, 1.5]), r"inserted_at must be an integer, not 1\.5$"),
        (lambda: Gallery(_ds(), [0, 1], [1, 2], np.array([False, True])),
         r"inserted_at must be an integer, not (np\.)?False_?$"),
        (lambda: Gallery(_ds(), np.array([0.0, 1.0]), [1, 2], [0, 0]), r"row must be an integer, not (np\.float64\()?0\.0\)?$"),
        (lambda: Batch(_ds(), [True], 1), "row must be an integer, not True$"),
        # an unsigned array outside int64 is named, not wrapped to a negative key
        (lambda: Gallery(_ds(), [0, 1], np.array([1, 2**63], dtype=np.uint64), [0, 0]),
         f"user key {2**63} does not fit in int64"),
        (lambda: Batch(_ds(), [], 2.5), r"batch index must be an integer, not 2\.5$"),
        (lambda: Batch(_ds(), [], True), "batch index must be an integer, not True$"),
        (lambda: gallery_enroll(Batch(_ds(1), [0], 0), cap=2.5), r"cap must be an integer, not 2\.5$"),
        # a dataset is checked once, as a whole
        (lambda: Dataset([], [], [], []), "a dataset needs at least one row of at least one coordinate$"),
        (lambda: Dataset(np.arange(2), [1, 1], [-1, -1], np.zeros((2, 0))),
         "a dataset needs at least one row of at least one coordinate$"),
        (lambda: Dataset(np.arange(2), [1, 1], [-1, -1], np.zeros(2)),
         "a dataset needs at least one row of at least one coordinate$"),
        (lambda: Dataset(np.arange(2), [1, 1], [-1, -1], np.zeros((2, 1, 1))),
         "a dataset needs at least one row of at least one coordinate$"),
        (lambda: Dataset(np.arange(2), [1], [-1, -1], np.zeros((2, 1))),
         "sample_id, true_user, session and vectors must hold one entry per row$"),
        (lambda: Dataset([4, 7, 9], [1, 1, 1], [-1, -1, -1], [[0.0], [np.nan], [np.inf]]),
         "sample 7: feature vector contains non-finite coordinates$"),
        (lambda: Dataset([4, 7, 4, 7], [1, 1, 1, 1], [-1] * 4, np.zeros((4, 1))), "duplicate sample_id 4$"),
        (lambda: Dataset([4, 2**63], [1, 1], [-1, -1], np.zeros((2, 1))), f"id {2**63} does not fit in int64$"),
        (lambda: Dataset([4], [-(2**63) - 1], [-1], np.zeros((1, 1))), f"true_user {-(2**63) - 1} does not fit in int64$"),
        (lambda: Dataset([4], [1], [2**63], np.zeros((1, 1))), f"session {2**63} does not fit in int64$"),
        # an unsigned array outside int64 is named, not wrapped to a negative id
        (lambda: Dataset(np.array([4, 2**64 - 1], dtype=np.uint64), [1, 1], [-1, -1], np.zeros((2, 1))),
         f"id {2**64 - 1} does not fit in int64$"),
        (lambda: Dataset([4, 5], [1, 1.5], [-1, -1], np.zeros((2, 1))), r"true_user must be an integer, not 1\.5$"),
        # a float id would be truncated in a dataset's int64 rows, and a float
        # session written to a dataset file that load_dataset then refuses
        (lambda: Dataset([4, 2.7], [1, 1], [-1, -1], np.zeros((2, 1))), r"id must be an integer, not 2\.7$"),
        (lambda: Dataset([1.0], [1], [-1], np.zeros((1, 1))), r"id must be an integer, not 1\.0$"),
        (lambda: Dataset([np.float64(3.0)], [1], [-1], np.zeros((1, 1))),
         r"id must be an integer, not (np\.float64\()?3\.0\)?$"),
        (lambda: Dataset([4], ["1"], [-1], np.zeros((1, 1))), "true_user must be an integer, not '1'$"),
        (lambda: Dataset([0], [1.5], [-1], np.zeros((1, 1))), r"true_user must be an integer, not 1\.5$"),
        # a bool is no key in any column
        (lambda: Dataset([True], [1], [-1], np.zeros((1, 1))), "id must be an integer, not True$"),
        (lambda: Dataset([4], [True], [-1], np.zeros((1, 1))), "true_user must be an integer, not True$"),
        (lambda: Dataset([4], [1], [False], np.zeros((1, 1))), "session must be an integer, not False$"),
        (lambda: Dataset([4, 5], [1, 1], [-1, 1.5], np.zeros((2, 1))), r"session must be an integer, not 1\.5$"),
    ],
)
def test_boundary_checks_raise_their_messages(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_rows_given_as_a_list_cannot_change_the_gallery():
    rows = [0, 1]
    g = Gallery(_ds(3), rows, [1, 1], [0, 0])
    rows.append(2)  # after the checks ran
    assert g.rows.tolist() == [0, 1]
    assert g.n_templates == 2 and g.vectors.shape == (2, 1)


def test_a_dataset_stacks_rows_given_as_a_list_into_read_only_copies():
    rows = [np.array([float(i), 2.0 * i, -1.0]) for i in range(5)]
    rows[1] = rows[1].astype(np.float32)
    dataset = Dataset(range(5), [0, 1, 0, 1, 0], [-1, 1, 2, -1, 4], rows)
    assert len(dataset) == 5
    assert dataset.vectors.dtype == np.float64 and dataset.vectors.shape == (5, 3)
    assert dataset.vectors.tolist() == [r.tolist() for r in rows]
    assert not any(np.shares_memory(dataset.vectors, r) for r in rows)  # a copy
    rows[0][:] = 9.0  # the caller's rows stay the caller's
    assert dataset.vectors[0].tolist() == [0.0, 0.0, -1.0]
    assert dataset.sample_id.tolist() == [0, 1, 2, 3, 4] and dataset.true_user.tolist() == [0, 1, 0, 1, 0]
    assert dataset.session.tolist() == [-1, 1, 2, -1, 4]
    for name in ("sample_id", "true_user", "session", "vectors"):
        column = getattr(dataset, name)
        assert not column.flags.writeable and (name == "vectors" or column.dtype == np.int64)
        with pytest.raises(ValueError):
            column[0] = column[1]


@pytest.mark.parametrize("source", ["list", "float32 matrix", "read-only float32 matrix"])
def test_a_dataset_owns_a_copy_that_a_later_write_to_the_source_leaves_unchanged(source):
    matrix = np.arange(4.0, dtype=np.float32).reshape(2, 2)
    matrix.flags.writeable = source != "read-only float32 matrix"
    rows = [[0.0, 1.0], [2.0, 3.0]] if source == "list" else matrix
    dataset = Dataset([0, 1], [1, 2], [-1, -1], rows)
    assert not np.shares_memory(dataset.vectors, matrix) and not dataset.vectors.flags.writeable
    matrix.flags.writeable = True  # an owner made writeable again reaches no dataset
    matrix[:] = 99.0
    if source == "list":
        rows[1][:] = [99.0, 99.0]
    assert dataset.vectors.tolist() == [[0.0, 1.0], [2.0, 3.0]]


@pytest.mark.parametrize("value, first", [(np.nan, 0), (np.inf, 2), (-np.inf, 3)])
def test_a_dataset_names_the_first_sample_with_a_non_finite_coordinate(value, first):
    vectors = np.zeros((4, 2))
    vectors[first:, first % 2] = value  # every row from the first on
    with pytest.raises(ValueError, match=f"^sample {10 + first}: feature vector contains non-finite coordinates$"):
        Dataset(10 + np.arange(4), [1, 1, 2, 2], [-1] * 4, vectors)


def test_a_dataset_takes_a_float64_matrix_as_given_and_freezes_it():
    vectors = np.arange(6.0).reshape(3, 2)
    dataset = Dataset(sample_id=[5, 6, 7], true_user=[1, 2, 2], session=[-1, 0, 3], vectors=vectors)
    assert dataset.vectors is vectors and not vectors.flags.writeable
    as_float = Dataset(sample_id=[5], true_user=[1], session=[-1], vectors=[[1, 2]]).vectors
    assert as_float.dtype == np.float64 and as_float.tolist() == [[1.0, 2.0]]


def test_a_dataset_takes_python_and_numpy_integer_keys():
    keys = [3, np.int64(4), np.int32(5), np.uint8(6)]
    dataset = Dataset(keys, keys, [np.uint8(0), -1, np.int32(2), -1], np.zeros((4, 1)))
    assert dataset.sample_id.tolist() == dataset.true_user.tolist() == [3, 4, 5, 6]
    assert dataset.session.tolist() == [0, -1, 2, -1]


def test_a_dataset_refuses_rows_of_different_dimensions():
    # numpy refuses to stack a ragged list, so no dataset holds two dimensions
    with pytest.raises(ValueError):
        Dataset([0, 1], [1, 2], [-1, -1], [np.zeros(2), np.zeros(1)])


def _first_repeat_by_set(ids):
    """The first position whose id a scan over the earlier positions has seen."""
    seen = set()
    for i, x in enumerate(ids):
        if x in seen:
            return i
        seen.add(x)
    return None


_INT64_EDGES = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1]


@given(st.lists(st.sampled_from(_INT64_EDGES) | st.integers(-3, 3) | st.integers(-(2**63), 2**63 - 1), max_size=12))
def test_first_repeat_is_the_first_position_a_set_scan_has_seen(values):
    ids = np.array(values, dtype=np.int64)
    assert core.first_repeat(ids) == _first_repeat_by_set(values)


def test_first_repeat_of_no_or_one_id_is_none():
    assert core.first_repeat(np.array([], dtype=np.int64)) is None
    for x in (-(2**63), 0, 2**63 - 1):
        assert core.first_repeat(np.array([x], dtype=np.int64)) is None
    assert core.first_repeat(np.array([2**63 - 1, -(2**63), 2**63 - 1, -(2**63)])) == 2


@pytest.mark.parametrize(
    "low, below, message",
    [(1, 0, "^n must be positive$"), (0, -1, "^n must be non-negative$"), (3, 2, "^n must be at least 3$"),
     (-1, -2, "^n must be at least -1$")],
)
def test_check_integer_passes_its_floor_and_names_it_below(low, below, message):
    assert core.check_integer(low, "n", low) == low
    assert core.check_integer(np.int64(low + 5), "n", low) == low + 5
    with pytest.raises(ValueError, match=message):
        core.check_integer(below, "n", low)
    with pytest.raises(ValueError, match=r"^n must be an integer, not 3\.0$"):  # the type first
        core.check_integer(3.0, "n", low)


@pytest.mark.parametrize("value", [0, -2, 0.5, float("nan"), float("inf"), np.float32(2.5), np.int64(7)])
def test_check_real_passes_every_real_number(value):
    assert core.check_real(value, "x") is value  # its interval is the caller's


@pytest.mark.parametrize("value", [True, False, np.True_, "1", None, 1j, [0.5]])
def test_check_real_refuses_a_bool_and_what_is_no_real_number(value):
    with pytest.raises(ValueError, match=f"^x must be a real number, not {re.escape(repr(value))}$"):
        core.check_real(value, "x")
