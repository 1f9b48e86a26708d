import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from selfgallery import core
from selfgallery.core import (
    Batch,
    Gallery,
    Sample,
    UserGallery,
    gallery_enroll,
    stack_vectors,
)
from selfgallery.engine import EngineConfig, run_update_cycle
from selfgallery.metrics import distance_columns, impostor_fraction, score_sets

from conftest import make_sample


def test_sample_rejects_non_finite():
    with pytest.raises(ValueError):
        make_sample(0, [1.0, float("nan")])
    with pytest.raises(ValueError):
        make_sample(0, [float("inf")])


def test_sample_copies_its_vector_once_and_freezes_it():
    source = np.array([1.0, 2.0])
    s = Sample(id=0, vector=source, true_user=1)
    assert s.vector is not source and not np.shares_memory(s.vector, source)
    source[0] = 9.0  # the caller's array stays the caller's
    assert s.vector.tolist() == [1.0, 2.0] and s.vector.dtype == np.float64
    assert not s.vector.flags.writeable
    for values in ([1, 2], np.array([1.0, 2.0], dtype=np.float32), (1.5, 2.5)):
        v = Sample(id=1, vector=values, true_user=1).vector
        assert v.dtype == np.float64 and v.tolist() == [float(x) for x in values]
    with pytest.raises(ValueError, match="must be 1-D"):
        Sample(id=2, vector=[[1.0, 2.0]], true_user=1)


@pytest.mark.parametrize("source", ["list", "matrix", "read-only matrix"])
def test_sample_owns_a_copy_that_a_later_write_to_the_source_leaves_unchanged(source):
    matrix = np.arange(4.0).reshape(2, 2)
    matrix.flags.writeable = source != "read-only matrix"
    row = [2.0, 3.0] if source == "list" else matrix[1]
    s = Sample(id=0, vector=row, true_user=1)
    assert not np.shares_memory(s.vector, matrix) and not s.vector.flags.writeable
    matrix.flags.writeable = True  # an owner made writeable again reaches no sample
    matrix[:] = 99.0
    if source == "list":
        row[:] = [99.0, 99.0]
    assert s.vector.tolist() == [2.0, 3.0]


def test_sample_refuses_a_bool_key():
    for build in (
        lambda: Sample(id=True, vector=[1.0], true_user=2),
        lambda: Sample(id=1, vector=[1.0], true_user=False),
        lambda: Sample(id=1, vector=[1.0], true_user=2, session=False),
    ):
        with pytest.raises(ValueError, match=r"must be an integer, not (True|False)$"):
            build()


def test_sample_rejects_empty_vector():
    with pytest.raises(ValueError):
        Sample(id=0, vector=np.array([]), true_user=1)


def test_sample_rejects_ids_outside_int64():
    for sid, user in ((2**63, 1), (0, -(2**63) - 1)):
        with pytest.raises(ValueError, match="does not fit in int64"):
            make_sample(sid, [0.0], user=user)
    assert make_sample(2**63 - 1, [0.0], user=-(2**63)).id == 2**63 - 1


def test_sample_vector_is_frozen():
    s = make_sample(0, [1.0, 2.0])
    with pytest.raises(ValueError):
        s.vector[0] = 9.0


def test_sample_accepts_python_and_numpy_integers():
    for key in (3, np.int64(3), np.int32(3), np.uint8(3)):
        s = Sample(id=key, vector=[0.0], true_user=key, session=key)
        assert s.id == s.true_user == s.session == 3
    assert Sample(id=0, vector=[0.0], true_user=1).session is None


def test_batch_holds_its_samples_as_a_tuple():
    samples = [make_sample(0, [0.0]), make_sample(1, [1.0])]
    batch = Batch(index=1, samples=samples)
    samples.append(make_sample(2, [2.0]))  # the caller's list, edited after the build
    assert type(batch.samples) is tuple and len(batch) == 2
    with pytest.raises(AttributeError):
        batch.samples.append(make_sample(3, [3.0]))
    kept = (make_sample(4, [4.0]),)
    assert Batch(index=2, samples=kept).samples is kept


def test_samples_and_batches_compare_and_hash_by_identity():
    # equal fields, distinct objects: unequal, with no element-wise comparison of vectors
    a, b = make_sample(0, [1.0, 2.0]), make_sample(0, [1.0, 2.0])
    assert a == a and a != b and not (a == b)
    assert a in [b, a] and b not in [a] and len({a, b, a}) == 2
    assert {a: 1, b: 2}[a] == 1 and hash(a) != hash(b)
    x, y = Batch(index=1, samples=(a,)), Batch(index=1, samples=(a,))
    assert x == x and x != y and len({x, y}) == 2 and {x: 1}[x] == 1


def test_splits_compare_by_their_fields_without_raising():
    from selfgallery.dataio import Split, split_batches

    ds = [make_sample(i, [float(i % 2), float(i)], user=1 + i % 2) for i in range(12)]
    s1, s2 = split_batches(ds, 3, 2, seed=0), split_batches(ds, 3, 2, seed=0)
    assert s1 == s1 and s1 != s2  # the same samples, but each split builds its own batches
    same = Split(enroll=s1.enroll, adaptation=s1.adaptation, test=s1.test)
    assert same == s1 and hash(same) == hash(s1) and len({s1, s2, same}) == 2
    copies = [make_sample(s.id, s.vector, user=s.true_user) for s in ds]
    other = split_batches(copies, 3, 2, seed=0)  # equal fields, other sample objects
    assert Split(enroll=other.enroll, adaptation=s1.adaptation, test=s1.test) != s1


def test_enroll_minimal():
    pairs = [(u, make_sample(u, [float(u)], user=u)) for u in (1, 2, 3)]
    g = gallery_enroll(pairs, cap=6)
    assert g.user_ids == [1, 2, 3] and g.owner.tolist() == [1, 2, 3]


def test_enroll_rejects_non_positive_cap():
    pairs = [(u, make_sample(u, [float(u)], user=u)) for u in (1, 2)]
    with pytest.raises(ValueError, match="cap must be positive"):
        gallery_enroll(pairs, cap=0)


def test_enroll_rejects_user_over_cap():
    pairs = [(1, make_sample(i, [float(i)], user=1)) for i in range(3)]
    pairs.append((2, make_sample(3, [9.0], user=2)))
    assert gallery_enroll(pairs, cap=3).n_templates == 4
    with pytest.raises(ValueError, match=r"users \[1\] enroll more than cap=2"):
        gallery_enroll(pairs, cap=2)


def test_enroll_many_users():
    # 59 users x 6 samples -> 354 templates
    pairs = []
    sid = 0
    for u in range(1, 60):
        for _ in range(6):
            pairs.append((u, make_sample(sid, [float(u), float(sid)], user=u)))
            sid += 1
    g = gallery_enroll(pairs, cap=6)
    assert g.n_templates == 354
    assert g.user_ids == list(range(1, 60))


def test_enroll_rejects_mixed_dims():
    pairs = [
        (1, make_sample(0, [0.0, 0.0], user=1)),
        (2, make_sample(1, [0.0, 0.0, 0.0], user=2)),
    ]
    with pytest.raises(ValueError):
        gallery_enroll(pairs)


def test_enroll_rejects_empty_slice():
    with pytest.raises(ValueError):
        gallery_enroll([])


def test_enroll_rejects_a_repeated_sample_id():
    s, other = make_sample(0, [0.0], user=1), make_sample(5, [9.0], user=2)
    # the same sample twice for one user would let a cycle keep more than p
    with pytest.raises(ValueError, match="sample id 0 is held more than once"):
        gallery_enroll([(1, s), (1, s), (2, other)], cap=2)
    # one sample for two users would put a zero into the cross-user pool
    with pytest.raises(ValueError, match="sample id 0 is held more than once"):
        gallery_enroll([(1, s), (2, s)])


def test_enroll_rejects_a_user_key_outside_int64():
    s0, s1 = make_sample(0, [0.0], user=1), make_sample(1, [9.0], user=2)
    for key in (2**63, -(2**63) - 1):
        with pytest.raises(ValueError, match=f"user key {key} does not fit in int64"):
            gallery_enroll([(key, s0), (1, s1)])
    g = gallery_enroll([(2**63 - 1, s0), (-(2**63), s1)])
    assert g.owner.tolist() == [-(2**63), 2**63 - 1]


def test_row_accessors_follow_user_then_sample_id_order():
    # users enrolled out of id order, sample ids out of order within a user
    pairs = [
        (7, make_sample(40, [7.0, 0.0], user=7)),
        (2, make_sample(31, [2.0, 1.0], user=2)),
        (7, make_sample(12, [7.0, 1.0], user=3)),
        (2, make_sample(8, [2.0, 2.0], user=2)),
        (5, make_sample(3, [5.0, 0.0], user=2)),
        (2, make_sample(20, [2.0, 3.0], user=2)),
    ]
    g = gallery_enroll(pairs)
    assert g.owner.tolist() == [2, 2, 2, 5, 7, 7]  # ascending, so each user is contiguous
    assert g.sample_id.tolist() == [8, 20, 31, 3, 12, 40]  # ascending within each user
    assert g.true_user.tolist() == [2, 2, 2, 2, 3, 7]
    assert g.vectors.tolist() == [[2.0, 2.0], [2.0, 3.0], [2.0, 1.0], [5.0, 0.0], [7.0, 1.0], [7.0, 0.0]]
    assert g.vectors.dtype == np.float64 and g.vectors.shape == (6, 2)
    for rows in (g.owner, g.sample_id, g.true_user):
        assert rows.dtype == np.int64
    assert g.vectors is not g.vectors  # built per read, never cached
    assert g.inserted_at.tolist() == [0] * 6 and g.samples.dtype == object
    for name in ("samples", "owner", "inserted_at", "sample_id", "true_user"):  # stored columns
        column = getattr(g, name)
        assert column is getattr(g, name) and not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = column[1]
    # the enrollment's pairs sorted by user, then sample id, whatever their order
    by_key = sorted(pairs, key=lambda pair: (pair[0], pair[1].id))
    assert np.array_equal(g.vectors, [s.vector for _, s in by_key])
    assert g.owner.tolist() == [u for u, _ in by_key] and list(g.samples) == [s for _, s in by_key]
    assert list(gallery_enroll(pairs[::-1]).samples) == list(g.samples)
    # a row's batch does not order the rows: an older row may follow a newer one
    assert Gallery(samples=_rows(1, 1), owner=[1, 1], inserted_at=[2, 1]).inserted_at.tolist() == [2, 1]


def test_a_gallery_orders_rows_given_out_of_order():
    # users out of order, and one user's ids reversed: each comes back in key order
    g = Gallery(samples=_rows(1, 1), owner=[2, 1], inserted_at=[0, 3])
    assert g.owner.tolist() == [1, 2] and g.sample_id.tolist() == [1, 0]
    assert g.inserted_at.tolist() == [3, 0] and g.starts.tolist() == [0, 1, 2]
    g = Gallery(samples=_rows(1, 1)[::-1], owner=[1, 1], inserted_at=[2, 1])
    assert g.owner.tolist() == [1, 1] and g.sample_id.tolist() == [0, 1]
    assert g.inserted_at.tolist() == [1, 2] and g.starts.tolist() == [0, 2]


def test_a_gallery_built_from_shuffled_rows_equals_the_ordered_build():
    # users 1..3 with three rows each, inserted in different batches
    samples = [make_sample(10 * u + j, [float(u), float(j)], user=u) for u in (1, 2, 3) for j in range(3)]
    owner = [1, 1, 1, 2, 2, 2, 3, 3, 3]
    inserted_at = [0, 1, 2, 2, 0, 1, 1, 2, 0]
    ordered = Gallery(samples=samples, owner=owner, inserted_at=inserted_at)
    # users interleaved, each user's ids reversed
    shuffled = [8, 5, 2, 7, 4, 1, 6, 3, 0]
    g = Gallery(samples=[samples[i] for i in shuffled], owner=[owner[i] for i in shuffled],
                inserted_at=[inserted_at[i] for i in shuffled])
    for name in ("samples", "owner", "inserted_at", "sample_id", "true_user", "starts"):
        column = getattr(g, name)
        assert column.dtype == getattr(ordered, name).dtype and not column.flags.writeable
        assert column.tolist() == getattr(ordered, name).tolist(), name
    assert np.array_equal(g.vectors, ordered.vectors) and g.user_ids == [1, 2, 3]


def test_a_gallery_reads_each_samples_keys_once_when_built():
    reads = Counter()

    class Counted(Sample):
        """A sample that counts reads of its id and true_user, by id."""

        def __getattribute__(self, name):
            if name in ("id", "true_user"):
                reads[name, object.__getattribute__(self, "id")] += 1
            return object.__getattribute__(self, name)

    def once_each(ids):
        return Counter({(name, i): 1 for name in ("id", "true_user") for i in ids})

    # users 1 and 2 hold three rows each, the second user's truth mixed
    ids, owner, truth = [0, 1, 2, 3, 4, 5], [1, 1, 1, 2, 2, 2], [1, 1, 1, 2, 1, 2]
    rows = [Counted(id=i, vector=[10.0 * u, i], true_user=t) for i, u, t in zip(ids, owner, truth)]
    reads.clear()
    g = Gallery(samples=rows, owner=owner, inserted_at=[0] * 6)
    assert reads == once_each(ids)
    reads.clear()
    for _ in range(3):
        assert g.sample_id.tolist() == ids and g.true_user.tolist() == truth
    assert not reads
    # one probe per user; MDIST at p = 3 then evicts one row of each user
    batch = Batch(index=1, samples=(make_sample(10, [0.5, 2.5], user=1), make_sample(11, [20.5, 4.0], user=2)))
    g1, report = run_update_cycle(g, batch, EngineConfig(method="mdist", p=3), t_star=100.0)
    assert report.n_accepted == 2 and len(report.evictions) == 2
    # only the next gallery's build reads its held rows' keys, once each
    assert reads == once_each(set(g1.sample_id.tolist()) & set(ids))
    test = Batch(index=2, samples=(make_sample(20, [0.0, 1.0], user=1), make_sample(21, [20.0, 4.0], user=2)))
    columns = distance_columns(test, list(g.samples) + list(batch.samples))  # every row of g and g1
    reads.clear()
    for gallery in (g, g1):
        impostor_fraction(gallery)
        score_sets(test, gallery, columns)
    assert not reads
    # enrollment from pairs out of order reads each id once too: 4 reads for 4 rows
    pairs = [(u, rows[i]) for u, i in ((2, 4), (1, 1), (2, 3), (1, 0))]
    reads.clear()
    assert gallery_enroll(pairs, cap=2).sample_id.tolist() == [0, 1, 3, 4]
    assert reads == once_each([0, 1, 3, 4])


def test_gallery_users_are_read_only():
    samples, owner = [make_sample(0, [0.0]), make_sample(1, [0.0], user=2)], [1, 2]
    g = Gallery(samples=samples, owner=owner, inserted_at=[0, 0])
    with pytest.raises(TypeError):
        g.users[3] = UserGallery(templates=())
    with pytest.raises(TypeError):
        del g.users[1]
    samples.append(make_sample(2, [0.0]))  # the caller's lists, edited after the build
    owner[0] = 5
    del samples[0]
    assert g.user_ids == [1, 2] and g.n_templates == 2
    assert [t.sample.id for u in g.user_ids for t in g.users[u].templates] == [0, 1]
    enrolled = gallery_enroll([(1, make_sample(0, [0.0])), (2, make_sample(1, [1.0], user=2))])
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
    g = gallery_enroll(pairs)
    assert built == []  # nothing is built until the view is read
    for _ in range(3):
        ids = {u: [t.sample.id for t in g.users[u].templates] for u in g.user_ids}
    assert ids == {1: [10], 2: [20, 21], 3: [30, 31, 32]}
    assert built == [1, 2, 3] and g.users is g.users


def test_gallery_holds_the_callers_samples_and_no_vector_stack():
    pairs = [(u, make_sample(u, [float(u), 1.0], user=u)) for u in (2, 1, 3)]
    g = gallery_enroll(pairs)
    assert [id(s) for s in g.samples] == [id(pairs[i][1]) for i in (1, 0, 2)]
    assert g.users[1].templates[0].sample is pairs[1][1]
    for value in vars(g).values():  # the stored fields, and the view once read
        assert not (isinstance(value, np.ndarray) and value.dtype.kind == "f")


def _rows(*dims, start_id=0):
    """Samples of the given dimensions with sequential ids."""
    return [make_sample(start_id + i, [0.0] * d) for i, d in enumerate(dims)]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Gallery(samples=_rows(1, 1), owner=[1, 1], inserted_at=[0, -3]),
         "inserted_at must be non-negative"),
        (lambda: Gallery(samples=_rows(1, 2), owner=[4, 4], inserted_at=[0, 0]),
         r"dimension mismatch: sample 1 has dim 2, expected 1$"),
        (lambda: Gallery(samples=[], owner=[], inserted_at=[]), "gallery has no users"),
        (lambda: Gallery(samples=_rows(1, 1), owner=[1], inserted_at=[0, 0]),
         "samples, owner and inserted_at must hold one entry per row"),
        # rows are checked in key order, whatever the enrollment's order
        (lambda: gallery_enroll([(2, _rows(2, start_id=5)[0]), (1, _rows(1, start_id=1)[0])]),
         r"dimension mismatch: sample 5 has dim 2, expected 1$"),
        # one id twice in one user would let a cycle keep more than p
        (lambda: Gallery(samples=_rows(1) * 2, owner=[3, 3], inserted_at=[0, 0]),
         "sample id 0 is held more than once"),
        # a repeat among rows out of order is found once they are ordered
        (lambda: Gallery(samples=_rows(1, 1)[::-1] + _rows(1), owner=[3, 3, 3], inserted_at=[0, 0, 0]),
         "sample id 0 is held more than once"),
        # one id in two users would put a zero into the cross-user pool
        (lambda: Gallery(samples=_rows(1) * 2, owner=[1, 2], inserted_at=[0, 0]),
         "sample id 0 is held more than once"),
        # owner holds keys as int64
        (lambda: Gallery(samples=_rows(1, 1), owner=[1, 2**63], inserted_at=[0, 0]),
         f"user key {2**63} does not fit in int64"),
        (lambda: Gallery(samples=_rows(1, 1), owner=[-(2**63) - 1, 1], inserted_at=[0, 0]),
         f"user key {-(2**63) - 1} does not fit in int64"),
        # the first value that is not an integer in int64 is named, whichever
        # check it fails: a value outside int64 before a later float or str
        (lambda: gallery_enroll([(2**64, _rows(1)[0]), (1.5, _rows(1, start_id=1)[0])]),
         f"user key {2**64} does not fit in int64$"),
        (lambda: Gallery(samples=_rows(1, 1), owner=[-(2**63) - 1, "1"], inserted_at=[0, 0]),
         f"user key {-(2**63) - 1} does not fit in int64$"),
        (lambda: Gallery(samples=_rows(1, 1), owner=["1", 2**63], inserted_at=[0, 0]),
         "user key must be an integer, not '1'$"),
        (lambda: Gallery(samples=_rows(1, 1), owner=[1, 2], inserted_at=[2**63, 1.5]),
         f"inserted_at {2**63} does not fit in int64$"),
        (lambda: Batch(index=-1, samples=()), "batch index must be non-negative"),
        # keys and batches must be integers: a float would be truncated into
        # a row (1.5 and 1.7 would both be user 1), and a str parsed
        (lambda: gallery_enroll([(1.5, _rows(1)[0]), (1.7, _rows(1, start_id=1)[0])]),
         r"user key must be an integer, not 1\.5$"),
        (lambda: Gallery(samples=_rows(1, 1), owner=["1", True], inserted_at=[0, 0]),
         "user key must be an integer, not '1'$"),
        (lambda: Gallery(samples=_rows(1, 1), owner=[1, True], inserted_at=[0, 0]),
         "user key must be an integer, not True$"),
        (lambda: Gallery(samples=_rows(1, 1), owner=np.array([1.0, 2.0]), inserted_at=[0, 0]),
         r"user key must be an integer, not (np\.float64\()?1\.0\)?$"),
        (lambda: Gallery(samples=_rows(1, 1), owner=[1, 2], inserted_at=[0, 1.5]),
         r"inserted_at must be an integer, not 1\.5$"),
        (lambda: Gallery(samples=_rows(1, 1), owner=[1, 2], inserted_at=np.array([False, True])),
         r"inserted_at must be an integer, not (np\.)?False_?$"),
        # an unsigned array outside int64 is named, not wrapped to a negative key
        (lambda: Gallery(samples=_rows(1, 1), owner=np.array([1, 2**63], dtype=np.uint64), inserted_at=[0, 0]),
         f"user key {2**63} does not fit in int64"),
        (lambda: Batch(index=2.5, samples=()), r"batch index must be an integer, not 2\.5$"),
        (lambda: Batch(index=True, samples=()), "batch index must be an integer, not True$"),
        (lambda: gallery_enroll([(1, _rows(1)[0])], cap=2.5), r"cap must be an integer, not 2\.5$"),
        # a float id would be truncated in a gallery's int64 rows, and a float
        # session written to a dataset file that load_dataset then refuses
        (lambda: Sample(id=2.7, vector=[0.0], true_user=1), r"id must be an integer, not 2\.7$"),
        (lambda: Sample(id=1.0, vector=[0.0], true_user=1), r"id must be an integer, not 1\.0$"),
        (lambda: Sample(id=np.float64(3.0), vector=[0.0], true_user=1),
         r"id must be an integer, not (np\.float64\()?3\.0\)?$"),
        (lambda: Sample(id=0, vector=[0.0], true_user=1.5), r"true_user must be an integer, not 1\.5$"),
        (lambda: Sample(id=0, vector=[0.0], true_user="1"), "true_user must be an integer, not '1'$"),
        (lambda: Sample(id=0, vector=[0.0], true_user=1, session=1.5),
         r"session must be an integer, not 1\.5$"),
    ],
)
def test_boundary_checks_raise_their_messages(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_templates_given_as_a_list_cannot_change_the_gallery():
    samples = _rows(1, 1)
    g = Gallery(samples=samples, owner=[1, 1], inserted_at=[0, 0])
    samples.append(make_sample(9, [0.0, 0.0]))  # after the checks ran
    assert list(g.samples) == samples[:2]
    assert g.n_templates == 2 and g.vectors.shape == (2, 1)


def test_stack_vectors_stacks_in_order_as_one_array():
    samples = [make_sample(i, [float(i), 2.0 * i, -1.0]) for i in range(5)]
    rows = stack_vectors(samples)
    assert rows.dtype == np.float64 and rows.shape == (5, 3) and rows.flags.writeable
    assert rows.tolist() == [s.vector.tolist() for s in samples]
    assert not any(np.shares_memory(rows, s.vector) for s in samples)  # a copy
    assert np.array_equal(stack_vectors(tuple(samples), 3), rows)
    assert stack_vectors((), 4).shape == (0, 4) and stack_vectors([]).shape == (0, 0)
    assert stack_vectors([], 4).dtype == np.float64


@pytest.mark.parametrize(
    "dims, dim, first",
    [
        ((2, 2, 3, 1), None, 2),  # ragged: the first sample sets the dimension
        ((2, 2, 1, 3), None, 2),
        ((2, 3, 3, 3), None, 1),
        ((3, 3, 3, 3), 2, 0),  # all alike, but not the dimension asked for
        ((2, 2, 2, 4), 2, 3),
    ],
)
def test_stack_vectors_names_the_first_sample_of_another_dim(dims, dim, first):
    samples = [make_sample(10 + i, [1.0] * d) for i, d in enumerate(dims)]
    want = dims[0] if dim is None else dim
    message = f"dimension mismatch: sample {10 + first} has dim {dims[first]}, expected {want}$"
    with pytest.raises(ValueError, match=message):
        stack_vectors(samples, dim)


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
