import numpy as np
import pytest

from selfgallery.core import (
    Batch,
    Gallery,
    Sample,
    Template,
    UserGallery,
    gallery_enroll,
    stack_vectors,
)

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


def test_template_origin_batch_consistency():
    s = make_sample(0, [1.0])
    assert Template(sample=s).origin == Template(sample=s, inserted_at_batch=0).origin == "enrolled"
    assert Template(sample=s, inserted_at_batch=2).origin == "self_updated"


def test_enroll_minimal():
    pairs = [(u, make_sample(u, [float(u)], user=u)) for u in (1, 2, 3)]
    g = gallery_enroll(pairs, cap=6)
    assert set(g.users) == {1, 2, 3}
    assert all(len(g.users[u].templates) == 1 for u in g.users)


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
    assert len(g.users) == 59


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
    with pytest.raises(ValueError, match="sample id 0 is enrolled more than once"):
        gallery_enroll([(1, s), (1, s), (2, other)], cap=2)
    # one sample for two users would put a zero into the cross-user pool
    with pytest.raises(ValueError, match="sample id 0 is enrolled more than once"):
        gallery_enroll([(1, s), (2, s)])


def test_enroll_rejects_a_user_key_outside_int64():
    s0, s1 = make_sample(0, [0.0], user=1), make_sample(1, [9.0], user=2)
    for key in (2**63, -(2**63) - 1):
        with pytest.raises(ValueError, match=f"user key {key} does not fit in int64"):
            gallery_enroll([(key, s0), (1, s1)])
    g = gallery_enroll([(2**63 - 1, s0), (-(2**63), s1)])
    assert g.owner.tolist() == [-(2**63), 2**63 - 1]


def test_row_accessors_follow_user_then_insertion_order():
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
    assert g.sample_id.tolist() == [31, 8, 20, 3, 40, 12]
    assert g.true_user.tolist() == [2, 2, 2, 2, 7, 3]
    assert g.vectors.tolist() == [[2.0, 1.0], [2.0, 2.0], [2.0, 3.0], [5.0, 0.0], [7.0, 0.0], [7.0, 1.0]]
    assert g.vectors.dtype == np.float64 and g.vectors.shape == (6, 2)
    for rows in (g.owner, g.sample_id, g.true_user):
        assert rows.dtype == np.int64
    for name in ("vectors", "owner", "sample_id", "true_user"):
        assert getattr(g, name) is not getattr(g, name)  # built per read, never cached
    # the stack matching used to build for itself
    users = g.user_ids
    counts = [len(g.users[u].templates) for u in users]
    mat = np.array([t.sample.vector for u in users for t in g.users[u].templates])
    owners = np.repeat(np.array(users, dtype=np.int64), counts)
    assert np.array_equal(g.vectors, mat) and np.array_equal(g.owner, owners)


def test_gallery_users_are_read_only():
    a, b = _user(1), _user(1, start_id=1)
    users = {1: a, 2: b}
    g = Gallery(users=users)
    with pytest.raises(TypeError):
        g.users[3] = _user(1, start_id=2)
    with pytest.raises(TypeError):
        del g.users[1]
    users[3] = UserGallery(templates=())  # the caller's dict, edited after the build
    del users[1]
    assert g.user_ids == [1, 2] and g.n_templates == 2
    assert g == Gallery(users={2: b, 1: a}) and g != Gallery(users={1: a})
    enrolled = gallery_enroll([(1, make_sample(0, [0.0])), (2, make_sample(1, [1.0], user=2))])
    with pytest.raises(TypeError):
        enrolled.users[3] = UserGallery(templates=())
    assert enrolled.user_ids == [1, 2]


def _user(*dims, start_id=0):
    """A user's templates of the given dimensions, with sequential ids."""
    return UserGallery(templates=tuple(
        Template(sample=make_sample(start_id + i, [0.0] * d)) for i, d in enumerate(dims)))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Template(sample=make_sample(0, [0.0]), inserted_at_batch=-3),
         "inserted_at_batch must be non-negative"),
        (lambda: Gallery(users={1: _user(1), 4: _user()}), "user 4 has an empty gallery"),
        (lambda: Gallery(users={4: _user(1, 2)}),
         r"dimension mismatch: sample 1 has dim 2, expected 1$"),
        (lambda: Gallery(users={}), "gallery has no users"),
        # users are checked in key order, whatever the mapping's order
        (lambda: Gallery(users={2: _user(2, start_id=5), 1: _user(1, 1)}),
         r"dimension mismatch: sample 5 has dim 2, expected 1$"),
        (lambda: Batch(index=-1, samples=()), "batch index must be non-negative"),
    ],
)
def test_boundary_checks_raise_their_messages(build, message):
    with pytest.raises(ValueError, match=message):
        build()


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
