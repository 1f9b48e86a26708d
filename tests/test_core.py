import numpy as np
import pytest

from selfgallery.core import Sample, Template, gallery_enroll

from conftest import make_sample


def test_sample_rejects_non_finite():
    with pytest.raises(ValueError):
        make_sample(0, [1.0, float("nan")])
    with pytest.raises(ValueError):
        make_sample(0, [float("inf")])


def test_sample_rejects_empty_vector():
    with pytest.raises(ValueError):
        Sample(id=0, vector=np.array([]), true_user=1)


def test_sample_vector_is_frozen():
    s = make_sample(0, [1.0, 2.0])
    with pytest.raises(ValueError):
        s.vector[0] = 9.0


def test_template_origin_batch_consistency():
    s = make_sample(0, [1.0])
    with pytest.raises(ValueError):
        Template(sample=s, origin="enrolled", inserted_at_batch=2)
    with pytest.raises(ValueError):
        Template(sample=s, origin="self_updated", inserted_at_batch=0)


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
