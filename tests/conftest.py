import csv
import io
import itertools

import numpy as np
import pytest

from selfgallery.core import Sample, gallery_enroll
from selfgallery.matching import EUCLIDEAN, _distances_to_rows
from selfgallery.metrics import distance_columns, fmt9


def make_sample(sid, values, user=1, session=None):
    return Sample(id=sid, vector=np.atleast_1d(np.asarray(values, dtype=float)),
                  true_user=user, session=session)


def make_samples(values, start_id=0, user=1):
    """1-D or n-D values -> samples with sequential ids, so in id order."""
    return [make_sample(start_id + i, v, user=user) for i, v in enumerate(values)]


def gallery_1d(user_values, cap=None):
    """{user: [scalar, ...]} -> enrolled gallery with sequential ids."""
    pairs = []
    sid = 0
    for user in sorted(user_values):
        for v in user_values[user]:
            pairs.append((user, make_sample(sid, [v], user=user)))
            sid += 1
    return gallery_enroll(pairs, cap=cap)


def gallery_columns(test, gallery, metric=EUCLIDEAN):
    """distance_columns of a test batch over the gallery's own samples."""
    return distance_columns(test, gallery.samples, metric)


def read_scatter(text):
    """A scatter file's data rows as dicts, after checking its header line."""
    assert text.startswith("subject,score,kind\n")
    return list(csv.DictReader(io.StringIO(text)))


def scatter_reference(probes, templates, metric=EUCLIDEAN):
    """A scatter file's rows, built plainly from ``templates`` ({user: [sample,
    ...]}): users in ascending order, each with its genuine and then its
    impostor probes in probe order, each scored by its least
    ``_distances_to_rows`` to one of the user's samples."""
    x = np.array([s.vector for s in probes])
    rows = []
    for u in sorted(templates):
        nearest = np.min([_distances_to_rows(t.vector, x, metric) for t in templates[u]], axis=0)
        for kind in ("genuine", "impostor"):
            rows += [
                {"subject": str(u), "score": fmt9(d), "kind": kind}
                for s, d in zip(probes, nearest.tolist())
                if (s.true_user == u) == (kind == "genuine")
            ]
    return rows


def gallery_templates(gallery):
    """{user: [sample, ...]} of the gallery's rows, in insertion order."""
    return {u: list(gallery.samples[gallery.owner == u]) for u in gallery.user_ids}


def held_ids(gallery):
    """{user: [sample id, ...]} of the gallery's rows, in insertion order."""
    return {u: [s.id for s in ss] for u, ss in gallery_templates(gallery).items()}


def screen_gallery(rng, dim, counts, offset):
    """users 1.. with counts[i] templates each, the first of every third user
    one shared vector and of the next user a near-duplicate of it."""
    sid = itertools.count()
    shared = rng.normal(0.0, 1.0, dim) + offset
    pairs = []
    for u, c in enumerate(counts, start=1):
        for j in range(c):
            v = rng.normal(u % 5, 1.0, dim) + offset
            if j == 0 and u % 3 == 0:
                v = shared
            elif j == 0 and u % 3 == 1:
                v = shared + rng.normal(0.0, 1e-6, dim)  # nearer than the screen resolves
            pairs.append((u, make_sample(next(sid), v, user=u)))
    return gallery_enroll(pairs), shared


@pytest.fixture
def abc_gallery():
    # 1-D users A=1:{0}, B=2:{1.0}, C=3:{1.4}; cross pool {1.0, 1.4, 0.4}
    return gallery_1d({1: [0.0], 2: [1.0], 3: [1.4]})
