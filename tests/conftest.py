import csv
import io
import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from selfgallery.core import Batch, Dataset, Gallery, gallery_enroll
from selfgallery.matching import EUCLIDEAN, _distances_to_rows
from selfgallery.metrics import distance_columns, fmt9


@dataclass(frozen=True, eq=False)
class Record:
    """A hand-built sample of the tests: one row of the dataset that
    ``dataset_of`` builds; compared and hashed by identity."""

    id: int
    vector: np.ndarray
    true_user: int
    session: Optional[int] = None


def make_sample(sid, values, user=1, session=None):
    return Record(id=sid, vector=np.atleast_1d(np.asarray(values, dtype=float)), true_user=user, session=session)


def dataset_of(samples):
    """The records as a dataset's rows, in order, built from arrays as the
    producers build one: ``Dataset`` stacks the vectors and checks every
    column."""
    samples = list(samples)
    sessions = [-1 if s.session is None else s.session for s in samples]
    return Dataset([s.id for s in samples], [s.true_user for s in samples], sessions, [s.vector for s in samples])


def make_samples(values, start_id=0, user=1):
    """1-D or n-D values -> samples with sequential ids, so in id order."""
    return [make_sample(start_id + i, v, user=user) for i, v in enumerate(values)]


def enroll(pairs, cap=None, probes=()):
    """The gallery enrolled from (user, sample) pairs, each sample of its pair's
    user, over one ``dataset_of`` the pairs' samples followed by ``probes``
    (samples for the batches that ``batch_of`` takes from the same dataset)."""
    pairs = list(pairs)
    assert all(u == s.true_user for u, s in pairs), "a sample enrolls for its true user"
    dataset = dataset_of([s for _, s in pairs] + list(probes))
    return gallery_enroll(Batch(dataset, np.arange(len(pairs)), 0), cap=cap)


def batch_of(source, ids, index=1):
    """The batch of the rows holding sample ``ids``, in that order, of a
    dataset or of a gallery's dataset."""
    dataset = getattr(source, "dataset", source)
    row = {sid: r for r, sid in enumerate(dataset.sample_id.tolist())}
    return Batch(dataset, np.array([row[i] for i in ids], dtype=np.int64), index)


def probe_batch(samples, index=1):
    """A batch of the samples, in order, over a dataset of its own."""
    return Batch(dataset_of(samples), np.arange(len(samples)), index)


def with_probes(gallery, probes, index=1):
    """The gallery's rows over a new dataset of its dataset's samples followed
    by ``probes``, and the batch of the probes, in order."""
    dataset = dataset_of(samples_of(gallery.dataset) + list(probes))
    g = Gallery(dataset, gallery.rows, gallery.owner, gallery.inserted_at)
    return g, Batch(dataset, len(gallery.dataset) + np.arange(len(probes)), index)


def samples_of(rows):
    """The rows of a dataset, a batch or a gallery as records, in order."""
    dataset, rows = (rows, np.arange(len(rows))) if isinstance(rows, Dataset) else (rows.dataset, rows.rows)
    return [
        Record(id=i, vector=dataset.vectors[r], true_user=u, session=None if s < 0 else s)
        for r, i, u, s in zip(rows.tolist(), dataset.sample_id[rows].tolist(),
                              dataset.true_user[rows].tolist(), dataset.session[rows].tolist())
    ]


def gallery_1d(user_values, cap=None, probes=()):
    """{user: [scalar, ...]} -> enrolled gallery with sequential ids, over a
    dataset that also holds ``probes``."""
    pairs = []
    sid = 0
    for user in sorted(user_values):
        for v in user_values[user]:
            pairs.append((user, make_sample(sid, [v], user=user)))
            sid += 1
    return enroll(pairs, cap=cap, probes=probes)


def gallery_columns(test, gallery, metric=EUCLIDEAN):
    """distance_columns of a test batch over the gallery's own rows."""
    return distance_columns(test, [gallery], metric)


def read_scatter(text):
    """A scatter file's data rows as dicts, after checking its header line."""
    assert text.startswith("subject,score,kind\n")
    return list(csv.DictReader(io.StringIO(text)))


def scatter_reference(probes, templates, metric=EUCLIDEAN):
    """A scatter file's rows, built plainly from ``templates`` ({user: [sample,
    ...]}): users in ascending order, each with its genuine and then its
    impostor probes in probe order, each scored by its least
    ``_distances_to_rows`` to one of the user's samples. ``probes`` are
    samples, or a batch."""
    if isinstance(probes, Batch):
        probes = samples_of(probes)
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
    """{user: [sample, ...]} of the gallery's rows, in sample-id order."""
    samples = samples_of(gallery)
    return {u: [s for s, o in zip(samples, gallery.owner.tolist()) if o == u] for u in gallery.user_ids}


def held_ids(gallery):
    """{user: [sample id, ...]} of the gallery's rows, ascending."""
    return {u: gallery.sample_id[gallery.owner == u].tolist() for u in gallery.user_ids}


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
    return enroll(pairs), shared


@pytest.fixture
def abc_gallery():
    # 1-D users A=1:{0}, B=2:{1.0}, C=3:{1.4}; cross pool {1.0, 1.4, 0.4}
    return gallery_1d({1: [0.0], 2: [1.0], 3: [1.4]})
