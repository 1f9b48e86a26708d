"""Domain types shared by all modules: a dataset's rows, galleries, batches.

All types are immutable values; galleries evolve by producing new versions.
``Dataset``, ``Batch`` and ``Gallery`` hold arrays, so each compares and
hashes by identity, as ``Sample`` does.

One ``Dataset`` holds every sample the package works on, as rows: int64
``sample_id``, ``true_user`` and ``session`` (-1 where a sample has none)
columns and one float64 ``vectors`` matrix (n, dim), all read-only. The
producers fill it from arrays (``synthgen.generate``, ``dataio.load_dataset``);
inputs built by hand start from ``Sample`` values, which ``Dataset.of`` stacks
into rows, the one place a ``Sample`` becomes a row. Every other module works
on rows: a ``Batch`` and a ``Gallery`` are int64 row indices into one
dataset, and their vectors, sample ids and true users are gathers of its
columns. So a batch and the gallery it updates must be rows of the same
dataset; the engine and evaluation refuse a pair of two datasets.

Ground truth travels with the dataset, as its ``true_user`` column. The
split reads it to enroll, and evaluation (``metrics``) is where the test
batch's truth is read, for score sets and scatter files, and the gallery's,
for the impostor fraction. The update path (matching, selection, the
engine) never does.

A ``Gallery`` holds its dataset and int64 ``rows``, ``owner`` and
``inserted_at`` columns, in its one row order: by owner, then sample id
(``row_order``, the one place that order is decided), so each user's rows
are one run. It stores ``sample_id`` (its rows' ids, which order them) and
``starts``, the user bounds: each user's first row, then the row count, so
user u's rows (users ascending) are ``starts[u]:starts[u + 1]``.
``user_bounds`` is the one derivation of those bounds, for a gallery's owner
column and for any other owner-grouped column (selection's candidates).
``vectors`` and ``true_user`` are gathers per read. Only this module decides
that layout and where each user's rows lie; every other module reads the
row accessors (``rows``, ``owner``, ``inserted_at``, ``vectors``,
``sample_id``, ``true_user``, ``starts``, ``user_ids``): t*, the impostor
fraction and the score sets take each user's rows from ``starts``.
``Gallery.users`` is a per-user view of the same rows as ``Sample`` values,
built once per gallery at its first read and kept only for the benchmark's
checks, which read it; ``Template`` (one held sample) and ``UserGallery``
are its element types, and the package does not export them.

``gallery_enroll``'s ``cap`` is an enrollment bound only: it checks how
many samples each user enrolls with. The cap that selection enforces on
every update cycle is ``EngineConfig.p``.

Where inputs are checked. ``Sample`` checks one vector when it is built:
1-D, non-empty and finite, copied once and frozen, so no later write to the
source reaches it; its id, user and session must be integers (Python or
numpy, not bool), id and user within int64. ``Dataset`` checks its columns
once, as a whole: at least one row, one entry per row, every key an integer
in int64, finite 2-D vectors of at least one coordinate, and distinct
sample ids. A session is -1 for none and else non-negative; every reader
takes any negative session as none. Every scalar parameter of the package
goes through one of two rules: ``check_integer``, for every key, batch
index, count, size and seed, with its floor if it has one (``p`` positive,
a seed non-negative, at least 3 batches), and ``check_real``, for every
real parameter (``q``, t*, ``beta``, ``m_bar``, ``sigma``, ``separation``,
``tail_eps``), whose caller checks its own interval. Both refuse a bool,
and each wrong value raises ValueError naming its parameter. ``check_int64``
adds the int64 range, the one check of every key an int64 column holds
(``Sample``'s id and user, a gallery's owner and inserted_at).
``first_repeat`` is the one rule that each sample is given once: the
dataset's ids, a gallery's rows and the engine's fresh-row check name the
sample it finds. ``Batch`` and ``Gallery`` check that their rows lie in
their dataset. ``Gallery`` is the one place a gallery's invariants are
checked: at least one row, one entry per row in each column, every row,
key and batch an integer in int64 (an integer array that int64 holds
passes on its dtype alone; other values are checked in order, and the
first that fails either check is named), every row in its dataset; then it
orders them, and checks batches non-negative and each row held once, in
that order. ``gallery_enroll`` gives each row of a batch its true user as
owner and checks ``cap`` against the built gallery's bounds.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

@dataclass(frozen=True, eq=False)
class Sample:
    """A feature vector with a unique id and its ground-truth identity, the
    value type of inputs built by hand (``Dataset.of`` makes them rows);
    compared and hashed by identity, as ``Dataset``, ``Gallery`` and
    ``Batch`` are.
    """

    id: int
    vector: np.ndarray
    true_user: int
    session: Optional[int] = None

    def __post_init__(self):
        v = np.array(self.vector, dtype=np.float64)  # the one copy, frozen below
        if v.ndim != 1 or v.size < 1:
            raise ValueError("feature vector must be 1-D with at least one coordinate")
        if not np.all(np.isfinite(v)):
            raise ValueError("feature vector contains non-finite coordinates")
        v.flags.writeable = False
        object.__setattr__(self, "vector", v)
        # integers only: a float id truncates in a row, a float session is
        # written to a file that load_dataset refuses, and so is a bool
        for name in ("id", "true_user"):  # Dataset rows hold both as int64
            check_int64(getattr(self, name), name)
        if self.session is not None:
            check_integer(self.session, "session", 0)

    @property
    def dim(self) -> int:
        return self.vector.shape[0]


def check_integer(value, name: str, low: Optional[int] = None):
    """``value`` if it is an integer (Python or numpy, not bool) and, when
    ``low`` is given, at least ``low``; else a ValueError naming ``name``:
    the one integer check of the package's keys, indices, counts, sizes and
    seeds, and of their floors."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if low is not None and value < low:
        floor = {1: "positive", 0: "non-negative"}.get(low, f"at least {low}")
        raise ValueError(f"{name} must be {floor}")
    return value


def check_real(value, name: str):
    """``value`` if it is a real number (a ``numbers.Real``, Python or numpy,
    not bool), else a ValueError naming ``name`` and the value: the one type
    check of the package's real parameters. Each caller checks its own
    interval, since they differ."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, not {value!r}")
    return value


def check_int64(value, name: str):
    """``value`` if it is an integer that int64 holds (``check_integer``,
    then the range), else a ValueError naming ``name`` and the value: the one
    check of every key an int64 column holds."""
    if not -(2**63) <= check_integer(value, name) < 2**63:
        raise ValueError(f"{name} {value} does not fit in int64")
    return value


def first_repeat(ids: np.ndarray) -> Optional[int]:
    """The first position of ``ids`` whose id also occurs at an earlier
    position, or None when every id is distinct: one stable argsort puts
    each id's positions in order, so every position but an id's first
    follows an equal id."""
    order = np.argsort(ids, kind="stable")
    again = order[1:][ids[order[1:]] == ids[order[:-1]]]
    return int(again.min()) if len(again) else None


def _int64(values, name: str) -> np.ndarray:
    """A copy of ``values`` as int64. An integer array that int64 holds passes
    on its dtype alone; any other values go through ``check_int64`` one by
    one, in order, so the first that is not an integer in int64 is named,
    whichever check it fails."""
    integer_array = isinstance(values, np.ndarray) and values.dtype.kind in "iu"
    if integer_array and np.can_cast(values.dtype, np.int64):  # a uint64 array would wrap
        return values.astype(np.int64)
    return np.array([check_int64(v, name) for v in values], dtype=np.int64)


def _freeze(value, **columns) -> None:
    """Set each column, read-only, on the frozen dataclass ``value``."""
    for name, column in columns.items():
        column.flags.writeable = False
        object.__setattr__(value, name, column)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Every sample as a row: row i is sample ``sample_id[i]`` of user
    ``true_user[i]``, from session ``session[i]`` (-1 for none), with
    feature vector ``vectors[i]``.

    The key columns are read-only int64 copies. ``vectors`` is taken as
    given when it is already float64 (the producers hand over a matrix that
    nothing else holds, so no dataset-sized copy is made) and frozen.
    """

    sample_id: np.ndarray
    true_user: np.ndarray
    session: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        ids, truth = _int64(self.sample_id, "id"), _int64(self.true_user, "true_user")
        session, vectors = _int64(self.session, "session"), np.asarray(self.vectors, dtype=np.float64)
        if vectors.ndim != 2 or 0 in vectors.shape:
            raise ValueError("a dataset needs at least one row of at least one coordinate")
        if not len(ids) == len(truth) == len(session) == len(vectors):
            raise ValueError("sample_id, true_user, session and vectors must hold one entry per row")
        if len(bad := np.flatnonzero(~np.isfinite(vectors).all(axis=1))):
            raise ValueError(f"sample {ids[bad[0]]}: feature vector contains non-finite coordinates")
        if (again := first_repeat(ids)) is not None:
            raise ValueError(f"duplicate sample_id {ids[again]}")
        _freeze(self, sample_id=ids, true_user=truth, session=session, vectors=vectors)

    @classmethod
    def of(cls, samples: Sequence[Sample]) -> Dataset:
        """The samples as rows, in order: the one place a ``Sample`` becomes a
        row. The first sample of another dimension than the first's is
        named."""
        samples = list(samples)
        for s in samples:
            if s.dim != samples[0].dim:
                raise ValueError(f"dimension mismatch: sample {s.id} has dim {s.dim}, expected {samples[0].dim}")
        keys = [(s.id, s.true_user, -1 if s.session is None else s.session) for s in samples]
        return cls(*np.array(keys, dtype=np.int64).reshape(-1, 3).T, np.array([s.vector for s in samples]))

    def __len__(self) -> int:
        return len(self.vectors)


class _Rows:
    """Rows of one dataset, a ``Batch``'s or a ``Gallery``'s, whose vectors
    and ground-truth users are gathers of the dataset's columns, per read."""

    @property
    def vectors(self) -> np.ndarray:
        return self.dataset.vectors[self.rows]

    @property
    def true_user(self) -> np.ndarray:
        """Ground truth: read by the split's enrollment and by evaluation only."""
        return self.dataset.true_user[self.rows]


def _in(dataset: Dataset, rows: np.ndarray) -> np.ndarray:
    """``rows`` if each is a row of ``dataset``, else a ValueError naming the first that is not."""
    if len(out := np.flatnonzero((rows < 0) | (rows >= len(dataset)))):
        raise ValueError(f"row {rows[out[0]]} is not a row of the dataset (0 to {len(dataset) - 1})")
    return rows


@dataclass(frozen=True)
class Template:
    """One entry of ``Gallery.users``: a held sample."""

    sample: Sample


@dataclass(frozen=True)
class UserGallery:
    """One user's entries of ``Gallery.users``, in sample-id order."""

    templates: tuple[Template, ...]


@dataclass(frozen=True, eq=False)
class Gallery(_Rows):
    """Every user's templates as rows of one dataset: gallery row i holds
    dataset row ``rows[i]`` for user ``owner[i]`` since batch
    ``inserted_at[i]`` (0 for enrollment).

    Rows may come in any order, and the gallery orders them by owner, then
    sample id (``row_order``), the order selection reads, so each user's
    rows are contiguous: ``starts[u]:starts[u + 1]`` for the u-th user; a
    row's batch does not order it. A user is enrolled by its rows and never
    loses its last one. Every column is a read-only copy (``sample_id`` is
    the rows' ids, gathered once; ``starts`` is built over the ordered
    owners), so nothing changes a gallery after its checks ran.
    """

    dataset: Dataset
    rows: np.ndarray
    owner: np.ndarray
    inserted_at: np.ndarray
    sample_id: np.ndarray = field(init=False, repr=False)
    starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rows, owner = _int64(self.rows, "row"), _int64(self.owner, "user key")
        inserted_at = _int64(self.inserted_at, "inserted_at")
        if not len(rows):
            raise ValueError("gallery has no users")
        if not len(owner) == len(inserted_at) == len(rows):
            raise ValueError("rows, owner and inserted_at must hold one entry per row")
        ids = self.dataset.sample_id[_in(self.dataset, rows)]
        order = row_order(owner, ids)
        rows, owner, inserted_at, ids = rows[order], owner[order], inserted_at[order], ids[order]
        _freeze(self, rows=rows, owner=owner, inserted_at=inserted_at, sample_id=ids, starts=user_bounds(owner))
        if inserted_at.min() < 0:
            raise ValueError("inserted_at must be non-negative")
        if (again := first_repeat(rows)) is not None:  # a cycle could keep more than p, or t* read 0
            raise ValueError(f"sample id {ids[again]} is held more than once")

    @property
    def dim(self) -> int:
        """The one dimension of every template: the dataset's."""
        return self.dataset.vectors.shape[1]

    @property
    def user_ids(self) -> list[int]:
        return self.owner[self.starts[:-1]].tolist()

    @property
    def n_templates(self) -> int:
        return len(self.rows)

    @cached_property
    def users(self) -> Mapping[int, UserGallery]:
        """A read-only view of the rows by user, each row a ``Sample``, built
        at the first read and kept for the benchmark's checks, its only
        reader: ``Template`` and ``UserGallery`` exist only for it."""
        keys = zip(self.sample_id.tolist(), self.true_user.tolist(), self.dataset.session[self.rows].tolist())
        samples = [Template(Sample(i, v, u, None if s < 0 else s)) for (i, u, s), v in zip(keys, self.vectors)]
        bounds = self.starts.tolist()
        views = (UserGallery(tuple(samples[lo:hi])) for lo, hi in zip(bounds, bounds[1:]))
        return MappingProxyType(dict(zip(self.user_ids, views)))


def row_order(owner: np.ndarray, sample_id: np.ndarray) -> np.ndarray:
    """The positions of rows in a gallery's one row order: one stable
    lexsort by owner, then sample id, so each user's rows are one run."""
    return np.lexsort((sample_id, owner))


def user_bounds(owner: np.ndarray) -> np.ndarray:
    """Each user's first row, then the row count, of an ``owner`` column
    whose rows are grouped by user: ``np.unique(owner, return_index=True)``'s
    indices and ``len(owner)``, users in row order. User u's rows are
    ``starts[u]:starts[u + 1]``."""
    edge = np.ones(len(owner) + 1, dtype=bool)
    edge[1:-1] = owner[1:] != owner[:-1]
    return np.flatnonzero(edge)


@dataclass(frozen=True, eq=False)
class Batch(_Rows):
    """One update cycle's worth of unlabelled samples: rows of one dataset,
    in batch order, and the batch's index; compared and hashed by identity."""

    dataset: Dataset
    rows: np.ndarray
    index: int

    def __post_init__(self):
        check_integer(self.index, "batch index", 0)
        _freeze(self, rows=_in(self.dataset, _int64(self.rows, "row")))

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def sample_id(self) -> np.ndarray:
        return self.dataset.sample_id[self.rows]


def gallery_enroll(batch: Batch, cap: Optional[int] = None) -> Gallery:
    """Build the initial supervised gallery from a batch (the split's
    enrollment, batch 0): each row enrolled for its true user, in any order,
    since ``Gallery`` orders the rows.

    Each user enrolls at most ``cap`` samples when ``cap`` is given, counted
    from the built gallery's ``starts``; every other check, which comes
    first, is ``Gallery``'s.
    """
    if cap is not None:
        check_integer(cap, "cap", 1)
    g = Gallery(batch.dataset, batch.rows, batch.true_user, np.zeros(len(batch), np.int64))  # rows from batch 0
    if cap is not None and np.any(over := np.diff(g.starts) > cap):
        raise ValueError(f"users {g.owner[g.starts[:-1][over]].tolist()} enroll more than cap={cap} samples")
    return g
