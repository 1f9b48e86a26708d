"""Domain types shared by all modules: samples, galleries, batches.

All types are immutable values; galleries evolve by producing new versions.
``Sample``, ``Batch`` and ``Gallery`` hold arrays, so each compares and hashes
by identity.
Each stores a fact once: a gallery's dimension follows from its samples, a
row's batch is its ``inserted_at``, and a user's id is its rows' owner. A
gallery's ``sample_id`` and ``true_user`` columns repeat its samples' fields
as a checked index of the held samples, built in the pass that checks them.
Ground-truth identities travel with samples, and with the galleries that
hold them as the ``true_user`` column. The dataset's split reads them
to enroll, and evaluation (``metrics``) is where the test batch's truth is
read, for score sets and scatter files, and the gallery's, for the impostor
fraction. The update path (matching, selection, the engine) never does.

A ``Gallery`` is rows over its samples: the held ``Sample`` objects by
reference, and int64 ``owner``, ``inserted_at``, ``sample_id`` and
``true_user`` columns, sorted by owner, then sample id: its one row order,
so each user's rows are one run. Its int64 ``starts`` are the user bounds:
each user's first row, then the row count, so user u's rows (users
ascending) are ``starts[u]:starts[u + 1]``. ``user_bounds`` is the one
derivation of those bounds, for a gallery's owner column and for any other
owner-grouped column (selection's candidates).
Every int64 column of a gallery is stored, read-only; only the float
``vectors`` are stacked per read, since a stacked copy kept on every gallery
holds each vector twice (its ``Sample`` stays alive) and raised peak memory
by about 10%. Only this module decides that layout and where each user's
rows lie; every other module reads the row accessors (``samples``,
``owner``, ``inserted_at``, ``vectors``, ``sample_id``, ``true_user``,
``starts``, ``user_ids``): t*, the impostor fraction and the score sets take
each user's rows from ``starts``. ``Gallery.users`` is a per-user
view of the same rows, built once per gallery and kept only for the
benchmark's checks, which read it; ``Template`` (one held sample) and
``UserGallery`` are its element types, and the package does not export them.

``gallery_enroll``'s ``cap`` is an enrollment bound only: it checks how
many samples each user enrolls with. The cap that selection enforces on
every update cycle is ``EngineConfig.p``.

Where inputs are checked. ``Sample`` checks one vector when it is built:
1-D, non-empty and finite, copied once and frozen, so no later write to the
source (a list, a row of a dataset's matrix) reaches it; its id, user and
session must be integers (Python or numpy, not bool), id and user within
int64. Every scalar parameter of the package goes through one of two rules:
``check_integer``, for every key, batch index, count, size and seed, with
its floor if it has one (``p`` positive, a seed non-negative, at least 3
batches), and ``check_real``, for every real parameter (``q``, t*, ``beta``,
``m_bar``, ``sigma``, ``separation``, ``tail_eps``), whose caller checks its
own interval. Both refuse a bool, and each wrong value raises ValueError
naming its parameter. ``check_int64`` adds the int64 range,
the one check of every key an int64 column holds (``Sample``'s id and user,
a gallery's owner and inserted_at). ``first_repeat`` is the one rule that
each sample id is given once: the gallery, the engine's fresh-id check,
evaluation's distance table and the dataset writer all name the sample it
finds.
``Batch`` keeps its samples as a tuple and an integer index. ``stack_vectors``
is the one place samples become rows: every (n, dim) stack in the package
comes from it, and it names the first sample of another dimension.
``Gallery`` is the one place a gallery's invariants are checked, all in one
pass over its rows: at least one row, one entry per row in each column,
every key and batch an integer in int64 (an integer array that int64
holds passes on its dtype alone; other values are checked in order, and
the first that fails either check is named), batches non-negative, one dimension (naming the first row of
another), each sample id held once, and then the rows sorted by owner and
sample id. ``gallery_enroll`` takes the (user, sample) pairs in any order,
sorts them once by (user, sample id) and checks ``cap`` against the built
gallery's bounds.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

@dataclass(frozen=True, eq=False)
class Sample:
    """A feature vector with a unique id and its ground-truth identity;
    compared and hashed by identity, as ``Gallery`` and ``Batch`` are.

    ``true_user`` is ground truth: only enrollment's split and evaluation
    read it, never the self-update path.
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
        for name in ("id", "true_user"):  # Gallery rows hold both as int64
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


def stack_vectors(samples: Sequence[Sample], dim: Optional[int] = None) -> np.ndarray:
    """The samples' vectors as one (len(samples), dim) float64 array, in
    order; ``dim`` defaults to the first sample's (0 for no sample).

    One ``np.array`` and a reshape; only when that fails is the first sample
    of another dimension searched for and named.
    """
    if dim is None:
        dim = samples[0].dim if len(samples) else 0
    try:
        return np.array([s.vector for s in samples], dtype=np.float64).reshape(len(samples), dim)
    except ValueError:  # ragged or of another width
        raise _dim_mismatch(next(s for s in samples if s.dim != dim), dim) from None


def _dim_mismatch(sample: Sample, dim: int) -> ValueError:
    return ValueError(f"dimension mismatch: sample {sample.id} has dim {sample.dim}, expected {dim}")


@dataclass(frozen=True)
class Template:
    """One entry of ``Gallery.users``: a held sample."""

    sample: Sample


@dataclass(frozen=True)
class UserGallery:
    """One user's entries of ``Gallery.users``, in sample-id order."""

    templates: tuple[Template, ...]


@dataclass(frozen=True, eq=False)
class Gallery:
    """Every user's templates as rows: row i holds ``samples[i]`` for user
    ``owner[i]`` since batch ``inserted_at[i]`` (0 for enrollment).

    Rows are sorted by owner, then sample id, the order selection reads, so
    each user's rows are contiguous: ``starts[u]:starts[u + 1]`` for the
    u-th user; a row's batch does not order it. A user is enrolled by its
    rows and never loses its last one. Every column is a read-only copy
    (``samples`` holds the caller's ``Sample`` objects by reference, no
    stacked vectors; ``sample_id`` and ``true_user`` are their fields, read
    once; ``starts`` is built in the same column pass, and the order check
    that follows makes it the user bounds), so nothing changes a gallery
    after its checks ran.
    """

    samples: np.ndarray
    owner: np.ndarray
    inserted_at: np.ndarray
    sample_id: np.ndarray = field(init=False, repr=False)
    true_user: np.ndarray = field(init=False, repr=False)
    starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rows = np.array(self.samples, dtype=object)  # a copy of the references
        owner, inserted_at = _int64(self.owner, "user key"), _int64(self.inserted_at, "inserted_at")
        # one plain pass per key column: a pass of (id, user) tuples is slower
        ids = np.fromiter((s.id for s in rows), dtype=np.int64, count=len(rows))
        truth = np.fromiter((s.true_user for s in rows), dtype=np.int64, count=len(rows))
        for name, column in (("samples", rows), ("owner", owner), ("inserted_at", inserted_at),
                             ("sample_id", ids), ("true_user", truth), ("starts", user_bounds(owner))):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if not len(rows):
            raise ValueError("gallery has no users")
        if not len(owner) == len(inserted_at) == len(rows):
            raise ValueError("samples, owner and inserted_at must hold one entry per row")
        if inserted_at.min() < 0:
            raise ValueError("inserted_at must be non-negative")
        dims = np.fromiter((s.vector.shape[0] for s in rows), dtype=np.intp, count=len(rows))
        if np.any(dims != dims[0]):  # the first row of another dimension
            raise _dim_mismatch(rows[np.argmax(dims != dims[0])], dims[0])
        if (again := first_repeat(ids)) is not None:  # a cycle could keep more than p, or t* read 0
            raise ValueError(f"sample id {ids[again]} is held more than once")
        # compared, not subtracted: no overflow; ids are distinct by now
        if np.any((owner[1:] < owner[:-1]) | ((owner[1:] == owner[:-1]) & (ids[1:] < ids[:-1]))):
            raise ValueError("rows must be grouped by ascending owner, in sample-id order")

    @property
    def dim(self) -> int:
        """The one dimension of every template."""
        return self.samples[0].dim

    @property
    def user_ids(self) -> list[int]:
        return self.owner[self.starts[:-1]].tolist()

    @property
    def n_templates(self) -> int:
        return len(self.samples)

    @property
    def vectors(self) -> np.ndarray:
        """The rows' vectors as one (n, dim) stack, built per read: the one
        column a gallery does not store."""
        return stack_vectors(self.samples, self.dim)

    @cached_property
    def users(self) -> Mapping[int, UserGallery]:
        """A read-only view of the rows by user, built at the first read and
        kept for the benchmark's checks, its only reader: ``Template`` and
        ``UserGallery`` exist only for it."""
        views = (UserGallery(tuple(map(Template, ss))) for ss in np.split(self.samples, self.starts[1:-1]))
        return MappingProxyType(dict(zip(self.user_ids, views)))


def user_bounds(owner: np.ndarray) -> np.ndarray:
    """Each user's first row, then the row count, of an ``owner`` column
    whose rows are grouped by user: ``np.unique(owner, return_index=True)``'s
    indices and ``len(owner)``, users in row order. User u's rows are
    ``starts[u]:starts[u + 1]``."""
    edge = np.ones(len(owner) + 1, dtype=bool)
    edge[1:-1] = owner[1:] != owner[:-1]
    return np.flatnonzero(edge)


def _int64(values, name: str) -> np.ndarray:
    """A copy of ``values`` as int64. An integer array that int64 holds passes
    on its dtype alone; any other values go through ``check_int64`` one by
    one, in order, so the first that is not an integer in int64 is named,
    whichever check it fails."""
    integer_array = isinstance(values, np.ndarray) and values.dtype.kind in "iu"
    if integer_array and np.can_cast(values.dtype, np.int64):  # a uint64 array would wrap
        return values.astype(np.int64)
    return np.array([check_int64(v, name) for v in values], dtype=np.int64)


@dataclass(frozen=True, eq=False)
class Batch:
    """One update cycle's worth of unlabelled samples, compared and hashed
    by identity."""

    index: int
    samples: tuple[Sample, ...]

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))  # a list would stay mutable
        check_integer(self.index, "batch index", 0)

    def __len__(self) -> int:
        return len(self.samples)


def gallery_enroll(
    dataset_slice: Iterable[tuple[int, Sample]], cap: Optional[int] = None
) -> Gallery:
    """Build the initial supervised gallery from (user, sample) pairs, given
    in any order: one sort by (user, sample id) gives the rows.

    Each user enrolls at most ``cap`` samples when ``cap`` is given, counted
    from the built gallery's ``starts``; every other check, which comes
    first, is ``Gallery``'s.
    """
    if cap is not None:
        check_integer(cap, "cap", 1)
    pairs = list(dataset_slice)
    owner = _int64([u for u, _ in pairs], "user key")
    samples = np.array([s for _, s in pairs], dtype=object)
    rows = np.lexsort((np.fromiter((s.id for s in samples), np.int64, len(samples)), owner))
    g = Gallery(samples=samples[rows], owner=owner[rows], inserted_at=np.zeros(len(rows), np.int64))
    if cap is not None and np.any(over := np.diff(g.starts) > cap):
        raise ValueError(f"users {g.owner[g.starts[:-1][over]].tolist()} enroll more than cap={cap} samples")
    return g
