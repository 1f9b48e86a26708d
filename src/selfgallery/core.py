"""Domain types shared by all modules: samples, galleries, batches.

All types are immutable values; galleries evolve by producing new versions.
Each stores a fact once: a gallery's dimension follows from its samples, a
row's batch is its ``inserted_at``, and a user's id is its rows' owner.
Ground-truth identities travel with samples. The dataset's split reads them
to enroll, and evaluation (``metrics``) is where the test batch's truth is
read, for score sets and scatter files, and the gallery's, for the impostor
fraction. The update path (matching, selection, the engine) never does.

A ``Gallery`` is rows over its samples: the held ``Sample`` objects by
reference, and int64 ``owner`` and ``inserted_at`` columns. Only this module
knows that layout; every other module reads the row accessors (``samples``,
``owner``, ``inserted_at``, ``vectors``, ``sample_id``, ``true_user``,
``user_ids``). ``Gallery.users`` is a per-user view of the same rows,
built once per gallery and kept only for the benchmark's checks, which
read it; ``Template`` (one held sample) and ``UserGallery`` are its element
types, and the package does not export them.

``gallery_enroll``'s ``cap`` is an enrollment bound only: it checks how
many samples each user enrolls with. The cap that selection enforces on
every update cycle is ``EngineConfig.p``.

Where inputs are checked. ``Sample`` checks one vector when it is built:
1-D, non-empty and finite, copied once and frozen; its id, user and
session must be integers (Python or numpy), id and user within int64.
``Batch`` keeps its samples as a tuple. ``stack_vectors`` is the
one place samples become rows: every (n, dim) stack in the package comes
from it, and it names the first sample of another dimension. ``Gallery``
is the one place a gallery's invariants are checked, all in one pass over
its rows: at least one row, one entry per row in each column, every key in
int64, batches non-negative, rows grouped by ascending owner in insertion
order, one dimension (naming the first row of another), and each sample id
held once. ``gallery_enroll`` only groups the (user, sample) pairs and
checks ``cap``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

@dataclass(frozen=True)
class Sample:
    """A feature vector with a unique id and its ground-truth identity.

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
        # written to a file that load_dataset refuses
        for name in ("id", "true_user", "session"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) and (name != "session" or value is not None):
                raise ValueError(f"{name} must be an integer, not {value!r}")
            if name != "session" and not -(2**63) <= value < 2**63:  # Gallery rows hold both as int64
                raise ValueError(f"{name} {value} does not fit in int64")
        if self.session is not None and self.session < 0:
            raise ValueError("session must be non-negative")

    @property
    def dim(self) -> int:
        return self.vector.shape[0]


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
    """One user's entries of ``Gallery.users``, in insertion order."""

    templates: tuple[Template, ...]


@dataclass(frozen=True, eq=False)
class Gallery:
    """Every user's templates as rows: row i holds ``samples[i]`` for user
    ``owner[i]`` since batch ``inserted_at[i]`` (0 for enrollment).

    Rows are grouped by ascending owner, in insertion order within an
    owner, so each user's rows are contiguous; a user is enrolled by its
    rows and never loses its last one. All three columns are read-only
    copies (``samples`` holds the caller's ``Sample`` objects by reference,
    no stacked vectors), so nothing changes a gallery after its checks ran.
    """

    samples: np.ndarray
    owner: np.ndarray
    inserted_at: np.ndarray

    def __post_init__(self):
        rows = np.array(self.samples, dtype=object)  # a copy of the references
        owner, inserted_at = _int64(self.owner, "user key"), _int64(self.inserted_at, "inserted_at")
        for name, column in (("samples", rows), ("owner", owner), ("inserted_at", inserted_at)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if not len(rows):
            raise ValueError("gallery has no users")
        if not len(owner) == len(inserted_at) == len(rows):
            raise ValueError("samples, owner and inserted_at must hold one entry per row")
        if inserted_at.min() < 0:
            raise ValueError("inserted_at must be non-negative")
        later = inserted_at[1:] < inserted_at[:-1]  # compared, not subtracted: no overflow
        if np.any((owner[1:] < owner[:-1]) | ((owner[1:] == owner[:-1]) & later)):
            raise ValueError("rows must be grouped by ascending owner, in insertion order")
        dims = np.fromiter((s.vector.shape[0] for s in rows), dtype=np.intp, count=len(rows))
        if np.any(dims != dims[0]):  # the first row of another dimension
            raise _dim_mismatch(rows[np.argmax(dims != dims[0])], dims[0])
        ids = self.sample_id
        by_id = np.argsort(ids, kind="stable")
        again = by_id[1:][ids[by_id[1:]] == ids[by_id[:-1]]]  # every later row of a held id
        if len(again):  # a cycle could keep more than p, or t* read 0
            raise ValueError(f"sample id {ids[again.min()]} is held more than once")

    @property
    def dim(self) -> int:
        """The one dimension of every template."""
        return self.samples[0].dim

    @property
    def user_ids(self) -> list[int]:
        return np.unique(self.owner).tolist()

    @property
    def n_templates(self) -> int:
        return len(self.samples)

    # Columns derived from the samples: built per read, never cached.
    @property
    def vectors(self) -> np.ndarray:
        return stack_vectors(self.samples, self.dim)

    @property
    def sample_id(self) -> np.ndarray:
        return np.fromiter((s.id for s in self.samples), dtype=np.int64, count=len(self.samples))

    @property
    def true_user(self) -> np.ndarray:
        return np.fromiter((s.true_user for s in self.samples), dtype=np.int64, count=len(self.samples))

    @cached_property
    def users(self) -> Mapping[int, UserGallery]:
        """A read-only view of the rows by user, built at the first read and
        kept for the benchmark's checks, its only reader: ``Template`` and
        ``UserGallery`` exist only for it."""
        users, starts = np.unique(self.owner, return_index=True)
        views = (UserGallery(tuple(map(Template, ss))) for ss in np.split(self.samples, starts[1:]))
        return MappingProxyType(dict(zip(users.tolist(), views)))


def _int64(values, name: str) -> np.ndarray:
    """A copy of ``values`` as int64, naming the first that does not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        bad = next(v for v in values if not -(2**63) <= v < 2**63)
        raise ValueError(f"{name} {bad} does not fit in int64") from None


@dataclass(frozen=True)
class Batch:
    """One update cycle's worth of unlabelled samples."""

    index: int
    samples: tuple[Sample, ...]

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))  # a list would stay mutable
        if self.index < 0:
            raise ValueError("batch index must be non-negative")

    def __len__(self) -> int:
        return len(self.samples)


def gallery_enroll(
    dataset_slice: Iterable[tuple[int, Sample]], cap: Optional[int] = None
) -> Gallery:
    """Build the initial supervised gallery from (user, sample) pairs.

    Each user enrolls at most ``cap`` samples when ``cap`` is given; every
    other check is ``Gallery``'s.
    """
    if cap is not None and cap < 1:
        raise ValueError("cap must be positive")
    by_user: dict[int, list[Sample]] = {}
    for user, sample in dataset_slice:
        by_user.setdefault(user, []).append(sample)
    if cap is not None:
        over = sorted(u for u, ss in by_user.items() if len(ss) > cap)
        if over:
            raise ValueError(f"users {over} enroll more than cap={cap} samples")
    rows = [(u, s) for u in sorted(by_user) for s in by_user[u]]
    return Gallery(
        samples=[s for _, s in rows], owner=[u for u, _ in rows], inserted_at=[0] * len(rows)
    )
