"""Domain types shared by all modules: samples, templates, galleries, batches.

All types are immutable values; galleries evolve by producing new versions.
Each stores a fact once: a template's origin follows from its batch, a
gallery's dimension from its templates, and a user's id is its key.
Ground-truth identities travel with samples. The dataset's split reads them
to enroll, and evaluation (``metrics``) is where the test batch's truth is
read, for score sets and scatter files, and the gallery's, for the impostor
fraction. The update path (matching, selection, the engine) never does.

``gallery_enroll``'s ``cap`` is an enrollment bound only: it checks how
many samples each user enrolls with. The cap that selection enforces on
every update cycle is ``EngineConfig.p``.

Where inputs are checked. ``Sample`` checks one vector when it is built:
1-D, non-empty and finite, copied once and frozen. ``stack_vectors`` is the
one place samples become rows: every (n, dim) stack in the package comes
from it, and it names the first sample of another dimension. ``Gallery``
checks its invariants in one pass (users, none empty, one dimension), and
``gallery_enroll`` names a mismatched sample before it builds a template.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

ENROLLED = "enrolled"
SELF_UPDATED = "self_updated"


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
        for name in ("id", "true_user"):  # Gallery rows hold both as int64
            if not -(2**63) <= getattr(self, name) < 2**63:
                raise ValueError(f"{name} {getattr(self, name)} does not fit in int64")
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
        dim = samples[0].dim if samples else 0
    try:
        return np.array([s.vector for s in samples], dtype=np.float64).reshape(len(samples), dim)
    except ValueError:  # ragged or of another width
        raise _dim_mismatch(next(s for s in samples if s.dim != dim), dim) from None


def _dim_mismatch(sample: Sample, dim: int) -> ValueError:
    return ValueError(f"dimension mismatch: sample {sample.id} has dim {sample.dim}, expected {dim}")


@dataclass(frozen=True)
class Template:
    """A gallery entry: a stored sample and the batch that inserted it, 0 for
    enrollment."""

    sample: Sample
    inserted_at_batch: int = 0

    def __post_init__(self):
        if self.inserted_at_batch < 0:
            raise ValueError("inserted_at_batch must be non-negative")

    @property
    def origin(self) -> str:
        return ENROLLED if self.inserted_at_batch == 0 else SELF_UPDATED


@dataclass(frozen=True)
class UserGallery:
    """Ordered templates of one user; order is insertion order."""

    templates: tuple[Template, ...]


@dataclass(frozen=True)
class Gallery:
    """All users' template sets, by user id. Users never disappear once
    enrolled."""

    users: Mapping[int, UserGallery]

    def __post_init__(self):
        # a read-only copy: neither the gallery nor its caller's dict can change it
        object.__setattr__(self, "users", MappingProxyType(dict(self.users)))
        if not self.users:
            raise ValueError("gallery has no users")
        dim = None
        for u in self.user_ids:
            templates = self.users[u].templates
            if not templates:
                raise ValueError(f"user {u} has an empty gallery")
            dim = templates[0].sample.dim if dim is None else dim
            for t in templates:
                if t.sample.dim != dim:
                    raise _dim_mismatch(t.sample, dim)

    @property
    def dim(self) -> int:
        """The one dimension of every template."""
        return self.users[min(self.users)].templates[0].sample.dim

    @property
    def user_ids(self) -> list[int]:
        return sorted(self.users)

    @property
    def n_templates(self) -> int:
        return sum(len(ug.templates) for ug in self.users.values())

    # One row per template: users by ascending id, each user's templates in
    # insertion order, so ``owner`` ascends and a user's rows are contiguous.
    # Every read builds new arrays; nothing is cached.
    def _samples(self) -> list[Sample]:
        return [t.sample for u in self.user_ids for t in self.users[u].templates]

    @property
    def vectors(self) -> np.ndarray:
        return stack_vectors(self._samples(), self.dim)

    @property
    def owner(self) -> np.ndarray:
        users = self.user_ids
        counts = [len(self.users[u].templates) for u in users]
        return np.repeat(np.array(users, dtype=np.int64), counts)

    @property
    def sample_id(self) -> np.ndarray:
        return np.array([s.id for s in self._samples()], dtype=np.int64)

    @property
    def true_user(self) -> np.ndarray:
        return np.array([s.true_user for s in self._samples()], dtype=np.int64)


@dataclass(frozen=True)
class Batch:
    """One update cycle's worth of unlabelled samples."""

    index: int
    samples: tuple[Sample, ...]

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("batch index must be non-negative")

    def __len__(self) -> int:
        return len(self.samples)


def gallery_enroll(
    dataset_slice: Iterable[tuple[int, Sample]], cap: Optional[int] = None
) -> Gallery:
    """Build the initial supervised gallery from (user, sample) pairs.

    Every user must contribute at least one sample, and at most ``cap``
    samples when ``cap`` is given; all dimensions must agree, and no sample
    id may appear twice.
    """
    if cap is not None and cap < 1:
        raise ValueError("cap must be positive")
    by_user: dict[int, list[Template]] = {}
    seen: set[int] = set()
    dim = None
    for user, sample in dataset_slice:
        if not -(2**63) <= user < 2**63:  # Gallery.owner holds keys as int64
            raise ValueError(f"user key {user} does not fit in int64")
        if sample.id in seen:
            raise ValueError(f"sample id {sample.id} is enrolled more than once")
        seen.add(sample.id)
        if dim is None:
            dim = sample.dim
        elif sample.dim != dim:
            raise _dim_mismatch(sample, dim)
        by_user.setdefault(user, []).append(Template(sample=sample))
    if not by_user:
        raise ValueError("cannot enroll from an empty slice")
    if cap is not None:
        over = sorted(u for u, ts in by_user.items() if len(ts) > cap)
        if over:
            raise ValueError(f"users {over} enroll more than cap={cap} samples")
    return Gallery(users={u: UserGallery(templates=tuple(ts)) for u, ts in by_user.items()})
