"""Domain types shared by all modules: samples, templates, galleries, batches.

All types are immutable values; galleries evolve by producing new versions.
Ground-truth identities travel with samples but are only read by metrics
and the synthetic generator, never by matching or selection.

``gallery_enroll``'s ``cap`` is an enrollment bound only: it checks how
many samples each user enrolls with. The cap that selection enforces on
every update cycle is ``EngineConfig.p``.

Where inputs are checked. ``Sample`` checks one vector when it is built:
1-D, non-empty and finite, copied once and frozen. ``stack_vectors`` is the
one place samples become rows: every (n, dim) stack in the package comes
from it, and it names the first sample of another dimension. The gallery
types check their own invariants (non-empty, one dimension), and
``gallery_enroll`` names a mismatched sample before it builds a template.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

ENROLLED = "enrolled"
SELF_UPDATED = "self_updated"


@dataclass(frozen=True)
class Sample:
    """A feature vector with a unique id and its ground-truth identity.

    ``true_user`` is ground truth for metrics and data generation only;
    the self-update path never reads it.
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
        s = next(s for s in samples if s.dim != dim)
        raise ValueError(f"dimension mismatch: sample {s.id} has dim {s.dim}, expected {dim}") from None


@dataclass(frozen=True)
class Template:
    """A gallery entry: a stored sample plus provenance."""

    sample: Sample
    origin: str = ENROLLED
    inserted_at_batch: int = 0

    def __post_init__(self):
        if self.origin not in (ENROLLED, SELF_UPDATED):
            raise ValueError(f"unknown template origin: {self.origin!r}")
        if (self.inserted_at_batch == 0) != (self.origin == ENROLLED):
            raise ValueError("inserted_at_batch must be 0 iff origin is enrolled")


@dataclass(frozen=True)
class UserGallery:
    """Ordered templates of one user; order is insertion order."""

    user: int
    templates: tuple[Template, ...]

    def __post_init__(self):
        if not self.templates:
            raise ValueError(f"user {self.user} has an empty gallery")
        dims = {t.sample.dim for t in self.templates}
        if len(dims) != 1:
            raise ValueError(f"user {self.user} mixes dimensions {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.templates[0].sample.dim


@dataclass(frozen=True)
class Gallery:
    """All users' template sets. Users never disappear once enrolled."""

    users: Mapping[int, UserGallery]
    dim: int

    def __post_init__(self):
        if not self.users:
            raise ValueError("gallery has no users")
        for ug in self.users.values():
            if ug.dim != self.dim:
                raise ValueError(
                    f"user {ug.user} has dim {ug.dim}, gallery dim {self.dim}"
                )

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
            raise ValueError(
                f"dimension mismatch: sample {sample.id} has dim {sample.dim}, expected {dim}"
            )
        by_user.setdefault(user, []).append(Template(sample=sample))
    if not by_user:
        raise ValueError("cannot enroll from an empty slice")
    if cap is not None:
        over = sorted(u for u, ts in by_user.items() if len(ts) > cap)
        if over:
            raise ValueError(f"users {over} enroll more than cap={cap} samples")
    users = {u: UserGallery(user=u, templates=tuple(ts)) for u, ts in by_user.items()}
    return Gallery(users=users, dim=dim)
