"""Domain types shared by all modules: samples, templates, galleries, batches.

All types are immutable values; galleries evolve by producing new versions.
Ground-truth identities travel with samples but are only read by metrics
and the synthetic generator, never by matching or selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

ENROLLED = "enrolled"
SELF_UPDATED = "self_updated"


def as_feature_vector(values) -> np.ndarray:
    """Validate and freeze a 1-D finite float vector."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("feature vector must be 1-D with at least one coordinate")
    if not np.all(np.isfinite(v)):
        raise ValueError("feature vector contains non-finite coordinates")
    v = v.copy()
    v.flags.writeable = False
    return v


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
        object.__setattr__(self, "vector", as_feature_vector(self.vector))
        if self.session is not None and self.session < 0:
            raise ValueError("session must be non-negative")

    @property
    def dim(self) -> int:
        return self.vector.shape[0]


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
    cap: Optional[int] = None  # None = unbounded (traditional self-update)

    def __post_init__(self):
        if not self.templates:
            raise ValueError(f"user {self.user} has an empty gallery")
        if self.cap is not None and self.cap < 1:
            raise ValueError("cap must be positive")
        dims = {t.sample.dim for t in self.templates}
        if len(dims) != 1:
            raise ValueError(f"user {self.user} mixes dimensions {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.templates[0].sample.dim

    def matrix(self) -> np.ndarray:
        return np.stack([t.sample.vector for t in self.templates])


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

    def all_templates(self) -> list[tuple[int, Template]]:
        """(owner, template) pairs in deterministic user-then-insertion order."""
        out = []
        for u in self.user_ids:
            out.extend((u, t) for t in self.users[u].templates)
        return out


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

    Every user must contribute at least one sample and all dimensions
    must agree.
    """
    by_user: dict[int, list[Template]] = {}
    dim = None
    for user, sample in dataset_slice:
        if dim is None:
            dim = sample.dim
        elif sample.dim != dim:
            raise ValueError(
                f"dimension mismatch: sample {sample.id} has dim {sample.dim}, expected {dim}"
            )
        by_user.setdefault(user, []).append(Template(sample=sample))
    if not by_user:
        raise ValueError("cannot enroll from an empty slice")
    users = {
        u: UserGallery(user=u, templates=tuple(ts), cap=cap)
        for u, ts in by_user.items()
    }
    return Gallery(users=users, dim=dim)


def gallery_replace_user_set(
    gallery: Gallery, user: int, selected: Sequence[Template]
) -> Gallery:
    """Return a new gallery where ``user`` holds exactly ``selected``.

    ``selected`` must be nonempty, within cap, and drawn from templates
    the caller accumulated for this user.
    """
    if user not in gallery.users:
        raise KeyError(f"user {user} is not enrolled")
    if not selected:
        raise ValueError(f"selection for user {user} is empty")
    ug = gallery.users[user]
    if ug.cap is not None and len(selected) > ug.cap:
        raise ValueError(
            f"selection of size {len(selected)} exceeds cap {ug.cap} for user {user}"
        )
    held = {t.sample.id for t in ug.templates}
    foreign = [t.sample.id for t in selected if t.sample.id not in held]
    if foreign:
        raise ValueError(f"templates {foreign} were never accumulated for user {user}")
    users = dict(gallery.users)
    users[user] = UserGallery(user=user, templates=tuple(selected), cap=ug.cap)
    return Gallery(users=users, dim=gallery.dim)
