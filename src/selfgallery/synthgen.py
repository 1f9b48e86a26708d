"""Synthetic dominating-mode datasets with known ground truth.

Each user owns a spherical Gaussian mode; a tail_eps fraction of a
user's samples is drawn instead from a broadened (3 sigma) Gaussian
centered on a uniformly chosen OTHER user's mean, creating the
cross-user contamination that diverse selection chases and tight
selection avoids.

Generation is stream-ordered on a seeded PCG64 generator, so a given
parameter set always yields the identical dataset. The vectors are drawn
into one (n, dim) matrix, and each sample copies its row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Sample

_PLACEMENT_ATTEMPTS = 1000


@dataclass(frozen=True)
class SynthParams:
    k_users: int
    dim: int
    sigma: float = 1.0
    separation: float = 8.0  # min distance between user means, in sigmas
    tail_eps: float = 0.1
    samples_per_user: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.k_users < 2:
            raise ValueError("need at least 2 users")
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.sigma <= 0 or self.separation <= 0:
            raise ValueError("sigma and separation must be positive")
        if not (0.0 <= self.tail_eps < 1.0):
            raise ValueError("tail_eps must be in [0, 1)")
        if self.samples_per_user < 1:
            raise ValueError("samples_per_user must be positive")


def user_means(params: SynthParams) -> np.ndarray:
    """Deterministic user mean placement, pairwise distance >= separation*sigma.

    With dim >= k_users the means sit on scaled coordinate axes (exact
    pairwise distance separation*sigma); otherwise they are rejection
    sampled from a seeded uniform cube.
    """
    k, d = params.k_users, params.dim
    min_dist = params.separation * params.sigma
    if d >= k:
        return np.eye(k, d) * (min_dist / np.sqrt(2.0))
    # smallest feasible cube first: tight packing keeps the modes overlapped,
    # which is the regime the dominating-mode model is about
    for factor in (0.75, 1.0, 1.5, 2.5, 4.0, 8.0):
        rng = np.random.default_rng(np.random.SeedSequence([params.seed, 0xA11CE]))
        side = factor * min_dist * max(1.0, k ** (1.0 / d))
        means = np.empty((k, d))
        placed = 0
        for _ in range(_PLACEMENT_ATTEMPTS * k):
            cand = rng.uniform(0.0, side, size=d)
            if placed == 0 or np.min(
                np.sqrt(np.sum((means[:placed] - cand) ** 2, axis=1))
            ) >= min_dist:
                means[placed] = cand
                placed += 1
                if placed == k:
                    return means
    raise ValueError(
        f"could not place {k} means at separation {params.separation} in dim {d}; "
        "lower the separation or raise the dimension"
    )


def generate(params: SynthParams) -> list[Sample]:
    """Labeled samples for all users, user-major, ids sequential from 0.

    Each sample draws from the stream in turn (a uniform, a tail sample's
    other user, then its standard normal row) into one (n, dim) matrix;
    spread and centre are applied to the whole matrix after the loop, and
    each ``Sample`` copies its row.
    """
    means = user_means(params)
    rng = np.random.default_rng(np.random.SeedSequence([params.seed, 1]))
    k, n = params.k_users, params.samples_per_user
    vectors = np.empty((k * n, params.dim))
    owner = np.repeat(np.arange(k), n)
    centre = owner.copy()  # each row's mean: its user's, or a tail row's other user's
    for row, own in enumerate(owner.tolist()):
        if rng.random() < params.tail_eps:
            other = rng.integers(k - 1)  # among the other users, in order
            centre[row] = other + (other >= own)
        rng.standard_normal(out=vectors[row])
    vectors *= np.where(centre != owner, 3.0 * params.sigma, params.sigma)[:, None]
    # a dataset-sized gather; freeing it and the matrix raises glibc's mmap
    # threshold, which online_wide's timing depends on (ROADMAP Standing notes)
    vectors += means[centre]
    return [Sample(id=i, vector=v, true_user=i // n + 1) for i, v in enumerate(vectors)]
