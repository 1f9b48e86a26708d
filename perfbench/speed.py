"""Machine-speed probe: a fixed reference kernel timed next to the body.

On a shared host the same work runs up to ~30% faster or slower from one
minute to the next, and the reference kernel slows down with it. The
kernel mixes the two kinds of work the program does: large-array rows
(distances of a 600 x 128 template matrix row by row, a cross-owner pool
and its sort, nearest-row queries: the online cycle) and many small numpy
calls (an exhaustive 6-of-9 subset search and nearest-template matches on
small galleries: selection and evaluation in the experiments). Its data
are fixed and no change to the program touches its code.

Each stretch of a body's time is scaled by ``REF_S / t``, ``t`` being the
kernel's time just before it: the body's times read as times on a machine
that runs the kernel in ``REF_S``.
"""

from __future__ import annotations

import functools
import itertools
import time

import numpy as np

# the kernel's median time on the reference machine (2-vCPU x86-64 VM,
# Python 3.11.7, numpy 2.4.6, one BLAS thread); a fixed constant, so scaled
# times keep their unit and size
REF_S = 0.0105


@functools.cache
def _data():
    rng = np.random.default_rng(0)
    return (rng.standard_normal((600, 128)), np.repeat(np.arange(100), 6),
            rng.standard_normal((15, 128)), rng.standard_normal((9, 16)),
            rng.standard_normal((6, 16)))


def _norms(diff: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def measure() -> float:
    """Seconds the reference kernel takes now."""
    mat, owners, queries, cands, gallery = _data()
    t0 = time.perf_counter()
    chunks = []
    for i in range(0, mat.shape[0] - 1, 12):
        d = _norms(mat[i + 1:] - mat[i])
        chunks.append(d[owners[i + 1:] != owners[i]])
    np.sort(np.concatenate(chunks))
    for q in queries:
        int(np.argmin(_norms(mat - q)))
    sq = np.sum((cands[:, None, :] - cands[None, :, :]) ** 2, axis=-1)
    for idx in itertools.combinations(range(len(cands)), 6):
        idx = list(idx)
        float(np.sum(np.triu(sq[np.ix_(idx, idx)], k=1)))
    for q in cands:
        for _ in range(20):
            int(np.argmin(_norms(gallery - q)))
    return time.perf_counter() - t0
