"""Entry points at sizes no workload reaches, with their ``tracemalloc`` peaks bounded.

Each case builds its inputs first, then traces one call, so a peak counts
only what the call allocates. Each bound states the call's order in rows
and lies at about 1.5x the peak measured on numpy 2.4.6 at one BLAS thread.
``estimate_threshold`` and ``select_kmeans`` are not here: their peaks grow
with the square of the rows and of the users.
"""

import tracemalloc

import numpy as np
import pytest

from selfgallery.core import Batch, Dataset, Gallery
from selfgallery.matching import classify_batch
from selfgallery.metrics import distance_columns
from selfgallery.selection import select_dend, select_mdist

D = 64
F8 = 8  # bytes per float64


def _peak(call, *args):
    """``call(*args)``'s result and the peak bytes it allocated."""
    tracemalloc.start()
    try:
        out = call(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("select", [select_mdist, select_dend])
def test_greedy_selection_is_linear_in_candidates(select):
    # n = 4,000 at p = 6 is the greedy regime; its rows are 1.95 MiB, and the
    # call peaked at about them (2.0 MiB), where an n x n matrix takes 122 MiB
    n = 4_000
    cands = np.random.default_rng(4).normal(size=(n, D))
    chosen, peak = _peak(select, cands, 6)
    assert len(chosen) == 6 and chosen == sorted(set(chosen))
    assert peak < 1.6 * n * D * F8


def _rows(n_templates, n_probes, users=100):
    """A gallery of ``n_templates`` rows over ``users`` users and a batch of
    ``n_probes`` rows, both of one dataset."""
    n = n_templates + n_probes
    rng = np.random.default_rng(n_templates)
    owner = np.arange(n) % users + 1
    vectors = rng.normal(size=(n, D)) + owner[:, None]
    dataset = Dataset(np.arange(n), owner, np.full(n, -1), vectors)
    gallery = Gallery(dataset, np.arange(n_templates), owner[:n_templates], np.zeros(n_templates, np.int64))
    return gallery, Batch(dataset, n_templates + np.arange(n_probes), 1)


def test_classify_batch_is_linear_in_templates():
    # 200 probes against 10,000 templates: the gallery's gathered rows are
    # 4.9 MiB, and the call peaked at 2.2x them (10.6 MiB)
    n = 10_000
    gallery, batch = _rows(n, 200)
    out, peak = _peak(classify_batch, batch, gallery, 50.0)
    assert len(out) == 200
    assert peak < 3.3 * n * D * F8


def test_distance_columns_is_linear_in_held_rows():
    # 10,000 held rows by 200 test samples: the table is 16 MB, and the call
    # peaked at the table and the held rows' gather (20.7 MiB)
    n, m = 10_000, 200
    gallery, test = _rows(n, m)
    (column, table), peak = _peak(distance_columns, test, [gallery])
    assert table.shape == (n, m)
    assert peak < 1.5 * (n * m + n * D) * F8
