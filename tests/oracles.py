"""Reference implementations the fast selection paths are checked against.

They deliberately share no code with ``selfgallery.selection``.
"""

from itertools import combinations
from math import comb
from typing import Sequence

import numpy as np

from selfgallery.core import Template

MIN_SUM = "min_sum_pairwise_sq"
MAX_SUM = "max_sum_pairwise_sq"

ORACLE_BUDGET = 10**7


def subset_objective(sqmat: np.ndarray, idx: Sequence[int]) -> float:
    """Sum of pairwise squared distances within the subset (unordered pairs)."""
    idx = list(idx)
    sub = sqmat[np.ix_(idx, idx)]
    return float(np.sum(np.triu(sub, k=1)))


def oracle_subset_select(
    candidates: Sequence[Template], p: int, objective: str
) -> list[Template]:
    """Exact optimum by full enumeration; test oracle for the fast paths.

    Deliberately shares no code with select_mdist/select_dend: plain
    python loops over an explicitly built pair-distance table.
    """
    if objective not in (MIN_SUM, MAX_SUM):
        raise ValueError(f"unknown objective: {objective!r}")
    if p < 1:
        raise ValueError("p must be positive")
    cands = sorted(candidates, key=lambda t: t.sample.id)
    n = len(cands)
    if n <= p:
        return cands
    if comb(n, p) > ORACLE_BUDGET:
        raise ValueError("enumeration budget exceeded")
    maximize = objective == MAX_SUM
    sq = [[0.0] * n for _ in range(n)]
    for i in range(n):
        vi = cands[i].sample.vector
        for j in range(i + 1, n):
            vj = cands[j].sample.vector
            d2 = sum((a - b) ** 2 for a, b in zip(vi, vj))
            sq[i][j] = sq[j][i] = d2
    best_idx = None
    best_obj = None
    for idx in combinations(range(n), p):
        obj = sum(sq[a][b] for a, b in combinations(idx, 2))
        if best_obj is None or (obj > best_obj if maximize else obj < best_obj):
            best_obj, best_idx = obj, idx
    return [cands[i] for i in best_idx]
