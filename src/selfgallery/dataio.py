"""CSV dataset ingestion/emission and the enroll/adaptation/test split.

Dataset format: header ``user_id,sample_id,session,f_0,...,f_{d-1}``,
one sample per row, constant dimension, unique sample ids; session may
be empty.

Where inputs are checked. ``load_dataset`` checks the file line by line:
its header (with at least one feature column), each row's column count (so
one dimension), integer ids in int64, sessions empty or non-negative,
unique sample ids, finite feature values (nan and inf alike), then at
least one sample and two users; each line's error is reported as
``path:line: ...``, the first bad line's. It parses into one
``core.Dataset``, which checks its columns again as a whole. ``write_dataset`` takes a ``Dataset``, whose ids are distinct and
whose vectors share one dimension, and refuses a set of fewer than two
users, which the loader would refuse, before the file is opened.

``split_batches`` deals row indices of the dataset: one lexsort orders the
rows by user, then sample id (user, session, sample id when chronological),
and each user's run of rows is shuffled by one permutation of the seeded
stream and dealt p to each batch, users ascending.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import Batch, Dataset, check_int64, check_integer, user_bounds


@dataclass(frozen=True)
class Split:
    enroll: Batch  # batch 0
    adaptation: tuple[Batch, ...]  # batches 1 .. n_batches-2
    test: Batch  # batch n_batches-1
    dropped: tuple[tuple[int, int], ...] = ()  # relaxed mode: (user, samples held), ascending


def load_dataset(path) -> Dataset:
    """Parse a feature CSV into a dataset; errors carry the offending line."""
    keys, values, seen_ids = [], [], set()  # (sample id, user, session) and vector per row
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:3] != ["user_id", "sample_id", "session"] or len(header) < 4:
            raise ValueError(f"{path}: bad header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                if len(row) != len(header):
                    raise ValueError(f"ragged row ({len(row)} columns)")
                user = check_int64(int(row[0]), "true_user")
                sid = check_int64(int(row[1]), "id")
                if sid in seen_ids:
                    raise ValueError(f"duplicate sample_id {sid}")
                seen_ids.add(sid)
                session = check_integer(int(row[2]), "session", 0) if row[2] != "" else -1
                vector = [float(v) for v in row[3:]]
                if not all(map(math.isfinite, vector)):
                    raise ValueError("feature vector contains non-finite coordinates")
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from e
            keys.append((sid, user, session))
            values.append(vector)
    if not keys:
        raise ValueError(f"{path}: empty dataset")
    sample_id, true_user, session = np.array(keys, dtype=np.int64).T
    if np.all(true_user == true_user[0]):
        raise ValueError(f"{path}: need at least 2 distinct users")
    return Dataset(sample_id=sample_id, true_user=true_user, session=session, vectors=np.array(values))


def write_dataset(dataset: Dataset, path) -> None:
    """Emit a dataset's rows, in order, in the loadable CSV format (round-trips exactly)."""
    if np.all(dataset.true_user == dataset.true_user[0]):  # the loader refuses one user
        raise ValueError("need at least 2 distinct users")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["user_id", "sample_id", "session"] + [f"f_{i}" for i in range(dataset.vectors.shape[1])]
        )
        keys = zip(dataset.true_user.tolist(), dataset.sample_id.tolist(), dataset.session.tolist())
        for (user, sid, session), row in zip(keys, dataset.vectors.tolist()):
            writer.writerow([user, sid, "" if session < 0 else session] + [repr(v) for v in row])


def split_batches(
    dataset: Dataset,
    n_batches: int,
    p: int,
    seed: int,
    strict: bool = True,
    chronological: bool = False,
) -> Split:
    """Divide the dataset's rows into enroll / adaptation / test batches.

    Per user, p samples go into each of the n_batches batches, drawn
    without replacement by a seeded shuffle of the user's rows in id order
    (or in session order, then id, when chronological). Leftover samples
    are discarded. In strict mode a user with fewer than n_batches*p
    samples is an error; in relaxed mode such users are dropped, and
    ``Split.dropped`` names them.
    """
    check_integer(n_batches, "n_batches", 3)  # enroll, adaptation, test
    check_integer(p, "p", 1)
    check_integer(seed, "seed", 0)
    need = n_batches * p
    ids, users, sessions = dataset.sample_id, dataset.true_user, dataset.session
    order = np.lexsort((ids, sessions, users) if chronological else (ids, users))
    bounds = user_bounds(users[order]).tolist()

    rng = np.random.default_rng(seed)
    per_batch: list[list[np.ndarray]] = [[] for _ in range(n_batches)]  # users ascending
    dropped = []
    for lo, hi in zip(bounds, bounds[1:]):
        pool, user = order[lo:hi], int(users[order[lo]])
        if len(pool) < need:
            if strict:
                raise ValueError(
                    f"user {user} has {len(pool)} samples, needs {need} "
                    f"({n_batches} batches x p={p})"
                )
            dropped.append((user, len(pool)))
            continue
        if chronological:
            if np.any(sessions[pool] < 0):
                raise ValueError(f"user {user}: chronological mode needs session labels")
        else:
            pool = pool[rng.permutation(len(pool))]
        for b in range(n_batches):
            per_batch[b].append(pool[b * p : (b + 1) * p])
    if len(bounds) - 1 - len(dropped) < 2:
        raise ValueError("fewer than 2 users survive the split")

    batches = [Batch(dataset, np.concatenate(rows), b) for b, rows in enumerate(per_batch)]
    return Split(enroll=batches[0], adaptation=tuple(batches[1:-1]), test=batches[-1], dropped=tuple(dropped))
