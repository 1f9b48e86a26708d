"""CSV dataset ingestion/emission and the enroll/adaptation/test split.

Dataset format: header ``user_id,sample_id,session,f_0,...,f_{d-1}``,
one sample per row, constant dimension, unique sample ids; session may
be empty.

Where inputs are checked, each once. ``load_dataset`` checks the file: its
header, each row's column count (so one dimension), integer ids and
sessions, unique sample ids, at least one sample and two users. Each
feature vector is checked (finite, nan and inf alike) where ``Sample`` is
built, and the loader reports that error, as every row's, as
``path:line: ...``. ``write_dataset`` refuses a set of fewer than two
users and a repeated sample id, and stacks its rows through
``core.stack_vectors``, so a set of mixed dimensions fails, naming its first
such sample; all before the file is opened.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .core import Batch, Sample, check_integer, first_repeat, stack_vectors


@dataclass(frozen=True)
class Split:
    enroll: tuple[tuple[int, Sample], ...]  # (user, sample) pairs, batch 0
    adaptation: tuple[Batch, ...]  # batches 1 .. n_batches-2
    test: Batch  # batch n_batches-1
    dropped: tuple[tuple[int, int], ...] = ()  # relaxed mode: (user, samples held), ascending


def load_dataset(path) -> list[Sample]:
    """Parse a feature CSV into samples; errors carry the offending line."""
    samples: list[Sample] = []
    seen_ids: set[int] = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:3] != ["user_id", "sample_id", "session"]:
            raise ValueError(f"{path}: bad header {header!r}")
        n_cols = len(header)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                if len(row) != n_cols:
                    raise ValueError(f"ragged row ({len(row)} columns)")
                user = int(row[0])
                sid = int(row[1])
                if sid in seen_ids:
                    raise ValueError(f"duplicate sample_id {sid}")
                seen_ids.add(sid)
                session = int(row[2]) if row[2] != "" else None
                values = [float(v) for v in row[3:]]
                samples.append(
                    Sample(id=sid, vector=values, true_user=user, session=session)
                )
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from e
    if not samples:
        raise ValueError(f"{path}: empty dataset")
    if len({s.true_user for s in samples}) < 2:
        raise ValueError(f"{path}: need at least 2 distinct users")
    return samples


def write_dataset(samples: list[Sample], path) -> None:
    """Emit samples in the loadable CSV format (round-trips exactly)."""
    if not samples:
        raise ValueError("no samples to write")
    if len({s.true_user for s in samples}) < 2:  # the loader refuses one user
        raise ValueError("need at least 2 distinct users")
    ids = np.fromiter((s.id for s in samples), dtype=np.int64, count=len(samples))
    if (again := first_repeat(ids)) is not None:  # the loader refuses a repeated id
        raise ValueError(f"duplicate sample_id {ids[again]}")
    rows = stack_vectors(samples)  # a ragged file would not load back
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["user_id", "sample_id", "session"] + [f"f_{i}" for i in range(rows.shape[1])]
        )
        for s, row in zip(samples, rows.tolist()):
            session = "" if s.session is None else s.session
            writer.writerow([s.true_user, s.id, session] + [repr(v) for v in row])


def split_batches(
    dataset: list[Sample],
    n_batches: int,
    p: int,
    seed: int,
    strict: bool = True,
    chronological: bool = False,
) -> Split:
    """Divide the dataset into enroll / adaptation / test batches.

    Per user, p samples go into each of the n_batches batches, drawn
    without replacement by a seeded shuffle (or in session order when
    chronological). Leftover samples are discarded. In strict mode a
    user with fewer than n_batches*p samples is an error; in relaxed
    mode such users are dropped, and ``Split.dropped`` names them.
    """
    check_integer(n_batches, "n_batches", 3)  # enroll, adaptation, test
    check_integer(p, "p", 1)
    check_integer(seed, "seed", 0)
    need = n_batches * p
    by_user: dict[int, list[Sample]] = {}
    for s in dataset:
        by_user.setdefault(s.true_user, []).append(s)

    rng = np.random.default_rng(seed)
    per_batch: list[list[Sample]] = [[] for _ in range(n_batches)]  # users ascending
    dropped = []
    for user in sorted(by_user):
        pool = by_user[user]
        if len(pool) < need:
            if strict:
                raise ValueError(
                    f"user {user} has {len(pool)} samples, needs {need} "
                    f"({n_batches} batches x p={p})"
                )
            dropped.append((user, len(pool)))
            continue
        if chronological:
            if any(s.session is None for s in pool):
                raise ValueError(f"user {user}: chronological mode needs session labels")
            pool = sorted(pool, key=lambda s: (s.session, s.id))
        else:
            pool = sorted(pool, key=lambda s: s.id)
            pool = [pool[i] for i in rng.permutation(len(pool))]
        for b in range(n_batches):
            per_batch[b].extend(pool[b * p : (b + 1) * p])
    if len(by_user) - len(dropped) < 2:
        raise ValueError("fewer than 2 users survive the split")

    return Split(
        enroll=tuple((s.true_user, s) for s in per_batch[0]),
        adaptation=tuple(Batch(index=b, samples=per_batch[b]) for b in range(1, n_batches - 1)),
        test=Batch(index=n_batches - 1, samples=per_batch[-1]),
        dropped=tuple(dropped),
    )
