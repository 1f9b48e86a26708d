import numpy as np
import pytest

from selfgallery.dataio import load_dataset, split_batches, write_dataset
from selfgallery.synthgen import SynthParams, generate

from conftest import dataset_of, make_sample, samples_of
from oracles import reference_split


def _grid_samples(n_users, per_user, dim=2, with_session=False):
    samples = []
    sid = 0
    for u in range(1, n_users + 1):
        for j in range(per_user):
            samples.append(
                make_sample(
                    sid,
                    [u * 10.0 + j * 0.01] * dim,
                    user=u,
                    session=j if with_session else None,
                )
            )
            sid += 1
    return samples


def _grid_dataset(n_users, per_user, dim=2, with_session=False):
    return dataset_of(_grid_samples(n_users, per_user, dim, with_session))


def _without(dataset, drop):
    """The dataset less the samples ``drop(sample)`` picks."""
    return dataset_of([s for s in samples_of(dataset) if not drop(s)])


def test_round_trip(tmp_path):
    ds = generate(SynthParams(k_users=3, dim=4, samples_per_user=5, seed=2))
    path = tmp_path / "ds.csv"
    write_dataset(ds, path)
    back = load_dataset(path)
    assert len(back) == len(ds)
    for a, b in zip(samples_of(ds), samples_of(back)):
        assert (a.id, a.true_user, a.session) == (b.id, b.true_user, b.session)
        assert np.array_equal(a.vector, b.vector)


def test_write_rejects_no_samples(tmp_path):
    path = tmp_path / "ds.csv"
    with pytest.raises(ValueError, match="a dataset needs at least one row"):
        write_dataset(dataset_of([]), path)
    assert not path.exists()


def test_write_rejects_fewer_than_two_users(tmp_path):
    path = tmp_path / "ds.csv"
    samples = dataset_of([make_sample(0, [1.0], user=1), make_sample(1, [2.0], user=1)])
    with pytest.raises(ValueError, match="need at least 2 distinct users"):
        write_dataset(samples, path)  # load_dataset would refuse the file
    assert not path.exists()


def test_write_rejects_a_repeated_sample_id(tmp_path):
    path = tmp_path / "ds.csv"
    samples = [make_sample(i, [float(i)], user=1 + i % 2) for i in (0, 4, 5, 4, 0)]
    with pytest.raises(ValueError, match="duplicate sample_id 4$"):
        write_dataset(dataset_of(samples), path)
    assert not path.exists()


def test_load_simple(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text(
        "user_id,sample_id,session,f_0,f_1\n"
        "1,0,,0.5,1.5\n1,1,,0.6,1.6\n2,2,,5.0,5.1\n2,3,,5.2,5.3\n"
    )
    ds = load_dataset(path)
    assert len(ds) == 4
    assert samples_of(ds)[0].session is None


def test_load_rejects_nan_with_line(tmp_path):
    path = tmp_path / "ds.csv"
    for cell in ("nan", "inf", "-inf", "1e400"):  # 1e400 parses to inf
        path.write_text(
            f"user_id,sample_id,session,f_0,f_1\n1,0,,0.5,1.0\n2,1,,2.0,{cell}\n"
        )
        with pytest.raises(ValueError, match=r"ds\.csv:3: feature vector contains non-finite"):
            load_dataset(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_load_names_the_first_failing_line_across_parse_and_vector_errors(tmp_path, cell):
    # a non-finite line 5 before a ragged line 7, and a ragged line 5 before
    # a nan line 7: the earlier line is the one named, with its own message
    path = tmp_path / "ds.csv"
    path.write_text(
        "user_id,sample_id,session,f_0,f_1\n"
        f"1,0,,0.5,1.0\n1,1,,0.6,1.1\n2,2,,5.0,5.1\n2,3,,5.2,{cell}\n2,4,,5.3,5.4\n2,5,,5.5\n"
    )
    with pytest.raises(ValueError) as info:
        load_dataset(path)
    assert str(info.value) == f"{path}:5: feature vector contains non-finite coordinates"
    path.write_text(
        "user_id,sample_id,session,f_0,f_1\n"
        "1,0,,0.5,1.0\n1,1,,0.6,1.1\n2,2,,5.0,5.1\n2,3,,5.2\n2,4,,5.3,5.4\n2,5,,5.5,nan\n"
    )
    with pytest.raises(ValueError, match=r"ds\.csv:5: ragged row \(4 columns\)$"):
        load_dataset(path)


def test_load_rejects_non_integer_id_with_line(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text("user_id,sample_id,session,f_0\n1,0,,0.5\n1,x,,0.2\n")
    with pytest.raises(ValueError, match=r"ds\.csv:3: invalid literal for int"):
        load_dataset(path)


def test_load_rejects_non_numeric_feature_with_line(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text("user_id,sample_id,session,f_0\n1,0,,0.5\n2,1,,abc\n")
    with pytest.raises(ValueError, match=r"ds\.csv:3: could not convert string to float"):
        load_dataset(path)


def test_load_rejects_negative_session_with_line(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text("user_id,sample_id,session,f_0\n1,0,,0.5\n2,1,-3,0.6\n")
    with pytest.raises(ValueError, match=r"ds\.csv:3: session must be non-negative"):
        load_dataset(path)


def test_load_rejects_ragged_row(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text("user_id,sample_id,session,f_0,f_1\n1,0,,0.5,1.0\n2,1,,0.5\n")
    with pytest.raises(ValueError, match=":3"):
        load_dataset(path)


def test_load_rejects_duplicate_id(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text("user_id,sample_id,session,f_0\n1,7,,0.5\n2,7,,0.6\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_dataset(path)


def test_split_large_corpus_counts():
    # 59 users x 60 samples, n=7, p=6 -> 7 batches of 354; 18/user unused
    ds = _grid_dataset(59, 60)
    split = split_batches(ds, n_batches=7, p=6, seed=0)
    assert len(split.enroll) == 354
    assert len(split.adaptation) == 5
    assert all(len(b) == 354 for b in split.adaptation)
    assert len(split.test) == 354
    used = 354 * 7
    assert used == len(ds) - 59 * 18


def test_split_small_corpus_counts():
    # 16 users, p=4, n=7 -> batches of 64
    ds = _grid_dataset(16, 28)
    split = split_batches(ds, n_batches=7, p=4, seed=0)
    assert len(split.enroll) == 64
    assert all(len(b) == 64 for b in split.adaptation)
    assert len(split.test) == 64


def test_split_deterministic():
    ds = _grid_dataset(5, 15)
    a = split_batches(ds, 3, 5, seed=42)
    b = split_batches(ds, 3, 5, seed=42)
    assert a.enroll.sample_id.tolist() == b.enroll.sample_id.tolist()
    assert a.test.sample_id.tolist() == b.test.sample_id.tolist()


def test_split_slices_pairwise_disjoint():
    ds = _grid_dataset(4, 20)
    split = split_batches(ds, 4, 5, seed=1)
    groups = [
        set(split.enroll.sample_id.tolist()),
        *(set(b.sample_id.tolist()) for b in split.adaptation),
        set(split.test.sample_id.tolist()),
    ]
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            assert not groups[i] & groups[j]


def test_split_strict_names_short_user():
    ds = _without(_grid_dataset(3, 12), lambda s: s.true_user == 2 and s.id % 3 == 0)
    with pytest.raises(ValueError, match="user 2"):
        split_batches(ds, 3, 4, seed=0)


def test_split_relaxed_drops_short_user():
    ds = _without(_grid_dataset(3, 12), lambda s: s.true_user == 2 and s.id >= 15)
    split = split_batches(ds, 3, 4, seed=0, strict=False)
    users = set(split.enroll.true_user.tolist())
    assert users == {1, 3}
    assert split.dropped == ((2, 3),)  # (user, samples held); the caller logs it
    assert split_batches(_grid_dataset(3, 12), 3, 4, seed=0, strict=False).dropped == ()


def test_split_logs_nothing(caplog):
    ds = _without(_grid_dataset(3, 12), lambda s: s.true_user == 2 and s.id >= 15)
    with caplog.at_level("DEBUG"):
        split_batches(ds, 3, 4, seed=0, strict=False)
    assert caplog.records == []


def test_split_chronological_uses_session_order():
    ds = _grid_dataset(2, 9, with_session=True)
    split = split_batches(ds, 3, 3, seed=0, chronological=True)
    for user in (1, 2):
        enroll_sessions = [s.session for s in samples_of(split.enroll) if s.true_user == user]
        assert enroll_sessions == [0, 1, 2]
        test_sessions = [s.session for s in samples_of(split.test) if s.true_user == user]
        assert test_sessions == [6, 7, 8]


def _uneven_dataset(seed, short_user):
    """Users 1, 2, 4 and 5 with 9-13 samples and, if asked, user 7 with 4,
    in a shuffled order, with shuffled ids and sessions 0-2 (so sessions tie)."""
    rng = np.random.default_rng(seed)
    counts = {4: 13, 1: 9, 5: 10, 2: 12} | ({7: 4} if short_user else {})
    users = [u for u, n in counts.items() for _ in range(n)]
    ids = rng.permutation(1000)[: len(users)]
    samples = [make_sample(int(i), [float(u), float(i)], user=u, session=int(rng.integers(3)))
               for u, i in zip(users, ids)]
    return dataset_of([samples[i] for i in rng.permutation(len(samples))])


@pytest.mark.parametrize("seed", [0, 7, 2024])
@pytest.mark.parametrize("strict, chronological", [(True, False), (False, False), (True, True), (False, True)])
def test_split_deals_the_reference_splits_samples(seed, strict, chronological):
    ds = _uneven_dataset(seed, short_user=not strict)
    split = split_batches(ds, 4, 2, seed=seed, strict=strict, chronological=chronological)
    batches, dropped = reference_split(samples_of(ds), 4, 2, seed, strict, chronological)
    # the same samples, users ascending, and the same users' keys
    assert list(zip(split.enroll.true_user.tolist(), split.enroll.sample_id.tolist())) == [
        (u, s.id) for u, s in batches[0]
    ]
    dealt = [split.enroll, *split.adaptation, split.test]
    assert [b.index for b in dealt] == [0, 1, 2, 3] and all(b.dataset is ds for b in dealt)
    assert [b.sample_id.tolist() for b in dealt[1:]] == [[s.id for _, s in b] for b in batches[1:]]
    assert split.dropped == tuple(dropped) == (() if strict else ((7, 4),))


def test_split_needs_three_batches():
    with pytest.raises(ValueError, match="^n_batches must be at least 3$"):
        split_batches(_grid_dataset(2, 10), 2, 2, seed=0)


@pytest.mark.parametrize("p", [0, -1])
def test_split_rejects_p_below_one(p):
    with pytest.raises(ValueError, match="p must be positive"):
        split_batches(_grid_dataset(3, 10), 3, p, seed=0)


HEADER = "user_id,sample_id,session,f_0\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("user,sample_id,session,f_0\n1,0,,0.5\n", r"ds\.csv: bad header \['user'"),
        ("", r"ds\.csv: bad header None"),
        # the blank line 3 is skipped (not a ragged row), and still counted
        (HEADER + "1,0,,0.5\n\n2,1,,nan\n", r"ds\.csv:4: feature vector contains non-finite"),
        (HEADER, r"ds\.csv: empty dataset"),
        (HEADER + "\n\n", r"ds\.csv: empty dataset"),
        (HEADER + "1,0,,0.5\n1,1,,0.6\n", r"ds\.csv: need at least 2 distinct users"),
    ],
)
def test_load_boundary_checks_raise_their_messages(tmp_path, text, message):
    path = tmp_path / "ds.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_dataset(path)


@pytest.mark.parametrize(
    "split, message",
    [
        (lambda ds: split_batches(ds, 3, 3, seed=0, chronological=True),
         "user 1: chronological mode needs session labels"),
        (lambda ds: split_batches(_without(ds, lambda s: s.id not in range(9) and s.id != 12), 3, 3, seed=0,
                                  strict=False),
         "fewer than 2 users survive the split"),
        # a float size would slice each user's pool at float bounds
        (lambda ds: split_batches(ds, 3, 1.5, seed=0), r"^p must be an integer, not 1\.5$"),
        (lambda ds: split_batches(ds, 3.0, 3, seed=0), r"^n_batches must be an integer, not 3\.0$"),
        (lambda ds: split_batches(ds, 3, True, seed=0), "^p must be an integer, not True$"),
        # True would split at seed 1; 2.0 and -1 would fail inside numpy
        (lambda ds: split_batches(ds, 3, 3, seed=True), "^seed must be an integer, not True$"),
        (lambda ds: split_batches(ds, 3, 3, seed=2.0), r"^seed must be an integer, not 2\.0$"),
        (lambda ds: split_batches(ds, 3, 3, seed=-1), "^seed must be non-negative$"),
    ],
)
def test_split_boundary_checks_raise_their_messages(split, message):
    with pytest.raises(ValueError, match=message):
        split(_grid_dataset(2, 9))  # no sessions
