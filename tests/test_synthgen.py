import numpy as np
import pytest

from selfgallery import synthgen
from selfgallery.synthgen import SynthParams, generate, user_means

from conftest import samples_of
from oracles import reference_generate


def test_determinism_same_seed():
    params = SynthParams(k_users=4, dim=3, tail_eps=0.2, samples_per_user=20, seed=9)
    a = samples_of(generate(params))
    b = samples_of(generate(params))
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert sa.id == sb.id and sa.true_user == sb.true_user
        assert np.array_equal(sa.vector, sb.vector)


def test_different_seed_differs():
    p1 = SynthParams(k_users=3, dim=2, samples_per_user=5, seed=1)
    p2 = SynthParams(k_users=3, dim=2, samples_per_user=5, seed=2)
    a, b = samples_of(generate(p1)), samples_of(generate(p2))
    assert any(not np.array_equal(sa.vector, sb.vector) for sa, sb in zip(a, b))


def test_minimal_two_users():
    params = SynthParams(k_users=2, dim=2, samples_per_user=1, seed=0)
    ds = samples_of(generate(params))
    assert len(ds) == 2
    assert sorted(s.true_user for s in ds) == [1, 2]


def test_mean_separation_honored():
    for dim, k in ((8, 4), (3, 6), (1, 2)):
        params = SynthParams(k_users=k, dim=dim, separation=5.0, sigma=2.0, seed=3)
        means = user_means(params)
        for i in range(k):
            for j in range(i + 1, k):
                assert np.linalg.norm(means[i] - means[j]) >= 5.0 * 2.0 - 1e-9



def test_user_means_sit_on_scaled_axes_when_dim_equals_k_users():
    # the docstring's rule is dim >= k_users: at equality too, no rejection sampling
    params = SynthParams(k_users=4, dim=4, separation=5.0, sigma=2.0, seed=3)
    assert np.array_equal(user_means(params), np.eye(4) * (10.0 / np.sqrt(2.0)))

def test_no_tail_high_separation_nearest_mean_perfect():
    params = SynthParams(
        k_users=5, dim=4, separation=20.0, tail_eps=0.0, samples_per_user=30, seed=5
    )
    means = user_means(params)
    for s in samples_of(generate(params)):
        d = np.linalg.norm(means - s.vector, axis=1)
        assert int(np.argmin(d)) + 1 == s.true_user


def test_dominant_mode_fraction_within_binomial_bounds():
    eps = 0.25
    params = SynthParams(
        k_users=4, dim=6, separation=12.0, tail_eps=eps, samples_per_user=250, seed=6
    )
    means = user_means(params)
    ds = samples_of(generate(params))
    in_mode = sum(
        np.linalg.norm(s.vector - means[s.true_user - 1]) < 6.0  # well inside sep/2
        for s in ds
    )
    n = len(ds)
    frac = in_mode / n
    sd = np.sqrt(eps * (1 - eps) / n)
    assert abs(frac - (1 - eps)) <= 3 * sd


def test_param_validation():
    with pytest.raises(ValueError, match="^k_users must be at least 2$"):
        SynthParams(k_users=1, dim=2)
    with pytest.raises(ValueError):
        SynthParams(k_users=2, dim=0)
    with pytest.raises(ValueError):
        SynthParams(k_users=2, dim=2, tail_eps=1.0)
    with pytest.raises(ValueError):
        SynthParams(k_users=2, dim=2, sigma=0.0)



def test_params_refuse_separation_zero():
    # separation must be positive, as sigma must (test_param_validation)
    with pytest.raises(ValueError, match="^sigma and separation must be finite and positive$"):
        SynthParams(k_users=3, dim=2, separation=0.0)

@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SynthParams(k_users=2, dim=2, samples_per_user=0), "samples_per_user must be positive"),
        # a bool would be taken as 0 or 1, a str would fail in a comparison
        *[(lambda f=f, v=v: SynthParams(k_users=2, dim=2, **{f: v}), f"^{f} must be a real number, not {v!r}$")
          for f in ("sigma", "separation", "tail_eps") for v in (True, False, "1")],
        # dim < k_users: means are rejection sampled, and no attempt is allowed
        (lambda: user_means(SynthParams(k_users=3, dim=2, separation=5.0)),
         "could not place 3 means at separation 5.0 in dim 2; lower the separation"),
    ],
)
def test_boundary_checks_raise_their_messages(monkeypatch, call, message):
    monkeypatch.setattr(synthgen, "_PLACEMENT_ATTEMPTS", 0)
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("k_users", 3.0, r"^k_users must be an integer, not 3\.0$"),
        ("dim", 2.0, r"^dim must be an integer, not 2\.0$"),  # generate would fail inside numpy
        ("samples_per_user", True, "^samples_per_user must be an integer, not True$"),  # else one sample per user
        ("seed", 1.5, r"^seed must be an integer, not 1\.5$"),
        ("seed", -1, "^seed must be non-negative$"),  # SeedSequence would refuse it
        ("sigma", float("nan"), "^sigma and separation must be finite and positive$"),
        ("sigma", float("inf"), "^sigma and separation must be finite and positive$"),
        ("separation", float("nan"), "^sigma and separation must be finite and positive$"),
        ("separation", float("inf"), "^sigma and separation must be finite and positive$"),
    ],
)
def test_params_refuse_non_integer_sizes_and_non_finite_scales(field, value, message):
    with pytest.raises(ValueError, match=message):
        SynthParams(**{"k_users": 3, "dim": 2, field: value})


# the three benchmark workloads' parameter sets (online_wide at seed 1), more
# users than dimensions (rejection-sampled means), no tail, a heavy tail, and
# one sample per user
LAYOUT_PARAMS = [
    SynthParams(k_users=20, dim=16, sigma=1.0, separation=6.0, tail_eps=0.15, samples_per_user=42, seed=7),
    SynthParams(k_users=20, dim=64, sigma=1.0, separation=8.0, tail_eps=0.1, samples_per_user=42, seed=3),
    SynthParams(k_users=100, dim=128, sigma=1.0, separation=8.0, tail_eps=0.1, samples_per_user=72, seed=1),
    SynthParams(k_users=9, dim=3, sigma=0.5, separation=4.0, tail_eps=0.2, samples_per_user=6, seed=4),
    SynthParams(k_users=5, dim=4, tail_eps=0.0, samples_per_user=7, seed=5),
    SynthParams(k_users=5, dim=4, sigma=2.0, tail_eps=0.5, samples_per_user=30, seed=6),
    SynthParams(k_users=6, dim=2, tail_eps=0.3, samples_per_user=1, seed=8),
]


@pytest.mark.parametrize("params", LAYOUT_PARAMS)
def test_generate_matches_the_per_sample_reference_byte_for_byte(params):
    got, ref = samples_of(generate(params)), reference_generate(params)
    assert [(s.id, s.true_user, s.session) for s in got] == [(s.id, s.true_user, s.session) for s in ref]
    assert [s.vector.tobytes() for s in got] == [s.vector.tobytes() for s in ref]


def test_generate_returns_a_dataset_over_its_drawn_matrix():
    params = SynthParams(k_users=3, dim=4, tail_eps=0.3, samples_per_user=5, seed=2)
    ds = generate(params)
    assert ds.vectors.shape == (15, 4) and ds.vectors.flags.c_contiguous and ds.vectors.flags.owndata
    assert not ds.vectors.flags.writeable
    assert ds.sample_id.tolist() == list(range(15)) and ds.true_user.tolist() == [1] * 5 + [2] * 5 + [3] * 5
    assert ds.session.tolist() == [-1] * 15
