"""The mutants the tests and the benchmark must kill: small bugs a
refactor could bring back while every check still passes, unless a test,
or the benchmark's own correctness check, catches each one.

Each entry names the mutant, gives a file under ``src/``, a snippet that
must occur in it exactly once and the snippet's replacement. An entry of
``MUTANTS`` then names the test files that must fail once the replacement
is applied; an entry of ``BENCH_MUTANTS`` names one ``perfbench/run.py``
run (workload, seed, seconds) that must then print ``"correct": false``.
``tools/mutants.py`` applies the entries one at a time to a copy of the
tree and runs their checks. An entry whose snippet no longer occurs
exactly once fails that run, so a change that moves or rewrites a snippet
updates its entry here.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str  # under src/
    snippet: str
    replacement: str
    tests: tuple[str, ...]


class BenchMutant(NamedTuple):
    name: str
    file: str  # under src/
    snippet: str
    replacement: str
    run: tuple[str, int, int]  # perfbench/run.py's --workload, --seed and --seconds


MUTANTS = (
    Mutant(
        "a probe at exactly t* accepted",
        "selfgallery/matching.py",
        "dists < t_star",
        "dists <= t_star",
        ("tests/test_matching.py",),
    ),
    Mutant(
        "the exact subset search keeps the last of tied subsets, not the first",
        "selfgallery/selection.py",
        "objs[i] < best_obj",
        "objs[i] <= best_obj",
        ("tests/test_selection.py",),
    ),
    Mutant(
        "MDIST/DEND's screen band without its rounding margin (delta = 0)",
        "selfgallery/selection.py",
        "delta = 8 * (p * (p - 1) // 2) * _UNIT_ROUNDOFF",
        "delta = 0.0",
        ("tests/test_selection.py",),
    ),
    Mutant(
        "greedy seeded with each row's last extreme past the diagonal, not its first",
        "selfgallery/selection.py",
        "firsts = [i + 1 + int(pick(_exact(candidates[i : i + 1], candidates[i + 1 :], _SQUARED)[0]))",
        "firsts = [n - 1 - int(pick(_exact(candidates[i : i + 1], candidates[i + 1 :], _SQUARED)[0][::-1]))",
        ("tests/test_selection.py",),
    ),
    Mutant(
        "greedy seeded from the last row holding the overall extreme, not the first",
        "selfgallery/selection.py",
        "i = int(pick(_exact(candidates, candidates, _SQUARED, np.arange(n - 1), np.array(firsts))))",
        "i = n - 2 - int(pick(_exact(candidates, candidates, _SQUARED, np.arange(n - 1), np.array(firsts))[::-1]))",
        ("tests/test_selection.py",),
    ),
    Mutant(
        "the subset-table cache at maxsize 8",
        "selfgallery/selection.py",
        "@lru_cache(maxsize=12)",
        "@lru_cache(maxsize=8)",
        ("tests/test_selection.py",),
    ),
    Mutant(
        "a gallery that holds a sample twice",
        "selfgallery/core.py",
        "if (again := first_repeat(rows)) is not None:",
        "if (again := None) is not None:",
        ("tests/test_core.py",),
    ),
    Mutant(
        "a key past int64's range let through to an int64 column",
        "selfgallery/core.py",
        "-(2**63) <= check_integer(value, name) < 2**63",
        "-(2**64) <= check_integer(value, name) < 2**64",
        ("tests/test_core.py",),
    ),
    Mutant(
        "the dataset's vectors stored in float32",
        "selfgallery/core.py",
        "np.asarray(self.vectors, dtype=np.float64)",
        "np.asarray(self.vectors, dtype=np.float32)",
        ("tests/test_core.py",),
    ),
    Mutant(
        "the screen's tau 32 times too small",
        "selfgallery/matching.py",
        "scale = 8.0 * (d + 4)",
        "scale = 0.25 * (d + 4)",
        ("tests/test_matching.py",),
    ),
    Mutant(
        "screen limits moved inward, not outward",
        "selfgallery/matching.py",
        "np.nextafter(value.astype(np.float32), np.float32(toward))",
        "np.nextafter(value.astype(np.float32), np.float32(-toward))",
        ("tests/test_matching.py",),
    ),
    Mutant(
        "the screen's bound claimed up to twice its dimension limit",
        "selfgallery/matching.py",
        "_DIM_LIMIT = 2.0**-10",
        "_DIM_LIMIT = 2.0**-9",
        ("tests/test_matching.py",),
    ),
    Mutant(
        "a squared norm summed by one einsum past numpy's buffer size",
        "selfgallery/matching.py",
        "_REDUCE = 1 << 13",
        "_REDUCE = 1 << 14",
        ("tests/test_matching.py",),
    ),
)


# perfbench/run.py at --trace 0 fails a run whose operations fail or whose
# fingerprint differs from the recorded one; no fingerprint is recorded at
# --seconds 5, so an entry that changes outputs without failing an
# operation runs at --seconds 30
BENCH_MUTANTS = (
    BenchMutant(
        "K-Means selection keeps p + 1 templates per user",
        "selfgallery/selection.py",
        "order[rank < p]",
        "order[rank <= p]",
        ("online_wide", 1, 5),
    ),
    BenchMutant(
        "the FAR quantile taken one rank too high",
        "selfgallery/matching.py",
        "math.ceil(self.q * pool_size) - 1",
        "math.ceil(self.q * pool_size)",
        ("online_wide", 1, 30),
    ),
)
