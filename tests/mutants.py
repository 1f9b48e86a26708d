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

``EQUIVALENTS`` lists the known equivalents of ``tools/mutants.py
--sweep``, which flips every order comparison under ``src/`` on its own:
each entry's snippet holds the comparisons whose flip cannot change an
output, with a one-line reason. The forks that keep a second, bitwise-equal
path beside the general one are listed here too, each with what it saves
per benchmark body (one-BLAS-thread replays of seed 1's calls at the
workloads' ``--seconds 30`` units, both paths in one process): a fork whose
saving lies inside a workload's A/A spread (about 3% of a body) was
deleted. A snippet must occur exactly once in its file, so a stale entry
fails ``tools/mutants.py`` too.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str  # under src/
    snippet: str
    replacement: str
    tests: tuple[str, ...]


class Equivalent(NamedTuple):
    file: str  # under src/
    snippet: str  # holds the order comparisons it explains, if any
    reason: str


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
        "i = n - 2 - int(pick(_exact(candidates, candidates, _SQUARED, np.arange(n - 1), "
        "np.array(firsts))[::-1]))",
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


EQUIVALENTS = (
    # comparisons whose two sides differ only at a float equality inside a
    # proven margin, or one no input of the tests or workloads meets
    Equivalent(
        "selfgallery/clustering.py",
        "(prev - inertia) / prev < REL_TOL",
        "differs only when a pass improves the inertia by exactly REL_TOL of it, a float equality no test or "
        "workload meets",
    ),
    Equivalent(
        "selfgallery/matching.py",
        "xx.max() + yy_max <= _TOP",
        "the bound holds at a squared-norm sum of exactly max/16 too, and an unclaimed bound only scores "
        "every pair exactly",
    ),
    Equivalent(
        "selfgallery/matching.py",
        "within = g <= limit[:, None]",
        "a limit lies a float32 step past least screen + 2 tau, so a column that can be nearest screens "
        "strictly below it",
    ),
    Equivalent(
        "selfgallery/matching.py",
        "cand = np.flatnonzero(g[i] <= limit[i])",
        "a limit lies a float32 step past least screen + 2 tau, so a column that can be nearest screens "
        "strictly below it",
    ),
    Equivalent(
        "selfgallery/synthgen.py",
        ") >= min_dist",
        "differs only at a candidate exactly min_dist from a placed mean, a float equality no seeded "
        "placement meets",
    ),
    Equivalent(
        "selfgallery/synthgen.py",
        "rng.random() < params.tail_eps",
        "differs only at a uniform draw equal to tail_eps (chance 2^-53 a draw), which no generated set meets",
    ),
    # comparisons whose two sides give the same value or the same result
    Equivalent(
        "selfgallery/matching.py",
        "r_next = end if end < hi else hi",
        "at end == hi both branches give hi",
    ),
    Equivalent(
        "selfgallery/selection.py",
        "comb(n, p) <= EXACT_BUDGET",
        "C(n, p) = 10^6 only at p = 1, which returns first, or at p = n - 1 = 999,999",
    ),
    Equivalent(
        "selfgallery/selection.py",
        "total + sizes[j] <= EXACT_CHUNK",
        "a block ends one prefix earlier at a sum of exactly EXACT_CHUNK; the first optimum does not depend "
        "on where blocks end",
    ),
    Equivalent(
        "selfgallery/selection.py",
        "cols.shape[1] < p - 1",
        "a (p-1)-prefix with more than EXACT_CHUNK children splits into one-subset prefixes, the same subsets"
        " in the same order",
    ),
    Equivalent(
        "selfgallery/core.py",
        "None if s < 0 else s",
        "Gallery.users' sessions are read by no one: the benchmark's owned_ids reads its sample ids alone "
        "(ROADMAP item 16)",
    ),
    # forks kept beside a general path with bitwise-equal outputs, for what
    # they save: per call, calls per body and per body, on dominating_mode,
    # growth_dim64 and online_wide in that order
    Equivalent(
        "selfgallery/selection.py",
        "count <= 5 * EXACT_CHUNK and count * p * (p - 1) // 2 <= 80 * EXACT_CHUNK",
        "subset table, not the tree walk (both exact): 54-59 and 109-110 us over 2,400 and 800 calls, "
        "131-142 and 87-88 ms a body",
    ),
    Equivalent(
        "selfgallery/selection.py",
        "if best is None and len(keep) == 1:",
        "a lone first optimum scored only when needed: 8.6 and 7.6-10.2 us over 2,400 and 800 calls, "
        "20.5 and 6.1-8.2 ms a body",
    ),
    Equivalent(
        "selfgallery/matching.py",
        "if np.count_nonzero(within) > best.size:",
        "no band rescoring when no row has a second column: about 10, 9 and 15 us over 462, 337 and 1,034 "
        "calls, 4.4-4.9, 3.0 and 15.0-15.7 ms a body",
    ),
    Equivalent(
        "selfgallery/matching.py",
        "moved = np.flatnonzero((y != self.y).any(axis=1))",
        "K-Means screens only moved centroids: 120-165 us over 264 later passes, 32-43 ms an online_wide body "
        "(0.3-0.6 ms slower on the others)",
    ),
    Equivalent(
        "selfgallery/clustering.py",
        "centroids = _means(points, assignment, k, groups, centroids)",
        "K-Means reduces only changed clusters: 280-310 us over 264 online_wide passes; 2.1-3.2, 1.4-2.6 "
        "and 74-82 ms a body",
    ),
    Equivalent(
        "selfgallery/clustering.py",
        "settled = groups is not None and np.array_equal(assignment, groups)",
        "no pass after a fixed point and no final assignment: 72-83, 60-100 and 350-510 us over 60, 40 and "
        "70 calls, 4.3-5.0, 2.4-4.0 and 24-36 ms a body",
    ),
    Equivalent(
        "selfgallery/clustering.py",
        "    if empty.size:",
        "no residuals without an empty cluster: 15-18, 29-42 and 305-350 us over 102, 97 and 334 "
        "assignments, 1.5-1.8, 2.8-4.1 and 102-116 ms a body",
    ),
)
