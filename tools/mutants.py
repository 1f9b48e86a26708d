"""Require the tests and the benchmark to kill every mutant of ``tests/mutants.py``,
or sweep every order comparison under ``src/``.

    python tools/mutants.py
    python tools/mutants.py --sweep

Run from the repository root. The runner first checks every entry, the
known equivalents included: a snippet that does not occur exactly once in
its file is stale, and one stale entry fails the whole run before any test
runs. It copies ``src/``, ``tests/``, ``perfbench/``, ``pyproject.toml``
and ``BENCHMARK.json`` into a temporary directory and checks the unchanged
copy: the test entries' files must pass, and each benchmark entry's
``perfbench/run.py --trace 0`` run (workload, seed, seconds) must print
``"correct": true``. Each entry in turn replaces its snippet, runs its
check on the copy and restores the file: a test entry runs its test files
with ``python -m pytest -x -q`` at one BLAS thread
(``OPENBLAS_NUM_THREADS=1``), a benchmark entry its run. A test entry is
killed when pytest reports a failed test (exit status 1), a benchmark entry
when the run's last line reads ``"correct": false``; an entry survives when
its check passes, and any other end, such as a collection error or a run
that exits nonzero, is an error. One line per entry gives its outcome and
seconds. The exit status is 0 only when every entry is killed.

``--sweep`` flips each order comparison of every Python file under
``src/`` on its own, at its operator token (``<`` and ``<=``, ``>`` and
``>=``), so no other line moves. It copies the repository (without
``.git`` and caches), checks that tier-1 (``python -m pytest -x -q`` at one
BLAS thread, without ``tests/test_mutants.py``, whose checks read the
snippets' text) passes on the unchanged copy, then runs it once per mutant.
A mutant is killed when a test fails; a survivor is a known equivalent when
an entry of ``EQUIVALENTS`` in ``tests/mutants.py`` has a snippet that
holds its operator, and unexplained otherwise. A listed mutant that is
killed contradicts its entry. One line per mutant gives its outcome,
seconds, place and flip; the exit status is 1 when a mutant is
unexplained, contradicts its entry or ends in an error. Over this
repository it takes 20-30 minutes on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "mutants.py"


FLIP = {"<": "<=", "<=": "<", ">": ">=", ">=": ">"}
# tier-1 as the sweep runs it: without the tests of this tool and its table,
# which read the source's text, so a flip inside a snippet would fail them
# whatever the program does
TIER1 = ("--ignore", "tests/test_mutants.py")
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks")


def table(path: Path = TABLE):
    """The module ``tests/mutants.py`` at ``path``."""
    spec = importlib.util.spec_from_file_location("mutant_table", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load() -> tuple:
    """The entries of ``tests/mutants.py``: its test mutants, then its benchmark mutants."""
    module = table()
    return module.MUTANTS + module.BENCH_MUTANTS


def stale(mutants, src: Path) -> list[str]:
    """One line for each entry whose snippet does not occur exactly once in
    its file under ``src``."""
    lines = []
    for m in mutants:
        path = src / m.file
        count = path.read_text().count(m.snippet) if path.is_file() else 0
        if count != 1:
            name = getattr(m, "name", None) or repr(m.snippet)
            lines.append(f"stale: {name}: its snippet occurs {count} times in src/{m.file}")
    return lines


def pytest(tree: Path, tests) -> subprocess.CompletedProcess:
    """``pytest -x -q`` of the test files on the copy ``tree``, at one BLAS
    thread, importing the copy's package and writing no bytecode (a
    restored file must never meet a mutant's cached bytecode)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)


def bench(tree: Path, run) -> subprocess.CompletedProcess:
    """``perfbench/run.py --trace 0`` of one (workload, seed, seconds) on
    the copy ``tree``, which it imports from its working directory."""
    workload, seed, seconds = run
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)


def correct(proc: subprocess.CompletedProcess):
    """run.py's verdict: the ``correct`` field of its last stdout line, or
    None when it exited nonzero."""
    return json.loads(proc.stdout.splitlines()[-1])["correct"] if proc.returncode == 0 else None


def passes(tree: Path, m) -> tuple:
    """Whether entry ``m``'s check passes on the copy ``tree`` (True or
    False, None for any other end), and its process."""
    if hasattr(m, "tests"):
        proc = pytest(tree, m.tests)
        return {0: True, 1: False}.get(proc.returncode), proc
    proc = bench(tree, m.run)
    return correct(proc), proc


class Site(NamedTuple):
    file: str  # under src/
    line: int
    offset: int  # of the operator in the file's text
    op: str
    code: str  # the line, stripped


def sites(src: Path) -> list[Site]:
    """Every order comparison operator token of the Python files under ``src``."""
    out = []
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        starts = [0, *itertools.accumulate(map(len, io.StringIO(text).readlines()))]  # each line's offset
        name = path.relative_to(src).as_posix()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.OP and tok.string in FLIP:
                row, col = tok.start
                out.append(Site(name, row, starts[row - 1] + col, tok.string, tok.line.strip()))
    return out


def explained(site: Site, text: str, equivalents) -> bool:
    """Whether an entry of ``equivalents`` for the site's file has a snippet
    that holds the site's operator (``text`` is the file's)."""
    spans = [(text.find(e.snippet), len(e.snippet)) for e in equivalents if e.file == site.file]
    return any(start <= site.offset and site.offset + len(site.op) <= start + size for start, size in spans)


def sweep(root: Path) -> int:
    """Flip every order comparison under ``root/src`` in turn and run tier-1 (module docstring)."""
    equivalents = table(root / "tests" / "mutants.py").EQUIVALENTS
    problems = stale(equivalents, root / "src")
    if problems:
        print("\n".join(problems))
        return 1
    found = sites(root / "src")
    outcomes = dict.fromkeys(("killed", "equivalent", "UNEXPLAINED", "CONTRADICTED", "ERROR"), 0)
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(root, tree, ignore=SKIP)
        base = pytest(tree, TIER1)
        if base.returncode != 0:
            print(base.stdout[-2000:] + base.stderr[-2000:])
            print(f"error: tier-1 fails on the unchanged tree (pytest exit status {base.returncode})")
            return 1
        for s in found:
            path = tree / "src" / s.file
            original = path.read_text()
            path.write_text(original[: s.offset] + FLIP[s.op] + original[s.offset + len(s.op) :])
            start = time.perf_counter()
            proc = pytest(tree, TIER1)
            path.write_text(original)
            listed = explained(s, original, equivalents)
            outcome = {
                (1, False): "killed", (1, True): "CONTRADICTED", (0, True): "equivalent", (0, False): "UNEXPLAINED"
            }.get((proc.returncode, listed), "ERROR")
            outcomes[outcome] += 1
            print(f"{outcome:<12} {time.perf_counter() - start:6.1f} s  src/{s.file}:{s.line}  "
                  f"{s.op} -> {FLIP[s.op]}  {s.code}", flush=True)
            if outcome == "ERROR":
                print(proc.stdout[-2000:] + proc.stderr[-2000:])
    print(f"{len(found)} mutants: " + ", ".join(f"{n} {name.lower()}" for name, n in outcomes.items()))
    return 1 if outcomes["UNEXPLAINED"] + outcomes["CONTRADICTED"] + outcomes["ERROR"] else 0


def main() -> int:
    ap = argparse.ArgumentParser(description="Run the mutants of tests/mutants.py, or sweep every order comparison.")
    ap.add_argument("--sweep", action="store_true", help="flip every order comparison under src/ in turn")
    if ap.parse_args().sweep:
        return sweep(ROOT)
    mutants = load()
    problems = stale(mutants + table().EQUIVALENTS, ROOT / "src")
    if problems:
        print("\n".join(problems))
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "BENCHMARK.json"):
            shutil.copy2(ROOT / name, tree)
        files = sorted({t for m in mutants if hasattr(m, "tests") for t in m.tests})
        base = pytest(tree, files)
        if base.returncode != 0:
            print(base.stdout + base.stderr)
            print(f"error: the unchanged tree fails {' '.join(files)} (pytest exit status {base.returncode})")
            return 1
        for run in sorted({m.run for m in mutants if hasattr(m, "run")}):
            proc = bench(tree, run)
            if correct(proc) is not True:
                print(proc.stdout[-2000:] + proc.stderr[-2000:])
                print(f"error: the unchanged tree's benchmark run {run} does not read correct: true")
                return 1
        failed = 0
        for m in mutants:
            path = tree / "src" / m.file
            original = path.read_text()
            path.write_text(original.replace(m.snippet, m.replacement))
            start = time.perf_counter()
            ok, proc = passes(tree, m)
            path.write_text(original)
            result = {True: "SURVIVED", False: "killed"}.get(ok, f"ERROR (exit status {proc.returncode})")
            print(f"{result:<9} {time.perf_counter() - start:6.1f} s  {m.name}", flush=True)
            if ok is not False:
                failed += 1
                print(proc.stdout[-2000:] + proc.stderr[-2000:])
    print(f"{len(mutants) - failed} of {len(mutants)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
