"""Require the tests and the benchmark to kill every mutant of ``tests/mutants.py``.

    python tools/mutants.py

Run from the repository root. The runner first checks every entry: a
snippet that does not occur exactly once in its file is stale, and one
stale entry fails the whole run before any test runs. It copies ``src/``,
``tests/``, ``perfbench/``, ``pyproject.toml`` and ``BENCHMARK.json`` into
a temporary directory and checks the unchanged copy: the test entries'
files must pass, and each benchmark entry's ``perfbench/run.py --trace 0``
run (workload, seed, seconds) must print ``"correct": true``. Each entry in
turn replaces its snippet, runs its check on the copy and restores the
file: a test entry runs its test files with ``python -m pytest -x -q`` at
one BLAS thread (``OPENBLAS_NUM_THREADS=1``), a benchmark entry its run.
A test entry is killed when pytest reports a failed test (exit status 1),
a benchmark entry when the run's last line reads ``"correct": false``; an
entry survives when its check passes, and any other end, such as a
collection error or a run that exits nonzero, is an error. One line per
entry gives its outcome and seconds. The exit status is 0 only when every
entry is killed.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "mutants.py"


def load() -> tuple:
    """The entries of ``tests/mutants.py``: its test mutants, then its benchmark mutants."""
    spec = importlib.util.spec_from_file_location("mutant_table", TABLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS + module.BENCH_MUTANTS


def stale(mutants, src: Path) -> list[str]:
    """One line for each entry whose snippet does not occur exactly once in
    its file under ``src``."""
    lines = []
    for m in mutants:
        path = src / m.file
        count = path.read_text().count(m.snippet) if path.is_file() else 0
        if count != 1:
            lines.append(f"stale: {m.name}: its snippet occurs {count} times in src/{m.file}")
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


def main() -> int:
    mutants = load()
    problems = stale(mutants, ROOT / "src")
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
