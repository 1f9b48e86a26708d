"""Require the tests to kill every mutant of ``tests/mutants.py``.

    python tools/mutants.py

Run from the repository root. The runner first checks every entry: a
snippet that does not occur exactly once in its file is stale, and one
stale entry fails the whole run before any test runs. It copies ``src/``,
``tests/`` and ``pyproject.toml`` into a temporary directory and runs the
entries' test files on the unchanged copy, which must pass. Each entry in
turn replaces its snippet, runs its test files with ``python -m pytest -x
-q`` at one BLAS thread (``OPENBLAS_NUM_THREADS=1``) on the copy, and
restores the file.
An entry is killed when pytest reports a failed test (exit status 1) and
survives when every test passes; any other status, such as a collection
error, is an error. One line per entry gives its outcome and seconds. The
exit status is 0 only when every entry is killed.
"""

from __future__ import annotations

import importlib.util
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
    """The entries of ``tests/mutants.py``."""
    spec = importlib.util.spec_from_file_location("mutant_table", TABLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


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


def main() -> int:
    mutants = load()
    problems = stale(mutants, ROOT / "src")
    if problems:
        print("\n".join(problems))
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", tree)
        files = sorted({t for m in mutants for t in m.tests})
        base = pytest(tree, files)
        if base.returncode != 0:
            print(base.stdout + base.stderr)
            print(f"error: the unchanged tree fails {' '.join(files)} (pytest exit status {base.returncode})")
            return 1
        failed = 0
        for m in mutants:
            path = tree / "src" / m.file
            original = path.read_text()
            path.write_text(original.replace(m.snippet, m.replacement))
            start = time.perf_counter()
            proc = pytest(tree, m.tests)
            path.write_text(original)
            result = {0: "SURVIVED", 1: "killed"}.get(proc.returncode, f"ERROR (pytest exit status {proc.returncode})")
            print(f"{result:<9} {time.perf_counter() - start:6.1f} s  {m.name}", flush=True)
            if proc.returncode != 1:
                failed += 1
                print(proc.stdout[-2000:] + proc.stderr[-2000:])
    print(f"{len(mutants) - failed} of {len(mutants)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
