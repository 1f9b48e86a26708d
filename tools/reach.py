"""Report the lines of ``src/selfgallery`` that no tier-1 test reaches.

    python tools/reach.py

Run from the repository root. It runs tier-1 in this process (``pytest -q
--continue-on-collection-errors``, ``src`` first on the path) under a line
trace, set by ``sys.settrace`` for this thread and ``threading.settrace``
for every thread started after it, that records each line the package's
modules execute. A module's executable lines are the lines its compiled
code objects, nested ones included, map an instruction to (``co_lines``).
It prints every executable line no test reached, with its text. The exit
status is 1 when pytest fails, or when an unreached line lies outside an
``if __name__ == "__main__":`` block, such as ``cli.py``'s
``sys.exit(main())``, which only running the module as a script reaches.
Lines reached only in a child process are not seen.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "selfgallery"


def executable_lines(source: str, filename: str = "<module>") -> set[int]:
    """The lines of ``source`` that some instruction of its compiled code
    objects maps to."""
    lines, todo = set(), [compile(source, filename, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main_guard_lines(source: str) -> set[int]:
    """The lines of the module's ``if __name__ == "__main__":`` blocks."""
    return {
        line
        for node in ast.parse(source).body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        for line in range(node.lineno, node.end_lineno + 1)
    }


def traced(paths, run):
    """``run()``'s result and, for each file of ``paths``, the set of its
    lines executed while it ran, on any thread the trace reaches."""
    hits = {os.path.realpath(p): set() for p in paths}
    seen = {}  # code filename -> its set in hits, or None

    def lines(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            seen[name] = hits.get(os.path.realpath(name))
        return lines if seen[name] is not None else None

    before = sys.gettrace(), threading.gettrace()
    sys.settrace(calls)
    threading.settrace(calls)
    try:
        result = run()
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])
    return result, {p: hits[os.path.realpath(p)] for p in paths}


def unreached(path, hit: set[int]) -> list[tuple[int, str, bool]]:
    """Each executable line of the file at ``path`` outside ``hit``: its
    number, its text and whether a ``__main__`` guard holds it."""
    source = Path(path).read_text()
    text, guard = source.splitlines(), main_guard_lines(source)
    return [(n, text[n - 1].strip(), n in guard) for n in sorted(executable_lines(source, str(path)) - hit)]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    paths = sorted(PACKAGE.glob("*.py"))
    status, hits = traced(paths, lambda: pytest.main(["-q", "--continue-on-collection-errors"]))
    missed = [(p, *line) for p in paths for line in unreached(p, hits[p])]
    print(f"{len(missed)} executable lines of {len(paths)} modules that no test reached:")
    for path, n, text, guarded in missed:
        print(f"  {path.relative_to(ROOT)}:{n}: {text}" + ("  (under the __main__ guard)" if guarded else ""))
    if status != 0:
        print(f"error: pytest exited with status {status}")
    return 1 if status != 0 or any(not guarded for *_, guarded in missed) else 0


if __name__ == "__main__":
    sys.exit(main())
