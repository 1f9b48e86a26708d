"""``tools/reach.py`` finds the executable lines of a module that a run
did not reach, on this thread and on threads the run starts, and marks
those under a ``__main__`` guard."""

import importlib.util
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

SNIPPET = '''import sys


def f(x):
    """A docstring has no instruction."""
    if x:
        return 1
    return 2


class A:
    y = 1


if __name__ == "__main__":
    sys.exit(f(0))
'''


def _load(path):
    spec = importlib.util.spec_from_file_location("reach_snippet", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_executable_lines_and_the_main_guard():
    assert reach.executable_lines(SNIPPET) == {1, 4, 6, 7, 8, 11, 12, 15, 16}
    assert reach.main_guard_lines(SNIPPET) == {15, 16}


def test_lines_a_run_did_not_reach(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET)
    before = sys.gettrace()
    module, hits = reach.traced([path], lambda: _load(path))
    assert reach.unreached(path, hits[path]) == [(6, "if x:", False), (7, "return 1", False),
                                                 (8, "return 2", False), (16, "sys.exit(f(0))", True)]
    _, hits = reach.traced([path], lambda: module.f(1))
    assert hits[path] == {6, 7}
    assert sys.gettrace() is before  # the caller's trace is back


def test_a_thread_the_run_starts_is_traced(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET)
    module = _load(path)

    def run():
        t = threading.Thread(target=module.f, args=(0,))
        t.start()
        t.join()

    _, hits = reach.traced([path], run)
    assert hits[path] == {6, 8}
