"""In-memory span recorder and the module-attribute patching that feeds it.

Wrappers are installed on the name a caller resolves (``engine.run_update_cycle``
for ``run_sequence``, ``selection.kmeans`` for ``select_kmeans``), so the
program under test is timed from outside and never edited.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

clock = time.perf_counter


class Recorder:
    """Spans (name, start, end, parent) plus named counters, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, child_time]
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), None, parent, 0.0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = clock()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {span[0]} closed out of order")
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, key: str, value: int = 1) -> None:
        self.counters[key] += value

    def wrap(self, name, fn, counter=None):
        """``fn`` inside a span; ``name`` may be a callable of the call's args.

        ``counter(rec, args, kwargs, result)`` runs after the span closes.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name(args, kwargs) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                counter(self, args, kwargs, out)
            return out

        return wrapper

    # -- summaries ---------------------------------------------------------

    def busy(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def self_time(self, name: str) -> float:
        return sum(s[2] - s[1] - s[4] for s in self.spans if s[0] == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def self_sum_error(self) -> float:
        """|sum of every span's self time - root duration|; 0 up to rounding."""
        roots = [s for s in self.spans if s[3] < 0]
        if len(roots) != 1:
            raise RuntimeError(f"expected one root span, found {len(roots)}")
        root = roots[0]
        total_self = sum(s[2] - s[1] - s[4] for s in self.spans)
        return abs(total_self - (root[2] - root[1]))

    def dump(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "spans": [
                {"name": n, "start": s - t0, "end": e - t0, "parent": p}
                for n, s, e, p, _ in self.spans
            ],
            "counters": dict(self.counters),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


class Patches:
    """Module-attribute replacements, undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, make):
        """Replace ``owner.attr`` by ``make(current)``."""
        current = getattr(owner, attr)
        self._saved.append((owner, attr, current))
        setattr(owner, attr, make(current))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def arg(args, kwargs, pos: int, name: str):
    """A call argument given either by position or by keyword."""
    return args[pos] if len(args) > pos else kwargs[name]
