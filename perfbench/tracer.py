"""In-memory span tracer that wraps public package attributes from outside.

A span is ``[name, start, end, parent]`` where ``parent`` indexes the span
that was open when the call began (-1 for none).  The program is
single-threaded, so spans nest strictly and a span's self time is its
duration minus the durations of its direct children.  Every wrapper is
removed again by :meth:`Tracer.unwrap_all`, which reports any attribute it
could not restore.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name, count=None) -> bool:
        """Replace ``owner.attr`` by a recording wrapper.

        ``name`` is a span name or a function of the call's arguments that
        returns one; ``count``, if given, maps the arguments to a dict of
        counter increments.  Returns False when the attribute does not exist.
        """
        original = vars(owner).get(attr)
        if original is None:
            return False
        namer = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if count is not None:
                self.counts.update(count(*args, **kwargs))
            idx = self._open(namer(*args, **kwargs))
            try:
                return original(*args, **kwargs)
            finally:
                self._close(idx)

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))
        return True

    def unwrap_all(self) -> list[str]:
        """Restore every wrapped attribute; return those left changed."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        changed = [f"{owner.__name__}.{attr}" for owner, attr, original in self._patched
                   if vars(owner).get(attr) is not original]
        self._patched.clear()
        return changed

    @contextlib.contextmanager
    def root(self, name: str):
        """Span that covers the traced region."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Self seconds and call counts per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        seconds: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            seconds[name] += (end - start) - covered[i]
            calls[name] += 1
        return dict(seconds), calls

    def children_of(self, parent_name: str, child_prefix: str) -> int:
        """Number of spans named ``child_prefix...`` whose parent is ``parent_name``."""
        n = 0
        for name, _, _, parent in self.spans:
            if parent >= 0 and name.startswith(child_prefix) \
                    and self.spans[parent][0] == parent_name:
                n += 1
        return n
