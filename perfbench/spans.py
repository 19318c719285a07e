"""In-memory span recorder that times calls from outside the program.

A span is ``[name, start_ns, end_ns, parent, attrs]``: ``parent`` is the
index of the enclosing span (-1 for a root) and ``attrs`` is whatever the
wrapper's ``annotate`` hook returned for the call (None otherwise). Spans are
appended in start order, so a parent always precedes its children.
"""

from __future__ import annotations

import functools
import time


class SpanRecorder:
    """Replaces module attributes with timing wrappers and keeps the spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, annotate=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if annotate is not None:
                rec[4] = annotate(args, kwargs, result)
            return result

        return wrapper

    def patch(self, module, attr: str, name: str, annotate=None) -> None:
        """Wrap ``module.attr``; a name the module no longer has is listed in
        ``missing`` and simply records no calls."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, self.wrap(name, fn, annotate))


def self_times(spans: list) -> list[int]:
    """Duration of each span minus the part of it covered by its children.

    Children may overlap one another or stick out of their parent; only the
    union of their intervals clipped to the parent is subtracted.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        cursor = start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out.append(end - start - covered)
    return out


def subtree(spans: list, root: int) -> list[int]:
    """Indices of ``root`` and every span below it."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][3] in inside:
            inside.add(i)
    return sorted(inside)
