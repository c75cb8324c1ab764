"""Spans around entrobench's public functions, recorded from outside.

``Tracer.wrap`` replaces a function where a calling module has bound it
(``harness.register``, ``registration.mi_objective``) with a wrapper
that records one span per call: name, start, end, parent span and the
id of the operation it belongs to.  Spans stay in memory until
``dump``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

NAME, START, END, PARENT, OP, PHASE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self.phase = "setup"
        self.op = -1
        self._stack: list[int] = []
        self._next_op = 0

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, self.phase])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, module, attr: str, name: str, before=None, after=None,
             new_op: bool = False) -> None:
        """Trace ``module.attr`` as span ``name``.

        ``before(args, kwargs)`` returns the kwargs to call with;
        ``after(args, kwargs, result)`` sees every result.  Both run
        inside the span, and only while tracing is enabled.  With
        ``new_op`` each call starts a new operation id, which the spans
        inside it share.
        """
        fn = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            outer_op = tracer.op
            if new_op:
                tracer.op = tracer._next_op
                tracer._next_op += 1
            idx = tracer._open(name)
            try:
                if before is not None:
                    kwargs = before(args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                tracer._close(idx)
                tracer.op = outer_op

        setattr(module, attr, traced)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "phase"],
                       "spans": self.spans}, f, separators=(",", ":"))


def layer_times(spans) -> dict[tuple[str, str], list[float]]:
    """Per (phase, name): [total time, self time, call count].

    Self time is a span's duration minus that of its direct children;
    spans nest on one thread, so children never overlap.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out: dict[tuple[str, str], list[float]] = {}
    for i, s in enumerate(spans):
        d = s[END] - s[START]
        acc = out.setdefault((s[PHASE], s[NAME]), [0.0, 0.0, 0])
        acc[0] += d
        acc[1] += d - child[i]
        acc[2] += 1
    return out
