"""Spans recorded from outside the program, around calls into its layers.

The benchmark never edits the package it measures: :class:`Tracer`
replaces a public function or method of a layer with a wrapper that
records one span per call (name, start, end, parent span) and restores
the original when the traced phase ends. Spans stay in memory; a layer's
metrics are derived from them afterwards (:meth:`Tracer.summary`).

Timed runs never install a tracer, so end-to-end metrics carry no
tracing cost; the traced run reports the cost it added
(:func:`per_call_overhead_s`).
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Union

_MISSING = object()


class Tracer:
    """Records spans around wrapped calls; :meth:`restore` unwraps all."""

    def __init__(self) -> None:
        #: ``[name, start_s, end_s, parent_index]`` per call, in call order.
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    def wrap(self, owner, attr: str, name: Union[str, Callable]) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call.

        ``name`` may be a callable ``(args, kwargs) -> str`` that picks
        the span name per call (e.g. a dense or a sparse tick).
        """
        original = getattr(owner, attr)
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = len(spans)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back as it was."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def summary(self, first: int = 0) -> dict:
        """``name -> {"count", "total_s", "self_s"}`` over the spans from
        index ``first`` on (all spans by default).

        Self time is a span's duration minus the time its direct child
        spans cover.
        """
        spans = self.spans[first:]
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= first:
                child_s[parent - first] += end - start
        out: dict = {}
        for (name, start, end, _), children in zip(spans, child_s):
            row = out.setdefault(name, {"count": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - children
        return out

    def outermost_s(self, names: set) -> float:
        """Time in spans named in ``names`` not nested in another of them."""
        total = 0.0
        for name, start, end, parent in self.spans:
            if name not in names:
                continue
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total += end - start
        return total


def per_call_overhead_s(calls: int = 20000) -> float:
    """Median extra host time one wrapped call costs over a plain call."""

    class _Probe:
        @staticmethod
        def noop():
            return None

    def loop_s() -> float:
        fn = _Probe.noop
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - start

    samples = []
    for _ in range(5):
        plain = loop_s()
        with Tracer() as tracer:
            tracer.wrap(_Probe, "noop", "probe")
            wrapped = loop_s()
        samples.append(max(0.0, wrapped - plain) / calls)
    samples.sort()
    return samples[len(samples) // 2]
