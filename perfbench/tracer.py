"""In-memory spans and counters recorded around calls into the program.

The tracer replaces module or class attributes with wrappers for the length
of one traced run and puts the originals back afterwards. A timed wrapper
records a span (name, start, end, parent, trace id); a counted wrapper only
bumps a counter, because timing a sub-microsecond call costs more than the
call itself.

Counts are charged to the innermost open span and, when a span ends, folded
into its parent. ``inclusive[(span, counter)]`` therefore holds how often
``counter`` happened anywhere below spans named ``span``. Every finished
span also counts itself in its parent, so ``inclusive[("agents.run_episode",
"mdp.step")]`` is the number of steps taken inside episodes. ``totals`` holds
every count wherever it was made.
"""

from __future__ import annotations

import itertools
import threading
from time import perf_counter
from typing import Any, Callable, Optional

# Finished child spans kept verbatim; root spans are always kept, and the
# aggregates cover every span.
SPAN_KEEP_LIMIT = 20000


class _Span:
    __slots__ = ("name", "trace_id", "span_id", "parent_id", "child_s", "counts")

    def __init__(self, name: str, trace_id: int, span_id: int, parent_id: Optional[int]):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.child_s = 0.0
        self.counts: dict[str, float] = {}


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []
        # span name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list[float]] = {}
        # (enclosing span name, counter name) -> count
        self.inclusive: dict[tuple[str, str], float] = {}
        # counter name -> count over the whole run
        self.totals: dict[str, float] = {}
        # (trace id, span id, parent id, name, start, end)
        self.spans: list[tuple] = []

    # -- installing wrappers -------------------------------------------------

    def timed(
        self,
        owner: Any,
        attr: str,
        name: str,
        label: Optional[Callable[..., str]] = None,
        on_result: Optional[Callable[..., None]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``label(*args, **kwargs)`` appends a suffix to the span name, for
        example the problem size; ``on_result(tracer, result, *args,
        **kwargs)`` may add counts from the return value.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name if label is None else f"{name}.{label(*args, **kwargs)}"
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            span = _Span(
                span_name,
                parent.trace_id if parent else span_id,
                span_id,
                parent.span_id if parent else None,
            )
            stack.append(span)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._finish(span, start, end, parent)
            if on_result is not None:
                on_result(tracer, result, *args, **kwargs)
            return result

        self._patch(owner, attr, original, wrapper)

    def counted(self, owner: Any, attr: str, name: str) -> None:
        """Count every call of ``owner.attr`` without timing it."""
        original = getattr(owner, attr)
        local, count = self._local, self.count

        def wrapper(*args, **kwargs):
            # Inlined fast path of ``count``: these calls run ~1e5 times per solve.
            stack = getattr(local, "stack", None)
            if stack:
                counts = stack[-1].counts
                counts[name] = counts.get(name, 0) + 1
            else:
                count(name)
            return original(*args, **kwargs)

        self._patch(owner, attr, original, wrapper)

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Callable) -> None:
        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original attribute back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        stack = self._stack()
        if stack:
            counts = stack[-1].counts
            counts[name] = counts.get(name, 0) + amount
        else:
            with self._lock:
                self.totals[name] = self.totals.get(name, 0) + amount

    def _finish(self, span: _Span, start: float, end: float, parent: Optional[_Span]) -> None:
        duration = end - start
        if parent is not None:
            parent.child_s += duration
            counts = parent.counts
            counts[span.name] = counts.get(span.name, 0) + 1
            for key, value in span.counts.items():
                counts[key] = counts.get(key, 0) + value
        with self._lock:
            row = self.stats.get(span.name)
            if row is None:
                row = self.stats[span.name] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += duration
            row[2] += duration - span.child_s
            for key, value in span.counts.items():
                self.inclusive[(span.name, key)] = self.inclusive.get((span.name, key), 0) + value
            if parent is None:
                for key, value in span.counts.items():
                    self.totals[key] = self.totals.get(key, 0) + value
            if parent is None or len(self.spans) < SPAN_KEEP_LIMIT:
                self.spans.append(
                    (span.trace_id, span.span_id, span.parent_id, span.name, start, end)
                )

    # -- reading -----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates in a JSON-ready form, for a child process to hand back."""
        with self._lock:
            return {
                "stats": {k: list(v) for k, v in self.stats.items()},
                "inclusive": [[a, b, v] for (a, b), v in self.inclusive.items()],
                "totals": dict(self.totals),
            }

    def merge(self, snap: dict) -> None:
        """Add another tracer's snapshot into this one."""
        with self._lock:
            for name, (calls, total, self_s) in snap["stats"].items():
                row = self.stats.setdefault(name, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += total
                row[2] += self_s
            for span_name, counter, value in snap["inclusive"]:
                key = (span_name, counter)
                self.inclusive[key] = self.inclusive.get(key, 0) + value
            for name, value in snap["totals"].items():
                self.totals[name] = self.totals.get(name, 0) + value
