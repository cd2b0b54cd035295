"""Spans recorded around the program's public functions.

The benchmark never edits the program: a traced run replaces selected
attributes (methods, module-level functions) with wrappers that record
one span per call and then calls the original.  Untraced runs install
nothing.  Spans are kept in memory as tuples and written out once, at
exit, as JSON lines::

    {"name": ..., "start": ..., "end": ..., "parent": ..., "request": ...}

``parent`` is the index of the enclosing span in the same file (or
null).  The enclosing span is tracked with a context variable, so it
follows asyncio tasks and stays separate per thread.  ``request`` is
the id of the outermost span of the chain.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


_current: contextvars.ContextVar[tuple[int, int] | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)


class SpanRecorder:
    """In-memory span store plus per-name call counters."""

    def __init__(self) -> None:
        # (name, start, end, parent id, request id, span id)
        self.spans: list[tuple[str, float, float, int | None, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.values: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count()
        self._lock = threading.Lock()
        # Off while the benchmark calls wrapped functions for its own
        # reference computations, so those calls leave no spans.
        self.active = True

    # -- recording -----------------------------------------------------

    def _open(self) -> tuple[int, int | None, int, contextvars.Token]:
        span_id = next(self._ids)
        parent = _current.get()
        request = parent[1] if parent is not None else span_id
        token = _current.set((span_id, request))
        return span_id, None if parent is None else parent[0], request, token

    def _close(self, name, span_id, parent, request, token, start, end) -> None:
        _current.reset(token)
        with self._lock:
            self.spans.append((name, start, end, parent, request, span_id))

    @contextlib.contextmanager
    def paused(self):
        """Leave no spans for the calls made inside the block."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def value(self, name: str, amount: float) -> None:
        with self._lock:
            self.values[name].append(amount)

    # -- wrapping ------------------------------------------------------

    def wrap_callable(self, function, name: str, on_call=None):
        """A span-recording stand-in for ``function``."""
        recorder = self

        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def async_wrapper(*args, **kwargs):
                if not recorder.active:
                    return await function(*args, **kwargs)
                span_id, parent, request, token = recorder._open()
                start = time.perf_counter()
                try:
                    return await function(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    recorder._close(name, span_id, parent, request, token, start, end)
                    if on_call is not None:
                        on_call(args, kwargs, start, end)

            return async_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return function(*args, **kwargs)
            span_id, parent, request, token = recorder._open()
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                recorder._close(name, span_id, parent, request, token, start, end)
                if on_call is not None:
                    on_call(args, kwargs, start, end)

        return wrapper

    def wrap_counter(self, function, name: str):
        """A stand-in that only counts calls (for very hot functions)."""
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if recorder.active:
                recorder.counts[name] += 1  # called from one thread; no lock
            return function(*args, **kwargs)

        return wrapper

    def install(self, target: str, name: str, *, count_only: bool = False,
                on_call=None) -> None:
        """Wrap ``module:attr`` or ``module:Class.attr`` in place."""
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        function = raw.__func__ if isinstance(raw, classmethod) else raw
        wrapped = (
            self.wrap_counter(function, name) if count_only
            else self.wrap_callable(function, name, on_call)
        )
        setattr(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)

    # -- output --------------------------------------------------------

    def as_dicts(self) -> list[dict]:
        """Spans in recording order, ``parent`` as an index into the list."""
        index = {span[5]: position for position, span in enumerate(self.spans)}
        return [
            {"name": name, "start": start, "end": end,
             "parent": index.get(parent), "request": request}
            for name, start, end, parent, request, _ in self.spans
        ]

    def write(self, path: Path, extra: dict | None = None) -> None:
        """Write spans as JSON lines, then one trailer line of counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.as_dicts():
                out.write(json.dumps(span) + "\n")
            out.write(json.dumps({
                "counts": dict(self.counts),
                "values": dict(self.values),
                **(extra or {}),
            }) + "\n")


# ----------------------------------------------------------------------
# reading spans back
# ----------------------------------------------------------------------


def read_spans(path: Path) -> tuple[list[dict], dict]:
    """Spans and the trailer (counts, values, extras) of one span file."""
    lines = Path(path).read_text().splitlines()
    spans = [json.loads(line) for line in lines[:-1]]
    return spans, json.loads(lines[-1])


def durations(spans: list[dict], name: str) -> list[float]:
    return [span["end"] - span["start"] for span in spans if span["name"] == name]


def self_times(spans: list[dict], start: float | None = None,
               end: float | None = None) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, for the spans that
    start inside ``[start, end]`` (all spans when no window is given).

    Self time is a span's duration minus the part of it its direct
    children cover (children of one span do not overlap: they run in
    the span's own thread or task, one after another).
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            child_time[parent] += span["end"] - span["start"]
    table: dict[str, dict] = {}
    for position, span in enumerate(spans):
        if start is not None and not start <= span["start"] <= end:
            continue
        row = table.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = span["end"] - span["start"]
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += max(0.0, duration - child_time[position])
    return table
