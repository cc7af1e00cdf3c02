"""In-memory span recording around the Kona runtime's layer entry points.

:func:`instrument` replaces each layer's public entry point with a
wrapper that records one span per call — name, start, end, parent and
run id — and puts every original attribute back on exit, even when the
wrapped run raises.  Spans stay in memory until the benchmark writes
them out.  :func:`self_times` turns a span list into per-span self
time: a span's duration minus the part of its interval that its child
spans cover.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

#: Span-stack marker for "no parent".
NO_PARENT = -1

#: Synthetic span covering the consumer's work on one streamed chunk
#: (from the chunk iterator's ``yield`` to its next resumption).
CHUNK_SPAN = "stream.chunk"

#: Span recorded for each pull from the columnar chunk iterator.
READ_SPAN = "trace.read"


class SpanRecorder:
    """Spans of one benchmark process, as ``[name, start_ns, end_ns,
    parent_index, run_id]`` rows; ``parent_index`` indexes ``spans``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.run_id = 0
        #: Entry points :func:`instrument` could not find, by span name.
        self.missing: List[str] = []
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else NO_PARENT
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self.run_id])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        """End span ``index`` and drop it (and anything left open above
        it by an exception) from the stack.  Closing twice is a no-op."""
        if index not in self._stack:
            return
        now = time.perf_counter_ns()
        at = self._stack.index(index)
        for open_index in self._stack[at:]:
            self.spans[open_index][2] = now
        del self._stack[at:]

    def wrap(self, name: str, fn):
        """A call-through wrapper of ``fn`` that records span ``name``."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_chunks(fn)

        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return wrapper

    def _wrap_chunks(self, fn):
        """Wrap a chunk generator: each pull is a :data:`READ_SPAN`, and
        the consumer's work on each chunk is a :data:`CHUNK_SPAN`, so
        layer calls made while a chunk is processed nest under it."""

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                read = self.open(READ_SPAN)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.close(read)
                chunk = self.open(CHUNK_SPAN)
                try:
                    yield item
                finally:
                    self.close(chunk)
        return wrapper


def layer_entry_points() -> List[Tuple[object, str, str]]:
    """``(owner class, attribute, span name)`` for every wrapped layer
    entry point.  :func:`instrument` skips (and records in
    ``SpanRecorder.missing``) any the program no longer has."""
    from repro.coherence.vectorized import VectorizedCoherentCache
    from repro.kona import engine
    from repro.kona.eviction import EvictionHandler
    from repro.kona.runtime import KonaRuntime
    from repro.workloads.trace import ColumnarTrace

    lane = getattr(engine, "_FusedLane", None)
    return [
        (KonaRuntime, "run_trace", "runtime.run_trace"),
        (KonaRuntime, "run_trace_stream", "runtime.run_trace_stream"),
        (KonaRuntime, "maybe_evict", "runtime.maybe_evict"),
        (VectorizedCoherentCache, "from_scalar", "front.from_scalar"),
        (VectorizedCoherentCache, "export_to", "front.export_to"),
        (VectorizedCoherentCache, "classify", "front.classify"),
        (VectorizedCoherentCache, "bulk_hits", "front.bulk_hits"),
        (lane, "drain_page", "engine.drain_page"),
        (lane, "flush", "engine.flush"),
        (EvictionHandler, "evict_page", "eviction.evict_page"),
        (EvictionHandler, "flush_node", "eviction.flush_node"),
        (ColumnarTrace, "iter_chunks", READ_SPAN),
    ]


@contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every layer entry point for the duration of the ``with``
    block, then restore the originals."""
    saved: List[Tuple[object, str, object]] = []
    try:
        for owner, attr, name in layer_entry_points():
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                recorder.missing.append(name)
                continue
            saved.append((owner, attr, raw))
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr,
                        type(raw)(recorder.wrap(name, raw.__func__)))
            else:
                setattr(owner, attr, recorder.wrap(name, raw))
        yield recorder
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def self_times(spans: List[list]) -> List[int]:
    """Self time (ns) of every span: its duration minus the union of
    its children's intervals, each clipped to the parent's interval."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for row in spans:
        parent = row[3]
        if parent != NO_PARENT:
            children.setdefault(parent, []).append((row[1], row[2]))
    out = []
    for index, row in enumerate(spans):
        start, end = row[1], row[2]
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out
