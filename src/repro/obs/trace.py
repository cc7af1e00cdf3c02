"""Sim-clock span tracing: nested spans, instants, counter series.

The tracer records Chrome-trace-style events against the *simulated*
clock.  Two realities of this codebase shape the design:

* Components usually **compute** a latency and return it instead of
  advancing the shared clock (the runtime bills stalls to an
  :class:`~repro.common.clock.Account`).  A naive tracer would collapse
  every span to zero width at the same timestamp.  The tracer therefore
  keeps a **cursor**: a monotone virtual timeline that starts at the
  sim clock, advances by every explicitly-charged duration, and snaps
  forward whenever the real clock overtakes it.  Spans opened while a
  parent is live start at the parent's cursor, so charged child costs
  lay out sequentially inside the parent — a readable flame graph even
  when the clock is frozen.

* Tracing must be **near-zero cost when disabled**: ``span()`` returns
  a shared no-op singleton and ``instant``/``emit`` return immediately,
  so a disabled tracer costs one attribute check per call site.

Events are bounded by ``max_events``; once full, new events are counted
as dropped rather than recorded, so a runaway campaign cannot eat the
heap.

Hot loops that cannot afford a ``Span`` per event stage plain rows
instead and hand them over in bulk: :meth:`Tracer.record_fills` turns
staged demand-fill rows into exactly the events the span API would have
recorded, applying the same cursor rule and ``max_events`` limit, so the
event format stays defined here.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Optional

from ..common import units
from ..common.clock import SimClock

#: One trace event, Chrome trace-event flavoured, timestamps in ns.
Event = Dict[str, Any]

#: Row kinds of :meth:`Tracer.record_fills`: a demand fill served from
#: FMem or from a memory node, or a coherence instant.
ROW_FMEM_FILL = 0
ROW_REMOTE_FILL = 1
ROW_WRITEBACK = 2
ROW_UPGRADE = 3

_INSTANT_NAMES = {ROW_WRITEBACK: "coherence.writeback",
                  ROW_UPGRADE: "coherence.upgrade"}

#: The demand-fill event format, for every path that records one
#: (:meth:`Tracer.fill_span`/:meth:`Tracer.fill_child` and
#: :meth:`Tracer.record_fills`): a ``fetch.fill`` span with args
#: ``line`` and ``critical_ns`` around one child, the ``fetch.fmem_hit``
#: of an FMem hit or the ``rdma.read`` (args ``node``, ``nbytes``) of a
#: remote fetch.
_FILL = ("fetch.fill", "fetch")
_FILL_CHILD = {ROW_FMEM_FILL: ("fetch.fmem_hit", "fetch"),
               ROW_REMOTE_FILL: ("rdma.read", "rdma")}

#: A demand fill's critical-path read is one cache line.
_LINE_BYTES = units.CACHE_LINE


class _NullSpan:
    """Shared no-op span handed out by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def extend(self, ns: float) -> None:
        """No-op."""

    def set(self, **args: Any) -> None:
        """No-op."""


NULL_SPAN = _NullSpan()


class Span:
    """One live span; close it by exiting the ``with`` block."""

    __slots__ = ("_tracer", "name", "cat", "args", "start_ns",
                 "cursor", "_extra_ns")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 args: Optional[Dict[str, Any]]) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self.start_ns = 0.0
        self.cursor = 0.0       # where the next child starts
        self._extra_ns = 0.0

    def extend(self, ns: float) -> None:
        """Charge ``ns`` of duration not visible on the sim clock."""
        if ns > 0:
            self._extra_ns += ns

    def set(self, **args: Any) -> None:
        """Attach (or update) argument key/values on the span."""
        if self.args is None:
            self.args = {}
        self.args.update(args)

    def __enter__(self) -> "Span":
        self.start_ns = self._tracer._open(self)
        self.cursor = self.start_ns
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer._close(self)


class Tracer:
    """Records spans and instants on a simulated timeline."""

    def __init__(self, clock: Optional[SimClock] = None,
                 enabled: bool = False, max_events: int = 500_000) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.enabled = enabled
        self.max_events = max_events
        self.events: List[Event] = []
        self.dropped = 0
        self._stack: List[Span] = []
        self._cursor = 0.0

    # -- lifecycle ---------------------------------------------------------------

    def enable(self) -> None:
        """Start recording."""
        self.enabled = True

    def disable(self) -> None:
        """Stop recording (already-recorded events are kept)."""
        self.enabled = False

    def clear(self) -> None:
        """Drop all recorded events and reset the drop counter."""
        self.events.clear()
        self.dropped = 0
        self._stack.clear()

    # -- timeline ----------------------------------------------------------------

    def _now(self) -> float:
        """Current virtual time: sim clock, floored by the cursor."""
        cursor = self._stack[-1].cursor if self._stack else self._cursor
        now = self.clock.now
        return now if now > cursor else cursor

    def _advance(self, to_ns: float) -> None:
        if self._stack:
            if to_ns > self._stack[-1].cursor:
                self._stack[-1].cursor = to_ns
        elif to_ns > self._cursor:
            self._cursor = to_ns

    def _record(self, event: Event) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    # -- span API ----------------------------------------------------------------

    def span(self, name: str, cat: str = "",
             **args: Any):
        """Open a span as a context manager (no-op when disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, cat, args or None)

    def _open(self, span: Span) -> float:
        start = self._now()
        self._stack.append(span)
        return start

    def _close(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        end = max(self.clock.now, span.cursor,
                  span.start_ns + span._extra_ns)
        event: Event = {"name": span.name, "cat": span.cat or "span",
                        "ph": "X", "ts": span.start_ns,
                        "dur": end - span.start_ns}
        if span.args:
            event["args"] = dict(span.args)
        self._record(event)
        self._advance(end)

    def emit(self, name: str, dur_ns: float, cat: str = "",
             **args: Any) -> None:
        """Record a complete child span of ``dur_ns`` at the cursor."""
        if not self.enabled:
            return
        start = self._now()
        event: Event = {"name": name, "cat": cat or "span", "ph": "X",
                        "ts": start, "dur": max(dur_ns, 0.0)}
        if args:
            event["args"] = args
        self._record(event)
        self._advance(start + max(dur_ns, 0.0))

    def instant(self, name: str, cat: str = "", **args: Any) -> None:
        """Record an instant event at the current virtual time."""
        if not self.enabled:
            return
        event: Event = {"name": name, "cat": cat or "instant", "ph": "i",
                        "ts": self._now(), "s": "p"}
        if args:
            event["args"] = args
        self._record(event)

    def counter(self, name: str, **values: float) -> None:
        """Record a counter sample (a time-series point in the UI)."""
        if not self.enabled:
            return
        self._record({"name": name, "cat": "counter", "ph": "C",
                      "ts": self._now(), "args": dict(values)})

    def fill_span(self, line: int):
        """The span of one demand fill of ``line``, to be entered; see
        :meth:`charge_fill` and :meth:`fill_child`."""
        name, cat = _FILL
        return self.span(name, cat, line=line)

    @staticmethod
    def charge_fill(span, cost: float) -> None:
        """Charge an open fill span its critical-path ``cost``."""
        span.extend(cost)
        span.set(critical_ns=round(cost, 1))

    def fill_child(self, kind: int, node: Optional[str], read_ns: float,
                   cost: float) -> None:
        """Record the open fill span's child: an FMem hit of ``cost``
        (:data:`ROW_FMEM_FILL`) or a line read of ``read_ns`` from
        memory node ``node`` (:data:`ROW_REMOTE_FILL`)."""
        name, cat = _FILL_CHILD[kind]
        if kind == ROW_FMEM_FILL:
            self.emit(name, cost, cat)
        else:
            self.emit(name, read_ns, cat, node=node, nbytes=_LINE_BYTES)

    def record_fills(self, rows: List[tuple]) -> None:
        """Record staged demand-fill rows as the events the per-event
        path records for them, in row order.

        A row is ``(kind, line, node, read_ns, cost, now)`` at sim time
        ``now``: a ``fetch.fill`` span of critical cost ``cost`` with
        its ``fetch.fmem_hit`` child (``kind`` :data:`ROW_FMEM_FILL`)
        or its ``rdma.read`` child of ``read_ns`` from memory node
        ``node`` (:data:`ROW_REMOTE_FILL`), or a
        ``coherence.writeback``/``coherence.upgrade`` instant.  The
        result — events, timestamps, cursor, ``max_events`` drops — is
        exactly what ``span``/``emit``/``instant`` would leave, provided
        no other event was recorded between the rows.
        """
        outer = self._stack[-1] if self._stack else None
        cursor = outer.cursor if outer is not None else self._cursor
        out: List[Event] = []
        append = out.append
        # Fill costs, and so the spans' durations and rounded costs,
        # take few distinct values: events share one float object per
        # value instead of holding a private copy each.
        share = {}.setdefault
        rounded: Dict[float, float] = {}
        fill_name, fill_cat = _FILL
        hit_name, hit_cat = _FILL_CHILD[ROW_FMEM_FILL]
        read_name, read_cat = _FILL_CHILD[ROW_REMOTE_FILL]
        for kind, line, node, read_ns, cost, now in rows:
            # ``max`` spelled out (it keeps the first of equal values).
            start = now if now > cursor else cursor
            # The child is emitted at the open span's cursor (``start``)
            # and advances it; the span closes at the furthest of the
            # clock (never past ``start``), that cursor and its charged
            # cost — ``start`` plus the larger of the two durations, as
            # float addition is monotonic.
            if kind == ROW_FMEM_FILL:
                dur = 0.0 if 0.0 > cost else cost
                append({"name": hit_name, "cat": hit_cat,
                        "ph": "X", "ts": start, "dur": dur})
            elif kind == ROW_REMOTE_FILL:
                dur = share(read_ns, 0.0 if 0.0 > read_ns else read_ns)
                append({"name": read_name, "cat": read_cat, "ph": "X",
                        "ts": start, "dur": dur,
                        "args": {"node": node, "nbytes": _LINE_BYTES}})
            else:
                append({"name": _INSTANT_NAMES[kind], "cat": "coherence",
                        "ph": "i", "ts": start, "s": "p",
                        "args": {"line": line}})
                continue
            charged = 0.0 + cost if cost > 0 else 0.0
            cursor = start + (charged if charged > dur else dur)
            dur = cursor - start
            critical = rounded.get(cost)
            if critical is None:
                critical = rounded[cost] = round(cost, 1)
            append({"name": fill_name, "cat": fill_cat, "ph": "X",
                    "ts": start, "dur": share(dur, dur),
                    "args": {"line": line, "critical_ns": critical}})
        if outer is not None:
            outer.cursor = cursor
        else:
            self._cursor = cursor
        room = max(self.max_events - len(self.events), 0)
        self.events.extend(out[:room])
        self.dropped += max(len(out) - room, 0)

    def flow(self, name: str, flow_id: int, phase: str = "s",
             cat: str = "flow", ts: Optional[float] = None,
             **args: Any) -> None:
        """Record a flow event (Chrome ``s``/``t``/``f`` arrows).

        Flow events with the same ``flow_id`` render as arrows between
        the enclosing slices across tracks — the cross-component
        correlation primitive.  ``phase`` is ``s`` (start), ``t``
        (step) or ``f`` (finish); ``ts`` overrides the virtual clock
        when replaying a known timeline (e.g. fleet fault chains).
        """
        if not self.enabled:
            return
        if phase not in ("s", "t", "f"):
            raise ValueError(f"flow phase must be s/t/f, got {phase!r}")
        event: Event = {"name": name, "cat": cat, "ph": phase,
                        "ts": self._now() if ts is None else ts,
                        "id": int(flow_id)}
        if phase == "f":
            event["bp"] = "e"
        if args:
            event["args"] = args
        self._record(event)


def traced(name: Optional[str] = None, cat: str = "",
           attr: str = "tracer") -> Callable:
    """Decorator: wrap a method in a span from ``self.<attr>``.

    The wrapped object may have no tracer (or a disabled one); the
    call then runs undecorated at the cost of one attribute lookup.
    """
    def decorator(fn: Callable) -> Callable:
        span_name = name if name is not None else fn.__qualname__

        @functools.wraps(fn)
        def wrapper(self, *args: Any, **kwargs: Any):
            tracer = getattr(self, attr, None)
            if tracer is None or not tracer.enabled:
                return fn(self, *args, **kwargs)
            with tracer.span(span_name, cat):
                return fn(self, *args, **kwargs)
        return wrapper
    return decorator
